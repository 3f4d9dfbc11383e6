"""Command-line front end.

Subcommands wrap the library: support/gauge evaluations on a scenario,
witness construction for a target state, the verification battery, and the
CSV reports (critical-noise table, containment radii, noise sweeps). Every
report goes through one emitter, which renders it as json, csv or text.
`main` builds its parser once per process, on the first call, and looks
up the `cmd_<command>` function by name on each call.

Scenario files are JSON with keys "A" and "B" (row lists of Bloch
directions), optional "Z" and "C" (m x m matrices), and an optional
"state": one of "werner:p", "tau:p", "rho_max", a Pauli-form dict
{"weight", "ra", "rb", "t"}, or a dense 4 x 4 matrix whose entries are
[re, im] pairs. Rows of A and B are renormalized when they are within 1e-3
of unit length and rejected otherwise. Non-finite numbers (NaN, Infinity,
a float literal that overflows, an integer too large for a float) and
non-numeric entries (null, objects, strings) and ragged or over-deep
arrays in A, B, Z, C and the state are rejected, naming the key. So is a
file nested too deeply to parse.

Every subcommand accepts --seed, but only `verify` draws random numbers
from it. The others compute no random quantity: they echo the seed in the
json payload, the csv header and the text footer, and their results are
the same at every seed.

`support` and `gauge` print the singular values and determinant sign of the
frame or core behind the value, from the same factorization the value was
read from. Sign 0 means it is singular within rounding (s3 <= 8 eps s1, as
at every rank r < 3), so it has no orientation. The gauge of a C outside
the settings' ranges is infinite; its report still shows the core.

Commands run with numpy's overflow and invalid-value warnings off: a frame
or core that overflows is caught by its own check, so an input error writes
exactly one `error:` line to stderr and no numpy warning.

`verify --format json` writes a non-finite worst deviation (a NaN, which
fails its check) as null, so the document stays strict JSON; the text report
prints it as nan.

Exit codes: 0 on success, 1 when verification fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import detect, geometry, selfcheck, twoqubit
from ._version import __version__
from .geometry import MeasurementSettings
# pinv is unused here; bench/test_bench.py checks that its tracer rebinds cli.pinv.
from .smallmat import pinv  # noqa: F401

_ROW_REJECT_TOL = 1e-3
_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_complex(v) -> str:
    return f"{v.real:.12g}{v.imag:+.12g}j"


@dataclass
class Scenario:
    name: str
    settings: MeasurementSettings
    z: np.ndarray | None = None
    c: np.ndarray | None = None
    state: np.ndarray | None = None

    def coefficient(self) -> np.ndarray:
        if self.z is None:
            raise ValueError(f"scenario {self.name!r} provides no coefficient matrix Z")
        return self.z

    def correlation(self) -> np.ndarray:
        if self.c is not None:
            return self.c
        if self.state is not None:
            return geometry.correlation_matrix(self.state, self.settings)
        raise ValueError(f"scenario {self.name!r} provides neither C nor a state")


def parse_state(value):
    """Resolve a state description from a scenario file or --state flag."""
    if isinstance(value, str):
        if value == "rho_max":
            return twoqubit.rho_max()
        head, sep, tail = value.partition(":")
        if sep and head in ("werner", "tau"):
            p = float(tail)
            return twoqubit.werner_state(p) if head == "werner" else twoqubit.tau_state(p)
        raise ValueError(f"unknown state {value!r}; use werner:p, tau:p or rho_max")
    if isinstance(value, dict):
        missing = {"ra", "rb", "t"} - set(value)
        if missing:
            raise ValueError(f"Pauli-form state is missing {sorted(missing)}")
        weight, ra, rb, t = (_float_array(value.get(key, 1.0), key)
                             for key in ("weight", "ra", "rb", "t"))
        if weight.shape != () or ra.shape != (3,) or rb.shape != (3,) or t.shape != (3, 3):
            raise ValueError("Pauli-form state needs 3-vectors ra and rb, a 3x3 t and a number "
                             f"weight, got {ra.shape}, {rb.shape}, {t.shape}, {weight.shape}")
        return twoqubit.pauli_assemble(twoqubit.PauliForm(float(weight), ra, rb, t))
    dense = _float_array(value, "state")
    if dense.shape == (4, 4, 2):
        return dense[..., 0] + 1j * dense[..., 1]
    if dense.shape == (4, 4):
        return dense.astype(complex)
    raise ValueError("dense states must be 4x4 with real or [re, im] entries")


def _float_array(value, key: str) -> np.ndarray:
    """A scenario entry as a float array; a non-finite, overflowing,
    non-numeric, ragged or over-deep entry is an error naming key."""
    try:
        array = np.asarray(value, dtype=float)
    except ValueError:  # ragged, deeper than numpy's dimension limit, or a string
        raise ValueError(f"{key} must be a rectangular array of numbers") from None
    except (TypeError, OverflowError):
        array = None
    if array is None or not np.all(np.isfinite(array)):
        raise ValueError(f"{key} must hold finite numbers only")
    return array


def _load_rows(data, key) -> np.ndarray:
    if key not in data:
        raise ValueError(f"scenario file is missing {key!r}")
    rows = _float_array(data[key], key)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"{key} must be a list of 3-vectors")
    norms = np.linalg.norm(rows, axis=1)
    if not np.all(np.abs(norms - 1.0) <= _ROW_REJECT_TOL):
        raise ValueError(f"rows of {key} are not unit length (beyond {_ROW_REJECT_TOL})")
    return rows / norms[:, None]


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("scenario file is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("scenario file must hold a JSON object")
    settings = MeasurementSettings(_load_rows(data, "A"), _load_rows(data, "B"))
    m = settings.m

    def square(key):
        if key not in data:
            return None
        mat = _float_array(data[key], key)
        if mat.shape != (m, m):
            raise ValueError(f"{key} must be {m}x{m}, got {mat.shape}")
        return mat

    state = parse_state(data["state"]) if "state" in data else None
    return Scenario(path, settings, z=square("Z"), c=square("C"), state=state)


def _resolve_scenario(args) -> Scenario:
    if getattr(args, "file", None):
        return load_scenario(args.file)
    name = getattr(args, "scenario", None) or "chsh"
    # Looked up on each call, so that callers who rebind detect's functions see the calls.
    settings = {"chsh": detect.chsh_settings, "pauli3": detect.pauli_settings,
                "b-rot": detect.rotated_settings, "i3322-opt": detect.i3322_settings}
    if name not in settings:
        raise ValueError(f"unknown scenario {name!r}; built-ins: {sorted(settings)}")
    z = np.array(detect.Z_CHSH) if name == "chsh" else np.eye(3)
    return Scenario(name, settings[name](), z=z, state=twoqubit.werner_state(0.0))


def _emit(args, payload: dict, table=None, lines=None) -> None:
    """Write one report in the requested format.

    payload is the json document; seed and version get attached. table is
    (header, rows) for csv. Text is lines plus a seed/version footer, or
    the table with cells joined by spaces and an empty cell shown as "-"
    when lines is None. The verification report has no table and names
    seed and version in its first line: csv and text print its lines as
    they are.
    """
    if args.format == "json":
        print(json.dumps(dict(payload, seed=args.seed, version=__version__),
                         indent=2, sort_keys=True))
    elif table is None:
        print("\n".join(lines))
    elif args.format == "csv":
        print(f"# corrsets {__version__} seed={args.seed}")
        writer = csv.writer(sys.stdout)
        writer.writerow(table[0])
        writer.writerows(table[1])
    else:
        if lines is None:
            lines = [" ".join(str(cell) or "-" for cell in row)
                     for row in (table[0], *table[1])]
        print("\n".join([*lines, f"seed={args.seed} version={__version__}"]))


def _matrix_json(mat: np.ndarray):
    if np.iscomplexobj(mat):
        return [[[float(v.real), float(v.imag)] for v in row] for row in mat]
    return [[float(v) for v in row] for row in mat]


def _matrix_text(mat: np.ndarray, indent: str = "  ") -> str:
    if np.iscomplexobj(mat):
        return "\n".join(indent + " ".join(_fmt_complex(v) for v in row) for row in mat)
    return "\n".join(indent + " ".join(_fmt(v) for v in row) for row in mat)


def _spectral_report(args, scenario: Scenario, label: str, spectrum, value_repr: str,
                     **fields) -> int:
    """Report a support or gauge value with the singular values and the
    determinant sign of the 3x3 matrix behind it (the frame or the core)."""
    s = scenario.settings
    sv, sign = spectrum.svals, spectrum.sign
    payload = dict(fields, command=args.command, model=args.model, scenario=scenario.name,
                   rank=s.r, **{f"{label}_singular_values": [float(x) for x in sv],
                                f"{label}_det_sign": sign})
    table = (("model", "value", "s1", "s2", "s3", "det_sign", "rank"),
             [(args.model, value_repr, *(_fmt(x) for x in sv), _fmt(sign), s.r)])
    _emit(args, payload, table, [
        f"{args.command} {args.model} ({scenario.name}) = {value_repr}",
        f"{label} singular values: {' '.join(_fmt(x) for x in sv)}",
        f"{label} determinant sign: {_fmt(sign)}",
        f"rank r: {s.r}",
    ])
    return 0


def cmd_support(args) -> int:
    scenario = _resolve_scenario(args)
    value, frame = geometry._support_spectrum(args.model, scenario.settings,
                                              scenario.coefficient())
    return _spectral_report(args, scenario, "frame", frame, _fmt(value), value=value)


def cmd_gauge(args) -> int:
    scenario = _resolve_scenario(args)
    g, core = geometry._gauge_spectrum(args.model, scenario.settings, scenario.correlation(),
                                       report=True)
    return _spectral_report(args, scenario, "core", core,
                            _fmt(g.value) if g.finite else "infinite",
                            finite=g.finite, value=g.value if g.finite else None)


def cmd_witness(args) -> int:
    scenario = _resolve_scenario(args)
    s = scenario.settings
    state = parse_state(args.state) if args.state else scenario.state
    if state is None:
        raise ValueError("no target state: pass --state or put one in the scenario file")
    c = geometry.correlation_matrix(state, s)
    report = detect.witness_report(args.model, s, c)
    round_trip = float(np.sum(report.z_star * c)) / report.support
    detectable = report.sensitivity > 1.0
    payload = {
        "command": "witness",
        "model": args.model,
        "scenario": scenario.name,
        "sensitivity": report.sensitivity,
        "p_crit": report.p_crit,
        "detectable": detectable,
        "round_trip": round_trip,
        "z_star": _matrix_json(report.z_star),
        "witness": _matrix_json(report.witness),
    }
    table = (("model", "sensitivity", "p_crit", "detectable", "round_trip"),
             [(args.model, _fmt(report.sensitivity), _fmt(report.p_crit),
               str(detectable).lower(), _fmt(round_trip))])
    _emit(args, payload, table, [
        f"witness {args.model} ({scenario.name})",
        f"sensitivity (gauge) = {_fmt(report.sensitivity)}",
        f"p_crit = {_fmt(report.p_crit)}",
        "detectable: " + ("yes" if detectable else "no (sensitivity <= 1)"),
        f"round-trip Tr[Z*^T C]/phi = {_fmt(round_trip)}",
        "Z*:",
        _matrix_text(report.z_star),
        "witness operator:",
        _matrix_text(report.witness),
    ])
    return 0


def cmd_verify(args) -> int:
    scenario = None
    if getattr(args, "file", None) or getattr(args, "scenario", None):
        scenario = _resolve_scenario(args).settings
    report = selfcheck.run_battery(level=args.level, seed=args.seed, scenario=scenario)
    payload = {
        "command": "verify",
        "level": report.level,
        "ok": report.ok,
        "results": [{"name": r.name, "passed": r.passed, "instances": r.instances,
                     "worst": r.worst if np.isfinite(r.worst) else None,
                     "detail": r.detail} for r in report.results],
    }
    _emit(args, payload, None, report.render().rstrip("\n").split("\n"))
    return 0 if report.ok else 1


def cmd_table1(args) -> int:
    rows = detect.table1(detect.chsh_settings(), detect.pauli_settings())
    cells = [(r.method,
              "" if r.two_setting is None else _fmt(r.two_setting),
              "" if r.three_setting is None else _fmt(r.three_setting))
             for r in rows]
    payload = {
        "command": "table1",
        "rows": [{"method": r.method, "two_setting": r.two_setting,
                  "three_setting": r.three_setting} for r in rows],
    }
    _emit(args, payload, (("method", "two_settings", "three_settings"), cells))
    return 0


def cmd_ratios(args) -> int:
    scenario = _resolve_scenario(args)
    s = scenario.settings
    reports = [detect.containment_radius(s, pair)
               for pair in (detect.QM_OVER_SEP, detect.MAX_OVER_QM)]
    cells = [(r.pair[0] + "-over-" + r.pair[1], s.r, _fmt(r.radius)) for r in reports]
    payload = {
        "command": "ratios",
        "scenario": scenario.name,
        "rank": s.r,
        "radii": {r.pair[0] + "-over-" + r.pair[1]: r.radius for r in reports},
    }
    _emit(args, payload, (("pair", "rank", "radius"), cells))
    return 0


def cmd_sweep(args) -> int:
    scenario = _resolve_scenario(args)
    s = scenario.settings
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    family = twoqubit.werner_state if args.state_family == "werner" else twoqubit.tau_state
    # White noise adds no correlations, so C(p) = (1 - p) C(0) on both
    # families, and the gauge is positively homogeneous: one gauge fills the
    # grid. At p = 1, C is exactly zero, whose gauge is 0 even when C(0) is
    # out of range. selfcheck compares this with the per-point route.
    g0 = geometry.gauge(args.model, s, geometry.correlation_matrix(family(0.0), s))
    rows = []
    for p in np.linspace(0.0, 1.0, args.points):
        if p == 1.0:
            value = _fmt(0.0)
        else:
            value = _fmt((1.0 - p) * g0.value) if g0.finite else "inf"
        rows.append((_fmt(p), value))
    payload = {
        "command": "sweep",
        "scenario": scenario.name,
        "model": args.model,
        "family": args.state_family,
        # the json carries the 12-digit values that text and csv print
        "points": [{"p": float(p), "gauge": (float(v) if v != "inf" else None)}
                   for p, v in rows],
    }
    _emit(args, payload, (("p", "gauge"), rows))
    return 0


def _add_scenario_flags(sp, required=True):
    group = sp.add_mutually_exclusive_group(required=required)
    group.add_argument("--scenario", metavar="NAME",
                       help="built-in scenario: chsh, pauli3, b-rot, i3322-opt")
    group.add_argument("--file", metavar="PATH", help="scenario file (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrsets",
        description="correlation-set geometry for fixed two-qubit measurements")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("support", parents=[common],
                        help="support function of a correlation body")
    _add_scenario_flags(sp)
    sp.add_argument("--model", choices=geometry.MODELS, required=True)

    sp = sub.add_parser("gauge", parents=[common],
                        help="gauge function of a correlation body")
    _add_scenario_flags(sp)
    sp.add_argument("--model", choices=geometry.MODELS, required=True)

    sp = sub.add_parser("witness", parents=[common],
                        help="optimal witness for a target state")
    _add_scenario_flags(sp)
    sp.add_argument("--model", choices=("sep", "qm"), default="sep")
    sp.add_argument("--state", help="target state, e.g. werner:0.2, tau:0.5, rho_max")

    sp = sub.add_parser("verify", parents=[common],
                        help="run the verification battery")
    _add_scenario_flags(sp, required=False)
    sp.add_argument("--level", choices=selfcheck.LEVELS, default="quick")

    sub.add_parser("table1", parents=[common], help="critical-noise table")

    sp = sub.add_parser("ratios", parents=[common],
                        help="containment radii of the nested bodies")
    _add_scenario_flags(sp)

    sp = sub.add_parser("sweep", parents=[common], help="gauge along a noise family")
    _add_scenario_flags(sp)
    sp.add_argument("--model", choices=geometry.MODELS, required=True)
    sp.add_argument("--state", dest="state_family", choices=("werner", "tau"),
                    default="werner")
    sp.add_argument("--points", type=int, default=21)

    return parser


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # by name, so that callers who rebind cmd_* see the calls
        with np.errstate(over="ignore", invalid="ignore"):
            return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError, OSError, ArithmeticError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
