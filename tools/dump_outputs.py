"""Print the outputs the benchmark workloads see, for a byte-level identity check.

Run it in two checkouts and compare the results byte for byte:

    python3 tools/dump_outputs.py > new.txt       # in the changed checkout
    python3 tools/dump_outputs.py > old.txt       # in the reference checkout
    cmp old.txt new.txt

For seeds 0-4 it prints the exit code and stdout of every command in the
`reports` deck, `float.hex` of every `gauge-stream` output on the first 600
items, and the rendered quick verification report followed by one line per
check with `float.hex` of its worst deviation and its replay detail (the
render rounds the first and hides the second for passing checks). It then
prints the exit code, stdout and stderr of `verify --format json|csv` at
seed 0 and of a fixed list of input errors, then of every `--help` and of
four usage errors that argparse rejects (with `COLUMNS=80`, so the help
text does not depend on the terminal), then `float.hex` of every cell of
the critical-noise table, and last, on a fixed list of states, `float.hex`
of the Pauli expansion, its reassembly and the Theta map, and the four
fields of `classify_state` with `float.hex` of the minimum product
overlap (the reports show these only to 12 digits). The inputs come from
bench/workloads.py, which is imported and not modified. Scenario files are
written to one fixed directory under the system temporary directory, since
their paths appear in the reports. Two runs must therefore not overlap in
time: they would rewrite each other's scenario files, and the `reports`
items of their dumps would differ. Run the two checkouts one after the
other. The script takes no options.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

from corrsets import cli, detect, geometry, selfcheck, smallmat, twoqubit  # noqa: E402
from corrsets.oracles import random_quantum_state  # noqa: E402

import workloads  # noqa: E402

os.environ["COLUMNS"] = "80"

SEEDS = range(5)
GAUGE_ITEMS = 600
WORKDIR = os.path.join(tempfile.gettempdir(), "corrsets-dump-outputs")
COMMANDS = ("support", "gauge", "witness", "verify", "table1", "ratios", "sweep")
# argparse rejects these before any command runs.
USAGE_DECKS = [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    ["nosuch"],
    ["gauge", "--scenario", "chsh"],
    ["support", "--model", "qm", "--scenario", "chsh", "--file", "scen.json"],
    ["table1", "--format", "xml"],
]

_EYE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _hex(x) -> str:
    return float(x).hex()


def reports_lines(seed: int):
    w = workloads.Reports(seed, WORKDIR)
    for i, item in enumerate(w.items):
        code, text = w.run(item)
        yield f"== reports seed={seed} item={i} exit={code}: {' '.join(item[0])}"
        yield text.rstrip("\n")


def gauge_stream_lines(seed: int):
    w = workloads.GaugeStream(seed, WORKDIR)
    for i, item in enumerate(w.items[:GAUGE_ITEMS]):
        for model, (phi, g, z_star) in zip(geometry.MODELS, w.run(item)):
            fields = [_hex(phi), str(g.finite), _hex(g.value)]
            if z_star is not None:
                fields += [_hex(v) for v in z_star.ravel()]
            yield f"== gauge-stream seed={seed} item={i} {model}: {' '.join(fields)}"


def verify_lines(seed: int):
    report = selfcheck.run_battery("quick", seed)
    yield f"== verify-quick seed={seed}"
    yield report.render().rstrip("\n")
    for r in report.results:
        yield f"-- check {r.name} {_hex(r.worst)} {r.detail}"


def _write(name: str, text: str) -> str:
    path = os.path.join(WORKDIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _error_decks():
    absent = os.path.join(WORKDIR, "absent.json")
    if os.path.exists(absent):
        os.remove(absent)
    malformed = _write("malformed.json", '{"A": [[1, 0')
    no_z = _write("no-z.json", json.dumps({"A": _EYE, "B": _EYE, "C": _EYE}))
    no_state = _write("no-state.json", json.dumps({"A": _EYE, "B": _EYE}))
    return [
        ["gauge", "--model", "qm", "--scenario", "nosuch"],
        ["gauge", "--model", "qm", "--file", absent],
        ["gauge", "--model", "qm", "--file", malformed],
        ["support", "--model", "qm", "--file", no_z],
        ["witness", "--model", "qm", "--file", no_state],
        ["witness", "--model", "qm", "--scenario", "pauli3", "--state", "werner:1"],
        ["sweep", "--model", "qm", "--scenario", "pauli3", "--points", "0"],
    ]


def cli_lines():
    decks = [["verify", "--format", fmt, "--seed", "0"] for fmt in ("json", "csv")]
    for argv in decks + _error_decks() + USAGE_DECKS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse exits on --help and usage errors
                code = exc.code
        yield f"== cli exit={code}: {' '.join(argv)}"
        yield "-- stdout"
        yield out.getvalue().rstrip("\n")
        yield "-- stderr"
        yield err.getvalue().rstrip("\n")


def table1_lines():
    for row in detect.table1(detect.chsh_settings(), detect.pauli_settings()):
        cells = [str(v) if v is None else _hex(v) for v in (row.two_setting, row.three_setting)]
        yield f"== table1 {row.method}: {' '.join(cells)}"


def _pauli_states():
    for k in range(21):
        yield f"werner {k}/20", twoqubit.werner_state(k / 20)
        yield f"tau {k}/20", twoqubit.tau_state(k / 20)
    yield "rho_max", twoqubit.rho_max()
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    for name, q in (("-I", -np.eye(3)), ("cycle", cycle),
                    ("rotation", smallmat.random_rotation(7, "O3"))):
        yield f"hull {name}", twoqubit.hull_state(q)
    for seed in range(50):
        yield f"random {seed}", random_quantum_state(seed)


def _hex_complex(mat) -> str:
    return " ".join(f"{_hex(v.real)},{_hex(v.imag)}" for v in np.ravel(mat))


def pauli_lines():
    for name, rho in _pauli_states():
        p = twoqubit.pauli_expand(rho)
        form = [p.weight, *p.ra, *p.rb, *p.t.ravel()]
        yield f"== pauli {name} expand: {' '.join(_hex(v) for v in form)}"
        yield f"-- assemble: {_hex_complex(twoqubit.pauli_assemble(p))}"
        yield f"-- theta: {_hex_complex(twoqubit.apply_theta(rho))}"
        cls = twoqubit.classify_state(rho)
        yield (f"-- classify: {cls.is_quantum} {cls.is_separable} {cls.is_block_positive} "
               f"{_hex(cls.min_product_overlap)}")


def main() -> int:
    if len(sys.argv) > 1:
        print("dump_outputs.py takes no options", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    for seed in SEEDS:
        for produce in (reports_lines, gauge_stream_lines, verify_lines):
            for line in produce(seed):
                print(line)
    for produce in (cli_lines, table1_lines, pauli_lines):
        for line in produce():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
