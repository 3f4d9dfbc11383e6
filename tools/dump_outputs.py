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
seed 0 and of a fixed list of input errors. The inputs come from
bench/workloads.py, which is imported and not modified. Scenario files are
written to one fixed directory under the system temporary directory, since
their paths appear in the reports. The script takes no options.
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

from corrsets import cli, geometry, selfcheck  # noqa: E402

import workloads  # noqa: E402

SEEDS = range(5)
GAUGE_ITEMS = 600
WORKDIR = os.path.join(tempfile.gettempdir(), "corrsets-dump-outputs")

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
    for argv in decks + _error_decks():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        yield f"== cli exit={code}: {' '.join(argv)}"
        yield "-- stdout"
        yield out.getvalue().rstrip("\n")
        yield "-- stderr"
        yield err.getvalue().rstrip("\n")


def main() -> int:
    if len(sys.argv) > 1:
        print("dump_outputs.py takes no options", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    for seed in SEEDS:
        for produce in (reports_lines, gauge_stream_lines, verify_lines):
            for line in produce(seed):
                print(line)
    for line in cli_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
