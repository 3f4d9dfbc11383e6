"""Print the outputs the benchmark workloads see, for a byte-level identity check.

Run it in two checkouts and compare the results byte for byte:

    python3 tools/dump_outputs.py > new.txt       # in the changed checkout
    python3 tools/dump_outputs.py > old.txt       # in the reference checkout
    cmp old.txt new.txt

For seeds 0-4 it prints the exit code and stdout of every command in the
`reports` deck, `float.hex` of every `gauge-stream` output on the first 600
items, and the rendered quick verification report. The inputs come from
bench/workloads.py, which is imported and not modified. Scenario files are
written to one fixed directory under the system temporary directory, since
their paths appear in the reports. The script takes no options.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from corrsets import geometry, selfcheck  # noqa: E402

import workloads  # noqa: E402

SEEDS = range(5)
GAUGE_ITEMS = 600
WORKDIR = os.path.join(tempfile.gettempdir(), "corrsets-dump-outputs")


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
    yield f"== verify-quick seed={seed}"
    yield selfcheck.run_battery("quick", seed).render().rstrip("\n")


def main() -> int:
    if len(sys.argv) > 1:
        print("dump_outputs.py takes no options", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    for seed in SEEDS:
        for produce in (reports_lines, gauge_stream_lines, verify_lines):
            for line in produce(seed):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
