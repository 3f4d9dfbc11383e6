"""Benchmark of the corrsets library; run from the root of a checkout.

One run of one workload:

    python3 bench/run.py --workload gauge-stream --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, whose spans are written to
``bench/.work/spans-<workload>.npz``. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it (``# meta ...``) records the environment.

Every end-to-end metric of every workload, under its per-workload name
(``evals_per_s``, ``report_p99_ms``, ``verify_s``, ...), as medians of
five untraced runs on seeds ``seed`` to ``seed + 4``, plus one traced run
each:

    python3 bench/run.py --all --seed 0 [--out result.json]

Ratios of two ``--all --out`` results, one row per workload:

    python3 bench/run.py --compare old.json new.json

The program is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with code 2. Each workload runs single
threaded in a fresh child process. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("gauge-stream", "reports", "verify-quick")
SETUP_REPEATS = 5
ALL_REPEATS = 5

sys.path.insert(0, BENCH_DIR)
from metrics import END_TO_END, PER_LAYER  # noqa: E402

# Per-workload names of the end-to-end metrics: (name, source metric,
# scale, unit).
WORKLOAD_NAMES = {
    "gauge-stream": [("evals_per_s", "ops_per_s", 1.0, "1/s"),
                     ("eval_p50_us", "op_p50_ms", 1e3, "us"),
                     ("eval_p99_us", "op_p99_ms", 1e3, "us")],
    "reports": [("reports_per_s", "ops_per_s", 1.0, "1/s"),
                ("report_p50_ms", "op_p50_ms", 1.0, "ms"),
                ("report_p99_ms", "op_p99_ms", 1.0, "ms")],
    "verify-quick": [("verify_s", "op_p50_ms", 1e-3, "s")],
}


class BenchError(Exception):
    """The benchmark cannot run or its child failed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(*args, seconds: float = 0.0) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=3 * seconds + 60)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "corrsets")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def meta(workload: str, seed: int) -> dict:
    info = _worker("info")
    return dict(info, git_sha=_git_sha(), nproc=os.cpu_count(),
                python=platform.python_version(), workload=workload, seed=seed,
                src_lines=_src_lines())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(meta, result line) of one run."""
    if not os.path.isfile(os.path.join(SRC, "corrsets", "__init__.py")):
        raise BenchError(f"no corrsets sources under {SRC}")
    info = meta(workload, seed)
    if not os.path.abspath(info["corrsets_file"]).startswith(SRC + os.sep):
        raise BenchError(f"corrsets was imported from {info['corrsets_file']}, not {SRC}")
    raw = _worker("run", workload, seed, seconds, int(trace), seconds=seconds)
    if trace:
        table = PER_LAYER
    else:
        setups = [_worker("setup", workload, seed) for _ in range(SETUP_REPEATS)]
        raw["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        raw["raw"]["setup_s"] = statistics.median(r["setup_raw_s"] for r in setups)
        info["windows"] = raw["windows"]
        info["uncalibrated"] = raw["raw"]
        table = END_TO_END
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw[name], "unit": unit} for name, unit, _ in table},
    }
    return info, result


def _quartile_spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def run_all(seed: int, seconds: float, out: str | None) -> None:
    doc = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for k in range(ALL_REPEATS):
            info, result = run_workload(workload, seed + k, seconds, trace=False)
            runs.append(result)
        info, traced = run_workload(workload, seed, seconds, trace=True)
        doc["meta"] = {k: v for k, v in info.items() if k not in ("workload", "seed")}
        doc["workloads"][workload] = {"runs": runs, "traced": traced}
        _print_workload(workload, runs, traced)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def _median(runs: list[dict], name: str) -> float:
    return statistics.median(r["metrics"][name]["value"] for r in runs)


def _print_workload(workload: str, runs: list[dict], traced: dict) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"== {workload}  ({len(runs)} untraced run(s), medians)")
    for name, source, scale, unit in WORKLOAD_NAMES[workload]:
        print(f"  {name:<34s} {_median(runs, source) * scale:14.6g} {unit}")
    for name in ("setup_s", "peak_rss_mb"):
        print(f"  {name:<34s} {_median(runs, name):14.6g} {runs[0]['metrics'][name]['unit']}")
    print(f"  {'fail_ratio':<34s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    print(f"  -- traced run: {traced['attempted']} ops, {traced['failed']} failed")
    for name, cell in traced["metrics"].items():
        print(f"  {name:<42s} {cell['value']:14.6g} {cell['unit']}")


def compare(old_path: str, new_path: str) -> None:
    """Ratio new/old of each end-to-end median, one row per workload."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    for workload in WORKLOADS:
        if workload not in old["workloads"] or workload not in new["workloads"]:
            continue
        runs_old = old["workloads"][workload]["runs"]
        runs_new = new["workloads"][workload]["runs"]
        cells = []
        for name, _, better in END_TO_END:
            a = [r["metrics"][name]["value"] for r in runs_old]
            b = [r["metrics"][name]["value"] for r in runs_new]
            ratio = statistics.median(b) / statistics.median(a)
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            spreads = [_quartile_spread(a), _quartile_spread(b)]
            all_better = (min(b) > max(a)) if better == "higher" else (max(b) < min(a))
            if None in spreads or max(spreads) > bounds[name]:
                verdict = "better" if all_better else "unresolved"
            else:
                verdict = "worse" if worse > bounds[name] else "ok"
            cells.append(f"{name}={ratio:.3f}({verdict})")
        print(f"{workload:<13s} " + " ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, readable table")
    parser.add_argument("--out", metavar="JSON", help="write the --all result here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
        elif args.all:
            run_all(args.seed, args.seconds, args.out)
        elif args.workload:
            info, result = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
            print("# meta " + json.dumps(info, sort_keys=True))
            print(json.dumps(result))
        else:
            parser.error("give --workload, --all or --compare")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
