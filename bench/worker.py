"""One workload in one fresh process; started by run.py, not by hand.

    python3 bench/worker.py info
    python3 bench/worker.py setup <workload> <seed>
    python3 bench/worker.py run <workload> <seed> <seconds> <trace 0|1>

``info`` reports where corrsets was imported from and the numpy build.
``setup`` times ``import corrsets`` plus the program's constructor calls
that build the workload's settings and scenarios.
``run`` builds the inputs, then cycles through them in windows of a fixed
number of ops: each window is timed op by op, and its outputs are checked
after the clock stops.
With trace 1 each window of ops runs untraced and then traced, and the
per-layer figures come from the traced windows; the traced spans are
written to ``bench/.work/spans-<workload>.npz``. Either mode prints one
JSON object as its last line.
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, ".work")


def _workdir() -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_DIR)


def info() -> dict:
    import corrsets
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"corrsets_file": corrsets.__file__, "corrsets_version": corrsets.__version__,
            "numpy": numpy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def setup(workload: str, seed: int) -> dict:
    """Time ``import corrsets`` (with its ``cli``) and the program's own
    constructor calls that build the workload's settings and scenarios; the
    benchmark's own input generation runs but is not timed."""
    t0 = perf_counter()
    import corrsets.cli  # noqa: F401
    elapsed = perf_counter() - t0
    import workloads
    from calibrate import NOMINAL_S, Reference

    workdir = _workdir()
    try:
        clock = workloads.Stopwatch()
        workloads.WORKLOADS[workload](seed, workdir, clock)
        elapsed += clock.total
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref = Reference().burst(0.1)
    return {"setup_s": elapsed * NOMINAL_S / ref, "setup_raw_s": elapsed}


def _check(w, outputs: list) -> int:
    failed = 0
    for index, out in outputs:
        try:
            ok = out is not None and w.check(index, out)
        except Exception:
            ok = False
        failed += not ok
    return failed


def run_untraced(w, seconds: float) -> dict:
    """Windows of ``w.window`` ops, each timed op by op and calibrated by
    the reference bursts before and after it."""
    from calibrate import Reference, burst_after, scale

    ref = Reference()
    refs = [ref.burst(0.2)]
    latencies: list[float] = []
    windows: list[tuple[int, float]] = []     # (ops, calibration factor)
    n = len(w.items)
    failed = 0
    while sum(latencies) < seconds:
        outputs = []
        for i in range(len(latencies), len(latencies) + w.window):
            t0 = perf_counter()
            out = _try(w.run, w.items[i % n])
            latencies.append(perf_counter() - t0)
            outputs.append((i % n, out))
        refs.append(ref.burst(burst_after(sum(latencies[-w.window:]))))
        windows.append((w.window, scale(refs[-2], refs[-1])))
        failed += _check(w, outputs)
    return {"latencies": latencies, "windows": windows, "refs": refs, "failed": failed}


def run_traced(w, seconds: float) -> dict:
    """Windows of ops run untraced and then traced, over whole passes of the
    item list, until ``seconds`` pass.

    Both runs of a window are calibrated the same way as untraced runs, so
    the tracing overhead is not confused with a change in machine speed.
    """
    from calibrate import Reference, burst_after, scale
    from tracer import Tracer

    ref = Reference()
    tracer = Tracer()
    walls = [0.0, 0.0]              # calibrated seconds: untraced, traced
    n = len(w.items)
    traced_ops = failed = 0
    before = ref.burst(0.2)
    t_end = perf_counter() + seconds
    while traced_ops == 0 or traced_ops % n or perf_counter() < t_end:
        start = traced_ops % n
        if start == 0:
            tracer.new_pass()
        indices = range(start, min(start + w.window, n))
        for tracing in (False, True):
            outputs, wall = _pass(w, indices, tracer if tracing else None)
            after = ref.burst(burst_after(wall))
            walls[tracing] += wall * scale(before, after)
            before = after
            failed += _check(w, outputs)
        traced_ops += len(indices)
    return {"tracer": tracer, "traced_ops": traced_ops, "attempted": 2 * traced_ops,
            "failed": failed, "overhead_ratio": walls[1] / walls[0]}


def _pass(w, indices, tracer) -> tuple[list, float]:
    """Run the ops at ``indices``; with a tracer, under a root span and one
    span per op. Returns the outputs and the wall time."""
    outputs = []
    if tracer is None:
        t0 = perf_counter()
        for index in indices:
            outputs.append((index, _try(w.run, w.items[index])))
        return outputs, perf_counter() - t0
    tracer.install()
    try:
        t0 = perf_counter()
        with tracer.span("bench.run"):
            for index in indices:
                with tracer.span("bench.op"):
                    outputs.append((index, _try(w.run, w.items[index])))
        return outputs, perf_counter() - t0
    finally:
        tracer.uninstall()


def _try(fn, item):
    try:
        return fn(item)
    except Exception:  # an op that raises counts as failed
        return None


def main(argv: list[str]) -> int:
    import json

    if argv[0] == "info":
        print(json.dumps(info()))
        return 0
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        print(json.dumps(setup(workload, seed)))
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"

    import metrics
    import workloads

    workdir = _workdir()
    try:
        w = workloads.WORKLOADS[workload](seed, workdir)
        if trace:
            raw = run_traced(w, seconds)
            raw["tracer"].save(os.path.join(WORK_DIR, f"spans-{workload}.npz"))
            result = metrics.per_layer(raw)
        else:
            result = metrics.end_to_end(run_untraced(w, seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
