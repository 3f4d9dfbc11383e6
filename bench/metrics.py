"""Turn a worker's raw measurements into the benchmark's metrics.

End-to-end metrics come from untraced runs only. Per-layer metrics come
from the traced passes; counts and self times are given per op, so they do
not depend on how many passes fit into a run. A metric whose function was
never called on the workload reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS, LINALG

MODELS = ("sep", "qm", "max")
SPLIT = ("support", "gauge", "optimizer_z")
CLI_COMMANDS = ("support", "gauge", "witness", "ratios", "sweep", "table1")

# (metric, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("smallmat.calls", "count/op", "lower"), ("smallmat.self_s", "s/op", "lower")]
    + [(f"linalg.{f}.per_op", "count/op", "lower") for f in LINALG]
    + [("geometry.calls", "count/op", "lower"), ("geometry.self_s", "s/op", "lower")]
    + [(f"geometry.{fn}.{model}.us_p50", "us", "lower") for fn in SPLIT for model in MODELS]
    + [(f"geometry.{fn}.m{m}.us_p50", "us", "lower") for fn in SPLIT for m in (2, 3, 4, 5)]
    + [("geometry.gauge.finite_ratio", "ratio", "higher"),
       ("geometry.calls_per_settings", "count", "higher"),
       ("twoqubit.calls", "count/op", "lower"), ("twoqubit.self_s", "s/op", "lower"),
       ("twoqubit.pauli_expand.us_p50", "us", "lower"),
       ("twoqubit.classify_state.us_p50", "us", "lower"),
       ("twoqubit.block_positivity_minimum.calls", "count/op", "lower"),
       ("detect.table1.ms", "ms", "lower"),
       ("detect.calls", "count/op", "lower"), ("detect.self_s", "s/op", "lower"),
       ("detect.containment_radius.us_p50", "us", "lower"),
       ("detect.witness_report.us_p50", "us", "lower"),
       ("oracles.calls", "count/op", "lower"), ("oracles.self_s", "s/op", "lower"),
       ("oracles.ratio_scan.ms", "ms", "lower"),
       ("oracles.random_settings.us_p50", "us", "lower"),
       ("selfcheck.self_s", "s/op", "lower"), ("selfcheck.run_battery.s", "s", "lower"),
       ("cli.self_s", "s/op", "lower")]
    + [(f"cli.{cmd}.ms_p50", "ms", "lower") for cmd in CLI_COMMANDS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)


def end_to_end(raw: dict) -> dict:
    """Calibrated throughput and latency percentiles; raw values alongside.

    Throughput is the median over windows of each window's rate, so a stall
    that hits one window does not move the run's figure. p50 is over all
    ops of the run. p99 is the first quartile over windows of each window's
    99th percentile: contention from other processes only adds time and
    comes in bursts that a plain p99 of the run picks up, while a slowdown
    of some repeats of an op that recurs through the run shows in every
    window.
    """
    lat = np.asarray(raw["latencies"])
    sizes = [n for n, _ in raw["windows"]]
    cal = lat * np.repeat([f for _, f in raw["windows"]], sizes)
    per_window = np.split(cal, np.cumsum(sizes)[:-1])
    attempted = len(lat)
    return {
        "attempted": attempted,
        "failed": raw["failed"],
        "windows": len(sizes),
        "ops_per_s": float(np.median([len(c) / c.sum() for c in per_window])),
        "op_p50_ms": float(np.percentile(cal, 50)) * 1e3,
        "op_p99_ms": float(np.percentile([np.percentile(c, 99) for c in per_window], 25)) * 1e3,
        "ok_ratio": (attempted - raw["failed"]) / attempted,
        "raw": {"ops_per_s": attempted / float(lat.sum()),
                "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
                "op_p99_ms": float(np.percentile(lat, 99)) * 1e3,
                "reference_ms_p50": float(np.median(raw["refs"])) * 1e3},
    }


def per_layer(raw: dict) -> dict:
    tracer = raw["tracer"]
    names = tracer.names
    name_id, start, end, _ = tracer.arrays()
    dur, self_t = end - start, tracer.self_times()
    n_ops = raw["traced_ops"]
    layer_of = np.array([n.split(".")[0] for n in names])[name_id]

    def durations(match) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if match(n)]
        return dur[np.isin(name_id, ids)]

    def p50(match, scale: float) -> float:
        d = durations(match)
        return float(np.median(d)) * scale if d.size else 0.0

    def calls(match) -> float:
        return durations(match).size / n_ops

    out = {}
    for layer in LAYERS:
        in_layer = layer_of == layer
        out[f"{layer}.calls"] = int(in_layer.sum()) / n_ops
        out[f"{layer}.self_s"] = float(self_t[in_layer].sum()) / n_ops
    for family in LINALG:
        out[f"linalg.{family}.per_op"] = tracer.linalg_calls[family] / n_ops
    for fn in SPLIT:
        for model in MODELS:
            prefix = f"geometry.{fn}.{model}.m"
            out[f"geometry.{fn}.{model}.us_p50"] = p50(lambda n: n.startswith(prefix), 1e6)
        for m in (2, 3, 4, 5):
            out[f"geometry.{fn}.m{m}.us_p50"] = p50(
                lambda n: n.startswith(f"geometry.{fn}.") and n.endswith(f".m{m}"), 1e6)
    finite, total = tracer.gauge_finite
    out["geometry.gauge.finite_ratio"] = finite / total if total else 0.0
    out["geometry.calls_per_settings"] = (tracer.settings_calls / tracer.distinct_settings
                                          if tracer.distinct_settings else 0.0)
    for name, scale, key in (
            ("twoqubit.pauli_expand", 1e6, "twoqubit.pauli_expand.us_p50"),
            ("twoqubit.classify_state", 1e6, "twoqubit.classify_state.us_p50"),
            ("detect.table1", 1e3, "detect.table1.ms"),
            ("detect.containment_radius", 1e6, "detect.containment_radius.us_p50"),
            ("detect.witness_report", 1e6, "detect.witness_report.us_p50"),
            ("oracles.ratio_scan", 1e3, "oracles.ratio_scan.ms"),
            ("oracles.random_settings", 1e6, "oracles.random_settings.us_p50"),
            ("selfcheck.run_battery", 1.0, "selfcheck.run_battery.s")):
        out[key] = p50(lambda n: n == name, scale)
    out["twoqubit.block_positivity_minimum.calls"] = calls(
        lambda n: n == "twoqubit.block_positivity_minimum")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.ms_p50"] = p50(lambda n: n == f"cli.cmd_{cmd}", 1e3)
    out["trace.overhead_ratio"] = raw["overhead_ratio"]
    metrics = {name: out[name] for name, _, _ in PER_LAYER}
    metrics["attempted"] = raw["attempted"]
    metrics["failed"] = raw["failed"]
    return metrics
