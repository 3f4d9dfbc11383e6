"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They check that the tracer sees every call site, that self times add up to
the traced wall time, that inputs are a function of the seed, and that the
correctness gates reject wrong outputs.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corrsets  # noqa: E402
from corrsets import cli, geometry, selfcheck, smallmat  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, public_functions  # noqa: E402

# Public functions that no workload calls: library API that only the test
# suite uses, and the `verify` command, whose battery verify-quick runs
# directly. Any other wrapped function must record a call, so a call site
# the tracer stops seeing fails the test.
NOT_ON_ANY_WORKLOAD = {
    "cli.cmd_verify",
    "geometry.construct_target_Z",
    "geometry.membership",
    "smallmat.svd",
    "twoqubit.apply_theta",
    "twoqubit.eigenvalues_hermitian",
    "twoqubit.random_pure_state",
}


def _traced_pass(w, items, tracer):
    with tracer:
        with tracer.span("bench.run") as root:
            for item in items:
                with tracer.span("bench.op"):
                    w.run(item)
    return root


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tracer per workload, each over a short pass of its items."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0, str(tmp_path_factory.mktemp(name)))
        tracer = Tracer()
        items = w.items[:256] if name == "gauge-stream" else w.items
        root = _traced_pass(w, items, tracer)
        out[name] = (tracer, root)
    return out


def _base_name(span_name: str) -> str:
    layer, fn = span_name.split(".")[:2]
    return f"{layer}.{fn}"


def test_every_wrapped_function_records_a_call(traced):
    called = set()
    for tracer, _ in traced.values():
        name_id = np.array(tracer.name_id)
        called |= {_base_name(tracer.names[i]) for i in np.unique(name_id)}
    wrapped = set(public_functions())
    missing = sorted(wrapped - called - set(NOT_ON_ANY_WORKLOAD))
    assert not missing, f"wrapped but never called on any workload: {missing}"


def test_self_times_add_up_to_traced_wall_time(traced):
    for name, (tracer, root) in traced.items():
        _, start, end, parent = tracer.arrays()
        self_t = tracer.self_times()
        wall = end[root.index] - start[root.index]
        assert parent[root.index] == -1
        assert np.all(self_t >= -1e-9), name
        assert self_t.sum() == pytest.approx(wall, rel=1e-9), name


def test_install_rebinds_every_import_and_uninstall_restores():
    originals = (smallmat.svdvals, geometry.svdvals, cli.pinv, selfcheck.norm_plus,
                 geometry.support, corrsets.support, np.linalg.svd)
    tracer = Tracer()
    with tracer:
        assert geometry.svdvals is smallmat.svdvals
        assert smallmat.svdvals.__wrapped__ is originals[0]
        assert cli.pinv is smallmat.pinv and hasattr(cli.pinv, "__wrapped__")
        assert selfcheck.norm_plus is smallmat.norm_plus
        assert corrsets.support is geometry.support
        assert np.linalg.svd.__wrapped__ is originals[-1]
    assert (smallmat.svdvals, geometry.svdvals, cli.pinv, selfcheck.norm_plus,
            geometry.support, corrsets.support, np.linalg.svd) == originals


def test_gauge_stream_counts_settings_reuse(traced):
    tracer, _ = traced["gauge-stream"]
    assert tracer.distinct_settings <= len(workloads.COMBOS) * 4
    assert tracer.settings_calls / tracer.distinct_settings > 10
    assert tracer.linalg_calls["pinv"] > 0


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.GaugeStream(3, str(tmp_path))
    b = workloads.GaugeStream(3, str(tmp_path))
    c = workloads.GaugeStream(4, str(tmp_path))
    assert all(np.array_equal(x[1], y[1]) and np.array_equal(x[2], y[2])
               for x, y in zip(a.items, b.items))
    assert any(x[1].shape != y[1].shape or not np.array_equal(x[1], y[1])
               for x, y in zip(a.items, c.items))
    assert sum(item[3] for item in a.items) == len(a.items) // a.OUTSIDE_EVERY
    # Reports: same deck composition on every seed, different order.
    r1 = workloads.Reports(3, str(tmp_path))
    r2 = workloads.Reports(4, str(tmp_path))
    commands = [[item[0][0] for item in r.items] for r in (r1, r2)]
    assert sorted(commands[0]) == sorted(commands[1]) and commands[0] != commands[1]


def test_setup_clock_sees_only_the_program_constructors(tmp_path):
    expected = {"gauge-stream": ["random_settings"] * len(workloads.COMBOS) * 4,
                "reports": ["random_settings", "load_scenario"] * 4,
                "verify-quick": []}
    for name, cls in workloads.WORKLOADS.items():
        calls = []

        def clock(fn, *args):
            calls.append(fn.__name__)
            return fn(*args)

        cls(0, str(tmp_path), clock)
        assert calls == expected[name], name


def test_gauge_stream_gate_rejects_wrong_output(tmp_path):
    w = workloads.GaugeStream(0, str(tmp_path))
    out = w.run(w.items[0])
    phi, g, z_star = out[1]
    assert not w.check(0, [out[0], (phi * (1 + 1e-5), g, z_star), out[2]])
    assert w.check(0, out)
    assert not w.check(0, [out[0], (phi * (1 + 1e-7), g, z_star), out[2]])
    k = next(i for i, item in enumerate(w.items) if item[3])
    bad = w.run(w.items[k])
    bad[0] = (bad[0][0], geometry.GaugeValue(True, 1.0), None)
    assert not w.check(k, bad)


def test_reports_gate_rejects_wrong_output(tmp_path):
    w = workloads.Reports(0, str(tmp_path))
    k = next(i for i, item in enumerate(w.items) if item[0][0] == "table1")
    code, text = w.run(w.items[k])
    assert w.check(k, (code, text))
    assert not w.check(k, (code, text + " "))
    assert not w.check(k, (1, text))
    r = next(i for i, item in enumerate(w.items) if item[0][0] == "ratios")
    code, text = w.run(w.items[r])
    argv, fmt, rank = w.items[r]
    assert workloads._ratios_ok(fmt, text, rank)
    assert not workloads._ratios_ok(fmt, text, rank % 3 + 1)


def test_benchmark_json_lists_every_reported_metric():
    import json

    from metrics import END_TO_END, PER_LAYER

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
