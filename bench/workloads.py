"""The benchmark's workloads: inputs, one op, and the correctness gate.

Each workload is built from a seed before any timing starts; the program
only ever sees the generated inputs. ``items`` is the fixed list of op
inputs a run cycles through, ``run`` performs one op, and ``check`` judges
one op's output outside the timed region. The composition of every item
list is fixed; the seed only draws the numbers and the order, so runs on
different seeds do the same amount of work. ``window`` ops are timed
between two calibration bursts (see calibrate.py) and checked together.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from time import perf_counter

import numpy as np

from corrsets import cli, geometry, oracles, selfcheck

COMBOS = [(m, rank) for m in (2, 3, 4, 5) for rank in (1, 2, 3) if rank <= min(3, m)]

_SUPPORT_TOL = 1e-6      # closed-form qm/max support against the eigensolve oracle
_DUALITY_TOL = 1e-8      # Tr[Z*^T C] / support(Z*) against the gauge value
_REPEAT_TOL = 1e-9       # a repeated op against its first, verified output


class Stopwatch:
    """Calls a function and adds the time it took to ``total``.

    Workloads make the program's own constructor calls through one, so
    that set-up time counts those and not the benchmark's input generation.
    """

    def __init__(self):
        self.total = 0.0

    def __call__(self, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.total += perf_counter() - t0


def _close(x: float, ref: float, tol: float) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))


class GaugeStream:
    """Closed loop of scalar support, gauge and optimizer calls.

    A fixed pool of settings per (m, rank) serves every op, so each
    settings object sees thousands of calls: per-settings caching and
    fewer factorizations per call show here, while twoqubit does no work.
    One C in eight is drawn outside the settings' ranges (only possible
    below full rank), so the infinite-gauge branch runs too.
    """

    name = "gauge-stream"
    window = 256            # about 0.2 s between two calibration bursts
    ITEMS = 4096
    SETTINGS_PER_COMBO = 4
    OUTSIDE_EVERY = 8

    def __init__(self, seed: int, workdir: str, clock=None):
        clock = clock or Stopwatch()
        rng = np.random.default_rng(seed)
        pool = {combo: [clock(oracles.random_settings, rng, *combo)
                        for _ in range(self.SETTINGS_PER_COMBO)]
                for combo in COMBOS}
        n_out = self.ITEMS // self.OUTSIDE_EVERY
        deficient = [combo for combo in COMBOS if combo[1] < combo[0]]
        kinds = ([(COMBOS[i % len(COMBOS)], False) for i in range(self.ITEMS - n_out)]
                 + [(deficient[i % len(deficient)], True) for i in range(n_out)])
        self.items = []
        for k in rng.permutation(len(kinds)):
            (m, rank), outside = kinds[k]
            s = pool[(m, rank)][int(rng.integers(self.SETTINGS_PER_COMBO))]
            z = rng.standard_normal((m, m))
            if outside:
                c = rng.standard_normal((m, m))
            else:
                c = s.a @ rng.standard_normal((3, 3)) @ s.b.T
            self.items.append((s, z, c / np.linalg.norm(c), outside))
        self._verified: dict[int, list] = {}

    @staticmethod
    def run(item):
        s, z, c, _ = item
        out = []
        for model in geometry.MODELS:
            phi = geometry.support(model, s, z)
            g = geometry.gauge(model, s, c)
            z_star = geometry.optimizer_z(model, s, c) if g.finite else None
            out.append((phi, g, z_star))
        return out

    def check(self, index: int, out) -> bool:
        ref = self._verified.get(index)
        if ref is not None:
            return all(
                _close(phi, r_phi, _REPEAT_TOL) and g.finite == r_g.finite
                and (not g.finite or (_close(g.value, r_g.value, _REPEAT_TOL)
                                      and np.allclose(zs, r_zs, rtol=_REPEAT_TOL, atol=0.0)))
                for (phi, g, zs), (r_phi, r_g, r_zs) in zip(out, ref))
        s, z, c, outside = self.items[index]
        oracle = {geometry.QM: oracles.support_qm_oracle(s, z),
                  geometry.MAX: oracles.support_max_oracle(s, z)}
        for model, (phi, g, z_star) in zip(geometry.MODELS, out):
            if model in oracle and not _close(phi, oracle[model], _SUPPORT_TOL):
                return False
            if g.finite == outside:
                return False
            if g.finite:
                ratio = float(np.sum(z_star * c)) / geometry.support(model, s, z_star)
                if not _close(ratio, g.value, _DUALITY_TOL):
                    return False
        self._verified[index] = out
        return True


# Built-in scenarios with the rank of their settings.
_BUILTIN_RANKS = {"chsh": 2, "pauli3": 3, "b-rot": 3, "i3322-opt": 2}

# (m, rank, out-of-range C) of the generated scenario files.
_FILE_SCENARIOS = [(2, 2, False), (3, 3, False), (4, 2, True), (5, 3, False)]

_TABLE1_ANCHORS = {
    "ppt": (None, 2.0 / 3.0),
    "gauge": (0.5, 2.0 / 3.0),
    "chsh": (1.0 - np.sqrt(0.5), 1.0 - np.sqrt(0.5)),
    "i3322": (None, 0.2),
}
_ANCHOR_TOL = 1e-4


def _rows(fmt: str, text: str, json_key: str):
    """Table rows of a report, as lists of strings, whatever the format."""
    if fmt == "json":
        return json.loads(text)[json_key]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if fmt == "csv":
        return list(csv.reader(lines))[1:]
    return [ln.split() for ln in lines[1:] if not ln.startswith("seed=")]


def _table1_ok(fmt: str, text: str) -> bool:
    rows = _rows(fmt, text, "rows")
    if fmt == "json":
        got = {r["method"]: (r["two_setting"], r["three_setting"]) for r in rows}
    else:
        blank = "-" if fmt == "text" else ""
        got = {r[0]: tuple(None if v == blank else float(v) for v in r[1:]) for r in rows}
    if set(got) != set(_TABLE1_ANCHORS):
        return False
    for method, want in _TABLE1_ANCHORS.items():
        for g, w in zip(got[method], want):
            if (g is None) != (w is None) or (w is not None and abs(g - w) > _ANCHOR_TOL):
                return False
    return True


def _ratios_ok(fmt: str, text: str, rank: int) -> bool:
    want = {"qm-over-sep": float(rank), "max-over-qm": 3.0 if rank == 3 else 1.0}
    if fmt == "json":
        payload = json.loads(text)
        return payload["rank"] == rank and payload["radii"] == want
    rows = _rows(fmt, text, "")
    return {r[0]: float(r[2]) for r in rows} == want and all(int(r[1]) == rank for r in rows)


class Reports:
    """Closed loop of in-process ``corrsets`` commands, stdout captured.

    Runs cli -> detect -> twoqubit: every command builds fresh settings, so
    per-settings caching gets no reuse, and table1's bisection sets the
    latency tail. One op is one command.
    """

    name = "reports"
    SWEEP_POINTS = 21

    def __init__(self, seed: int, workdir: str, clock=None):
        clock = clock or Stopwatch()
        rng = np.random.default_rng(seed)
        scenarios = [(["--scenario", name], rank) for name, rank in _BUILTIN_RANKS.items()]
        for m, rank, outside in _FILE_SCENARIOS:
            s = clock(oracles.random_settings, rng, m, rank)
            doc = {"A": s.a.tolist(), "B": s.b.tolist(),
                   "Z": rng.standard_normal((m, m)).tolist(),
                   "state": f"werner:{rng.uniform(0.0, 0.5):.3f}"}
            if outside:
                doc["C"] = rng.standard_normal((m, m)).tolist()
            path = os.path.join(workdir, f"scenario-m{m}-r{rank}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            clock(cli.load_scenario, path)  # a file the program rejects fails here
            scenarios.append((["--file", path], rank))

        deck = []
        for k, (where, rank) in enumerate(scenarios):
            for model in geometry.MODELS:
                deck.append((["support", "--model", model] + where, None))
                deck.append((["gauge", "--model", model] + where, None))
            for model in ("sep", "qm"):
                deck.append((["witness", "--model", model] + where, None))
            deck.append((["ratios"] + where, rank))
            deck.append((["sweep", "--model", geometry.MODELS[k % 3],
                          "--state", ("werner", "tau")[k % 2],
                          "--points", str(self.SWEEP_POINTS)] + where, None))
        deck += [(["table1"], None)] * 2
        formats = ("text", "csv", "json")
        self.items = []
        for k in rng.permutation(len(deck)):
            argv, rank = deck[k]
            fmt = formats[k % len(formats)]
            self.items.append((argv + ["--format", fmt, "--seed", str(seed)], fmt, rank))
        # One window is one pass over the deck, so each holds both table1 runs.
        self.window = len(self.items)
        self._first: dict[int, str] = {}

    @staticmethod
    def run(item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item[0])
        return code, out.getvalue()

    def check(self, index: int, out) -> bool:
        code, text = out
        if code != 0:
            return False
        first = self._first.get(index)
        if first is not None:
            return text == first
        argv, fmt, rank = self.items[index]
        if argv[0] == "table1" and not _table1_ok(fmt, text):
            return False
        if argv[0] == "ratios" and not _ratios_ok(fmt, text, rank):
            return False
        self._first[index] = text
        return True


class VerifyQuick:
    """The quick verification battery; one op is one battery.

    oracles, selfcheck and stacked numpy kernels do the work, and settings
    are drawn fresh for almost every instance, so per-settings caching has
    little to reuse and a cache built eagerly at construction shows as a
    cost here.
    """

    name = "verify-quick"
    window = 1

    def __init__(self, seed: int, workdir: str, clock=None):
        self.items = [seed]
        self._render: str | None = None

    @staticmethod
    def run(item):
        return selfcheck.run_battery("quick", item)

    def check(self, index: int, report) -> bool:
        text = report.render()
        if self._render is None and report.ok:
            self._render = text
        return report.ok and text == self._render


WORKLOADS = {w.name: w for w in (GaugeStream, Reports, VerifyQuick)}
