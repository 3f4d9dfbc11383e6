"""The verification battery's bookkeeping: stacked offers pick the same
replay as sequential ones, a NaN deviation fails its check, the stacked
checks reproduce their former per-instance loops, and a quick battery still
calls the public verification kernels that its stacked checks replay."""

import collections
import itertools
import math
import sys

import numpy as np
import pytest

from corrsets import geometry, oracles, selfcheck, smallmat, twoqubit
from corrsets.geometry import QM, SEP
from corrsets.smallmat import (norm_minus, norm_plus, op_norm, random_rotation, signed_svals,
                               trace_norm)

from helpers import scalar_gauge_m2, scalar_gram_2x2, scalar_skew_2x2, scalar_support_m2

SIZES = selfcheck._SIZES["quick"]


def _sequential(devs):
    worst = selfcheck._Worst()
    for i, dev in enumerate(devs):
        worst.offer(dev, index=i)
    return worst


def _stacked(devs):
    worst = selfcheck._Worst()
    worst.offer_stack(np.asarray(devs, dtype=float), lambda i: {"index": i})
    return worst


@pytest.mark.parametrize("devs", [
    [0.0, 0.0, 0.0],
    [1e-17, 3e-16, 2e-16, 3e-16, 1e-16],
    [5e-16, 5e-16],
    [2e-16, np.nan, 1.0, np.nan],
    [np.nan],
    [],
])
def test_stacked_offer_matches_sequential_offers(devs):
    seq, stk = _sequential(devs), _stacked(devs)
    assert seq.detail == stk.detail
    assert seq.value == stk.value or (math.isnan(seq.value) and math.isnan(stk.value))


def test_ties_keep_the_first_index_and_nan_wins():
    assert _stacked([1.0, 3.0, 3.0]).detail == '{"index": 1}'
    worst = _stacked([1.0, np.nan, 3.0, np.nan])
    assert math.isnan(worst.value) and worst.detail == '{"index": 1}'
    assert not worst.result("x", 4, 1e-9).passed


def test_stacked_offers_continue_a_sequential_worst():
    worst = selfcheck._Worst()
    worst.offer(2.0, index=-1)
    worst.offer_stack(np.array([1.0, 2.0]), lambda i: {"index": i})
    assert worst.detail == '{"index": -1}'
    worst.offer_stack(np.array([1.0, 2.5]), lambda i: {"index": i})
    assert (worst.value, worst.detail) == (2.5, '{"index": 1}')


def test_nanmax_propagates_nan_and_keeps_max_otherwise():
    assert math.isnan(selfcheck._nanmax(0.0, float("nan"), 1.0))
    assert math.isnan(selfcheck._nanmax(float("nan"), 0.0))
    assert selfcheck._nanmax(0.0, 2.0, 1.0) == 2.0
    assert math.copysign(1.0, selfcheck._nanmax(0.0, -0.0)) == 1.0


def _run(check, seed=3):
    return {r.name: r for r in check(np.random.default_rng(seed), SIZES)}


def test_nan_gram_support_fails_gram_equivalence(monkeypatch):
    real = oracles.gram_equivalent_support

    def poisoned(a, b, z):
        out = real(a, b, z)
        out[-1, 1] = np.nan
        return out

    monkeypatch.setattr(oracles, "gram_equivalent_support", poisoned)
    result = _run(selfcheck._check_gram_equivalence)["gram-equivalence"]
    assert not result.passed and math.isnan(result.worst)
    assert '"model": "qm"' in result.detail


def test_gram_equivalence_evaluates_one_stack_per_m(monkeypatch):
    shapes = []
    real = oracles.gram_equivalent_support

    def spy(a, b, z):
        shapes.append(np.shape(z))
        return real(a, b, z)

    monkeypatch.setattr(oracles, "gram_equivalent_support", spy)
    result = _run(selfcheck._check_gram_equivalence)["gram-equivalence"]
    assert result.passed
    assert sorted(shape[1] for shape in shapes) == [2, 3, 4, 5]
    assert sum(shape[0] for shape in shapes) == SIZES["identity"] == result.instances


def test_nan_intrinsic_determinant_fails(monkeypatch):
    real = selfcheck.det3_intrinsic
    monkeypatch.setattr(selfcheck, "det3_intrinsic",
                        lambda a, b, z: np.full(np.shape(real(a, b, z)), np.nan))
    result = _run(selfcheck._check_kernel_identities)["intrinsic-determinant"]
    assert not result.passed and math.isnan(result.worst)


def test_nan_pseudoinverse_fails_its_laws(monkeypatch):
    monkeypatch.setattr(selfcheck, "pinv", lambda x: np.full(np.shape(x)[::-1], np.nan))
    results = _run(selfcheck._check_kernel_identities)
    assert not results["pseudoinverse-laws"].passed
    assert math.isnan(results["pseudoinverse-laws"].worst)
    assert results["intrinsic-determinant"].passed


def test_nan_bell_spectrum_fails_with_its_replay(monkeypatch):
    monkeypatch.setattr(selfcheck.np.linalg, "eigvalsh",
                        lambda ops: np.full(np.shape(ops)[:-1], np.nan))
    result = _run(selfcheck._check_bell_spectrum)["bell-operator-spectrum"]
    assert not result.passed and math.isnan(result.worst)
    assert '"actual": [NaN' in result.detail



@pytest.mark.parametrize("m_stop", [5, 6])
def test_draw_settings_keeps_the_rng_order(m_stop):
    # m, then the rank, then the settings: the order the checks drew in
    # before they shared one draw path, so their instances stay the same
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        s = selfcheck._draw_settings(rng, m_stop)
        m = int(ref.integers(2, m_stop))
        want = oracles.random_settings(ref, m, int(ref.integers(1, min(3, m) + 1)))
        assert 2 <= s.m < m_stop
        assert np.array_equal(s.a, want.a) and np.array_equal(s.b, want.b)
        assert rng.random() == ref.random()


def _one_by_one(rng, m_stop, tail):
    """A settings draw and its normals as the checks drew them before they
    shared the stacked draw: a Z of shape (m, m), or the 3x3 block of a C."""
    s = selfcheck._draw_settings(rng, m_stop)
    return s, rng.standard_normal(tail or (s.m, s.m))


def _assert_instances_match_one_by_one_draws(seed, n, m_stop=6, tail=None):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = selfcheck._random_instances(rng, n, m_stop, tail)
    assert len(got) == n
    for (s, z), (t, y) in zip(got, [_one_by_one(ref, m_stop, tail) for _ in range(n)]):
        assert np.array_equal(s.a, t.a) and np.array_equal(s.b, t.b)
        assert np.array_equal(z, y)
        assert s.m < m_stop
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [1, 2, 13, 200])
def test_random_instances_are_the_one_by_one_draws(n):
    # the stacked draw keeps the bit stream, so the checks' instances and
    # every rng draw after them stay as they were
    for seed in range(8):
        _assert_instances_match_one_by_one_draws(seed, n)


@pytest.mark.parametrize("m_stop", [5, 6])
@pytest.mark.parametrize("n", [1, 13, 150])
def test_c_draws_are_the_one_by_one_draws(n, m_stop):
    # the gauge-duality and symmetry checks draw the 3x3 normals of a C
    # after each settings, where the other checks draw an m x m Z
    for seed in range(8):
        _assert_instances_match_one_by_one_draws(seed, n, m_stop, (3, 3))


def test_a_redraw_rewinds_the_rng_and_draws_one_by_one(monkeypatch):
    real = oracles._party_rows
    stacked_rejections, single_calls = [], []

    def reject_a_stacked_block(g, m, rank):
        rows, ok = real(g, m, rank)
        if g.ndim < 3:  # a random_settings call: both parties, or one
            single_calls.append(m)
        elif len(g) > 1 and not stacked_rejections:
            stacked_rejections.append(m)
            ok[len(g) // 2] = False
        return rows, ok

    monkeypatch.setattr(oracles, "_party_rows", reject_a_stacked_block)
    for seed, tail in itertools.product(range(4), (None, (3, 3))):
        stacked_rejections.clear()
        single_calls.clear()
        _assert_instances_match_one_by_one_draws(seed, 40, tail=tail)
        assert len(stacked_rejections) == 1
        # the fallback plus the reference: one two-party call per instance, twice
        assert len(single_calls) == 2 * 40


def test_finite_gauge_draws_skip_and_keep_model_order(monkeypatch):
    real = geometry.gauge
    calls = []

    def every_other_infinite(model, s, c):
        calls.append(model)
        return real(model, s, c) if len(calls) % 2 else geometry.GaugeValue(False)

    monkeypatch.setattr(geometry, "gauge", every_other_infinite)
    draws = list(selfcheck._finite_gauge_draws(np.random.default_rng(3), 10, 5))
    assert calls == [model for model in geometry.MODELS for _ in range(10)]
    assert len(draws) == 15
    assert [d[0] for d in draws] == [model for model in geometry.MODELS for _ in range(5)]
    assert all(g.finite and g.value > 1e-12 and s.m <= 4 for _, s, _, g in draws)


def test_rigidity_runs_one_descent_per_instance_with_zero_bare_parts(monkeypatch):
    stacks, replays = [], []
    real_stack, real_public = twoqubit._block_positivity_stack, twoqubit.block_positivity_minimum

    def stack_spy(ra, rb, t, restarts, seeds):
        stacks.append((ra, rb))
        return real_stack(ra, rb, t, restarts, seeds)

    def public_spy(p, restarts, seed):
        replays.append(p)
        return real_public(p, restarts=restarts, seed=seed)

    monkeypatch.setattr(twoqubit, "_block_positivity_stack", stack_spy)
    monkeypatch.setattr(twoqubit, "block_positivity_minimum", public_spy)
    result, = selfcheck._check_rigidity(np.random.default_rng(3), {"rigidity": 20})
    assert result.passed and result.instances == 20
    # one stack of local forms and one of bare forms, then the worst instance
    # replayed through the public descent, which runs the stack on its one form
    assert len(stacks) == 3 and len(replays) == 1 and len(stacks[2][0]) == 1
    assert sum(len(ra) for ra, _ in stacks[:2]) in range(11, 21)
    bare = [ra for ra, rb in stacks[:2] if not (ra.any() or rb.any())]
    local = [ra for ra, _ in stacks[:2] if np.all(np.linalg.norm(ra, axis=1) > 1e-12)]
    assert len(bare) == len(local) == 1 and len(bare[0]) == 10


def _former_ell_2x2(theta):
    return np.array([[1.0, -np.exp(1j * theta)],
                     [-np.exp(-1j * theta), 1.0]]) / np.sin(theta) ** 2


def _former_f_4x4(alpha, beta):
    ca, cb = np.cos(alpha), np.cos(beta)
    f = np.array([
        [1.0, -ca, -cb, np.cos(alpha + beta)],
        [-ca, 1.0, np.cos(alpha - beta), -cb],
        [-cb, np.cos(alpha - beta), 1.0, -ca],
        [np.cos(alpha + beta), -cb, -ca, 1.0],
    ])
    return f / (np.sin(alpha) ** 2 * np.sin(beta) ** 2)


def _former_m2_forms(rng, sizes, offered):
    """_check_m2_forms as it was written before its stacked routes, on the
    scalar closed forms; each deviation it offers is appended to offered."""
    n = sizes["m2"]
    worst = selfcheck._Worst()
    for i in range(n):
        near_degenerate = i % 8 == 7
        if near_degenerate:
            log_product = -6.0 if i % 16 == 15 else rng.uniform(-6.0, -2.5)
            sines = np.sqrt(10.0 ** log_product)
            alpha = np.arcsin(sines) if rng.integers(2) else np.pi - np.arcsin(sines)
            beta = np.arcsin(sines) if rng.integers(2) else np.pi - np.arcsin(sines)
        else:
            alpha = rng.uniform(0.05, np.pi - 0.05)
            beta = rng.uniform(0.05, np.pi - 0.05)
        s = geometry.planar_settings(alpha, beta, rng)
        z = rng.standard_normal((2, 2))
        c = selfcheck._finite_c(s, rng.standard_normal((3, 3)))

        checks = []
        for model in (SEP, QM):
            checks.append((geometry.support(model, s, z), scalar_support_m2(model, s, z),
                           "support-" + model))
        g_sep = geometry.gauge(SEP, s, c)
        if g_sep.finite:
            checks.append((g_sep.value, scalar_gauge_m2(SEP, s, c), "gauge-sep"))
        g_qm = geometry.gauge(QM, s, c)
        if g_qm.finite:
            checks.append((g_qm.value, scalar_gauge_m2(QM, s, c), "gauge-qm"))

        ga, gb = scalar_gram_2x2(np.cos(alpha)), scalar_gram_2x2(np.cos(beta))
        zv = z.T.ravel()
        kq = float(zv @ np.kron(gb, ga) @ zv)
        jq = complex(zv @ np.kron(scalar_skew_2x2(np.cos(beta), np.sin(beta)), ga) @ zv)
        checks.append((geometry.support(SEP, s, z),
                       np.sqrt((kq + abs(jq)) / 2.0), "support-sep-vec"))

        if not near_degenerate:
            ga_inv = np.linalg.inv(ga)
            gb_inv = np.linalg.inv(gb)
            sep_trace = float(np.trace(ga_inv @ c @ gb_inv @ c.T))
            sep_lit = np.sqrt(max(0.0, sep_trace
                                  + 2.0 * abs(float(np.linalg.det(c)))
                                  / (np.sin(alpha) * np.sin(beta))))
            checks.append((g_sep.value, sep_lit, "gauge-sep-literal"))
            la = _former_ell_2x2(alpha)
            t_plus = complex(np.trace(la @ c @ _former_ell_2x2(beta).T @ c.T)).real
            t_minus = complex(np.trace(la @ c @ _former_ell_2x2(-beta).T @ c.T)).real
            ell_val = 0.5 * (np.sqrt(max(0.0, t_plus)) + np.sqrt(max(0.0, t_minus)))
            checks.append((g_qm.value, ell_val, "gauge-qm-literal"))
            cv = c.T.ravel()
            fq = float(cv @ _former_f_4x4(alpha, beta) @ cv)
            fq_m = float(cv @ _former_f_4x4(alpha, -beta) @ cv)
            vec_val = 0.5 * (np.sqrt(max(fq, 0.0)) + np.sqrt(max(fq_m, 0.0)))
            checks.append((g_qm.value, vec_val, "gauge-qm-vec"))

        for general, closed, tag in checks:
            offered.append(abs(general - closed) / max(1.0, abs(general)))
            worst.offer(offered[-1], tag=tag, alpha=alpha, beta=beta, a=s.a, b=s.b, z=z,
                        c=c, general=general, closed=closed)
    return [worst.result("m2-closed-forms", n, selfcheck._TOL_EXACT)]


def _former_asymmetric_norms(rng, sizes, terms):
    """_check_asymmetric_norms as it was written before its stacked routes,
    with the one-matrix rotation maximizer written out; the terms of each
    result are appended to terms[result]."""
    n = max(20, sizes["identity"] // 20)
    chain_dev = dual_dev = hull_dev = 0.0
    for _ in range(n):
        x = rng.standard_normal((3, 3))
        lo, hi, tn = norm_minus(x), norm_plus(x), trace_norm(x)
        op = op_norm(x)
        chain = [op - lo, op - hi, lo - tn, hi - tn,
                 abs(norm_plus(-x) - lo), abs(norm_minus(-x) - hi)]
        if float(np.linalg.det(x)) >= 0.0:
            chain.append(lo - hi)
        chain_dev = selfcheck._nanmax(chain_dev, *chain)

        ys = rng.standard_normal((50, 3, 3))
        numer = np.einsum("ij,kij->k", x, ys)
        sv, sign = signed_svals(ys)
        sampled = float((numer / (sv[:, 0] + sv[:, 1] - sv[:, 2] * sign)).max())
        u, s, v = oracles.special_svd(x)
        q = u @ np.diag([1.0, 1.0, 1.0]) @ v.T
        attained = float(np.sum(x * q)) / norm_minus(q)
        dual = [sampled - hi, abs(attained - hi)]
        dual_dev = selfcheck._nanmax(dual_dev, *dual)

        qs = np.stack([random_rotation(rng, "SO3") for _ in range(5)])
        mix = np.tensordot(rng.dirichlet(np.ones(5)), qs, axes=1)
        hull = [norm_minus(mix) - 1.0]
        hull_dev = selfcheck._nanmax(hull_dev, *hull)
        for name, values in (("chain", chain), ("dual", dual), ("hull", hull)):
            terms[name] += values
    return [
        selfcheck._result("asymmetric-norm-chain", n, chain_dev, selfcheck._TOL_EXACT),
        selfcheck._result("asymmetric-norm-duality", n * 50, dual_dev, selfcheck._TOL_EIG),
        selfcheck._result("rotation-hull-unit-ball", n * 5, hull_dev, selfcheck._TOL_EXACT),
    ]


def _hexes(values):
    return [float.hex(float(v)) for v in values]


def _assert_same_results(got, want):
    assert got == want
    assert _hexes(r.worst for r in got) == _hexes(r.worst for r in want)


@pytest.mark.parametrize("seed", range(5))
def test_stacked_m2_check_is_the_former_loop(seed, monkeypatch):
    stacked, single = [], []
    real_stack, real_offer = selfcheck._Worst.offer_stack, selfcheck._Worst.offer

    def offer_stack(self, devs, replay):
        stacked.append(devs.copy())
        real_stack(self, devs, replay)

    def offer(self, dev, **instance):
        single.append((instance["tag"], dev))
        real_offer(self, dev, **instance)

    monkeypatch.setattr(selfcheck._Worst, "offer_stack", offer_stack)
    monkeypatch.setattr(selfcheck._Worst, "offer", offer)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = selfcheck._check_m2_forms(rng, SIZES)
    offered = []
    monkeypatch.setattr(selfcheck._Worst, "offer", real_offer)
    want = _former_m2_forms(ref, SIZES, offered)
    _assert_same_results(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    # every deviation in the same order and bits, and a replay through the
    # public closed forms that lands on the stacked values exactly
    assert len(stacked) == 1 and _hexes(stacked[0]) == _hexes(offered)
    assert [dev for tag, dev in single if tag == "public-replay"] == [0.0]


@pytest.mark.parametrize("seed", range(5))
def test_stacked_asymmetric_norm_check_is_the_former_loop(seed, monkeypatch):
    calls = []
    real = selfcheck._nanmax

    def spy(*devs):
        calls.append(devs)
        return real(*devs)

    monkeypatch.setattr(selfcheck, "_nanmax", spy)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = selfcheck._check_asymmetric_norms(rng, SIZES)
    monkeypatch.setattr(selfcheck, "_nanmax", real)
    terms = collections.defaultdict(list)
    want = _former_asymmetric_norms(ref, SIZES, terms)
    _assert_same_results(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    # each result folds its terms, in iteration order, and a replay distance
    # of exactly 0 (the chain's terms hold -inf where det x < 0 drops lo - hi)
    n = got[0].instances
    folds = [devs for devs in calls if len(devs) > n]
    assert len(folds) == 3
    for devs, name in zip(folds, ("chain", "dual", "hull")):
        assert devs[0] == 0.0 and devs[-1] == 0.0
        assert _hexes(d for d in devs[1:-1] if d != -np.inf) == _hexes(terms[name])


_REPLAYED = {oracles: ("support_m2_closed_form", "gauge_m2_closed_form",
                       "max_trace_over_rotations"),
             smallmat: ("norm_plus", "norm_minus", "op_norm", "trace_norm", "signed_svals")}


def test_quick_battery_calls_the_replayed_public_kernels(monkeypatch):
    # The stacked checks evaluate these on stacks of their own, and replay
    # their worst instance through the public functions; a battery that
    # stopped calling one of them would leave it without a workload.
    assert selfcheck.norm_plus is smallmat.norm_plus
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "corrsets"]
    for owner, names in _REPLAYED.items():
        for name in names:
            fn = getattr(owner, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, spy)
    report = selfcheck.run_battery("quick", 0)
    assert report.ok
    assert {name for names in _REPLAYED.values() for name in names} <= {
        name for name, count in calls.items() if count >= 1}
