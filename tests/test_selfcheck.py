"""The verification battery's bookkeeping: stacked offers pick the same
replay as sequential ones, and a NaN deviation fails its check."""

import math

import numpy as np
import pytest

from corrsets import geometry, oracles, selfcheck, twoqubit

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


def _assert_instances_match_one_by_one_draws(seed, n):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = selfcheck._random_instances(rng, n)
    assert len(got) == n
    for (s, z), (t, y) in zip(got, [selfcheck._random_instance(ref) for _ in range(n)]):
        assert np.array_equal(s.a, t.a) and np.array_equal(s.b, t.b)
        assert np.array_equal(z, y)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [1, 2, 13, 200])
def test_random_instances_are_the_one_by_one_draws(n):
    # the stacked draw keeps the bit stream, so the checks' instances and
    # every rng draw after them stay as they were
    for seed in range(8):
        _assert_instances_match_one_by_one_draws(seed, n)


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
    for seed in range(4):
        stacked_rejections.clear()
        single_calls.clear()
        _assert_instances_match_one_by_one_draws(seed, 40)
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
    forms = []
    real = twoqubit.block_positivity_minimum

    def spy(p, restarts, seed):
        forms.append(p)
        return real(p, restarts=restarts, seed=seed)

    monkeypatch.setattr(twoqubit, "block_positivity_minimum", spy)
    result, = selfcheck._check_rigidity(np.random.default_rng(3), {"rigidity": 20})
    assert result.passed and result.instances == 20
    assert len(forms) in range(11, 21)
    bare = [p for p in forms if not (p.ra.any() or p.rb.any())]
    assert len(bare) == 10
