"""The verification battery's bookkeeping: stacked offers pick the same
replay as sequential ones, and a NaN deviation fails its check."""

import math

import numpy as np
import pytest

from corrsets import oracles, selfcheck

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

