"""Independent oracles agreeing with the closed-form geometry."""

import numpy as np
import pytest

from corrsets.detect import (MAX_OVER_QM, QM_OVER_SEP, Z_CHSH, chsh_settings,
                             pauli_settings)
from corrsets.geometry import (MAX, MODELS, QM, SEP, extreme_point, gauge,
                               membership, optimizer_z, support)
from corrsets.oracles import (OracleConfig, _party_rows, fibonacci_sphere,
                              gauge_dual_oracle, hull_membership_oracle,
                              random_settings, ratio_scan, support_max_oracle,
                              support_qm_oracle, support_sep_oracle)
from corrsets.smallmat import random_rotation, trace_norm

from helpers import draw_settings, feasible_c, random_unit

RNG = np.random.default_rng(55)

FAST = OracleConfig(grid_points=512, restarts=8, samples=500)


def test_fibonacci_sphere():
    pts = fibonacci_sphere(2000)
    assert pts.shape == (2000, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.01)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(samples=0)


def test_sep_oracle_is_one_sided():
    for _ in range(40):
        s = draw_settings(RNG, int(RNG.integers(2, 5)))
        z = RNG.standard_normal((s.m, s.m))
        truth = support(SEP, s, z)
        est = support_sep_oracle(s, z, FAST)
        assert est <= truth + 1e-9
        assert est >= truth - 1e-4 * max(1.0, truth)


def test_qm_oracle_pinned():
    assert np.isclose(support_qm_oracle(pauli_settings(), np.eye(3)), 1.0)
    assert np.isclose(support_qm_oracle(chsh_settings(), Z_CHSH),
                      2.0 * np.sqrt(2.0))


def test_max_oracle_pinned():
    assert np.isclose(support_max_oracle(pauli_settings(), np.eye(3)), 3.0)
    assert np.isclose(support_max_oracle(chsh_settings(), Z_CHSH),
                      2.0 * np.sqrt(2.0))


def test_spectral_oracles_match_closed_forms():
    for _ in range(200):
        m = int(RNG.integers(2, 5))
        s = draw_settings(RNG, m, rank=int(RNG.integers(1, min(3, m) + 1)))
        z = RNG.standard_normal((s.m, s.m))
        scale = max(1.0, trace_norm(s.a.T @ z @ s.b))
        assert abs(support_qm_oracle(s, z) - support(QM, s, z)) <= 1e-9 * scale
        assert abs(support_max_oracle(s, z) - support(MAX, s, z)) <= 1e-9 * scale


def test_gauge_dual_oracle_agrees():
    cfg = OracleConfig(samples=200)
    for _ in range(40):
        s = draw_settings(RNG, int(RNG.integers(2, 5)))
        c = feasible_c(RNG, s)
        for model in MODELS:
            g = gauge(model, s, c)
            est = gauge_dual_oracle(model, s, c, cfg)
            assert abs(est - g.value) <= 1e-8 * max(1.0, g.value)


def test_hull_membership_accepts_combinations():
    for model in MODELS:
        for _ in range(10):
            s = draw_settings(RNG, 3)
            points = []
            for _ in range(5):
                if model == SEP:
                    points.append(extreme_point(
                        model, s, (random_unit(RNG), random_unit(RNG))))
                else:
                    comp = "SO3_minus" if model == QM else "O3"
                    points.append(extreme_point(
                        model, s, random_rotation(RNG, comp)))
            weights = RNG.dirichlet(np.ones(5))
            c = np.tensordot(weights, np.stack(points), axes=1)
            assert hull_membership_oracle(model, s, c)
            assert membership(model, s, c, tol=1e-6)


def test_hull_membership_rejects_outside_points():
    checked = 0
    for model in MODELS:
        for _ in range(10):
            s = draw_settings(RNG, 3)
            if model == SEP:
                c = extreme_point(model, s, (random_unit(RNG), random_unit(RNG)))
            else:
                comp = "SO3_minus" if model == QM else "O3"
                c = extreme_point(model, s, random_rotation(RNG, comp))
            out = 1.01 * c
            # only assert when a supporting plane certifies the point is
            # farther outside than the oracle's distance tolerance; flat
            # bodies can leave 1.01x within it
            z = optimizer_z(model, s, out)
            margin = (float(np.sum(z * out)) - support(model, s, z)) \
                / np.linalg.norm(z)
            if margin > 3e-4:
                assert not hull_membership_oracle(model, s, out)
                checked += 1
    assert checked >= 20


def test_hull_membership_zero_and_scaling():
    s = pauli_settings()
    assert hull_membership_oracle(QM, s, np.zeros((3, 3)))
    inside = 0.3 * np.diag([1.0, -1.0, 1.0])
    assert hull_membership_oracle(SEP, s, inside)
    assert not hull_membership_oracle(SEP, s, 2.0 * np.diag([1.0, -1.0, 1.0]))


def test_hull_membership_matches_gauge_verdict():
    hits = 0
    for _ in range(60):
        s = draw_settings(RNG, 3)
        c = RNG.uniform(0.3, 1.7) * feasible_c(RNG, s)
        for model in MODELS:
            g = gauge(model, s, c).value
            if g <= 1.0:
                assert hull_membership_oracle(model, s, c)
                hits += 1
                continue
            z = optimizer_z(model, s, c)
            margin = (float(np.sum(z * c)) - support(model, s, z)) \
                / np.linalg.norm(z)
            if margin > 3e-4:
                assert not hull_membership_oracle(model, s, c)
                hits += 1
    assert hits > 100


def test_ratio_scan_pinned_cases():
    # at orthogonal full-rank settings every scanned extreme point
    # already sits at the exact radius
    res = ratio_scan(pauli_settings(), QM_OVER_SEP, OracleConfig(samples=50))
    assert abs(res.value - 3.0) <= 1e-9
    g = gauge(SEP, pauli_settings(), res.maximizer_c)
    assert abs(g.value - res.value) <= 1e-9
    # with rank-two settings the quantum and maximal bodies coincide
    res = ratio_scan(chsh_settings(), MAX_OVER_QM, OracleConfig(samples=50))
    assert abs(res.value - 1.0) <= 1e-9


def test_ratio_scan_bounded_by_exact_radius():
    for s, pair, radius in ((chsh_settings(), QM_OVER_SEP, 2.0),
                            (pauli_settings(), MAX_OVER_QM, 3.0)):
        res = ratio_scan(s, pair, OracleConfig(samples=400))
        assert res.value <= radius + 1e-9
        assert res.value >= radius - 0.5


def test_ratio_scan_validation():
    with pytest.raises(ValueError):
        ratio_scan(pauli_settings(), "qm-over-max")


def test_random_settings_contract():
    for m in (2, 3, 4):
        for rank in range(1, min(3, m) + 1):
            s = random_settings(RNG, m, rank)
            assert s.m == m
            assert s.rank_a == rank
            assert s.rank_b == rank
            assert np.allclose(np.linalg.norm(s.a, axis=1), 1.0)
    with pytest.raises(ValueError):
        random_settings(RNG, 2, 3)
    with pytest.raises(ValueError):
        random_settings(RNG, 3, 0)


@pytest.mark.parametrize("m, rank", [(m, r) for m in (1, 2, 3, 4, 5) for r in (1, 2, 3) if r <= m])
def test_stacked_party_rows_are_the_sequential_draws(m, rank):
    # One stack of k tries, two parties each, against k random_settings
    # calls on the same stream. This pins the bit-equality of the stacked
    # qr, matmul, norm and svd with the per-matrix calls, which the battery's
    # stacked draws rely on; a numpy or BLAS build that breaks it fails here.
    k = 50
    rng, ref = np.random.default_rng(100 * m + rank), np.random.default_rng(100 * m + rank)
    rows, ok = _party_rows(rng.standard_normal((k, 2, 9 + m * rank)), m, rank)
    assert rows.shape == (k, 2, m, 3) and ok.all()
    for pair in rows:
        s = random_settings(ref, m, rank)
        assert np.array_equal(pair[0], s.a) and np.array_equal(pair[1], s.b)
    assert rng.random() == ref.random()


def test_party_rows_flag_short_rows_and_rank_loss():
    g = np.random.default_rng(4).standard_normal((3, 9 + 3 * 2))
    g[1, 9:11] = 0.0  # first row's coefficients: a zero row
    g[2, 11:] = np.tile(g[2, 9:11], 2)  # three equal rows: rank 1, not 2
    rows, ok = _party_rows(g, 3, 2)
    assert ok.tolist() == [True, False, False]
    assert np.all(np.isfinite(rows))
