"""Correlation body geometry: support, gauge, membership, extreme points."""

import numpy as np
import pytest

from corrsets.detect import Z_CHSH, chsh_settings, pauli_settings
from corrsets.geometry import (MAX, MODELS, QM, SEP, GaugeValue,
                               MeasurementSettings, correlation_matrix,
                               extreme_point, gauge, membership, optimizer_z,
                               planar_settings, support)
from corrsets.oracles import (_cos_sin_m2, gauge_m2_closed_form, gram_equivalent_support,
                              random_settings, support_m2_closed_form)
from corrsets.twoqubit import rho_max, werner_state

from helpers import construct_target_Z, draw_settings, feasible_c, random_unit

RNG = np.random.default_rng(7)

ROOT8 = 2.0 * np.sqrt(2.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        MeasurementSettings(np.eye(3) * 2.0, np.eye(3))
    with pytest.raises(ValueError):
        MeasurementSettings(np.eye(3), np.eye(2))
    s = pauli_settings()
    assert s.m == 3 and s.r == 3
    flat = planar_settings(0.8, 1.1)
    assert flat.m == 2 and flat.r == 2


def test_settings_reject_nan_rows():
    with pytest.raises(ValueError):
        MeasurementSettings(np.diag([np.nan, 1.0, 1.0]), np.eye(3))


def test_settings_are_immutable():
    rows = np.eye(3)
    s = MeasurementSettings(rows, rows)
    assert s.r == 3
    with pytest.raises(AttributeError):
        s.a = np.tile([0.0, 0.0, 1.0], (3, 1))
    with pytest.raises(ValueError):
        s.a[0, 0] = 0.0
    for cached in (s.pinv_a, s.pinv_b, s.row_basis_a, s.row_basis_b):
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
    rows[0, 0] = 0.5
    assert s.a[0, 0] == 1.0 and s.r == 3


def test_gram_angles():
    s = planar_settings(0.8, 1.1, rng=5)
    assert np.isclose(s.a[0] @ s.a[1], np.cos(0.8))
    assert np.isclose(s.b[0] @ s.b[1], np.cos(1.1))
    assert np.allclose(np.linalg.norm(s.a, axis=1), 1.0)


def test_support_at_pauli_settings():
    s = pauli_settings()
    assert np.isclose(support(SEP, s, np.eye(3)), 1.0)
    assert np.isclose(support(QM, s, np.eye(3)), 1.0)
    assert np.isclose(support(MAX, s, np.eye(3)), 3.0)
    flip = np.diag([1.0, -1.0, 1.0])
    assert np.isclose(support(QM, s, flip), 3.0)


def test_support_chsh_tsirelson():
    s = chsh_settings()
    assert np.isclose(support(QM, s, Z_CHSH), ROOT8)
    assert np.isclose(support(MAX, s, Z_CHSH), ROOT8)
    # product states at these directions top out at sqrt(2), not the
    # deterministic-strategy bound 2
    assert np.isclose(support(SEP, s, Z_CHSH), np.sqrt(2.0))


def test_support_orthogonal_planar():
    s = planar_settings(np.pi / 2.0, np.pi / 2.0)
    assert np.isclose(support(SEP, s, np.eye(2)), 1.0)


def test_support_monotone_in_model():
    for _ in range(100):
        s = draw_settings(RNG, int(RNG.integers(2, 5)))
        z = RNG.standard_normal((s.m, s.m))
        vals = [support(model, s, z) for model in MODELS]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12


def test_support_m2_closed_form_matches():
    for _ in range(300):
        s = draw_settings(RNG, 2)
        z = RNG.standard_normal((2, 2))
        for model in (SEP, QM):
            a = support(model, s, z)
            b = support_m2_closed_form(model, s, z)
            assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_correlation_matrix_phi_plus():
    c = correlation_matrix(werner_state(0.0), pauli_settings())
    assert np.allclose(c, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_gauge_pinned_values():
    s = pauli_settings()
    assert np.isclose(gauge(QM, s, np.eye(3)).value, 3.0)
    assert np.isclose(gauge(MAX, s, np.eye(3)).value, 1.0)
    assert np.isclose(gauge(SEP, s, np.eye(3)).value, 3.0)
    phi_c = np.diag([1.0, -1.0, 1.0])
    assert np.isclose(gauge(QM, s, phi_c).value, 1.0)
    assert np.isclose(gauge(SEP, s, phi_c).value, 3.0)


def test_gauge_chsh_boundary():
    s = chsh_settings()
    c = correlation_matrix(werner_state(0.0), s)
    assert np.isclose(gauge(QM, s, c).value, 1.0)
    assert np.isclose(gauge(SEP, s, c).value, 2.0)


def test_gauge_scaling_and_zero():
    s = pauli_settings()
    c = correlation_matrix(werner_state(0.3), s)
    g1 = gauge(QM, s, c).value
    g2 = gauge(QM, s, 2.5 * c).value
    assert np.isclose(g2, 2.5 * g1)
    zero = gauge(QM, s, np.zeros((3, 3)))
    assert zero.finite and zero.value == 0.0


def test_gauge_infinite_off_range():
    rows = np.array([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [np.sqrt(0.5), np.sqrt(0.5), 0.0]])
    s = MeasurementSettings(rows, rows)
    g = gauge(QM, s, np.eye(3))
    assert not g.finite
    assert g.value == float("inf")
    # anything actually produced by a state stays finite
    c = correlation_matrix(werner_state(0.2), s)
    assert gauge(QM, s, c).finite


def test_c_cancelled_to_rounding_noise_reads_as_out_of_range():
    # With rank-1 settings every feasible C is +-1 times one unit matrix, so
    # an opposite pair sums to rounding noise, exact value 0. The range test
    # is scale invariant and the noise has no reason to lie in the range, so
    # the gauge is infinite there, while C = 0 itself has gauge 0.
    rng = np.random.default_rng(0)
    s = draw_settings(rng, 3, 1)
    c1 = feasible_c(rng, s)
    c2 = feasible_c(rng, s)
    while np.sum(c1 * c2) > 0.0:
        c2 = feasible_c(rng, s)
    c = c1 + c2
    assert 0.0 < np.linalg.norm(c) < 1e-15
    for model in MODELS:
        assert not gauge(model, s, c).finite
        zero = gauge(model, s, np.zeros_like(c))
        assert zero.finite and zero.value == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("fn", [gauge, optimizer_z, support])
def test_nonfinite_c_raises_before_any_arithmetic(fn, model, entry):
    c = np.eye(3)
    c[1, 2] = entry
    with pytest.raises(ValueError, match="non-finite"):
        fn(model, pauli_settings(), c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("model", [SEP, QM])
def test_support_m2_closed_form_rejects_nonfinite_z(model, entry):
    z = np.eye(2)
    z[0, 1] = entry
    with pytest.raises(ValueError, match="non-finite"):
        support_m2_closed_form(model, chsh_settings(), z)


def test_finite_c_with_overflowing_norm_is_not_rejected():
    s = pauli_settings()
    with np.errstate(over="ignore"):
        for model, value in ((SEP, 3e200), (MAX, 1e200)):
            g = gauge(model, s, 1e200 * np.eye(3))
            assert g.finite and g.value == pytest.approx(value)


EXTREME_SCALES = (1e-200, 1e-120, 1e-30, 1e30, 1e120, 1e200)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", EXTREME_SCALES)
@pytest.mark.parametrize("model", MODELS)
def test_support_and_gauge_are_homogeneous_at_extreme_scales(model, k):
    """support(kZ) = k support(Z) and gauge(kC) = k gauge(C) far from unit
    scale, with no numpy warning; a C outside the range stays infinite."""
    rng = np.random.default_rng(41)
    cases = [(pauli_settings(), np.eye(3), np.eye(3))]
    for m, rank in ((3, 3), (4, 3), (4, 2), (5, 2)):
        s = draw_settings(rng, m, rank)
        cases.append((s, rng.standard_normal((m, m)), feasible_c(rng, s)))
    for s, z, c in cases:
        assert support(model, s, k * z) / k == pytest.approx(support(model, s, z), rel=1e-12)
        g = gauge(model, s, k * c)
        assert g.finite
        assert g.value / k == pytest.approx(gauge(model, s, c).value, rel=1e-12)
    s = draw_settings(rng, 4, 2)
    off_range = rng.standard_normal((4, 4))
    assert not gauge(model, s, off_range).finite
    assert not gauge(model, s, k * off_range).finite


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1e-200, 1e-120, 1e120, 1e200])
@pytest.mark.parametrize("model", [SEP, QM])
def test_support_m2_closed_form_is_homogeneous_at_extreme_scales(model, k):
    """The closed form squares Z; far from unit scale it must neither
    overflow nor underflow, and it must still agree with support."""
    s = chsh_settings()
    z = np.array([[1.0, 0.5], [-0.3, 1.0]])
    unit = support_m2_closed_form(model, s, z)
    got = support_m2_closed_form(model, s, k * z)
    assert got / k == pytest.approx(unit, rel=1e-12)
    assert got == pytest.approx(support(model, s, k * z), rel=1e-12)


def test_gauge_value_contract():
    assert GaugeValue(False).value == float("inf")
    assert GaugeValue(True, 2.0).value == 2.0
    with pytest.raises(ValueError):
        GaugeValue(True, -1.0)


def test_gauge_m2_closed_form_matches():
    for _ in range(300):
        s = draw_settings(RNG, 2)
        c = feasible_c(RNG, s)
        for model in (SEP, QM):
            general = gauge(model, s, c)
            assert general.finite
            closed = gauge_m2_closed_form(model, s, c)
            assert abs(closed - general.value) <= 1e-9 * max(1.0, general.value)


def test_gauge_m2_closed_form_rejects_collinear():
    a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    s = MeasurementSettings(a, a)
    with pytest.raises(ValueError):
        gauge_m2_closed_form(SEP, s, np.eye(2))


def test_gauge_m2_pinned():
    s = planar_settings(np.pi / 2.0, np.pi / 2.0)
    assert np.isclose(gauge_m2_closed_form(SEP, s, np.eye(2)), 2.0)


def test_optimizer_z_attains_gauge():
    for _ in range(100):
        m = int(RNG.integers(2, 5))
        s = draw_settings(RNG, m)
        c = feasible_c(RNG, s)
        for model in MODELS:
            g = gauge(model, s, c)
            z = optimizer_z(model, s, c)
            phi = support(model, s, z)
            ratio = float(np.sum(z * c)) / phi
            assert abs(ratio - g.value) <= 1e-8 * max(1.0, g.value)


def test_optimizer_z_rejects_degenerate_targets():
    s = pauli_settings()
    with pytest.raises(ValueError):
        optimizer_z(QM, s, np.zeros((3, 3)))


def test_membership_nesting():
    for _ in range(50):
        s = draw_settings(RNG, 3)
        c = 0.5 * feasible_c(RNG, s)
        flags = [membership(model, s, c) for model in MODELS]
        # sep membership implies qm membership implies max membership
        assert flags == sorted(flags)


def test_membership_boundary():
    s = pauli_settings()
    c = np.diag([1.0, -1.0, 1.0])
    assert membership(QM, s, c)
    assert not membership(QM, s, 1.01 * c)
    assert not membership(SEP, s, c)
    assert membership(SEP, s, c / 3.0)


def test_extreme_points_sit_on_boundary():
    for _ in range(50):
        s = draw_settings(RNG, 3)
        ra, rb = random_unit(RNG), random_unit(RNG)
        c_sep = extreme_point(SEP, s, (ra, rb))
        assert abs(gauge(SEP, s, c_sep).value - 1.0) <= 1e-8


def test_extreme_point_validation():
    s = pauli_settings()
    with pytest.raises(ValueError):
        extreme_point(SEP, s, (np.ones(3), np.ones(3)))
    with pytest.raises(ValueError):
        extreme_point(QM, s, np.eye(3))          # det +1 not allowed
    c = extreme_point(QM, s, np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(c, np.diag([1.0, -1.0, 1.0]))
    c = extreme_point(MAX, s, np.eye(3))
    assert np.allclose(c, np.eye(3))


def test_construct_target_z():
    for _ in range(50):
        m = int(RNG.integers(2, 5))
        s = draw_settings(RNG, m)
        k = int(RNG.integers(1, s.r + 1))
        target = np.sort(RNG.uniform(0.5, 2.0, size=k))[::-1]
        z = construct_target_Z(s, target)
        sv = np.linalg.svd(s.a.T @ z @ s.b, compute_uv=False)
        assert np.allclose(sv[:k], target, atol=1e-8)
        assert np.all(sv[k:] <= 1e-8)


def test_construct_target_z_det_sign():
    for sign in (-1, 1):
        for _ in range(20):
            s = draw_settings(RNG, 3)
            target = np.array([2.0, 1.5, 0.5])
            z = construct_target_Z(s, target, det_sign_req=sign)
            frame = s.a.T @ z @ s.b
            assert np.sign(np.linalg.det(frame)) == sign
            assert np.allclose(np.linalg.svd(frame, compute_uv=False),
                               target, atol=1e-8)
    with pytest.raises(ValueError):
        construct_target_Z(pauli_settings(), [1.0, 0.5], det_sign_req=1)


def test_gram_equivalent_support_agrees():
    for _ in range(200):
        m = int(RNG.integers(2, 5))
        s = draw_settings(RNG, m)
        z = RNG.standard_normal((m, m))
        for model, viagram in zip(MODELS, gram_equivalent_support(s.a, s.b, z)):
            direct = support(model, s, z)
            assert abs(direct - viagram) <= 1e-8 * max(1.0, direct)


def test_stacked_gram_supports_are_the_single_instance_route():
    rng = np.random.default_rng(71)
    for m in range(1, 6):
        for rank in range(1, min(3, m) + 1):
            ss = [random_settings(rng, m, rank) for _ in range(25)]
            zs = rng.standard_normal((25, m, m))
            stacked = gram_equivalent_support(np.stack([s.a for s in ss]),
                                              np.stack([s.b for s in ss]), zs)
            single = [gram_equivalent_support(s.a, s.b, z).tolist() for s, z in zip(ss, zs)]
            assert stacked.shape == (25, len(MODELS)) and stacked.tolist() == single


def test_gram_equivalent_support_rejects_bad_input():
    s = pauli_settings()
    with pytest.raises(ValueError, match="shapes"):
        gram_equivalent_support(s.a, s.b, np.eye(2))
    with pytest.raises(ValueError, match="shapes"):
        gram_equivalent_support(s.a, s.b[:2], np.eye(3))
    with pytest.raises(ValueError, match="shapes"):
        gram_equivalent_support(s.a[None], s.b[None], np.eye(3))
    with pytest.raises(ValueError, match="z has non-finite"):
        gram_equivalent_support(s.a, s.b, np.diag([1.0, np.inf, 1.0]))
    with pytest.raises(ValueError, match="a has non-finite"):
        gram_equivalent_support(np.full((3, 3), np.nan), s.b, np.eye(3))


def test_gram_angles_match_the_cross_product_route():
    rng = np.random.default_rng(72)
    cases = [planar_settings(alpha, beta, rng) for alpha, beta in
             ((0.8, 1.1), (1e-7, np.pi - 1e-7), (np.pi / 2, 0.3))]
    cases += [random_settings(rng, 2, rank) for rank in (1, 2) for _ in range(30)]
    for s in cases:
        expected = (float(s.a[0] @ s.a[1]), float(np.linalg.norm(np.cross(s.a[0], s.a[1]))),
                    float(s.b[0] @ s.b[1]), float(np.linalg.norm(np.cross(s.b[0], s.b[1]))))
        assert _cos_sin_m2(s) == expected
    with pytest.raises(ValueError, match="m = 2"):
        _cos_sin_m2(pauli_settings())


def test_rho_max_sits_at_three():
    s = pauli_settings()
    c = correlation_matrix(rho_max(), s)
    assert np.allclose(c, np.eye(3))
    assert np.isclose(gauge(QM, s, c).value, 3.0)
    assert membership(MAX, s, c)
    assert not membership(QM, s, c)
