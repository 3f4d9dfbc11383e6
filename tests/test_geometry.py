"""Correlation body geometry: support, gauge, membership, extreme points."""

import dataclasses
import itertools
import weakref

import numpy as np
import pytest

from corrsets import cli, geometry
from corrsets.detect import (Z_CHSH, chsh_settings, i3322_settings, pauli_settings,
                             rotated_settings)
from corrsets.geometry import (MAX, MODELS, QM, SEP, GaugeValue,
                               MeasurementSettings, _gauge_spectrum, _range_deficit,
                               _support_spectrum, correlation_matrix, extreme_point, gauge,
                               membership, optimizer_z, planar_settings, support)
from corrsets.oracles import (_cos_sin_m2, gauge_m2_closed_form, gram_equivalent_support,
                              random_settings, support_m2_closed_form)
from corrsets.smallmat import (EPS, RANK_TOL, _op_norm, _trace, _trace_norm, norm_minus, norm_plus,
                               op_norm, random_rotation, signed_svals, trace_norm)
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


def test_settings_row_check_is_the_row_norm_test():
    """The row check sums the squares itself; that is np.linalg.norm(rows,
    axis=1) bit for bit, so the same rows pass and fail as with it."""
    rng = np.random.default_rng(71)
    for m in range(1, 6):
        rows = rng.standard_normal((m, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        assert np.array_equal(np.sqrt((rows * rows).sum(axis=1)), np.linalg.norm(rows, axis=1))
        MeasurementSettings(rows, rows)
        for scale, ok in ((1 + 0.9e-9, True), (1 + 1.1e-9, False), (1 - 1.1e-9, False)):
            scaled = rows.copy()
            scaled[-1] *= scale
            if ok:
                MeasurementSettings(scaled, rows)
            else:
                with pytest.raises(ValueError, match="unit vectors"):
                    MeasurementSettings(rows, scaled)


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


def test_settings_compare_and_hash_by_identity():
    s, t = pauli_settings(), pauli_settings()
    assert s._stack.tobytes() == t._stack.tobytes()
    assert (s == t) is False and (s != t) is True  # no elementwise array compare
    assert s == s and not s != s
    assert hash(s) == hash(s)
    assert len({s, t, s}) == 2
    assert {s: "s", t: "t"}[t] == "t"
    ref = weakref.ref(s)  # what the benchmark's tracer keeps per settings object
    assert ref() is s


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
    """A frozen value with slots: compared by value, no __dict__."""
    assert GaugeValue(False).value == float("inf")
    assert GaugeValue(True, 2.0).value == 2.0
    g = GaugeValue(True, 2.0)
    assert not hasattr(g, "__dict__") and GaugeValue.__slots__ == ("finite", "value")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.value = 3.0
    assert g == GaugeValue(True, 2.0) and g != GaugeValue(True, 3.0)
    assert GaugeValue(False) == GaugeValue(False, float("inf")) != g
    for bad in (-1.0, -1e-300, float("nan")):
        with pytest.raises(ValueError):
            GaugeValue(True, bad)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_membership_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tol"):
        membership(QM, pauli_settings(), 0.1 * np.eye(3), tol=tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_extreme_point_rejects_nonfinite_parameters(entry):
    s = pauli_settings()
    bad = np.array([1.0, 0.0, entry])
    for pair in ((bad, np.eye(3)[0]), (np.eye(3)[0], bad)):
        with pytest.raises(ValueError, match="unit length"):
            extreme_point(SEP, s, pair)
    q = np.diag([1.0, -1.0, 1.0])
    q[0, 2] = entry
    for model in (QM, MAX):
        with pytest.raises(ValueError, match="orthogonal"):
            extreme_point(model, s, q)


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
    # one instance at a time and all cases as one stack
    stacked = _cos_sin_m2(np.stack([s.a for s in cases]), np.stack([s.b for s in cases]))
    for i, s in enumerate(cases):
        expected = (float(s.a[0] @ s.a[1]), float(np.linalg.norm(np.cross(s.a[0], s.a[1]))),
                    float(s.b[0] @ s.b[1]), float(np.linalg.norm(np.cross(s.b[0], s.b[1]))))
        assert tuple(float(v[0]) for v in _cos_sin_m2(s.a[None], s.b[None])) == expected
        assert tuple(float(v[i]) for v in stacked) == expected
    s = pauli_settings()
    with pytest.raises(ValueError, match="m = 2"):
        _cos_sin_m2(s.a[None], s.b[None])


def test_rho_max_sits_at_three():
    s = pauli_settings()
    c = correlation_matrix(rho_max(), s)
    assert np.allclose(c, np.eye(3))
    assert np.isclose(gauge(QM, s, c).value, 3.0)
    assert membership(MAX, s, c)
    assert not membership(QM, s, c)


def _settings_of_every_rank(rng):
    """Seeded settings for every (m, rank), m = 1..5, and the named settings,
    whose frames and cores hold exact zeros."""
    cases = [pauli_settings(), chsh_settings()]
    for m in range(1, 6):
        cases += [draw_settings(rng, m, rank) for rank in range(1, min(3, m) + 1)]
    return cases


def test_support_and_gauge_are_the_checked_norms_of_the_formed_matrix():
    """geometry skips the wrappers' re-check of the frame and the core, and
    nothing else: every value is the checked smallmat norm of the explicitly
    formed matrix, bit for bit."""
    rng = np.random.default_rng(53)
    for s in _settings_of_every_rank(rng):
        zs = [np.eye(s.m), np.zeros((s.m, s.m))] + [rng.standard_normal((s.m, s.m))
                                                  for _ in range(5)]
        cs = [s.a @ s.b.T] + [feasible_c(rng, s) for _ in range(5)]
        if s.m == 2:
            zs.append(Z_CHSH)
        for z in zs:
            frame = s.a.T @ z @ s.b
            assert support(SEP, s, z) == op_norm(frame)
            assert support(QM, s, z) == norm_minus(frame)
            assert support(MAX, s, z) == trace_norm(frame)
        for c in cs:
            w = s.pinv_a @ c @ s.pinv_b.T
            assert gauge(SEP, s, c).value == trace_norm(w)
            assert gauge(MAX, s, c).value == op_norm(w)
            assert gauge(QM, s, c).value == (norm_plus(w) if s.r == 3 else op_norm(w))


def test_range_deficit_is_the_frobenius_norm_bit_for_bit():
    rng = np.random.default_rng(59)
    for s in _settings_of_every_rank(rng):
        for _ in range(20):
            c = rng.standard_normal((s.m, s.m))
            for projector, probe in ((s.projector_a, c), (s.projector_b, c.T)):
                assert _range_deficit(projector, probe) == float(
                    np.linalg.norm(probe - projector @ probe))


def test_range_projectors_are_cached_and_read_only():
    rng = np.random.default_rng(61)
    for s in _settings_of_every_rank(rng):
        for projector, rows, pinv in ((s.projector_a, s.a, s.pinv_a),
                                      (s.projector_b, s.b, s.pinv_b)):
            assert np.array_equal(projector, rows @ pinv)
            assert not projector.flags.writeable
            with pytest.raises(ValueError):
                projector[0, 0] = 2.0
        assert s.projector_a is s.projector_a and s.projector_b is s.projector_b


def test_optimizer_z_top_dyad_is_the_outer_product():
    """For max, and for qm below full rank, the optimizer is built from the
    top singular pair of W; the broadcast product is np.outer bit for bit."""
    rng = np.random.default_rng(67)
    checked = 0
    for s in _settings_of_every_rank(rng):
        for _ in range(5):
            c = feasible_c(rng, s)
            u, _, vt = np.linalg.svd(s.pinv_a @ c @ s.pinv_b.T)
            expected = s.pinv_a.T @ np.outer(u[:, 0], vt[0]) @ s.pinv_b
            for model in (MAX, QM) if s.r <= 2 else (MAX,):
                assert np.array_equal(optimizer_z(model, s, c), expected)
                checked += 1
    assert checked > 100


def _nearly_collinear_settings():
    t = 1e-9
    a = np.array([[1.0, 0.0, 0.0], [np.cos(t), np.sin(t), 0.0]])
    return MeasurementSettings(a, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


@pytest.mark.parametrize("model", MODELS)
def test_finite_c_whose_core_overflows_names_the_overflow(model):
    """A^+ has entries near 1e9, so a finite C near 1e300 in range overflows
    W = A^+ C (B^T)^+. The error names the core, not the input; optimizer_z
    raised numpy's LinAlgError from its SVD before."""
    s = _nearly_collinear_settings()
    assert s.r == 2
    c = 1e300 * np.array([[1.0, -1.0], [1.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (gauge, optimizer_z):
            with pytest.raises(ValueError, match=r"core A\^\+ C \(B\^T\)\^\+ overflowed"):
                fn(model, s, c)
    assert gauge(model, s, c * 1e-300).finite


@pytest.mark.parametrize("model", MODELS)
def test_finite_z_whose_frame_overflows_names_the_overflow(model):
    """Two equal rows per party add the four entries of Z into one frame
    entry, so Z = 1.7e308 everywhere overflows A^T Z B."""
    rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    s = MeasurementSettings(rows, rows)
    z = np.full((2, 2), 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"frame A\^T Z B overflowed"):
            support(model, s, z)
    assert support(model, s, z / 4) == pytest.approx(1.7e308, rel=1e-15)


def _party_factorizations(rows):
    """What one party's cached data was when it came from per-party calls."""
    s = np.linalg.svd(rows, compute_uv=False)
    p = np.linalg.pinv(rows, rcond=RANK_TOL)
    return (int(np.sum(s > RANK_TOL * s[0])), p, rows @ p,
            np.linalg.svd(rows, full_matrices=True)[2].T)


def test_stacked_settings_factorizations_are_the_per_party_calls():
    """Ranks, pseudoinverses, projectors and row bases come from one stacked
    call per kind; pinned bit for bit against per-party numpy calls, so a
    BLAS or LAPACK whose batched loop differs from its single calls shows."""
    rng = np.random.default_rng(73)
    cases = [pauli_settings(), chsh_settings(), rotated_settings(), i3322_settings()]
    for m in range(1, 6):
        cases += [draw_settings(rng, m, rank) for rank in range(1, min(3, m) + 1)
                  for _ in range(30)]
    for s in cases:
        for (rank, p, proj, basis), cached in (
                (_party_factorizations(np.array(s.a)),
                 (s.rank_a, s.pinv_a, s.projector_a, s.row_basis_a)),
                (_party_factorizations(np.array(s.b)),
                 (s.rank_b, s.pinv_b, s.projector_b, s.row_basis_b))):
            assert cached[0] == rank
            for got, want in zip(cached[1:], (p, proj, basis)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_settings_hold_both_parties_in_one_read_only_stack():
    rows_a, rows_b = np.eye(3), np.eye(3)[[2, 0, 1]]
    s = MeasurementSettings(rows_a.tolist(), rows_b)
    assert s.a.base is s.b.base and s.a.base is not None
    assert s.a.base.shape == (2, 3, 3) and not s.a.base.flags.writeable
    assert np.array_equal(s.a, rows_a) and np.array_equal(s.b, rows_b)
    rows_b[0, 0] = 0.5
    assert s.b[0, 0] == 0.0
    for name in ("pinv_a", "pinv_b", "projector_a", "projector_b",
                 "row_basis_a", "row_basis_b"):
        first = getattr(s, name)
        assert not first.flags.writeable
        assert vars(s)[name] is first and getattr(s, name) is first  # cached, a dict hit


def test_settings_row_check_names_the_party():
    good, bad = np.eye(3), np.diag([1.0, 1.0, 1.1])
    for a, b, name in ((bad, good, "A"), (good, bad, "B"), (bad, bad, "A")):
        with pytest.raises(ValueError, match=f"rows of {name} must be unit vectors"):
            MeasurementSettings(a, b)


def _linalg_counter(monkeypatch):
    """Counts numpy.linalg calls by kind; pinv's own SVD is not counted."""
    calls = {"svdvals": [], "svd": [], "pinv": [], "slogdet": []}
    real_svd, real_pinv, real_slogdet = np.linalg.svd, np.linalg.pinv, np.linalg.slogdet

    def svd(x, *args, **kwargs):
        calls["svd" if kwargs.get("compute_uv", True) else "svdvals"].append(np.shape(x))
        return real_svd(x, *args, **kwargs)

    def pinv(x, *args, **kwargs):
        calls["pinv"].append(np.shape(x))
        return real_pinv(x, *args, **kwargs)

    def slogdet(x):
        calls["slogdet"].append(np.shape(x))
        return real_slogdet(x)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "pinv", pinv)
    monkeypatch.setattr(np.linalg, "slogdet", slogdet)
    return calls


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scenario", ["chsh", "pauli3", "b-rot", "i3322-opt"])
def test_gauge_command_factorizes_its_fresh_settings_once(monkeypatch, capsys, scenario, model):
    """A gauge command builds fresh settings: one values-only SVD of the
    (2, m, 3) stack gives both ranks and one pinv call both pseudoinverses.
    The core gets one values-only SVD and, for the report's sign, one
    slogdet at full rank; the rank-2 cores of chsh and i3322-opt lie in the
    dead zone and take none."""
    calls = _linalg_counter(monkeypatch)
    assert cli.main(["gauge", "--model", model, "--scenario", scenario]) == 0
    capsys.readouterr()
    m = 2 if scenario == "chsh" else 3
    assert calls["pinv"] == [(2, m, 3)]
    assert sorted(calls["svdvals"], key=len) == [(3, 3), (2, m, 3)]
    slogdets = [] if scenario in ("chsh", "i3322-opt") else [(3, 3)]
    assert (calls["svd"], calls["slogdet"]) == ([], slogdets)


@pytest.mark.parametrize("model", MODELS)
def test_support_and_gauge_read_one_spectrum(monkeypatch, model):
    """One SVD of the frame or core gives the value; sep and max take no
    determinant, qm one slogdet for each frame or core it reads outside the
    dead zone, and the record's spectrum is the checked signed_svals."""
    rng = np.random.default_rng(79)
    for s in _settings_of_every_rank(rng):
        assert s.r >= 1 and s.projector_b is not None  # factorize outside the count
        z, c = rng.standard_normal((s.m, s.m)), feasible_c(rng, s)
        calls = _linalg_counter(monkeypatch)
        support(model, s, z)
        gauge(model, s, c)
        monkeypatch.undo()
        # qm reads the sign of the frame, and of the core at full rank only.
        signed = [_support_spectrum(model, s, z)[1]]
        signed += [_gauge_spectrum(model, s, c)[1]] * (s.r == 3)
        outside = sum(bool(w.svals[2] > 8 * EPS * w.svals[0]) for w in signed)
        if s.r >= 2:  # rank-1 frames can carry rounding noise above the dead zone
            assert outside == (2 if s.r == 3 else 0)
        determinants = outside if model == QM else 0
        assert (len(calls["svdvals"]), len(calls["slogdet"])) == (2, determinants)
        for (value, record), direct, matrix in (
                (_support_spectrum(model, s, z), support(model, s, z), s.a.T @ z @ s.b),
                (_gauge_spectrum(model, s, c), gauge(model, s, c), s.pinv_a @ c @ s.pinv_b.T)):
            assert value == direct
            sv, sign = signed_svals(matrix)
            assert np.array_equal(record.svals, sv) and record.sign == float(sign)


def test_out_of_range_gauge_forms_its_core_only_for_a_report():
    rng = np.random.default_rng(97)
    s = draw_settings(rng, 4, 2)
    c = rng.standard_normal((4, 4))
    for model in MODELS:
        g, core = _gauge_spectrum(model, s, c)
        assert not g.finite and core is None
        g, core = _gauge_spectrum(model, s, c, report=True)
        assert not g.finite
        assert np.array_equal(core.matrix, s.pinv_a @ c @ s.pinv_b.T)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(geometry, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, name, counted)
    return calls


def _each_value(s, z, c, fresh=False):
    """float.hex of every support, gauge and optimizer entry at (Z, C), each
    call made on s itself or on its own fresh copy of s."""
    def on():
        return MeasurementSettings(s.a, s.b) if fresh else s

    out = []
    for model in MODELS:
        out.append(support(model, on(), z).hex())
        g = gauge(model, on(), c)
        out.append((g.finite, g.value.hex()))
        if g.finite and np.any(c):
            out += [x.hex() for x in optimizer_z(model, on(), c).ravel()]
    return out


def test_record_slots_follow_inputs_mutated_in_place():
    """A record keeps no reference to its input: a Z or C changed in place
    between calls gets the value a fresh settings object gives, through an
    out-of-range C (below full rank), C = 0 and back."""
    rng = np.random.default_rng(101)
    for s in _settings_of_every_rank(rng):
        z, c = rng.standard_normal((s.m, s.m)), feasible_c(rng, s)
        _each_value(s, z, c)
        for new_c in (rng.standard_normal((s.m, s.m)), np.zeros((s.m, s.m)),
                      feasible_c(rng, s)):
            z[0, -1] += 0.5
            c[...] = new_c
            assert _each_value(s, z, c) == _each_value(s, z, c, fresh=True)


def test_record_slots_give_fresh_bits_for_either_memory_order():
    """The strides are part of the key: a C-ordered and an F-ordered copy of
    one matrix each get their own record, whichever is called first."""
    rng = np.random.default_rng(103)
    for s in _settings_of_every_rank(rng):
        z, c = rng.standard_normal((s.m, s.m)), feasible_c(rng, s)
        orders = [(z, c), (np.asfortranarray(z), np.asfortranarray(c))]
        expected = [_each_value(s, *pair, fresh=True) for pair in orders]
        for first in (0, 1):
            t = MeasurementSettings(s.a, s.b)
            for k in (first, 1 - first, first):
                assert _each_value(t, *orders[k]) == expected[k]
        if s.m > 1:
            t = MeasurementSettings(s.a, s.b)
            assert _support_spectrum(SEP, t, orders[0][0])[1] is not _support_spectrum(
                SEP, t, orders[1][0])[1]


def test_record_slots_never_cross_alternating_inputs():
    rng = np.random.default_rng(107)
    for s in _settings_of_every_rank(rng):
        zs = [rng.standard_normal((s.m, s.m)) for _ in range(2)]
        cs = [feasible_c(rng, s), rng.standard_normal((s.m, s.m))]
        for i, j in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (1, 1), (0, 1)):
            assert _each_value(s, zs[i], cs[j]) == _each_value(s, zs[i], cs[j], fresh=True)


def test_records_are_reused_and_read_only():
    rng = np.random.default_rng(109)
    s = draw_settings(rng, 4, 2)
    z, c, outside = rng.standard_normal((4, 4)), feasible_c(rng, s), rng.standard_normal((4, 4))
    records = [_support_spectrum(SEP, s, z)[1], _gauge_spectrum(SEP, s, c)[1],
               _gauge_spectrum(SEP, s, outside, report=True)[1],
               _gauge_spectrum(SEP, s, np.zeros((4, 4)), report=True)[1]]
    assert _support_spectrum(QM, s, z)[1] is records[0]
    for record in records:
        for x in (record.matrix, record.svals):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 1.0


def test_three_supports_share_one_frame_and_one_svd(monkeypatch):
    rng = np.random.default_rng(113)
    for s in _settings_of_every_rank(rng):
        z = rng.standard_normal((s.m, s.m))
        frames = _counting(monkeypatch, "_frame")
        calls = _linalg_counter(monkeypatch)
        values = [support(model, s, z).hex() for model in MODELS]
        assert len(frames) == 1
        assert (calls["svdvals"], calls["svd"], calls["pinv"]) == ([(3, 3)], [], [])
        assert len(calls["slogdet"]) <= 1
        monkeypatch.undo()
        assert values == [support(model, MeasurementSettings(s.a, s.b), z).hex()
                          for model in MODELS]


def test_gauges_and_optimizers_share_one_core_and_one_values_svd(monkeypatch):
    """One core, one values-only SVD and one full SVD serve the three gauges
    and the three optimizers. Values and vectors come from separate
    factorizations, which differ in the last bits."""
    rng = np.random.default_rng(127)
    for s in _settings_of_every_rank(rng):
        c = feasible_c(rng, s)
        assert s.r >= 1 and s.projector_b is not None  # factorize outside the count
        cores = _counting(monkeypatch, "_gauge_core")
        calls = _linalg_counter(monkeypatch)
        for model in MODELS:
            assert gauge(model, s, c).finite
            optimizer_z(model, s, c)
        assert len(cores) == 1
        assert (calls["svdvals"], calls["svd"], calls["pinv"]) == ([(3, 3)], [(3, 3)], [])
        monkeypatch.undo()


def _own_svd_optimizer(model, s, c):
    """optimizer_z rebuilt from a full SVD of its own: the reference for the
    factors the record shares."""
    u, _, vt = np.linalg.svd(s.pinv_a @ c @ s.pinv_b.T)
    if model == SEP:
        core = u @ vt
    elif model == MAX or s.r <= 2:
        core = u[:, :1] * vt[:1]
    else:
        eta = 1.0 if np.linalg.det(u @ vt) > 0 else -1.0
        core = u @ np.diag([1.0, 1.0, eta]) @ vt
    return s.pinv_a.T @ core @ s.pinv_b


def test_optimizers_share_read_only_factors_in_any_order():
    """Whichever model comes first fills the record's U and V^T, read-only,
    and every optimizer is the one its own full SVD gives, bit for bit. The
    full-rank qm cases take both branches: U V^T kept, and flipped."""
    rng = np.random.default_rng(137)
    qm_branches = set()
    for s in _settings_of_every_rank(rng):
        c = feasible_c(rng, s)
        if s.r == 3:
            u, _, vt = np.linalg.svd(s.pinv_a @ c @ s.pinv_b.T)
            qm_branches.add(bool(np.linalg.det(u @ vt) > 0))
        expected = {model: _own_svd_optimizer(model, s, c).tobytes() for model in MODELS}
        for order in itertools.permutations(MODELS):
            t = MeasurementSettings(s.a, s.b)
            assert [optimizer_z(model, t, c).tobytes() for model in order] == [
                expected[model] for model in order]
            factors = t._core_slot[1].factors
            assert len(factors) == 2
            for x in factors:
                assert x.shape == (3, 3) and not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0, 0] = 1.0
    assert qm_branches == {True, False}


def test_optimizer_factors_follow_c_mutated_in_place():
    rng = np.random.default_rng(139)
    for s in _settings_of_every_rank(rng):
        c = feasible_c(rng, s)
        for model in MODELS:
            optimizer_z(model, s, c)
        factors = s._core_slot[1].factors
        c[...] = feasible_c(rng, s)
        for model in MODELS:
            assert optimizer_z(model, s, c).tobytes() == _own_svd_optimizer(model, s, c).tobytes()
        assert s._core_slot[1].factors is not factors


def test_gauge_at_zero_takes_no_svd(monkeypatch):
    """gauge reads no core at C = 0; a report still forms the zero core."""
    rng = np.random.default_rng(131)
    for s in _settings_of_every_rank(rng):
        zero = np.zeros((s.m, s.m))
        cores = _counting(monkeypatch, "_gauge_core")
        calls = _linalg_counter(monkeypatch)
        assert [gauge(model, s, zero) for model in MODELS] == [GaugeValue(True, 0.0)] * 3
        assert membership(QM, s, zero)
        assert (calls["svd"], calls["svdvals"], cores) == ([], [], [])
        monkeypatch.undo()
        for model in MODELS:
            assert _gauge_spectrum(model, s, zero)[1] is None
            g, core = _gauge_spectrum(model, s, zero, report=True)
            assert g == GaugeValue(True, 0.0)
            assert np.array_equal(core.matrix, np.zeros((3, 3)))
            assert np.array_equal(core.svals, np.zeros(3)) and core.sign == 0.0


def test_float_norms_are_the_kernels_bit_for_bit():
    """The operator and trace norms a record forms from its singular values
    read as Python floats equal smallmat's kernels on the array, bit for
    bit, across the float range."""
    rng = np.random.default_rng(163)
    n = 100_000
    spectra = -np.sort(-np.abs(rng.standard_normal((n, 3))), axis=1)
    spectra[::5, 2] = 0.0
    spectra[1::5, 2] = spectra[1::5, 1]
    spectra = np.ldexp(spectra, rng.integers(-600, 601, size=(n, 1)))
    for sv in spectra:
        values = sv.tolist()
        assert values[0].hex() == _op_norm(sv).hex()
        assert _trace(values).hex() == _trace_norm(sv).hex()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("angle", [1e-8, 1e-9])
def test_parties_of_rank_m_take_every_c_even_when_near_singular(m, angle):
    """A party of rank m spans R^m, so every C is in range, also when two
    rows of A lie `angle` apart. A projector test there reads rounding noise
    of about eps * cond(A) as a deficit, which made most of these gauges
    infinite. Each gauge is also the duality ratio of its optimizer."""
    rng = np.random.default_rng(151)
    rows = np.eye(3)[:m]
    rows[-1] = np.cos(angle), 0.0, np.sin(angle)  # `angle` away from the first row
    for _ in range(100):
        s = MeasurementSettings(rows @ random_rotation(rng).T, random_rotation(rng)[:m])
        assert (s.rank_a, s.rank_b) == (m, m)
        c = rng.standard_normal((m, m))
        for model in MODELS:
            g = gauge(model, s, c)
            assert g.finite
            z = optimizer_z(model, s, c)
            assert np.sum(z * c) / support(model, s, z) == pytest.approx(g.value, rel=1e-6)
