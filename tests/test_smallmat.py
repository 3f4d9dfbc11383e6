"""Matrix kernel tests: SVD variants, norms, rotations, identities."""

import numpy as np
import pytest

from corrsets import smallmat
from corrsets.oracles import (LEVI_CIVITA, det3_intrinsic, max_trace_over_rotations,
                              random_settings, special_svd)
from corrsets.smallmat import (norm_minus, norm_plus, op_norm, pinv,
                               random_rotation, signed_svals, svdvals,
                               trace_norm)

RNG = np.random.default_rng(101)


def test_svd_identity():
    assert np.allclose(svdvals(np.eye(3)), [1.0, 1.0, 1.0])


def test_svd_signed_diagonal():
    assert np.allclose(svdvals(np.diag([3.0, -2.0, 1.0])), [3.0, 2.0, 1.0])


def test_svd_hand_reduced():
    # eigenvalues of X^T X are (2, 2, 0) by hand
    x = np.array([[0.0, 0.0, np.sqrt(2.0)],
                  [0.0, 0.0, 0.0],
                  [np.sqrt(2.0), 0.0, 0.0]])
    assert np.allclose(svdvals(x), [np.sqrt(2.0), np.sqrt(2.0), 0.0])


def test_svd_reconstruction_many_shapes():
    shapes = [(2, 2), (3, 3)] + [(m, 3) for m in (2, 4, 5, 6)] \
        + [(m, m) for m in (4, 5, 6)]
    for shape in shapes:
        for _ in range(200):
            s = svdvals(RNG.standard_normal(shape))
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svdvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_special_svd_identity():
    res = special_svd(np.eye(3))
    assert np.allclose(res.s, [1.0, 1.0, 1.0])


def test_special_svd_reflection():
    res = special_svd(np.diag([1.0, 1.0, -1.0]))
    assert np.allclose(res.s, [1.0, 1.0, -1.0])
    assert np.isclose(np.linalg.det(res.u), 1.0)
    assert np.isclose(np.linalg.det(res.v), 1.0)


def test_special_svd_random_rotation_factor():
    for _ in range(50):
        r = random_rotation(RNG, "SO3")
        res = special_svd(np.diag([2.0, 1.0, 1.0]) @ r)
        assert np.allclose(res.s, [2.0, 1.0, 1.0])


def test_special_svd_reconstructs_and_signs():
    for _ in range(500):
        x = RNG.standard_normal((3, 3))
        res = special_svd(x)
        recon = res.u @ np.diag(res.s) @ res.v.T
        assert np.linalg.norm(recon - x) <= 1e-10 * max(1.0, np.linalg.norm(x))
        assert abs(np.linalg.det(res.u) - 1.0) <= 1e-10
        assert abs(np.linalg.det(res.v) - 1.0) <= 1e-10
        d = np.linalg.det(x)
        if abs(d) > 1e-9:
            assert np.sign(res.s[2]) == np.sign(d)


def test_pinv_identity_and_zero():
    assert np.allclose(pinv(np.eye(3)), np.eye(3))
    assert np.allclose(pinv(np.zeros((2, 3))), np.zeros((3, 2)))


def test_pinv_orthonormal_rows_is_transpose():
    # rows of A orthonormal, so A A^T = I and the pseudoinverse is A^T
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(pinv(a), a.T)


def test_penrose_identities():
    for _ in range(200):
        m = int(RNG.integers(2, 6))
        x = RNG.standard_normal((m, 3))
        xp = pinv(x)
        assert np.linalg.norm(x @ xp @ x - x) <= 1e-8
        assert np.linalg.norm(xp @ x @ xp - xp) <= 1e-8
        assert np.linalg.norm((x @ xp).T - x @ xp) <= 1e-8
        assert np.linalg.norm((xp @ x).T - xp @ x) <= 1e-8


def test_op_and_trace_norm():
    d = np.diag([3.0, 2.0, 1.0])
    assert np.isclose(op_norm(d), 3.0)
    assert np.isclose(trace_norm(d), 6.0)
    u = np.array([0.6, 0.8, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    assert np.isclose(op_norm(np.outer(u, v)), 1.0)
    assert np.isclose(trace_norm(np.outer(u, v)), 1.0)
    for _ in range(100):
        x = RNG.standard_normal((4, 4))
        assert np.isclose(trace_norm(x), np.linalg.svd(x, compute_uv=False).sum())


def test_signed_norms_on_pinned_matrices():
    assert np.isclose(norm_plus(np.eye(3)), 3.0)
    assert np.isclose(norm_minus(np.eye(3)), 1.0)
    assert np.isclose(norm_plus(np.diag([1.0, -1.0, 1.0])), 1.0)
    assert np.isclose(norm_minus(np.diag([1.0, -1.0, 1.0])), 3.0)


def test_signed_norms_zero_determinant():
    x = np.diag([2.0, 1.0, 0.0])
    assert np.isclose(norm_plus(x), 3.0)
    assert np.isclose(norm_minus(x), 3.0)


def test_norm_chain_and_mirror():
    """Both signed norms live between the operator and trace norms.

    They order against each other only on the det >= 0 branch; negation
    swaps them, which is the mirror identity.
    """
    for _ in range(500):
        x = RNG.standard_normal((3, 3))
        lo, hi = norm_minus(x), norm_plus(x)
        assert op_norm(x) <= lo + 1e-12
        assert op_norm(x) <= hi + 1e-12
        assert lo <= trace_norm(x) + 1e-12
        assert hi <= trace_norm(x) + 1e-12
        assert np.isclose(norm_plus(-x), lo)
        assert np.isclose(norm_minus(-x), hi)
        if np.linalg.det(x) >= 0:
            assert lo <= hi + 1e-12


def test_procrustes_pinned():
    value, q = max_trace_over_rotations(np.eye(3), "SO3")
    assert np.isclose(value, 3.0)
    assert np.allclose(q, np.eye(3))
    value, q = max_trace_over_rotations(np.eye(3), "SO3_minus")
    assert np.isclose(value, 1.0)
    assert np.isclose(np.linalg.det(q), -1.0)
    assert np.isclose(np.trace(q), 1.0)


def test_procrustes_matches_norms():
    for _ in range(200):
        x = RNG.standard_normal((3, 3))
        for component, expected in (("SO3", norm_plus(x)),
                                    ("SO3_minus", norm_minus(x)),
                                    ("O3", trace_norm(x))):
            value, q = max_trace_over_rotations(x, component)
            assert abs(value - expected) <= 1e-9
            assert abs(float(np.sum(x * q)) - value) <= 1e-9
            assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-9


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_procrustes_below_full_rank(rank):
    # s3 = 0: every component attains s1 + s2, at an exact member of itself
    for _ in range(50):
        x = RNG.standard_normal((3, rank)) @ RNG.standard_normal((rank, 3))
        for component, det in (("SO3", 1.0), ("SO3_minus", -1.0), ("O3", None)):
            value, q = max_trace_over_rotations(x, component)
            assert abs(value - trace_norm(x)) <= 1e-9
            assert abs(float(np.sum(x * q)) - value) <= 1e-9
            assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12
            if det is not None:
                assert np.isclose(np.linalg.det(q), det)
    assert np.allclose(max_trace_over_rotations(np.diag([2.0, 1.0, 0.0]), "O3")[1], np.eye(3))


def test_procrustes_rejects_unknown_components_and_shapes():
    with pytest.raises(ValueError, match="unknown component"):
        max_trace_over_rotations(np.eye(3), "SO2")
    with pytest.raises(ValueError):
        max_trace_over_rotations(np.eye(2), "SO3")


def test_procrustes_oracle_against_sampled_rotations():
    x = RNG.standard_normal((3, 3))
    best = max(float(np.sum(x * random_rotation(RNG, "SO3")))
               for _ in range(20000))
    assert best <= norm_plus(x) + 1e-9
    assert best >= norm_plus(x) - 0.05


def test_asymmetric_norm_duality():
    """sup Tr[X^T Y]/norm_minus(Y) equals norm_plus(X), hit at the argmax Q."""
    for _ in range(20):
        x = RNG.standard_normal((3, 3))
        hi = norm_plus(x)
        for _ in range(500):
            y = RNG.standard_normal((3, 3))
            assert float(np.sum(x * y)) / norm_minus(y) <= hi + 1e-6
        _, q = max_trace_over_rotations(x, "SO3")
        attained = float(np.sum(x * q)) / norm_minus(q)
        assert abs(attained - hi) <= 1e-9


def test_rotation_hull_in_unit_ball():
    for _ in range(200):
        qs = np.stack([random_rotation(RNG, "SO3") for _ in range(6)])
        mix = np.tensordot(RNG.dirichlet(np.ones(6)), qs, axes=1)
        assert norm_minus(mix) <= 1.0 + 1e-9


def test_det3_intrinsic_pinned():
    eye = np.eye(3)
    assert np.isclose(det3_intrinsic(eye, eye, eye), 1.0)
    assert np.isclose(det3_intrinsic(eye, eye, np.diag([1.0, -1.0, 1.0])), -1.0)


def test_det3_intrinsic_random_m4():
    for _ in range(200):
        a = RNG.standard_normal((4, 3))
        b = RNG.standard_normal((4, 3))
        z = RNG.standard_normal((4, 4))
        direct = np.linalg.det(a.T @ z @ b)
        scale = max(1.0, abs(direct))
        assert abs(det3_intrinsic(a, b, z) - direct) <= 1e-9 * scale


def test_det3_intrinsic_fixed_path_matches_searched_path():
    rng = np.random.default_rng(33)
    for m in range(2, 6):
        for _ in range(100):
            a, b = rng.standard_normal((2, m, 3))
            z = rng.standard_normal((m, m))
            ta = np.einsum("pqr,ip,jq,kr->ijk", LEVI_CIVITA, a, a, a)
            tb = np.einsum("pqr,lp,mq,nr->lmn", LEVI_CIVITA, b, b, b)
            searched = np.einsum("ijk,il,jm,kn,lmn->", ta, z, z, z, tb, optimize=True)
            assert det3_intrinsic(a, b, z) == float(searched) / 6.0


def test_det3_intrinsic_stack_is_bit_equal_to_single_calls():
    rng = np.random.default_rng(34)
    for m in range(2, 6):
        ss = [random_settings(rng, m, int(rng.integers(1, min(3, m) + 1))) for _ in range(60)]
        zs = rng.standard_normal((60, m, m))
        stacked = det3_intrinsic(np.stack([s.a for s in ss]), np.stack([s.b for s in ss]), zs)
        assert stacked.shape == (60,)
        single = [det3_intrinsic(s.a, s.b, z) for s, z in zip(ss, zs)]
        assert stacked.tolist() == single
        assert all(type(v) is float for v in single)


def test_det3_intrinsic_rejects_bad_shapes_and_values():
    eye = np.eye(3)
    for a, b, z in ((eye[:, :2], eye[:, :2], eye), (eye, eye, np.eye(2)),
                    (eye, eye[None], eye), (eye[0], eye[0], eye)):
        with pytest.raises(ValueError, match="shapes"):
            det3_intrinsic(a, b, z)
    with pytest.raises(ValueError, match="z has non-finite"):
        det3_intrinsic(eye, eye, np.diag([1.0, np.nan, 1.0]))


def test_det_sign_dead_zone():
    assert signed_svals(np.diag([1.0, 1.0, 0.0]))[1] == 0.0
    assert signed_svals(np.eye(3))[1] == 1.0
    assert signed_svals(np.diag([1.0, -1.0, 1.0]))[1] == -1.0
    assert signed_svals(np.zeros((3, 3)))[1] == 0.0
    assert signed_svals(np.diag([1.0, 0.0, 0.0]))[1] == 0.0
    eps = np.finfo(float).eps
    assert signed_svals(np.diag([1.0, 1.0, 8.0 * eps]))[1] == 0.0
    assert signed_svals(np.diag([1.0, 1.0, 9.0 * eps]))[1] == 1.0


def test_det_sign_matches_elementwise_rule():
    """The scalar sign is the stacked rule applied to one frame, exactly, and
    one stacked call gives the per-matrix values and signs bit for bit."""
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 3, 3))
    frames = np.concatenate([
        rng.standard_normal((50, 3, 3)),
        np.einsum("kij,kjl->kil", g[:, :, :2], rng.standard_normal((4, 2, 3))),
        np.einsum("ki,kj->kij", g[:, :, 0], g[:, :, 1]),
        np.zeros((2, 3, 3)),
    ])
    stacked = smallmat.dead_zone_sign(np.linalg.det(frames),
                                      np.linalg.svd(frames, compute_uv=False))
    assert [signed_svals(x)[1] for x in frames] == list(stacked)
    assert list(stacked[-2:]) == [0.0, 0.0]
    values, signs = signed_svals(frames)
    singles = [signed_svals(x) for x in frames]
    assert np.array_equal(values, np.stack([s for s, _ in singles]))
    assert np.array_equal(signs, np.stack([sign for _, sign in singles]))
    # the rank-2 products and the rank-1 outer products are singular within
    # rounding, so their sign is in the dead zone
    assert np.all(signs[50:] == 0.0)
    assert np.all(signs[:50] != 0.0)


def test_det_sign_dead_zone_on_settings_frames():
    """Frames A^T Z B of seeded rank-2 settings all get sign 0, and those of
    full-rank settings all get +-1. Rank 1 is covered by the exact outer
    products above only: a rank-1 settings frame carries the rounding error
    of forming A^T Z B, about eps * |A| |Z| |B|, which can exceed a hundred
    times eps * s1 when s1 is small against those norms."""
    rng = np.random.default_rng(29)
    for m in (2, 3, 4, 5):
        for rank in (2, 3) if m >= 3 else (2,):
            frames = []
            for _ in range(100):
                s = random_settings(rng, m, rank)
                frames.append(s.a.T @ rng.standard_normal((m, m)) @ s.b)
            _, signs = signed_svals(np.array(frames))
            if rank == 2:
                assert np.all(signs == 0.0), (m, rank)
            else:
                assert np.all(np.abs(signs) == 1.0), (m, rank)


@pytest.mark.filterwarnings("error")
def test_signed_svals_sign_is_scale_invariant():
    """The sign of k x is the sign of x for k far from 1, one matrix at a time
    and in a stack that mixes scales."""
    rng = np.random.default_rng(23)
    frames = rng.standard_normal((20, 3, 3))
    _, signs = signed_svals(frames)
    assert np.all(signs != 0.0)
    scales = np.array([1e-200, 1e-120, 1e-30, 1e-9, 1.0, 1e30, 1e120, 1e200] * 3)[:20]
    mixed = scales[:, None, None] * frames
    for x, k, sign in zip(frames, scales, signs):
        assert signed_svals(k * x)[1] == sign
    assert np.array_equal(signed_svals(mixed)[1], signs)
    assert signed_svals(1e-200 * np.diag([1.0, 1.0, 0.0]))[1] == 0.0


def test_signed_svals_rejects_bad_input():
    for bad in (np.eye(2), np.zeros((2, 2, 3, 3)), np.diag([np.nan, 1.0, 1.0])):
        with pytest.raises(ValueError):
            signed_svals(bad)


def test_random_rotation_contract():
    for component, sign in (("SO3", 1.0), ("SO3_minus", -1.0)):
        for _ in range(100):
            q = random_rotation(RNG, component)
            assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12
            assert np.isclose(np.linalg.det(q), sign)


def test_random_rotation_haar_mean():
    total = np.zeros(3)
    n = 10000
    for _ in range(n):
        total += random_rotation(RNG, "SO3")[:, 0]
    assert np.all(np.abs(total / n) <= 0.05)


def test_svdvals_matches_svd():
    x = RNG.standard_normal((5, 3))
    assert np.allclose(svdvals(x), np.linalg.svd(x, compute_uv=False))


def test_stacked_svdvals_and_pinv_are_the_per_matrix_calls():
    rng = np.random.default_rng(83)
    for shape in ((4, 2, 3), (3, 5, 3), (2, 3, 3), (1, 3, 2), (0, 3, 3)):
        x = rng.standard_normal(shape)
        x[:, 0] = x[:, -1]  # rank-deficient members exercise the pinv cutoff
        sv, p = svdvals(x), pinv(x)
        assert sv.shape == shape[:1] + (min(shape[1:]),)
        assert p.shape == shape[:1] + shape[:0:-1]
        for k in range(shape[0]):
            assert sv[k].tobytes() == svdvals(x[k]).tobytes()
            assert p[k].tobytes() == pinv(x[k]).tobytes()
            assert p[k].tobytes() == np.linalg.pinv(x[k], rcond=smallmat.RANK_TOL).tobytes()


@pytest.mark.parametrize("fn", [svdvals, pinv])
def test_stacked_kernels_reject_bad_input(fn):
    for bad in (np.float64(1.0), np.ones(3), np.ones((2, 2, 2, 2))):
        with pytest.raises(ValueError, match="must be a 2-d matrix or a"):
            fn(bad)
    for entry in (np.nan, np.inf):
        x = np.ones((2, 3, 3))
        x[1, 2, 0] = entry
        with pytest.raises(ValueError, match="^input has non-finite entries$"):
            fn(x)
        with pytest.raises(ValueError, match="^input has non-finite entries$"):
            fn(x[1])


def test_rank_tol_truncation():
    x = np.diag([1.0, 1e-14, 0.0])
    xp = pinv(x)
    assert np.isclose(xp[0, 0], 1.0)
    assert xp[1, 1] == 0.0


def test_eps_constant_sane():
    assert 0.0 < smallmat.EPS < 1e-12


def _exact_det_sign(x):
    """Sign of the exact determinant of a float 3x3 matrix: every float is an
    integer multiple of 2^-1074, so the cofactor expansion runs on integers."""
    a = [[n * (2 ** 1074 // d) for n, d in (v.as_integer_ratio() for v in row)]
         for row in x.tolist()]
    det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
           - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
           + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    return (det > 0) - (det < 0)


def test_signed_svals_sign_is_exact_near_the_top_of_the_float_range():
    """Frames of repeated-row settings with Z entries up to 1.7e308: where
    slogdet's pivots overflow, its sign can be wrong (3 of these 10,000 draws
    were, each with log|det| = inf or nan), so the sign is taken again on the
    frame scaled by a power of two. Every nonzero sign, one matrix at a time
    and stacked, is the sign of the exact determinant."""
    rows = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, -0.8],
                     [0.6, 0.8, 0.0], [0.0, 1.0, 0.0]])
    values = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 1e-300, -1e-300, 1e-160, -1e-160,
                       1e160, 1e300, -1e300, 1.7e308])
    zs = np.random.default_rng(0).choice(values, size=(10_000, 5, 5))
    with np.errstate(all="ignore"):
        frames = rows.T @ zs @ rows
        frames = frames[np.isfinite(frames).all(axis=(1, 2))]
        _, signs = signed_svals(frames)
        redone = ~np.isfinite(np.linalg.slogdet(frames)[1])
        singles = [signed_svals(x)[1] for x in frames]
    assert np.array_equal(signs, singles)
    checked = np.flatnonzero(signs)
    assert checked.size > 1000 and np.count_nonzero(redone[checked]) >= 10
    assert [_exact_det_sign(frames[i]) for i in checked] == list(signs[checked])
    assert signed_svals(np.zeros((0, 3, 3)))[1].shape == (0,)


def test_det_sign_takes_no_slogdet_inside_the_dead_zone(monkeypatch):
    """One matrix with s3 <= 8 eps s1 gets the rule's 0 before any LU. Every
    sign is the rule applied to slogdet's sign, bit for bit and 0-d, and a
    stack keeps its one slogdet and matches the per-matrix calls."""
    rng = np.random.default_rng(37)
    cases = [np.zeros((3, 3))]
    for m, rank in ((3, 1), (4, 1), (3, 2), (5, 2), (3, 3), (5, 3)):
        for _ in range(5):
            s = random_settings(rng, m, rank)
            cases.append(s.a.T @ rng.standard_normal((m, m)) @ s.b)
    cases += [np.ldexp(x, k) for x in cases[1:] for k in (-600, 600)]
    # log|det| overflows, so the sign is taken again on the matrix scaled down
    top = 1.2e308 * np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    cases.append(top)
    real_slogdet = np.linalg.slogdet
    calls = []

    def slogdet(x):
        calls.append(x)
        return real_slogdet(x)

    monkeypatch.setattr(np.linalg, "slogdet", slogdet)
    inside = []
    with np.errstate(over="ignore"):
        for x in cases:
            sv = smallmat._svals(x)
            calls.clear()
            sign = smallmat._det_sign(x, sv)
            if sv[2] <= 8 * smallmat.EPS * sv[0]:
                assert calls == []
                inside.append(x)
            else:
                assert len(calls) == (2 if x is top else 1)
            expected = smallmat.dead_zone_sign(real_slogdet(x)[0], sv)
            assert type(sign) is type(expected) and sign.tobytes() == expected.tobytes()
            assert np.ndim(sign) == 0 and np.ndim(signed_svals(x)[1]) == 0
        values, signs = signed_svals(np.array(cases))
        singles = [signed_svals(x) for x in cases]
    assert 25 <= len(inside) < len(cases) - 25
    calls.clear()  # a stack keeps its one slogdet, even inside the dead zone
    assert np.all(signed_svals(np.array(inside))[1] == 0.0) and len(calls) == 1
    assert np.array_equal(values, np.stack([sv for sv, _ in singles]))
    assert signs.tobytes() == np.stack([sign for _, sign in singles]).tobytes()


def test_det_sign_settles_one_matrix_outside_the_dead_zone_without_the_rule(monkeypatch):
    """One matrix with a finite log|det| outside the dead zone gets
    slogdet's sign with no dead_zone_sign call; a stack, and one matrix whose
    log|det| overflows, still go through the rule."""
    rng = np.random.default_rng(41)
    real_rule = smallmat.dead_zone_sign
    calls = []

    def rule(det, sv):
        calls.append(np.shape(det))
        return real_rule(det, sv)

    monkeypatch.setattr(smallmat, "dead_zone_sign", rule)
    xs = rng.standard_normal((50, 3, 3))
    for x in xs:
        sign = smallmat._det_sign(x, smallmat._svals(x))
        assert type(sign) is np.ndarray and sign.shape == () and sign in (-1.0, 1.0)
        assert sign == np.sign(np.linalg.det(x))
    assert calls == []
    smallmat._det_sign(xs, smallmat._svals(xs))
    top = 1.2e308 * np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    with np.errstate(over="ignore"):
        assert smallmat._det_sign(top, smallmat._svals(top)) == -1.0
    assert calls == [(50,), ()]
