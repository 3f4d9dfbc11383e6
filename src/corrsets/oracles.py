"""Independent routes and verification-only kernels.

This is the one module that holds what only the verification battery and
the tests run. Every formula in geometry has a second route here that
shares no code with it: product-state grids for the separable support,
eigensolves of the measurement operator for the quantum and maximal
supports, the Gram-picture support with its basis-free determinant
expansion, the m = 2 closed forms in the Gram angles alpha, beta for the
separable and quantum supports and gauges, sampled dual ratios for the
gauges, and a Frank-Wolfe projection for hull membership, which certifies
a point once its residual is below the fixed _FW_TOL. The
optimization-based routes are monotone lower bounds, so they can only fail
in one direction. The kernels the routes and checks need (the
rotation-factored SVD, the Procrustes maximizer over rotation components,
which reads its argmax off that SVD, the intrinsic determinant) and the
random settings and state samplers live here as well. The kernels, the
Gram-picture supports and the settings sampler's per-party step take one
instance or a stack, so the battery runs them once per stack. The m = 2
closed forms are one stacked core, _m2_closed_forms, for both models'
supports or gauges; support_m2_closed_form and gauge_m2_closed_form are
its one-instance wrappers. The settings sampler redraws only a rejected
party and builds the settings on the rows it has normalized, unchecked.
np.einsum runs its path search (einsum_path) on every call, even when
given a fixed path, so stacking is what amortizes it.

The sampled routes run on stacks too: the dual oracle scores its sampled
Z with geometry.support_stack, the containment scan scores a stack of
Haar rotations with geometry.gauge_stack, the separable-state sampler
draws its product terms as one block, and the alternating sweeps of the
separable-support oracle run over a stack of frames with a per-frame
convergence mask (_sep_oracle_stack). No route here forms a frame of its
own, so the sampled supports are the production supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, twoqubit
from .detect import MAX_OVER_QM, QM_OVER_SEP
from .geometry import MAX, QM, SEP, MeasurementSettings, _dots, _read_only, _unit_scaled
from .smallmat import _as_finite_matrix, dead_zone_sign, random_rotation
from .twoqubit import qubit_state


@dataclass(frozen=True)
class OracleConfig:
    seed: int = 0
    grid_points: int = 4096
    restarts: int = 32
    samples: int = 10_000

    def __post_init__(self):
        if min(self.grid_points, self.restarts, self.samples) < 1:
            raise ValueError("all counts must be at least 1")


DEFAULT_CONFIG = OracleConfig()

_FW_MAX_ITERS = 500
_FW_TOL = 1e-4  # residual that certifies hull membership
_REFINE_SWEEPS = 150
_MAX_PRODUCT_TERMS = 16

DEGENERATE_ANGLE_TOL = 1e-9

# Levi-Civita symbol on three indices.
LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)]:
    LEVI_CIVITA[_i, _j, _k] = _s
LEVI_CIVITA.setflags(write=False)

# The contraction order that einsum's greedy search picks for det3_intrinsic's
# final sum at every m from 2 to 10. Given this path, einsum still calls
# einsum_path on each call; a stacked call makes that call once for the stack.
_DET3_PATH = ["einsum_path", (0, 1), (0, 2), (1, 2), (0, 1)]


class SpecialSvdResult(NamedTuple):
    """Rotation-factored SVD of a 3x3 matrix, or of each matrix of a stack.

    ``u`` and ``v`` are proper rotations (determinant +1) and
    ``x = u @ diag(s) @ v.T`` where ``s = (s1, s2, s3 * sgn(det x))``
    carries any orientation sign on its smallest entry.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def special_svd(x) -> SpecialSvdResult:
    """SVD of a 3x3 matrix constrained to rotation factors.

    Starts from the ordinary SVD and absorbs a reflection, if present, into
    the last column of each factor so that det(u) = det(v) = +1. The
    compensating sign lands on the third singular value, which therefore
    has the sign of det(x). A (k, 3, 3) stack gives (k, 3, 3) factors and
    (k, 3) values from one stacked svd and two stacked det calls, each
    entry bit-equal to its single call.
    """
    x = _as_finite_matrix(x, stack=True)
    if x.shape[-2:] != (3, 3):
        raise ValueError(f"special_svd needs a 3x3 matrix or a (k, 3, 3) stack, got {x.shape}")
    u, s, vt = np.linalg.svd(x)
    v = np.swapaxes(vt, -1, -2).copy()
    su = np.where(np.linalg.det(u) > 0, 1.0, -1.0)
    sv = np.where(np.linalg.det(v) > 0, 1.0, -1.0)
    u[..., 2] *= su[..., None]
    v[..., 2] *= sv[..., None]
    s[..., 2] *= su * sv
    return SpecialSvdResult(u, s, v)


def max_trace_over_rotations(x, component: str = "SO3"):
    """Maximize Tr[x.T @ q] over a component of the 3x3 orthogonal group.

    component is one of "SO3" (rotations), "SO3_minus" (reflections,
    determinant -1) or "O3" (both). With x = u @ diag(s) @ v.T from
    special_svd, the argmax is u @ diag(1, 1, f) @ v.T and the value
    s1 + s2 + f * s3, for f = +1, -1 or sign(s3) respectively: the value
    is norm_plus(x), norm_minus(x) or trace_norm(x). Returns
    ``(value, argmax)``; the argmax is an exact member of the component. A
    (k, 3, 3) stack gives (k,) values and (k, 3, 3) maximizers from one
    special_svd call, each bit-equal to its single call.
    """
    u, s, v = special_svd(x)
    if component not in ("SO3", "SO3_minus", "O3"):
        raise ValueError(f"unknown component {component!r}")
    # copysign reads the sign of a zero s3 too, which special_svd sets to the
    # factors' orientation, so the O3 argmax is then the plain polar factor.
    f = {"SO3": 1.0, "SO3_minus": -1.0}.get(component, np.copysign(1.0, s[..., 2]))
    d = np.zeros(u.shape)
    d[..., 0, 0] = d[..., 1, 1] = 1.0
    d[..., 2, 2] = f
    value = s[..., 0] + s[..., 1] + f * s[..., 2]
    return (float(value) if value.ndim == 0 else value), u @ d @ np.swapaxes(v, -1, -2)


def _stack_operands(a, b, z):
    """a, b, z as float arrays of shapes (..., m, 3), (..., m, 3), (..., m, m).

    ValueError on any other shapes or on a non-finite entry.
    """
    a, b, z = (np.asarray(x, dtype=float) for x in (a, b, z))
    m = a.shape[-2] if a.ndim >= 2 else -1
    if a.shape[-1:] != (3,) or b.shape != a.shape or z.shape != a.shape[:-1] + (m,):
        raise ValueError("shapes must be (..., m, 3), (..., m, 3) and (..., m, m)")
    for name, x in (("a", a), ("b", b), ("z", z)):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} has non-finite entries")
    return a, b, z


def det3_intrinsic(a, b, z):
    """det(a.T @ z @ b) from row triples, without forming the product.

    For measurement matrices a, b (m x 3) and weights z (m x m) this
    expands the determinant through the antisymmetric tensors
    t_{ijk} = det[row_i, row_j, row_k], so the value depends only on
    quantities expressible in the rows themselves. Leading axes are a
    stack: a, b of shape (..., m, 3) and z of shape (..., m, m) give an
    array of shape (...), each entry bit-equal to its single-instance
    value; one instance gives a float.
    """
    a, b, z = _stack_operands(a, b, z)
    ta = np.einsum("pqr,...ip,...jq,...kr->...ijk", LEVI_CIVITA, a, a, a)
    tb = np.einsum("pqr,...lp,...mq,...nr->...lmn", LEVI_CIVITA, b, b, b)
    total = np.einsum("...ijk,...il,...jm,...kn,...lmn->...", ta, z, z, z, tb,
                      optimize=_DET3_PATH) / 6.0
    return float(total) if total.ndim == 0 else total


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors, rows of an (n, 3) array."""
    i = np.arange(n)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    phi = 2.0 * np.pi * i / golden
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def support_sep_oracle(s: MeasurementSettings, z, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """Largest u.(X v) over unit Bloch vectors, X = A^T Z B.

    Grid seeding on a Fibonacci sphere, then alternating maximization from
    the best seeds. Each half-step is the exact inner optimum, so the value
    climbs monotonically and never exceeds the true support.
    """
    x = s.a.T @ np.asarray(z, dtype=float) @ s.b
    return float(_sep_oracle_stack(x[None], cfg)[0])


def _sep_oracle_stack(x: np.ndarray, cfg: OracleConfig) -> np.ndarray:
    """support_sep_oracle on a (k, 3, 3) stack of frames X, as a (k,) array.

    The sweeps run on the frames that have not converged yet: a frame leaves
    the stack at the sweep where its own seeds stop moving, so each value is
    bit-equal to the frame's single call.
    """
    grid = fibonacci_sphere(cfg.grid_points)
    scores = np.linalg.norm(grid @ x, axis=-1)
    k = min(cfg.restarts, cfg.grid_points)
    u = grid[np.argpartition(scores, -k, axis=-1)[:, -k:]]
    v = np.zeros_like(u)
    live = np.arange(len(x))
    for _ in range(_REFINE_SWEEPS):
        xl, ul = x[live], u[live]
        w = ul @ xl
        nw = np.linalg.norm(w, axis=-1, keepdims=True)
        vl = np.where(nw > 0.0, w / np.where(nw > 0.0, nw, 1.0), v[live])
        w = vl @ np.swapaxes(xl, 1, 2)
        nw = np.linalg.norm(w, axis=-1, keepdims=True)
        u_next = np.where(nw > 0.0, w / np.where(nw > 0.0, nw, 1.0), ul)
        u[live], v[live] = u_next, vl
        live = live[~(np.max(np.abs(u_next - ul), axis=(1, 2)) < 1e-15)]
        if not live.size:
            break
    best = np.einsum("kri,kij,krj->kr", u, x, v).max(axis=1)
    return np.where(best > 0.0, best, 0.0)  # max(0.0, best), a NaN included


def support_qm_oracle(s: MeasurementSettings, z) -> float:
    """Largest eigenvalue of the weighted measurement operator."""
    op = twoqubit.bell_operator(s, z)
    return float(np.linalg.eigvalsh(op)[-1])


def support_max_oracle(s: MeasurementSettings, z) -> float:
    """Largest eigenvalue over the operator and its partial transpose."""
    op = twoqubit.bell_operator(s, z)
    plain = np.linalg.eigvalsh(op)[-1]
    flipped = np.linalg.eigvalsh(twoqubit.partial_transpose(op))[-1]
    return float(max(plain, flipped))


def _psd_sqrt(g: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix or a (k, m, m) stack of them."""
    w, v = np.linalg.eigh(g)
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)


def gram_equivalent_support(a, b, z) -> np.ndarray:
    """Supports in the Gram picture, one column per model in MODELS.

    Works on G_A^(1/2) Z G_B^(1/2), whose nonzero singular values match
    those of A.T Z B, and recovers the orientation sign for the quantum
    model from the basis-free determinant expansion. Agreement with
    ``support`` witnesses that the bodies depend on the settings only
    through their Gram data. Leading axes are a stack, as in det3_intrinsic:
    a, b of shape (..., m, 3) and z of shape (..., m, m) give (..., 3). Each
    party's Gram square root is taken once per instance, and one SVD and one
    intrinsic determinant serve all three models.
    """
    a, b, z = _stack_operands(a, b, z)
    mm = _psd_sqrt(a @ np.swapaxes(a, -1, -2)) @ z @ _psd_sqrt(b @ np.swapaxes(b, -1, -2))
    sv = np.linalg.svd(mm, compute_uv=False)
    s3 = np.zeros(sv.shape[:-1] + (3,))
    s3[..., : min(3, sv.shape[-1])] = sv[..., :3]
    sign = dead_zone_sign(det3_intrinsic(a, b, z), s3)
    return np.stack([sv[..., 0], s3[..., 0] + s3[..., 1] - s3[..., 2] * sign,
                     sv.sum(axis=-1)], axis=-1)


def _cos_sin_m2(a, b):
    """Cosine and sine of each party's Gram angle, (ca, sa, cb, sb), as (k,)
    arrays for (k, 2, 3) row stacks a and b.

    The sine comes from the cross product, not from arccos of the dot
    product: for nearly collinear rows the latter only knows the sine to
    absolute epsilon through the cosine, which costs ~1e-10 of relative
    accuracy exactly where the closed forms divide by it.
    """
    if a.shape[-2] != 2:
        raise ValueError("closed forms in the Gram angles need m = 2")
    rows = np.stack((a, b), axis=1)
    cos, sin = _dots(rows[..., 0, :], rows[..., 1, :]), _cross_norm(rows)
    return cos[:, 0], sin[:, 0], cos[:, 1], sin[:, 1]


def _cross_norm(rows):
    """|rows[..., 0, :] x rows[..., 1, :]|, with the products and differences
    of np.cross."""
    (x0, x1, x2), (y0, y1, y2) = np.moveaxis(rows, (-2, -1), (0, 1))
    v = np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)
    return np.sqrt(_dots(v, v))


def _phase(cos_theta, sin_theta):
    """exp(i theta) with exactly the given real and imaginary parts."""
    e = np.empty(np.shape(cos_theta), dtype=complex)
    e.real, e.imag = cos_theta, sin_theta
    return e


def _gram_2x2(cos_theta):
    """[[1, cos], [cos, 1]] for each entry of cos_theta."""
    g = np.ones(np.shape(cos_theta) + (2, 2))
    g[..., 0, 1] = g[..., 1, 0] = cos_theta
    return g


def _skew_2x2(cos_theta, sin_theta):
    """[[conj(e), 1], [1, e]], e = exp(i theta), for each angle."""
    e = _phase(cos_theta, sin_theta)
    k = np.ones(e.shape + (2, 2), dtype=complex)
    k[..., 0, 0], k[..., 1, 1] = e.conjugate(), e
    return k


def _clip0(t):
    """max(0.0, t) entrywise, a NaN included."""
    return np.where(t > 0.0, t, 0.0)


def _m2_closed_forms(kind: str, a, b, x) -> np.ndarray:
    """The m = 2 closed forms of both models on a stack, columns (sep, qm).

    a and b are (k, 2, 3) row stacks and x a (k, 2, 2) stack: coefficient
    matrices Z for kind "support", correlation matrices C for kind "gauge".
    support_m2_closed_form and gauge_m2_closed_form are its one-instance
    wrappers. Every 2x2 product is a stacked matmul, one BLAS call per
    matrix as for one instance, so each entry is the same on a stack of any
    size, bit for bit.
    """
    ca, sa, cb, sb = _cos_sin_m2(a, b)
    if kind == "gauge":
        if np.any(sa * sb <= DEGENERATE_ANGLE_TOL):
            raise ValueError("settings are too close to collinear for the closed form")
        # The phase matrices are rank one, L_theta = u u^dag / sin^2(theta) with
        # u = (1, -exp(-i theta)), so each quadratic trace collapses to the
        # squared modulus of a single scalar. Evaluating those scalars first and
        # dividing by the sines last keeps the cancellation at the scale of the
        # entries of C instead of 1/sin^2, which is what makes nearly collinear
        # settings come out to full precision.
        ua, ub = (np.stack([np.ones_like(e), -e], axis=-1)
                  for e in (_phase(ca, sa), _phase(cb, sb)))
        left = ua[:, None, :] @ x
        w_plus = np.abs((left @ ub[:, :, None])[:, 0, 0])
        w_minus = np.abs((left @ ub.conjugate()[:, :, None])[:, 0, 0])
        sines = sa * sb
        return np.stack([np.where(w_minus > w_plus, w_minus, w_plus) / sines,
                         0.5 * (w_plus + w_minus) / sines], axis=1)
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    # The squares below overflow or underflow far from unit scale. The support
    # is positively homogeneous, so a Z whose square sum leaves the range is
    # evaluated unit-scaled and scaled back, and a support beyond the float
    # range comes back as inf, as it does from support.
    z, e, _ = _unit_scaled(x)
    zt = np.swapaxes(z, 1, 2)
    left = _gram_2x2(ca) @ z
    quad = np.trace(left @ _gram_2x2(cb) @ zt, axis1=1, axis2=2)
    cross = np.abs(np.trace(left @ _skew_2x2(cb, sb) @ zt, axis1=1, axis2=2))
    det_term = 2.0 * np.abs(np.linalg.det(z)) * sa * sb
    values = np.stack([np.sqrt(_clip0((quad + cross) / 2.0)),
                       np.sqrt(_clip0(quad + det_term))], axis=1)
    return np.ldexp(values, e[:, None])


def _m2_closed_form(kind: str, model: str, s: MeasurementSettings, x, what: str) -> float:
    """One instance of _m2_closed_forms, after the checks of its arguments."""
    if model not in (SEP, QM):
        raise ValueError("closed forms cover the sep and qm models only")
    x = np.asarray(x, dtype=float)
    if s.m == 2 and x.shape != (2, 2):
        raise ValueError(f"{what} matrix must be 2x2, got {x.shape}")
    return float(_m2_closed_forms(kind, s.a[None], s.b[None], x[None])[0, int(model == QM)])


def support_m2_closed_form(model: str, s: MeasurementSettings, z) -> float:
    """Two-setting support function straight from the Gram angles.

    Avoids the SVD entirely: for two settings per side the support function
    reduces to scalar traces against the 2x2 Gram matrix of each party and,
    for the separable body, one complex phase matrix.
    """
    return _m2_closed_form("support", model, s, z, "coefficient")


def gauge_m2_closed_form(model: str, s: MeasurementSettings, c) -> float:
    """Two-setting gauge function from the Gram angles.

    Requires both angle sines bounded away from zero; with collinear
    settings the body flattens out and the general path with its range
    test is the right tool.
    """
    return _m2_closed_form("gauge", model, s, c, "correlation")


def gauge_dual_oracle(model: str, s: MeasurementSettings, c,
                      cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """Best ratio <Z, C> / support(Z) over sampled coefficient directions.

    A lower bound on the gauge for any sample set. The closed-form optimizer
    direction is appended when it exists, which closes the gap.
    """
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    zs = rng.standard_normal((cfg.samples, s.m, s.m))
    phi = geometry.support_stack(model, s, zs)
    num = np.einsum("kij,ij->k", zs, c)
    live = phi > 1e-15 * max(1.0, float(phi.max(initial=0.0)))
    best = float((num[live] / phi[live]).max(initial=0.0))
    g = geometry.gauge(model, s, c)
    if g.finite and g.value > 0.0:
        z_star = geometry.optimizer_z(model, s, c)
        best = max(best, float(np.sum(z_star * c)) / geometry.support(model, s, z_star))
    return best


def _hull_atom(model: str, s: MeasurementSettings, grad: np.ndarray) -> np.ndarray:
    """Extreme point of the hull maximizing <grad, .> (the linear oracle)."""
    x = s.a.T @ grad @ s.b
    if model == SEP:
        u, _, vt = np.linalg.svd(x)
        return np.outer(s.a @ u[:, 0], s.b @ vt[0])
    component = "SO3_minus" if model == QM else "O3"
    _, q = max_trace_over_rotations(x, component)
    return s.a @ q @ s.b.T


def _project_to_active_hull(atoms: np.ndarray, weights: np.ndarray, c_vec: np.ndarray):
    """Exact Euclidean projection of c onto the convex hull of the atom rows.

    Minor cycle of Wolfe's minimum-norm-point scheme: minimize over the
    affine hull of the active atoms (a small equality-constrained least
    squares problem solved through its KKT system), and whenever that
    optimum leaves the simplex, walk back to the boundary, drop whatever
    atom lands at weight zero, and resolve. Every pass removes an atom, so
    the cycle is finite, and the result is the exact projection.
    """
    while True:
        k = len(atoms)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = atoms @ atoms.T
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.append(atoms @ c_vec, 1.0)
        v = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        if np.all(v >= -1e-12):
            weights = np.clip(v, 0.0, None)
            weights /= weights.sum()
            return atoms, weights, weights @ atoms
        sinking = v < 0.0
        theta = float(np.min(weights[sinking] / (weights[sinking] - v[sinking])))
        weights = weights + min(1.0, max(0.0, theta)) * (v - weights)
        # The affine combination keeps the weight sum at one, so something
        # always survives the cut.
        keep = weights > 1e-14
        atoms = atoms[keep]
        weights = np.clip(weights[keep], 0.0, None)
        weights /= weights.sum()


def hull_membership_oracle(model: str, s: MeasurementSettings, c) -> bool:
    """Project C onto the hull of extreme correlations; True if it lands on C.

    Fully corrective Frank-Wolfe: each round asks the linear oracle for the
    extreme point best aligned with the current residual, then projects
    exactly onto the hull of the active set. The iterate always stays a
    convex combination, so a small residual certifies membership. Outside
    points exit early: with x in the hull and the oracle's gap
    g = <c - x, atom - x>, the squared distance to the hull is at least
    residual^2 - 2g. With the projection exact the loop cannot stall: any
    round that passes both exits has g > (res^2 - _FW_TOL^2) / 2 > 0, and the
    next projection then shrinks the residual by at least the line-search
    amount g^2 / |atom - x|^2.
    """
    if model not in geometry.MODELS:
        raise ValueError(f"unknown model {model!r}")
    c = np.asarray(c, dtype=float)
    if c.shape != (s.m, s.m):
        raise ValueError(f"expected a {s.m}x{s.m} matrix, got {c.shape}")

    c_vec = c.ravel()
    first = _hull_atom(model, s, c)
    atoms = first.reshape(1, -1).copy()
    weights = np.ones(1)
    x = atoms[0].copy()
    tol_sq = _FW_TOL * _FW_TOL

    for _ in range(_FW_MAX_ITERS):
        grad = c_vec - x
        res_sq = float(grad @ grad)
        if res_sq <= tol_sq:
            return True
        fresh = _hull_atom(model, s, grad.reshape(s.m, s.m)).ravel()
        gap = float(grad @ (fresh - x))
        if res_sq - 2.0 * gap > tol_sq:
            return False
        atoms = np.vstack([atoms, fresh])
        weights = np.append(weights, 0.0)
        atoms, weights, x = _project_to_active_hull(atoms, weights, c_vec)
    return float(np.linalg.norm(c_vec - x)) <= _FW_TOL


def _party_rows(g, m: int, rank: int):
    """random_settings' try for one party on blocks of 9 + m * rank normals
    (the 3x3 matrix whose Q gives the basis, then the row weights), stacked
    on any leading axes, bit-equal to one call per block. Returns rows
    (..., m, 3) and ok (...): no row under 1e-6, and matrix_rank(rows,
    tol=1e-8) == rank."""
    basis = np.linalg.qr(g[..., :9].reshape(g.shape[:-1] + (3, 3)))[0][..., :rank]
    rows = g[..., 9:].reshape(g.shape[:-1] + (m, rank)) @ np.swapaxes(basis, -1, -2)
    norms = np.linalg.norm(rows, axis=-1)
    ok = norms.min(axis=-1) >= 1e-6
    rows = rows / np.maximum(norms, 1e-6)[..., None]  # keeps rows failing ok finite
    ok &= np.count_nonzero(np.linalg.svd(rows, compute_uv=False) > 1e-8, axis=-1) == rank
    return rows, ok


def _unit_rows(rng, g, m: int, rank: int) -> np.ndarray:
    """Both parties' unit rows from a (..., 2, 9 + m * rank) block of first
    tries, as a read-only (..., 2, m, 3) stack. The parties that
    _party_rows rejects, and only those, draw again from one fresh normal
    block, in the block's order, until every party passes."""
    rows, ok = _party_rows(g, m, rank)
    while not ok.all():
        bad = ~ok
        rows[bad], ok[bad] = _party_rows(
            rng.standard_normal((np.count_nonzero(bad), g.shape[-1])), m, rank)
    return _read_only(rows)


def random_settings(rng, m: int, rank: int) -> MeasurementSettings:
    """Random unit-row settings with both parties at the given rank.

    Rows are unit vectors drawn inside a shared rank-dimensional subspace,
    one independent subspace per party. Both parties' first tries are one
    (2, 9 + m * rank) normal block; a rejected party alone draws again
    (_unit_rows), and the settings take the rows unchecked.
    """
    if not 1 <= rank <= min(3, m):
        raise ValueError(f"rank must be between 1 and min(3, m)={min(3, m)}, got {rank}")
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((2, 9 + m * rank))
    return MeasurementSettings._from_unit_rows(_unit_rows(rng, g, m, rank))


def random_product_state(rng, size: int | None = None) -> np.ndarray:
    """Pure product state with Haar-uniform Bloch directions on both sides.

    With ``size`` it returns a (size, 4, 4) stack from one (size, 2, 3)
    normal block, the rng stream of ``size`` single calls, each state
    bit-equal to its single call: the norms are stacked matmul dots (one
    ddot each, as a 1-d np.linalg.norm), qubit_state takes the stacked
    directions and the Kronecker product is the broadcast outer product.
    """
    rng = np.random.default_rng(rng)
    uv = rng.standard_normal((2, 3) if size is None else (size, 2, 3))
    uv = uv / np.sqrt(uv[..., None, :] @ uv[..., :, None])[..., 0]
    a, b = qubit_state(uv[..., 0, :]), qubit_state(uv[..., 1, :])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (4, 4))


def random_separable_state(rng) -> np.ndarray:
    """Dirichlet-weighted mixture of up to _MAX_PRODUCT_TERMS pure product states."""
    rng = np.random.default_rng(rng)
    k = int(rng.integers(1, _MAX_PRODUCT_TERMS + 1))
    weights = rng.dirichlet(np.ones(k))
    return sum(w * state for w, state in zip(weights, random_product_state(rng, k)))


def random_quantum_state(rng) -> np.ndarray:
    """Mixed two-qubit state from a normalized Wishart matrix."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class ScanResult(NamedTuple):
    value: float
    maximizer_c: np.ndarray


def ratio_scan(s: MeasurementSettings, pair: str,
               cfg: OracleConfig = DEFAULT_CONFIG) -> ScanResult:
    """Sampled containment radius: gauge of the inner body at random extreme
    points of the outer one. Approaches the exact radius from below."""
    if pair == QM_OVER_SEP:
        component, inner = "SO3_minus", SEP
    elif pair == MAX_OVER_QM:
        component, inner = "O3", QM
    else:
        raise ValueError(f"pair must be {QM_OVER_SEP!r} or {MAX_OVER_QM!r}, got {pair!r}")
    qs = random_rotation(cfg.seed, component, cfg.samples)
    cs = geometry.extreme_point(QM if inner == SEP else MAX, s, qs)
    values = geometry.gauge_stack(inner, s, cs)[1]
    i = int(np.argmax(values))  # the first maximum, as a strict > scan keeps
    return ScanResult(float(values[i]), cs[i].copy())
