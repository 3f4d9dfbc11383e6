"""Dense linear algebra kernel for small fixed-size matrices.

Everything in this module operates on plain float ndarrays of modest size
(2x2 up to roughly 6x6). It collects the handful of primitives the rest of
the package is built on: SVD with a guaranteed ordering, a rotation-factored
SVD variant, Moore-Penrose pseudoinverse, the operator and trace norms, the
signed norms s1 + s2 +/- s3 * sgn(det), orthogonal Procrustes maximization
over rotation components, Kronecker/vectorization helpers, a basis-free
3x3 determinant expansion, and Haar-distributed random rotations. The
package has one determinant sign rule, dead_zone_sign (elementwise, so
stacks use it too), and one Haar sampler, random_rotation.

All functions are pure: no caller-visible state, no hidden RNG. Random
sampling takes an explicit seed or Generator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(float).eps)

#: Default relative cutoff below which singular values count as zero.
RANK_TOL = 1e-10

# Levi-Civita symbol on three indices.
LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)]:
    LEVI_CIVITA[_i, _j, _k] = _s
LEVI_CIVITA.setflags(write=False)


class SvdResult(NamedTuple):
    """Thin SVD ``x = u @ diag(s) @ v.T`` with ``s`` descending and >= 0."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


class SpecialSvdResult(NamedTuple):
    """Rotation-factored SVD of a 3x3 matrix.

    ``u`` and ``v`` are proper rotations (determinant +1) and
    ``x = u @ diag(s) @ v.T`` where ``s = (s1, s2, s3 * sgn(det x))``
    carries any orientation sign on its smallest entry.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _as_finite_matrix(x, name: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def svd(x) -> SvdResult:
    """Thin singular value decomposition with descending singular values."""
    x = _as_finite_matrix(x)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return SvdResult(u, s, vt.T)


def svdvals(x) -> np.ndarray:
    """Singular values only, descending."""
    return np.linalg.svd(_as_finite_matrix(x), compute_uv=False)


def special_svd(x) -> SpecialSvdResult:
    """SVD of a 3x3 matrix constrained to rotation factors.

    Starts from the ordinary SVD and absorbs a reflection, if present, into
    the last column of each factor so that det(u) = det(v) = +1. The
    compensating sign lands on the third singular value, which therefore
    has the sign of det(x).
    """
    x = _as_finite_matrix(x)
    if x.shape != (3, 3):
        raise ValueError(f"special_svd needs a 3x3 matrix, got {x.shape}")
    u, s, vt = np.linalg.svd(x)
    u = u.copy()
    v = vt.T.copy()
    su = 1.0 if np.linalg.det(u) > 0 else -1.0
    sv = 1.0 if np.linalg.det(v) > 0 else -1.0
    u[:, 2] *= su
    v[:, 2] *= sv
    signed = np.array([s[0], s[1], s[2] * su * sv])
    return SpecialSvdResult(u, signed, v)


def pinv(x, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``rank_tol`` times the largest one are truncated
    to zero, so nearly rank-deficient inputs invert stably.
    """
    if rank_tol < 0:
        raise ValueError("rank_tol must be >= 0")
    return np.linalg.pinv(_as_finite_matrix(x), rcond=rank_tol)


def op_norm(x) -> float:
    """Largest singular value."""
    s = svdvals(x)
    return float(s[0]) if s.size else 0.0


def trace_norm(x) -> float:
    """Sum of singular values."""
    return float(svdvals(x).sum())


def dead_zone_sign(det, sv):
    """Sign of a 3x3 determinant with a dead zone near zero, elementwise.

    ``det`` holds determinants and ``sv`` the matching singular values,
    descending along the last axis (zero-padded to three), so stacks of
    matrices work as well as single ones. The sign is 0.0 wherever |det| is
    at most s1 * s2 * max(s3, eps) * 1e-12, exactly singular matrices of
    rank <= 1 included. The signed norms are continuous there (the s3 term
    vanishes), so the collapsed sign costs no accuracy.
    """
    dead = np.abs(det) <= 1e-12 * sv[..., 0] * sv[..., 1] * np.maximum(sv[..., 2], EPS)
    return np.where(dead, 0.0, np.sign(det))


def _signed_svals(x, name: str):
    """Singular values of a 3x3 matrix and its dead-zoned determinant sign."""
    x = _as_finite_matrix(x)
    if x.shape != (3, 3):
        raise ValueError(f"{name} needs a 3x3 matrix, got {x.shape}")
    s = np.linalg.svd(x, compute_uv=False)
    return s, float(dead_zone_sign(np.linalg.det(x), s))


def det_sign(x) -> float:
    """Sign of det(x) for a 3x3 matrix, with the dead zone of dead_zone_sign."""
    return _signed_svals(x, "det_sign")[1]


def norm_plus(x) -> float:
    """s1 + s2 + s3 * sgn(det x) for a 3x3 matrix."""
    s, sign = _signed_svals(x, "norm_plus")
    return float(s[0] + s[1] + s[2] * sign)


def norm_minus(x) -> float:
    """s1 + s2 - s3 * sgn(det x) for a 3x3 matrix."""
    s, sign = _signed_svals(x, "norm_minus")
    return float(s[0] + s[1] - s[2] * sign)


def max_trace_over_rotations(x, component: str = "SO3"):
    """Maximize Tr[x.T @ q] over a component of the 3x3 orthogonal group.

    component is one of "SO3" (rotations), "SO3_minus" (reflections,
    determinant -1) or "O3" (both). Returns ``(value, argmax)`` where the
    argmax is an exact member of the requested component and the value is
    norm_plus(x), norm_minus(x) or trace_norm(x) respectively.
    """
    x = _as_finite_matrix(x)
    if x.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {x.shape}")
    u, s, vt = np.linalg.svd(x)
    d = 1.0 if np.linalg.det(u @ vt) > 0 else -1.0
    if component == "O3":
        q = u @ vt
        value = float(s.sum())
    elif component == "SO3":
        q = u @ np.diag([1.0, 1.0, d]) @ vt
        value = float(s[0] + s[1] + d * s[2])
    elif component == "SO3_minus":
        q = u @ np.diag([1.0, 1.0, -d]) @ vt
        value = float(s[0] + s[1] - d * s[2])
    else:
        raise ValueError(f"unknown component {component!r}")
    return value, q


def kron(x, y) -> np.ndarray:
    """Kronecker product (column-stacking convention downstream)."""
    return np.kron(np.asarray(x), np.asarray(y))


def vec(m) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"vec expects a matrix, got shape {m.shape}")
    return m.T.ravel()


def det3_intrinsic(a, b, z) -> float:
    """det(a.T @ z @ b) from row triples, without forming the product.

    For measurement matrices a, b (m x 3) and weights z (m x m) this
    expands the determinant through the antisymmetric tensors
    t_{ijk} = det[row_i, row_j, row_k], so the value depends only on
    quantities expressible in the rows themselves.
    """
    a = _as_finite_matrix(a, "a")
    b = _as_finite_matrix(b, "b")
    z = _as_finite_matrix(z, "z")
    m = a.shape[0]
    if a.shape[1] != 3 or b.shape[1] != 3 or b.shape[0] != m or z.shape != (m, m):
        raise ValueError("shapes must be (m,3), (m,3) and (m,m)")
    ta = np.einsum("pqr,ip,jq,kr->ijk", LEVI_CIVITA, a, a, a)
    tb = np.einsum("pqr,lp,mq,nr->lmn", LEVI_CIVITA, b, b, b)
    total = np.einsum("ijk,il,jm,kn,lmn->", ta, z, z, z, tb, optimize=True)
    return float(total) / 6.0


def random_rotation(rng, component: str = "SO3") -> np.ndarray:
    """Haar-distributed 3x3 orthogonal matrix from the given component.

    ``rng`` may be an integer seed or a numpy Generator. Orthogonalizes an
    i.i.d. Gaussian matrix by QR and fixes the factor signs so the result
    is Haar on O(3); the determinant is then steered into the requested
    component by flipping the last column, which preserves the measure.
    """
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r) >= 0, 1.0, -1.0)
    d = np.linalg.det(q)
    if component == "SO3":
        if d < 0:
            q[:, 2] *= -1.0
    elif component == "SO3_minus":
        if d > 0:
            q[:, 2] *= -1.0
    elif component != "O3":
        raise ValueError(f"unknown component {component!r}")
    return q
