"""Dense linear algebra kernel for small fixed-size matrices.

Everything in this module operates on plain float ndarrays of modest size
(2x2 up to roughly 6x6). It collects the handful of primitives the library
and the command line run on: singular values, Moore-Penrose pseudoinverse,
the operator and trace norms, the signed norms s1 + s2 +/- s3 * sgn(det),
and Haar-distributed random rotations. The package has one
signed-singular-value routine, signed_svals, which takes a 3x3 matrix or a
(k, 3, 3) stack and applies the one determinant sign rule, dead_zone_sign;
and one Haar sampler, random_rotation. Kernels that only the verification
battery uses live in oracles.

All functions are pure: no caller-visible state, no hidden RNG. Random
sampling takes an explicit seed or Generator.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)

#: Default relative cutoff below which singular values count as zero.
RANK_TOL = 1e-10

# Largest singular values in this range take the determinant directly: no
# product of three singular values overflows, and the dead zone's absolute
# eps floor stays below rounding level relative to s1.
_DIRECT_DET_RANGE = (1e-8, 1e100)


def _as_finite_matrix(x, name: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def svdvals(x) -> np.ndarray:
    """Singular values only, descending."""
    return np.linalg.svd(_as_finite_matrix(x), compute_uv=False)


def pinv(x) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``RANK_TOL`` times the largest one are truncated
    to zero, so nearly rank-deficient inputs invert stably.
    """
    return np.linalg.pinv(_as_finite_matrix(x), rcond=RANK_TOL)


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


def signed_svals(x):
    """Singular values and dead-zoned determinant sign of 3x3 matrices.

    ``x`` is one 3x3 matrix or a (k, 3, 3) stack. Returns ``(s, sign)``
    from one SVD and one determinant: ``s`` holds the singular values,
    descending along the last axis, and ``sign`` the dead_zone_sign of
    each determinant, with shape ``x.shape[:-2]`` (0-d for one matrix).
    The sign is invariant under positive scaling of ``x``, at any scale
    that leaves the singular values finite and nonzero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-2:] != (3, 3):
        raise ValueError(f"signed_svals needs a 3x3 matrix or a (k, 3, 3) stack, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    s = np.linalg.svd(x, compute_uv=False)
    lo, hi = _DIRECT_DET_RANGE
    if x.ndim == 2 and (lo <= s[0] <= hi or s[0] == 0.0):
        return s, dead_zone_sign(np.linalg.det(x), s)
    # Scale each matrix whose s1 leaves the range by the power of two that
    # brings s1 into [0.5, 1). The scaling is exact, so the sign is the one
    # the rule gives at unit scale; the others keep a shift of zero.
    top = s[..., 0]
    off = (top > hi) | ((top < lo) & (top > 0.0))
    shift = np.where(off, -np.frexp(top)[1], 0)
    unit_x = np.ldexp(x, shift[..., None, None])
    return s, dead_zone_sign(np.linalg.det(unit_x), np.ldexp(s, shift[..., None]))


def norm_plus(x) -> float:
    """s1 + s2 + s3 * sgn(det x) for a 3x3 matrix."""
    s, sign = signed_svals(x)
    return float(s[0] + s[1] + s[2] * sign)


def norm_minus(x) -> float:
    """s1 + s2 - s3 * sgn(det x) for a 3x3 matrix."""
    s, sign = signed_svals(x)
    return float(s[0] + s[1] - s[2] * sign)


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
