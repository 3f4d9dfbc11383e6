"""Dense linear algebra kernel for small fixed-size matrices.

Everything in this module operates on plain float ndarrays of modest size
(2x2 up to roughly 6x6). It collects the handful of primitives the library
and the command line run on: singular values, Moore-Penrose pseudoinverse,
the operator and trace norms, the signed norms s1 + s2 +/- s3 * sgn(det),
and Haar-distributed random rotations. The package has one
signed-singular-value routine, signed_svals, which takes a 3x3 matrix or a
(k, 3, 3) stack and applies the one determinant sign rule, dead_zone_sign
(0 where s3 <= 8 eps s1); and one Haar sampler, random_rotation, which
with a size draws a (size, 3, 3) stack bit-equal to that many single
draws. Kernels that only the verification battery uses live in oracles.
Each norm is one private kernel on singular values already taken, which
geometry calls directly; svdvals and pinv also take (k, p, q) stacks.

All functions are pure: no caller-visible state, no hidden RNG. Random
sampling takes an explicit seed or Generator.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)

#: Default relative cutoff below which singular values count as zero.
RANK_TOL = 1e-10

_DEAD_ZONE = 8 * EPS  # relative to s1; see dead_zone_sign


def _as_finite_matrix(x, name: str = "input", stack: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 and not (stack and x.ndim == 3):
        shape = "2-d matrix or a (k, p, q) stack" if stack else "2-d matrix"
        raise ValueError(f"{name} must be a {shape}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def _as_finite_3x3(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-2:] != (3, 3):
        raise ValueError(f"signed_svals needs a 3x3 matrix or a (k, 3, 3) stack, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    return x


def _svals(x) -> np.ndarray:
    return np.linalg.svd(x, compute_uv=False)


def svdvals(x) -> np.ndarray:
    """Singular values only, descending, of a matrix or each matrix of a
    (k, p, q) stack."""
    return _svals(_as_finite_matrix(x, stack=True))


def pinv(x) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a matrix or each matrix of a (k, p, q) stack.

    Singular values below ``RANK_TOL`` times the largest one of the same
    matrix are truncated to zero, so nearly rank-deficient inputs invert
    stably.
    """
    return np.linalg.pinv(_as_finite_matrix(x, stack=True), rcond=RANK_TOL)


# The norm kernels read singular values s, descending, so that one SVD of a
# matrix serves its norms and any report of its spectrum.
def _op_norm(s) -> float:
    return float(s[0]) if s.size else 0.0


def _trace_norm(s) -> float:
    return float(s.sum())


def op_norm(x) -> float:
    """Largest singular value."""
    return _op_norm(_svals(_as_finite_matrix(x)))


def trace_norm(x) -> float:
    """Sum of singular values."""
    return _trace_norm(_svals(_as_finite_matrix(x)))


def dead_zone_sign(det, sv):
    """Sign of a 3x3 determinant with a dead zone near zero, elementwise.

    ``det`` holds determinants (or their signs) and ``sv`` the matching
    singular values, descending along the last axis (zero-padded to three),
    so stacks work as well as single matrices. The sign is 0.0 wherever
    s3 <= 8 * eps * s1. Computed singular values are exact for a
    perturbation of size about eps * s1 (Weyl; Golub & Van Loan, Matrix
    Computations, section 8.6), so there the matrix is singular within its
    backward error and its sign is noise. 8 sits above that noise and far
    below full rank: over 40,000 frames A^T Z B of seeded rank-2 settings
    (m = 2..5, Gaussian Z) s3 was at most 2.6 * eps * s1, and over 15,000
    full-rank ones s3/s1 was at least 2.8e-7. The collapsed sign moves the
    signed norms by at most 8 * eps * s1. _det_sign applies this rule: it
    calls this function for a (k, 3, 3) stack and for one matrix whose
    log|det| is not finite, and otherwise settles one matrix without it.
    """
    return np.where(sv[..., 2] <= _DEAD_ZONE * sv[..., 0], 0.0, np.sign(det))


def _signed_svals(x):
    s = _svals(x)
    return s, _det_sign(x, s)


def _det_sign(x, s):
    """dead_zone_sign of det x, given the singular values s of x.

    One matrix inside the dead zone takes no slogdet, whose sign the rule
    would drop, and gets the rule's 0-d 0.0 at once; outside it, with a
    finite log|det|, slogdet's +-1.0 as a 0-d array, which the rule keeps.
    A (k, 3, 3) stack takes one slogdet for all its matrices and the rule.
    """
    if x.ndim == 2 and s[2] <= _DEAD_ZONE * s[0]:
        return np.array(0.0)
    sign, logdet = np.linalg.slogdet(x)
    if x.ndim == 2 and abs(logdet) < np.inf:
        return np.array(sign)
    # A pivot overflowed or vanished. Exactly singular frames of a stack get
    # here too, so only a sign outside the dead zone is redone.
    if not np.isfinite(logdet).all():
        redo = ~np.isfinite(logdet) & (s[..., 2] > _DEAD_ZONE * s[..., 0])
        if redo.any():
            top = np.frexp(np.abs(x).max(axis=(-2, -1)))[1][..., None, None]
            sign = np.where(redo, np.linalg.slogdet(np.ldexp(x, -top))[0], sign)
    return dead_zone_sign(sign, s)


def _signed_norm(s, sign, flip: float) -> float:
    """s1 + s2 + flip * s3 * sign: norm_plus for flip = 1, norm_minus for -1."""
    return float(s[0] + s[1] + s[2] * (flip * sign))


def signed_svals(x):
    """Singular values and dead-zoned determinant sign of 3x3 matrices.

    ``x`` is one 3x3 matrix or a (k, 3, 3) stack. Returns ``(s, sign)``
    from one SVD and at most one ``slogdet``, which one matrix inside the
    dead zone does without: ``s`` holds the singular values,
    descending along the last axis, and ``sign`` the dead_zone_sign of
    each determinant, with shape ``x.shape[:-2]`` (0-d for one matrix).
    ``slogdet`` reads the sign off the LU pivots, so it does not overflow with
    s1 * s2 * s3, but near the top of the float range a pivot can. Where
    log|det| is not finite outside the dead zone, the sign is taken again on
    the matrix scaled exactly by a power of two, its largest entry in [0.5, 1).
    """
    return _signed_svals(_as_finite_3x3(x))


def norm_plus(x) -> float:
    """s1 + s2 + s3 * sgn(det x) for a 3x3 matrix."""
    return _signed_norm(*_signed_svals(_as_finite_3x3(x)), 1.0)


def norm_minus(x) -> float:
    """s1 + s2 - s3 * sgn(det x) for a 3x3 matrix."""
    return _signed_norm(*_signed_svals(_as_finite_3x3(x)), -1.0)


def random_rotation(rng, component: str = "SO3", size: int | None = None) -> np.ndarray:
    """Haar-distributed 3x3 orthogonal matrix from the given component.

    ``rng`` may be an integer seed or a numpy Generator. Orthogonalizes an
    i.i.d. Gaussian matrix by QR and fixes the factor signs so the result
    is Haar on O(3); the determinant is then steered into the requested
    component by flipping the last column, which preserves the measure.
    With ``size`` it returns a (size, 3, 3) stack from one (size, 3, 3)
    normal block, which is the rng stream of ``size`` single calls, and
    stacked ``qr`` and ``det``; each matrix is bit-equal to its single call.
    """
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((3, 3) if size is None else (size, 3, 3))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0, 1.0, -1.0)[..., None, :]
    if component == "SO3":
        flip = np.linalg.det(q) < 0
    elif component == "SO3_minus":
        flip = np.linalg.det(q) > 0
    elif component == "O3":
        return q
    else:
        raise ValueError(f"unknown component {component!r}")
    q[..., 2] *= np.where(flip, -1.0, 1.0)[..., None]
    return q
