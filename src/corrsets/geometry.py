"""Correlation-set geometry for fixed two-qubit measurement settings.

A scenario is a pair of m x 3 matrices A, B whose unit rows are the Bloch
directions of each party's dichotomic observables. A state with Pauli
correlation block T produces the m x m correlation matrix C = A T B.T, and
three nested convex bodies of such matrices arise from the separable, the
quantum and the block-positive (maximal) state classes.

This module computes, for each of the three models:

* the support function of the body at a coefficient matrix Z, which is a
  norm of the 3x3 matrix A.T Z B (largest singular value, the signed
  combination s1 + s2 - s3 sgn(det), or the trace norm);
* the gauge function of the body at a correlation matrix C, the smallest
  t with C/t inside the body, finite exactly when C is compatible with the
  ranges of A and B and then a matching norm of W = A^+ C (B.T)^+;
* the coefficient matrix attaining the gauge value in the duality
  sup_Z Tr[Z.T C] / support(Z);
* extreme points and membership tests.

The closed forms for m = 2 in the Gram angles and the Gram-picture support,
second routes to the same values, live with the other verification routes
in oracles.

Everything is deterministic and allocation-light; matrices stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import twoqubit
from .smallmat import (
    RANK_TOL,
    norm_minus,
    norm_plus,
    op_norm,
    pinv,
    random_rotation,
    svdvals,
    trace_norm,
)

SEP = "sep"
QM = "qm"
MAX = "max"
MODELS = (SEP, QM, MAX)

UNIT_ROW_TOL = 1e-9
RANGE_TOL = 1e-8
# Squared Frobenius norms of C (or Z) for which the squares in that norm, in
# the range deficits and in the two-setting closed form of oracles neither
# overflow nor underflow.
_NORM_SQ_RANGE = (1e-200, 1e200)


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return model


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class MeasurementSettings:
    """Measurement directions of both parties, one unit row per setting.

    Immutable: ``a`` and ``b`` are read-only copies of the input, so the
    factorizations cached on first use (ranks, pseudoinverses, row-space
    bases) cannot go stale.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"A must be m x 3, got {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"B must match A's shape {a.shape}, got {b.shape}")
        if a.shape[0] < 1:
            raise ValueError("need at least one measurement setting")
        for name, mat in (("A", a), ("B", b)):
            norms = np.linalg.norm(mat, axis=1)
            if not np.max(np.abs(norms - 1.0)) <= UNIT_ROW_TOL:
                raise ValueError(f"rows of {name} must be unit vectors")
        object.__setattr__(self, "a", _read_only(a))
        object.__setattr__(self, "b", _read_only(b))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @cached_property
    def rank_a(self) -> int:
        return _numerical_rank(self.a)

    @cached_property
    def rank_b(self) -> int:
        return _numerical_rank(self.b)

    @property
    def r(self) -> int:
        """min rank of the two setting matrices; controls which sets coincide."""
        return min(self.rank_a, self.rank_b)

    @cached_property
    def pinv_a(self) -> np.ndarray:
        """Pseudoinverse A^+ (3 x m), read-only."""
        return _read_only(pinv(self.a))

    @cached_property
    def pinv_b(self) -> np.ndarray:
        """Pseudoinverse B^+ (3 x m), read-only."""
        return _read_only(pinv(self.b))

    @cached_property
    def row_basis_a(self) -> np.ndarray:
        """Orthogonal 3x3 basis whose leading columns span the row space of A."""
        return _read_only(np.linalg.svd(self.a, full_matrices=True)[2].T)

    @cached_property
    def row_basis_b(self) -> np.ndarray:
        """Orthogonal 3x3 basis whose leading columns span the row space of B."""
        return _read_only(np.linalg.svd(self.b, full_matrices=True)[2].T)


def _numerical_rank(x) -> int:
    # Strict inequality so values sitting exactly at the cutoff resolve
    # toward the lower rank.
    s = svdvals(x)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


@dataclass(frozen=True)
class GaugeValue:
    """Gauge function result; ``finite`` is False when no scaling works."""

    finite: bool
    value: float = field(default=float("inf"))

    def __post_init__(self):
        if self.finite and not self.value >= 0.0:
            raise ValueError("finite gauge values must be >= 0")


def correlation_matrix(rho, s: MeasurementSettings) -> np.ndarray:
    """Image of a state under the settings: C = A T B.T."""
    t = twoqubit.pauli_expand(rho).t
    return s.a @ t @ s.b.T


def planar_settings(alpha: float, beta: float, rng=None) -> MeasurementSettings:
    """Two settings per party at prescribed Gram angles.

    a1.a2 = cos(alpha) and b1.b2 = cos(beta). With an rng the two planes get
    independent random orientations in space; the angles are what matter.
    """
    a = np.array([[1.0, 0.0, 0.0], [np.cos(alpha), np.sin(alpha), 0.0]])
    b = np.array([[1.0, 0.0, 0.0], [np.cos(beta), np.sin(beta), 0.0]])
    if rng is not None:
        rng = np.random.default_rng(rng)
        a = a @ random_rotation(rng, "SO3").T
        b = b @ random_rotation(rng, "SO3").T
    return MeasurementSettings(a, b)


def _square_sum(x: np.ndarray) -> float:
    """Sum of the squared entries of x; ValueError if any entry is non-finite.

    np.linalg.norm(x) squared, bit for bit (the same ddot), except that
    vdot raises no overflow warning. A non-finite entry makes the sum
    non-finite, so the entries are only inspected when it is.
    """
    flat = x.ravel(order="K")
    norm_sq = float(np.vdot(flat, flat))
    if not math.isfinite(norm_sq) and not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    return norm_sq


def _frame(s: MeasurementSettings, z) -> np.ndarray:
    """A.T Z B, the coefficient matrix pushed into Bloch coordinates."""
    z = np.asarray(z, dtype=float)
    if z.shape != (s.m, s.m):
        raise ValueError(f"coefficient matrix must be {s.m}x{s.m}, got {z.shape}")
    _square_sum(z)
    return s.a.T @ z @ s.b


def support(model: str, s: MeasurementSettings, z) -> float:
    """Support function of the model's correlation body at Z."""
    _check_model(model)
    m = _frame(s, z)
    if model == SEP:
        return op_norm(m)
    if model == QM:
        return norm_minus(m)
    return trace_norm(m)


def _range_deficit(projector: np.ndarray, c: np.ndarray) -> float:
    return float(np.linalg.norm(c - projector @ c))


def _gauge_core(s: MeasurementSettings, c):
    """Range check plus W = A^+ C (B.T)^+; returns (finite, W, norm_c).

    norm_c is the Frobenius norm of C, or of C scaled by a power of two
    when its square lies outside _NORM_SQ_RANGE; either way it is zero
    exactly when C is.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (s.m, s.m):
        raise ValueError(f"correlation matrix must be {s.m}x{s.m}, got {c.shape}")
    probe = c
    norm_sq = _square_sum(c)
    if not _NORM_SQ_RANGE[0] <= norm_sq <= _NORM_SQ_RANGE[1]:
        if not c.any():
            return True, np.zeros((3, 3)), 0.0
        # The squares overflow or underflow at this scale. The range test is
        # scale invariant, so run it on C with its largest entry brought
        # into [0.5, 1).
        probe = np.ldexp(c, -math.frexp(np.max(np.abs(c)))[1])
        norm_sq = _square_sum(probe)
    norm_c = math.sqrt(norm_sq)
    a_pinv, b_pinv = s.pinv_a, s.pinv_b
    if _range_deficit(s.a @ a_pinv, probe) > RANGE_TOL * norm_c:
        return False, None, norm_c
    if _range_deficit(s.b @ b_pinv, probe.T) > RANGE_TOL * norm_c:
        return False, None, norm_c
    w = a_pinv @ c @ b_pinv.T
    return True, w, norm_c


def gauge(model: str, s: MeasurementSettings, c) -> GaugeValue:
    """Gauge function of the model's correlation body at C.

    Infinite whenever C is incompatible with the column spaces of A or B,
    since no scaling of such a C is reachable by any state. Otherwise a
    norm of W = A^+ C (B.T)^+: the trace norm for the separable body, the
    operator norm for the maximal one, and for the quantum body the signed
    sum s1 + s2 + s3 sgn(det W) when both settings have full rank (below
    full rank the quantum and maximal bodies coincide).

    The range test is scale invariant, so a C that cancels to rounding noise
    (say two opposite correlation matrices of rank-1 settings, summed) reads
    as out of range: its gauge is infinite, although C = 0 has gauge 0.
    """
    _check_model(model)
    finite, w, norm_c = _gauge_core(s, c)
    if not finite:
        return GaugeValue(False)
    if norm_c == 0.0:
        return GaugeValue(True, 0.0)
    if model == SEP:
        return GaugeValue(True, trace_norm(w))
    if model == MAX:
        return GaugeValue(True, op_norm(w))
    if s.r == 3:
        return GaugeValue(True, norm_plus(w))
    return GaugeValue(True, op_norm(w))


def optimizer_z(model: str, s: MeasurementSettings, c) -> np.ndarray:
    """Coefficient matrix attaining the gauge value in the support duality.

    The returned Z satisfies Tr[Z.T C] / support(model, s, Z) = gauge value.
    Built from the SVD of W = A^+ C (B.T)^+: the full orthogonal product
    for the separable body, the top dyad for the maximal body, and for the
    quantum body at full rank the orthogonal product with the trailing
    direction flipped onto the orientation of W.
    """
    _check_model(model)
    finite, w, norm_c = _gauge_core(s, c)
    if not finite:
        raise ValueError("gauge is infinite; no optimizer exists")
    if norm_c == 0.0:
        raise ValueError("gauge is zero at C = 0; the duality ratio is undefined")
    u, _, vt = np.linalg.svd(w)
    if model == SEP:
        core = u @ vt
    elif model == MAX or s.r <= 2:
        core = np.outer(u[:, 0], vt[0])
    else:
        eta = 1.0 if np.linalg.det(u @ vt) > 0 else -1.0
        core = u @ np.diag([1.0, 1.0, eta]) @ vt
    return s.pinv_a.T @ core @ s.pinv_b


def membership(model: str, s: MeasurementSettings, c, tol: float = 1e-9) -> bool:
    """Whether C lies in the model's correlation body, up to tol in gauge."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    g = gauge(model, s, c)
    return g.finite and g.value <= 1.0 + tol


def extreme_point(model: str, s: MeasurementSettings, param) -> np.ndarray:
    """An extreme point of the model's correlation body.

    For the separable body ``param`` is a pair of unit Bloch vectors
    (ra, rb) and the point is A ra rb.T B.T. For the quantum body it is an
    orthogonal 3x3 matrix with determinant -1, for the maximal body any
    orthogonal matrix, and the point is A Q B.T.
    """
    _check_model(model)
    if model == SEP:
        ra, rb = param
        ra = np.asarray(ra, dtype=float)
        rb = np.asarray(rb, dtype=float)
        if ra.shape != (3,) or rb.shape != (3,):
            raise ValueError("separable extreme points take two 3-vectors")
        if abs(np.linalg.norm(ra) - 1.0) > UNIT_ROW_TOL or abs(np.linalg.norm(rb) - 1.0) > UNIT_ROW_TOL:
            raise ValueError("Bloch vectors must be unit length")
        return s.a @ np.outer(ra, rb) @ s.b.T
    q = np.asarray(param, dtype=float)
    if q.shape != (3, 3) or np.linalg.norm(q.T @ q - np.eye(3)) > UNIT_ROW_TOL * 10:
        raise ValueError("extreme points of this body take an orthogonal 3x3 matrix")
    if model == QM and np.linalg.det(q) > 0:
        raise ValueError("quantum extreme points need determinant -1")
    return s.a @ q @ s.b.T
