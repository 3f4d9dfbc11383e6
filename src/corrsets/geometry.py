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

Each support or gauge value is read off one private spectral record of its
frame or core, which the command line prints without factoring the matrix
again. Everything is deterministic and allocation-light; matrices stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import twoqubit
from .smallmat import (RANK_TOL, _det_sign, _op_norm, _signed_norm, _trace_norm, pinv,
                       random_rotation, svdvals)

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

    Both parties live in one read-only (2, m, 3) stack, a copy of the input
    built by the constructor, and ``a`` and ``b`` are views into it. One
    unit-row check covers both. What is cached on first use comes from one
    stacked call per kind, for both parties at once: the singular values
    (ranks), the pseudoinverses, the projectors A A^+ and B B^+ onto the
    column spaces, and the row-space bases. The per-party attributes are
    read-only views into those stacks, and nothing can go stale.
    """

    a: np.ndarray
    b: np.ndarray
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"A must be m x 3, got {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"B must match A's shape {a.shape}, got {b.shape}")
        if a.shape[0] < 1:
            raise ValueError("need at least one measurement setting")
        stack = _read_only(np.array((a, b)))
        norms = np.sqrt((stack * stack).sum(axis=2))  # np.linalg.norm(stack, axis=2)
        bad = ~(np.abs(norms - 1.0) <= UNIT_ROW_TOL)
        if bad.any():
            raise ValueError(f"rows of {'A' if bad[0].any() else 'B'} must be unit vectors")
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "a", stack[0])
        object.__setattr__(self, "b", stack[1])

    @cached_property
    def m(self) -> int:
        return self.a.shape[0]

    @cached_property
    def _ranks(self) -> tuple[int, int]:
        # Strict inequality so values sitting exactly at the cutoff resolve
        # toward the lower rank. Unit rows make s1 >= 1.
        s = svdvals(self._stack)
        return tuple(int(k) for k in (s > RANK_TOL * s[:, :1]).sum(axis=1))

    @cached_property
    def rank_a(self) -> int:
        return self._ranks[0]

    @cached_property
    def rank_b(self) -> int:
        return self._ranks[1]

    @cached_property
    def r(self) -> int:
        """min rank of the two setting matrices; controls which sets coincide."""
        return min(self.rank_a, self.rank_b)

    @cached_property
    def _pinvs(self) -> np.ndarray:
        return _read_only(pinv(self._stack))

    @cached_property
    def pinv_a(self) -> np.ndarray:
        """Pseudoinverse A^+ (3 x m), read-only."""
        return self._pinvs[0]

    @cached_property
    def pinv_b(self) -> np.ndarray:
        """Pseudoinverse B^+ (3 x m), read-only."""
        return self._pinvs[1]

    @cached_property
    def _projectors(self) -> np.ndarray:
        return _read_only(self._stack @ self._pinvs)

    @cached_property
    def projector_a(self) -> np.ndarray:
        return self._projectors[0]

    @cached_property
    def projector_b(self) -> np.ndarray:
        return self._projectors[1]

    @cached_property
    def _row_bases(self) -> np.ndarray:
        return _read_only(np.linalg.svd(self._stack, full_matrices=True)[2])

    @cached_property
    def row_basis_a(self) -> np.ndarray:
        """Orthogonal 3x3 basis whose leading columns span the row space of A."""
        return self._row_bases[0].T

    @cached_property
    def row_basis_b(self) -> np.ndarray:
        """Orthogonal 3x3 basis whose leading columns span the row space of B."""
        return self._row_bases[1].T


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


def _square_sum(x: np.ndarray, error: str = "input has non-finite entries") -> float:
    """Sum of the squared entries of x; ValueError(error) on a non-finite entry.

    np.linalg.norm(x) squared, bit for bit (the same ddot), except that
    vdot raises no overflow warning. A non-finite entry makes the sum
    non-finite, so the entries are only inspected when it is.
    """
    flat = x.ravel(order="K")
    norm_sq = float(np.vdot(flat, flat))
    if not math.isfinite(norm_sq) and not np.all(np.isfinite(x)):
        raise ValueError(error)
    return norm_sq


def _frame(s: MeasurementSettings, z) -> np.ndarray:
    """A.T Z B, the coefficient matrix pushed into Bloch coordinates."""
    z = np.asarray(z, dtype=float)
    if z.shape != (s.m, s.m):
        raise ValueError(f"coefficient matrix must be {s.m}x{s.m}, got {z.shape}")
    _square_sum(z)
    frame = s.a.T @ z @ s.b
    _square_sum(frame, "the frame A^T Z B overflowed")  # a finite Z can overflow it
    return frame


class _Spectrum:
    """A frame or core W with its singular values, descending, and the
    dead-zoned sign of its determinant, taken on first read and kept.

    One SVD serves both a support or gauge value and a report of the
    spectrum behind it; sep and max values take no determinant.
    """

    __slots__ = ("matrix", "svals", "_sign")

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.svals = np.linalg.svd(matrix, compute_uv=False)
        self._sign = None

    @property
    def sign(self) -> float:
        if self._sign is None:
            self._sign = float(_det_sign(self.matrix, self.svals))
        return self._sign


def _support_spectrum(model: str, s: MeasurementSettings, z) -> tuple[float, _Spectrum]:
    """support(model, s, z) and the spectrum of the frame it was read from."""
    _check_model(model)
    frame = _Spectrum(_frame(s, z))
    if model == SEP:
        return _op_norm(frame.svals), frame
    if model == QM:
        return _signed_norm(frame.svals, frame.sign, -1.0), frame
    return _trace_norm(frame.svals), frame


def support(model: str, s: MeasurementSettings, z) -> float:
    """Support function of the model's correlation body at Z."""
    return _support_spectrum(model, s, z)[0]


def _range_deficit(projector: np.ndarray, c: np.ndarray) -> float:
    return math.sqrt(_square_sum(c - projector @ c))


def _gauge_core(s: MeasurementSettings, c, report: bool = False):
    """Range check plus W = A^+ C (B.T)^+; returns (finite, W, norm_c).

    W is None when C is out of range, unless ``report`` asks for it anyway.
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
    finite = not (_range_deficit(s.projector_a, probe) > RANGE_TOL * norm_c
                  or _range_deficit(s.projector_b, probe.T) > RANGE_TOL * norm_c)
    if not (finite or report):
        return False, None, norm_c
    w = s.pinv_a @ c @ s.pinv_b.T
    _square_sum(w, "the core A^+ C (B^T)^+ overflowed")  # a finite C can overflow it
    return finite, w, norm_c


def _gauge_spectrum(model: str, s: MeasurementSettings, c,
                    report: bool = False) -> tuple[GaugeValue, _Spectrum | None]:
    """gauge(model, s, c) and the spectrum of the core W it was read from.

    Out of range the gauge reads no core: the spectrum is None, or with
    ``report`` the spectrum of W formed anyway, for a report to print.
    """
    _check_model(model)
    finite, w, norm_c = _gauge_core(s, c, report)
    core = None if w is None else _Spectrum(w)
    if not finite:
        return GaugeValue(False), core
    if norm_c == 0.0:
        return GaugeValue(True, 0.0), core
    if model == SEP:
        return GaugeValue(True, _trace_norm(core.svals)), core
    if model == QM and s.r == 3:
        return GaugeValue(True, _signed_norm(core.svals, core.sign, 1.0)), core
    return GaugeValue(True, _op_norm(core.svals)), core


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
    return _gauge_spectrum(model, s, c)[0]


def _optimizer(model: str, s: MeasurementSettings, w: np.ndarray) -> np.ndarray:
    """optimizer_z from the core W of an in-range, nonzero C."""
    u, _, vt = np.linalg.svd(w)
    if model == SEP:
        core = u @ vt
    elif model == MAX or s.r <= 2:
        core = u[:, :1] * vt[:1]
    else:
        eta = 1.0 if np.linalg.det(u @ vt) > 0 else -1.0
        core = u @ np.diag([1.0, 1.0, eta]) @ vt
    return s.pinv_a.T @ core @ s.pinv_b


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
    return _optimizer(model, s, w)


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
