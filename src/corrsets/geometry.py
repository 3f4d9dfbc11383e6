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

Each support or gauge value is read off one private spectral record of its
frame or core, which the command line prints without factoring the matrix
again. The settings object keeps the last frame record and the last core
record it made, so the three models and the optimizer share one frame, one
core and one values-only SVD per matrix, and the three optimizers one full
SVD of the core (see MeasurementSettings).

support_stack and gauge_stack are the stacked forms for one settings
object: a (k, m, m) stack of Z or C gives one stacked frame or core and one
spectrum of the (k, 3, 3) stack, which the norm table of one matrix reads.
On a C-ordered stack each entry equals its scalar value bit for bit. The
stacks bypass the record slots.
Everything is deterministic and allocation-light; matrices stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import twoqubit
from .smallmat import RANK_TOL, _det_sign, _signed, _trace, pinv, random_rotation, svdvals

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


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Measurement directions of both parties, one unit row per setting.

    Both parties live in one read-only (2, m, 3) stack, a copy of the input
    built by the constructor, and ``a`` and ``b`` are views into it. One
    unit-row check covers both. The random samplers build through the
    private _from_unit_rows, which takes a read-only stack of rows they
    have just normalized as it is. What is cached on first use comes from one
    stacked call per kind, for both parties at once: the singular values
    (ranks), the pseudoinverses, the projectors A A^+ and B B^+ onto the
    column spaces, and the row-space bases. The per-party attributes are
    read-only views into those stacks, and nothing can go stale.

    The object also keeps one slot for the spectral record of the last
    frame A^T Z B it formed and one for the record of the last correlation
    matrix C it range-tested (its verdict, its norm and, once needed, the
    core and its singular vectors). A slot holds (key, record), where the
    key is the input's bytes after np.asarray(x, float), its shape and its
    strides; the shape is checked before the key is compared. The strides
    are in the key because BLAS may round a Fortran-ordered input
    differently from a C-ordered one, so a value never depends on which
    call came first. A record holds
    no reference to the input, only read-only arrays computed from it, so
    an input mutated in place no longer matches its key and gets a fresh
    record, bit-identical to one on a fresh settings object. A hit skips
    the finiteness check of the input, since equal bytes passed it before.
    Only the last matrix of each kind is kept: the reuse is the three
    models, and the optimizer, called on one matrix.

    Settings compare and hash by identity (eq=False), so they can be set
    members and dict keys; two objects with equal rows are not equal.
    """

    a: np.ndarray
    b: np.ndarray
    _stack: np.ndarray = field(init=False, repr=False)
    _frame_slot: tuple | None = field(default=None, init=False, repr=False)
    _core_slot: tuple | None = field(default=None, init=False, repr=False)

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
        self._adopt(stack)

    def _adopt(self, stack: np.ndarray) -> None:
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "a", stack[0])
        object.__setattr__(self, "b", stack[1])

    @classmethod
    def _from_unit_rows(cls, stack: np.ndarray) -> MeasurementSettings:
        """Settings on a read-only (2, m, 3) stack of rows known to be unit
        vectors, such as oracles._party_rows has just normalized; the stack
        is neither copied nor checked."""
        s = object.__new__(cls)
        s._adopt(stack)
        return s

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


@dataclass(frozen=True, slots=True)
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
    rotations = np.eye(3) if rng is None else random_rotation(rng, "SO3", 2)
    return MeasurementSettings(*_planar_rows(alpha, beta, rotations))


def _planar_rows(alpha, beta, rotations) -> np.ndarray:
    """Rows (1, 0, 0) and (cos, sin, 0) of each party at its Gram angle,
    turned by its rotation: angles of shape (...) and rotations of shape
    (..., 2, 3, 3), or one 3x3 for both, give a (..., 2, 2, 3) stack."""
    angles = np.stack([alpha, beta], axis=-1)
    rows = np.zeros(angles.shape + (2, 3))
    rows[..., 0, 0] = 1.0
    rows[..., 1, 0], rows[..., 1, 1] = np.cos(angles), np.sin(angles)
    return rows @ np.swapaxes(rotations, -1, -2)


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


def _dots(x, y):
    """x . y along the last axis: a stacked matmul dot, one ddot per entry as
    in a 1-d x @ y or np.linalg.norm."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _square_sums(xs: np.ndarray) -> np.ndarray:
    """_square_sum of each matrix of a finite (k, p, q) stack, bit for bit. A
    sum that overflows is inf without a warning, as vdot gives it."""
    flat = xs.reshape(len(xs), xs.shape[1] * xs.shape[2])
    with np.errstate(over="ignore"):
        return _dots(flat, flat)


def _unit_scaled(xs: np.ndarray):
    """(xs 2^-e, e, square sums of xs 2^-e) for a finite (k, p, q) stack: a
    matrix whose square sum leaves _NORM_SQ_RANGE gets its largest entry into
    [0.5, 1), any other, a zero one included, e = 0. The scalings are exact."""
    norm_sq = _square_sums(xs)
    far = ~((_NORM_SQ_RANGE[0] <= norm_sq) & (norm_sq <= _NORM_SQ_RANGE[1]))
    if not far.any():
        return xs, np.zeros(len(xs), dtype=np.intc), norm_sq
    e = np.where(far, np.frexp(np.abs(xs).max(axis=(1, 2)))[1], 0)
    scaled = np.ldexp(xs, -e[:, None, None])
    return scaled, e, _square_sums(scaled)


def _checked(s: MeasurementSettings, x, what: str, stack: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if stack:
        if x.ndim != 3 or x.shape[1:] != (s.m, s.m):
            raise ValueError(f"{what} stack must be k x {s.m} x {s.m}, got {x.shape}")
    elif x.shape != (s.m, s.m):
        raise ValueError(f"{what} matrix must be {s.m}x{s.m}, got {x.shape}")
    return x


def _key(x: np.ndarray) -> tuple:
    """The record-slot key of a checked input (see MeasurementSettings)."""
    return x.shape, x.strides, x.tobytes()


def _frame(s: MeasurementSettings, z: np.ndarray) -> np.ndarray:
    """A.T Z B, the coefficient matrix pushed into Bloch coordinates."""
    _square_sum(z)
    frame = s.a.T @ z @ s.b
    _square_sum(frame, "the frame A^T Z B overflowed")  # a finite Z can overflow it
    return frame


class _Spectrum:
    """A read-only frame or core W, one 3x3 matrix or a (k, 3, 3) stack, with
    its singular values, descending, and the dead-zoned sign of its
    determinant, taken on first read and kept.

    One SVD serves the support or gauge values of all three models and a
    report of the spectrum behind them; sep and max values take no
    determinant. Every norm is formed from ``values`` and ``sign``: for one
    matrix three Python floats, read off ``svals`` once, and a float; for a
    stack the three (k,) columns of ``svals`` and a (k,) array.
    """

    __slots__ = ("matrix", "svals", "values", "_sign")

    def __init__(self, matrix: np.ndarray):
        self.matrix = _read_only(matrix)
        self.svals = _read_only(np.linalg.svd(matrix, compute_uv=False))
        self.values = self.svals.tolist() if matrix.ndim == 2 else self.svals.T
        self._sign = None

    @property
    def sign(self):
        if self._sign is None:
            sign = _det_sign(self.matrix, self.svals)
            self._sign = sign if sign.ndim else float(sign)
        return self._sign


def _frame_record(s: MeasurementSettings, z) -> _Spectrum:
    """The spectrum of A.T Z B, from the settings' frame slot when Z matches."""
    z = _checked(s, z, "coefficient")
    key = _key(z)
    slot = s._frame_slot
    if slot is not None and slot[0] == key:
        return slot[1]
    record = _Spectrum(_frame(s, z))
    object.__setattr__(s, "_frame_slot", (key, record))
    return record


def _support_norm(model: str, frame: _Spectrum):
    """s1, the signed s1 + s2 - s3 sgn(det) or the trace norm of the frame."""
    if model == SEP:
        return frame.values[0]
    if model == QM:
        return _signed(frame.values, frame.sign, -1.0)
    return _trace(frame.values)


def support(model: str, s: MeasurementSettings, z) -> float:
    """Support function of the model's correlation body at Z."""
    return _support_norm(_check_model(model), _frame_record(s, z))


def _range_verdict(s: MeasurementSettings, c: np.ndarray) -> tuple[bool, float]:
    """(finite, norm_c): whether C passes both range tests, and its norm.

    A party of rank m spans R^m and passes without a projector, whose
    deficit there is only rounding noise of about eps * cond relative.
    Elsewhere the deficit |C - P C| is np.linalg.norm, bit for bit.

    norm_c is the Frobenius norm of C, or of C scaled by _unit_scaled
    when its square lies outside _NORM_SQ_RANGE; either way it is zero
    exactly when C is.

    _range_verdicts gives the same for each C of a stack in about 15 numpy
    calls whatever its size: 29 us for one C against 7.6 us here (m = 4, rank
    3, one BLAS thread, Intel Xeon); a fresh qm gauge on it took 60 us, not 35.
    """
    norm_sq = _square_sum(c)
    if not _NORM_SQ_RANGE[0] <= norm_sq <= _NORM_SQ_RANGE[1]:
        if not c.any():
            return True, 0.0
        # The squares overflow or underflow; the range test is scale invariant.
        scaled, _, norm_sq = _unit_scaled(c[None])
        c, norm_sq = scaled[0], float(norm_sq[0])
    norm_c = math.sqrt(norm_sq)
    tol = RANGE_TOL * norm_c
    finite = not (s.rank_a < s.m and math.sqrt(_square_sum(c - s.projector_a @ c)) > tol
                  or s.rank_b < s.m and math.sqrt(_square_sum(c.T - s.projector_b @ c.T)) > tol)
    return finite, norm_c


def _gauge_core(s: MeasurementSettings, c: np.ndarray) -> np.ndarray:
    """W = A^+ C (B.T)^+."""
    w = s.pinv_a @ c @ s.pinv_b.T
    _square_sum(w, "the core A^+ C (B^T)^+ overflowed")  # a finite C can overflow it
    return w


class _CoreRecord:
    """The range verdict and norm of one C, and the spectrum of its core W.

    ``core`` stays None until a value, an optimizer or a report needs it: C
    in range and nonzero, or a report. At C = 0 it is the zero matrix.
    ``factors`` and ``polar`` stay None until the first optimizer, which
    fills them for all three models: ``factors`` with the read-only U and
    V^T of one full SVD of W, ``polar`` with their read-only product U V^T.
    """

    __slots__ = ("finite", "norm_c", "core", "factors", "polar")

    def __init__(self, finite: bool, norm_c: float):
        self.finite = finite
        self.norm_c = norm_c
        self.core = None
        self.factors = None
        self.polar = None


def _core_record(s: MeasurementSettings, c, report: bool = False) -> _CoreRecord:
    """The record of C, from the settings' core slot when C matches, with its
    core formed if a value needs it or ``report`` asks for it."""
    c = _checked(s, c, "correlation")
    key = _key(c)
    slot = s._core_slot
    if slot is not None and slot[0] == key:
        record = slot[1]
    else:
        record = _CoreRecord(*_range_verdict(s, c))
        object.__setattr__(s, "_core_slot", (key, record))
    if record.core is None and (report or (record.finite and record.norm_c)):
        record.core = _Spectrum(_gauge_core(s, c) if record.norm_c else np.zeros((3, 3)))
    return record


def _gauge_norm(model: str, s: MeasurementSettings, core: _Spectrum):
    """The trace norm, the full-rank signed s1 + s2 + s3 sgn(det) or s1 of W."""
    if model == SEP:
        return _trace(core.values)
    if model == QM and s.r == 3:
        return _signed(core.values, core.sign, 1.0)
    return core.values[0]


def gauge(model: str, s: MeasurementSettings, c) -> GaugeValue:
    """Gauge function of the model's correlation body at C.

    Infinite whenever C is incompatible with the column spaces of A or B,
    since no scaling of such a C is reachable by any state; a party of rank
    m spans all of R^m and passes without a projector. Otherwise a
    norm of W = A^+ C (B.T)^+: the trace norm for the separable body, the
    operator norm for the maximal one, and for the quantum body the signed
    sum s1 + s2 + s3 sgn(det W) when both settings have full rank (below
    full rank the quantum and maximal bodies coincide).

    The range test is scale invariant, so a C that cancels to rounding noise
    (say two opposite correlation matrices of rank-1 settings, summed) reads
    as out of range: its gauge is infinite, although C = 0 has gauge 0.
    """
    _check_model(model)
    record = _core_record(s, c)
    if not record.finite:
        return GaugeValue(False)
    if record.norm_c == 0.0:
        return GaugeValue(True, 0.0)
    return GaugeValue(True, _gauge_norm(model, s, record.core))


def optimizer_z(model: str, s: MeasurementSettings, c) -> np.ndarray:
    """Coefficient matrix attaining the gauge value in the support duality.

    The returned Z satisfies Tr[Z.T C] / support(model, s, Z) = gauge value.
    Built from the SVD of W = A^+ C (B.T)^+: the full orthogonal product
    for the separable body, the top dyad for the maximal body, and for the
    quantum body at full rank the orthogonal product with the trailing
    direction flipped onto the orientation of W. The first optimizer on a C
    keeps U, V^T and the polar factor U V^T on the record of C, and the
    other models reuse them.
    """
    _check_model(model)
    record = _core_record(s, c)
    if not record.finite:
        raise ValueError("gauge is infinite; no optimizer exists")
    if record.norm_c == 0.0:
        raise ValueError("gauge is zero at C = 0; the duality ratio is undefined")
    # Values and vectors stay on separate factorizations, which differ in
    # the last bits, so the values-only SVD of the core keeps its bits.
    if record.factors is None:
        u, _, vt = np.linalg.svd(record.core.matrix)
        record.factors = (_read_only(u), _read_only(vt))
        record.polar = _read_only(u @ vt)
    u, vt = record.factors
    if model == SEP:
        core = record.polar
    elif model == MAX or s.r <= 2:
        core = u[:, :1] * vt[:1]
    elif np.linalg.det(record.polar) > 0:
        core = record.polar
    else:
        core = (u * (1.0, 1.0, -1.0)) @ vt  # the trailing direction flipped
    return s.pinv_a.T @ core @ s.pinv_b


def support_stack(model: str, s: MeasurementSettings, zs) -> np.ndarray:
    """support(model, s, z) for each Z of a (k, m, m) stack, as a (k,) array.

    On a C-ordered stack each entry equals its scalar support bit for bit,
    and a non-finite Z or an overflowing frame raises support's ValueError.
    The stack bypasses the record slots.
    """
    _check_model(model)
    frames = _Spectrum(_frame(s, _checked(s, zs, "coefficient", stack=True)))
    return np.array(_support_norm(model, frames))  # sep's value views the read-only svals


def _range_verdicts(s: MeasurementSettings, cs: np.ndarray):
    """_range_verdict for each C of a finite (k, m, m) stack, as (finite,
    norm_c) arrays, bit for bit. Its 15 or so numpy calls cost about 29 us
    whatever k is: 0.26 us per C at k = 500, against _range_verdict's 7.6 us
    for one C (same set-up)."""
    probe, _, norm_sq = _unit_scaled(cs)
    norm_c = np.sqrt(norm_sq)
    tol = RANGE_TOL * norm_c
    finite = np.ones(len(cs), dtype=bool)
    if s.rank_a < s.m:
        finite &= ~(np.sqrt(_square_sums(probe - s.projector_a @ probe)) > tol)
    if s.rank_b < s.m:
        probe_t = np.swapaxes(probe, 1, 2)
        finite &= ~(np.sqrt(_square_sums(probe_t - s.projector_b @ probe_t)) > tol)
    return finite, norm_c


def gauge_stack(model: str, s: MeasurementSettings, cs):
    """gauge(model, s, c) for each C of a (k, m, m) stack, as (finite, value).

    ``finite`` is the (k,) mask of the range tests, each run on its own C,
    and ``value`` the (k,) gauges: inf out of range, 0.0 at C = 0, and
    otherwise read off one stacked core A^+ C (B.T)^+ and its spectrum. On a
    C-ordered stack each entry equals its scalar gauge bit for bit, and a
    non-finite C or an overflowing core raises gauge's ValueError. The stack
    bypasses the record slots.
    """
    _check_model(model)
    cs = _checked(s, cs, "correlation", stack=True)
    _square_sum(cs)
    finite, norm_c = _range_verdicts(s, cs)
    value = np.where(finite, 0.0, np.inf)
    live = finite & (norm_c > 0.0)
    value[live] = _gauge_norm(model, s, _Spectrum(_gauge_core(s, cs[live])))
    return finite, value


def membership(model: str, s: MeasurementSettings, c, tol: float = 1e-9) -> bool:
    """Whether C lies in the model's correlation body, up to tol in gauge."""
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    g = gauge(model, s, c)
    return g.finite and g.value <= 1.0 + tol


def extreme_point(model: str, s: MeasurementSettings, param) -> np.ndarray:
    """An extreme point of the model's correlation body.

    For the separable body ``param`` is a pair of unit Bloch vectors
    (ra, rb) and the point is A ra rb.T B.T. For the quantum body it is an
    orthogonal 3x3 matrix with determinant -1, for the maximal body any
    orthogonal matrix, and the point is A Q B.T. These two also take a
    (k, 3, 3) stack of such matrices and return the (k, m, m) stack of
    points, each bit-equal to its single call.
    """
    _check_model(model)
    if model == SEP:
        ra, rb = param
        ra = np.asarray(ra, dtype=float)
        rb = np.asarray(rb, dtype=float)
        if ra.shape != (3,) or rb.shape != (3,):
            raise ValueError("separable extreme points take two 3-vectors")
        # NaN fails every comparison, so the test is written to pass on <=
        if not (abs(np.linalg.norm(ra) - 1.0) <= UNIT_ROW_TOL
                and abs(np.linalg.norm(rb) - 1.0) <= UNIT_ROW_TOL):
            raise ValueError("Bloch vectors must be unit length")
        return s.a @ np.outer(ra, rb) @ s.b.T
    q = np.asarray(param, dtype=float)
    if (q.ndim not in (2, 3) or q.shape[-2:] != (3, 3) or not np.all(np.isfinite(q))
            or not np.max(np.linalg.norm(np.swapaxes(q, -1, -2) @ q - np.eye(3),
                                         axis=(-2, -1)), initial=0.0) <= UNIT_ROW_TOL * 10):
        raise ValueError("extreme points of this body take an orthogonal 3x3 matrix")
    if model == QM and np.any(np.linalg.det(q) > 0):
        raise ValueError("quantum extreme points need determinant -1")
    return s.a @ q @ s.b.T
