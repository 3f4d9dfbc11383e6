"""Detection layer: witness operators, noise thresholds, set-separation radii,
and the CHSH / I3322 reference tests.

The gauge value of a correlation matrix doubles as a detection sensitivity:
mixing the source state with white noise scales its correlations by (1 - p),
so detection survives exactly while p < 1 - 1/gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, twoqubit
from .geometry import MAX, QM, SEP, GaugeValue, MeasurementSettings

QM_OVER_SEP = "qm-over-sep"
MAX_OVER_QM = "max-over-qm"
RATIO_PAIRS = (QM_OVER_SEP, MAX_OVER_QM)

#: Weights of the CHSH functional on the 2x2 correlation matrix.
Z_CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])
Z_CHSH.setflags(write=False)

# Sign pattern of the joint-outcome probabilities in the three-setting
# inequality, plus the marginal weights subtracted afterwards.
_I3322_JOINT = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 0.0]])
_I3322_MARGINAL_A = np.array([1.0, 0.0, 0.0])
_I3322_MARGINAL_B = np.array([2.0, 1.0, 0.0])


@dataclass
class WitnessReport:
    witness: np.ndarray        # 4x4 Hermitian operator
    z_star: np.ndarray         # coefficient matrix behind it
    sensitivity: float         # gauge value of the target correlation
    p_crit: float              # white-noise fraction up to which detection works


@dataclass
class RatioReport:
    pair: tuple[str, str]      # (outer, inner) model tags
    radius: float
    maximizer_c: np.ndarray
    witness_z: np.ndarray


def entanglement_witness(s: MeasurementSettings, z) -> np.ndarray:
    """I4 - S(Z) / support(sep, Z); nonnegative on every separable state."""
    phi = geometry.support(SEP, s, z)
    if phi <= 0.0:
        raise ValueError("witness needs a coefficient matrix with positive support")
    return twoqubit.I4 - twoqubit.bell_operator(s, z) / phi


def bqs_witness(s: MeasurementSettings, z) -> np.ndarray:
    """I4 - S(Z) / support(qm, Z); nonnegative on every quantum state."""
    phi = geometry.support(QM, s, z)
    if phi <= 0.0:
        raise ValueError("witness needs a coefficient matrix with positive support")
    return twoqubit.I4 - twoqubit.bell_operator(s, z) / phi


def critical_noise(model: str, s: MeasurementSettings, c) -> float:
    """Largest white-noise fraction at which C stays detectable, 1 - 1/gauge."""
    if model not in (SEP, QM):
        raise ValueError("critical noise is defined against the sep and qm bodies")
    g = geometry.gauge(model, s, c)
    if not g.finite:
        raise ValueError("gauge is infinite; critical noise is undefined")
    if g.value <= 1.0:
        return 0.0
    return 1.0 - 1.0 / g.value


def witness_report(model: str, s: MeasurementSettings, c) -> WitnessReport:
    """Bundle the optimal witness for a target correlation matrix."""
    g = geometry.gauge(model, s, c)
    if not g.finite:
        raise ValueError("target correlation has infinite gauge; no finite witness")
    if g.value <= 0.0:
        raise ValueError("target correlation vanishes; nothing to witness")
    z_star = geometry.optimizer_z(model, s, c)
    build = entanglement_witness if model == SEP else bqs_witness
    return WitnessReport(
        witness=build(s, z_star),
        z_star=z_star,
        sensitivity=g.value,
        p_crit=0.0 if g.value <= 1.0 else 1.0 - 1.0 / g.value,
    )


def _aligned_rotation(s: MeasurementSettings, det_target: float) -> np.ndarray:
    """Orthogonal Q with det_target that maps B's row space onto A's.

    At full rank any member of the component works; below full rank the
    alignment is what makes A Q B.T sit at the outer body's farthest point
    from the inner body.
    """
    va, vb = s.row_basis_a, s.row_basis_b
    d = np.linalg.det(va) * np.linalg.det(vb)
    flip = det_target * d        # +-1
    return va @ np.diag([1.0, 1.0, flip]) @ vb.T


def containment_radius(s: MeasurementSettings, pair: str) -> RatioReport:
    """Smallest scaling of the inner body that swallows the outer one.

    Depends only on r = min rank of the settings: the quantum body exceeds
    the separable one by a factor r, and the maximal body exceeds the
    quantum one by 3 at full rank and not at all otherwise. The report
    carries a correlation matrix achieving the radius and the witness
    weights that expose it.
    """
    if pair not in RATIO_PAIRS:
        raise ValueError(f"pair must be one of {RATIO_PAIRS}, got {pair!r}")
    r = s.r
    if pair == QM_OVER_SEP:
        outer, inner = QM, SEP
        radius = float(r)
        q = _aligned_rotation(s, -1.0)
    else:
        outer, inner = MAX, QM
        radius = 3.0 if r == 3 else 1.0
        q = _aligned_rotation(s, 1.0)
    maximizer_c = s.a @ q @ s.b.T
    reached = geometry.gauge(inner, s, maximizer_c)
    if not reached.finite or abs(reached.value - radius) > 1e-8:
        raise ArithmeticError(
            f"constructed maximizer misses the {pair} radius: "
            f"expected {radius}, gauge gave {reached.value if reached.finite else 'inf'}")
    witness_z = geometry.optimizer_z(inner, s, maximizer_c)
    return RatioReport(pair=(outer, inner), radius=radius,
                       maximizer_c=maximizer_c, witness_z=witness_z)


def chsh_value(rho, s2: MeasurementSettings) -> float:
    """CHSH combination <A1B1> + <A1B2> + <A2B1> - <A2B2>."""
    if s2.m != 2:
        raise ValueError("the CHSH combination needs two settings per party")
    c = geometry.correlation_matrix(rho, s2)
    return float(np.sum(Z_CHSH * c))


def i3322_value(rho, s3: MeasurementSettings) -> float:
    """Three-setting inequality value; local models stay at or below zero.

    Uses joint +/+ outcome probabilities, so the local Bloch vectors of the
    state enter alongside its correlation block:

        sum_ij w_ij P(++ | A_i B_j) - P_A(1) - 2 P_B(1) - P_B(2)

    with joint weights w = [[1,1,1], [1,1,-1], [1,-1,0]].
    """
    if s3.m != 3:
        raise ValueError("this inequality needs three settings per party")
    p = twoqubit.pauli_expand(rho)
    ea = s3.a @ p.ra               # <A_i>
    eb = s3.b @ p.rb               # <B_j>
    ejoint = s3.a @ p.t @ s3.b.T   # <A_i B_j>
    pj = (1.0 + ea[:, None] + eb[None, :] + ejoint) / 4.0
    pa = (1.0 + ea) / 2.0
    pb = (1.0 + eb) / 2.0
    return float(np.sum(_I3322_JOINT * pj) - _I3322_MARGINAL_A @ pa - _I3322_MARGINAL_B @ pb)


def _bisect_threshold(f, lo: float, hi: float, tol: float = 1e-7) -> float:
    """Root of a decreasing function of the noise fraction on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo <= 0.0:
        return lo
    if fhi > 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class TableRow:
    method: str
    two_setting: float | None
    three_setting: float | None


def table1(s2: MeasurementSettings, s3: MeasurementSettings) -> list[TableRow]:
    """Critical white-noise fractions for detecting the maximally entangled
    state, by method and scenario.

    The tomographic partial-transpose test and the three-setting inequality
    have no two-setting analogue, so those cells are None. The CHSH row is
    computed at its own optimal two-setting directions in both scenarios,
    since three settings only ever embed a two-setting subfamily.
    """
    if s2.m != 2:
        raise ValueError("first scenario must have two settings per party")
    if s3.m != 3 or s3.r != 3:
        raise ValueError("second scenario must have three full-rank settings per party")
    phi = twoqubit.PHI_PLUS

    def still_entangled(p: float) -> float:
        verdict = twoqubit.classify_state(twoqubit.werner_state(p), restarts=8)
        return -1.0 if verdict.is_separable else 1.0

    ppt = _bisect_threshold(still_entangled, 0.0, 1.0, tol=1e-6)

    gauge_2 = critical_noise(SEP, s2, geometry.correlation_matrix(phi, s2))
    gauge_3 = critical_noise(SEP, s3, geometry.correlation_matrix(phi, s3))

    # CHSH and the three-setting inequality are evaluated at their own optimal
    # directions: s2 is CHSH-optimal by contract, and the three-setting optimum
    # lives in a rank-2 plane that the full-rank s3 cannot contain.
    chsh_p = _bisect_threshold(
        lambda p: chsh_value(twoqubit.werner_state(p), s2) - 2.0,
        0.0, 1.0, tol=1e-7)

    ineq3 = i3322_settings()
    i3322_p = _bisect_threshold(
        lambda p: i3322_value(twoqubit.werner_state(p), ineq3),
        0.0, 1.0, tol=1e-7)

    return [
        TableRow("ppt", None, ppt),
        TableRow("gauge", gauge_2, gauge_3),
        TableRow("chsh", chsh_p, chsh_p),
        TableRow("i3322", None, i3322_p),
    ]


def chsh_settings() -> MeasurementSettings:
    """Two-setting directions at which the CHSH value reaches its quantum maximum."""
    a = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]) / np.sqrt(2.0)
    return MeasurementSettings(a, b)


def pauli_settings() -> MeasurementSettings:
    """Three mutually orthogonal directions for both parties."""
    return MeasurementSettings(np.eye(3), np.eye(3))


def rotated_settings() -> MeasurementSettings:
    """Identity on one side, a rotated orthogonal frame on the other."""
    inv = 1.0 / np.sqrt(2.0)
    b = np.array([[inv, 0.0, inv], [0.0, 1.0, 0.0], [inv, 0.0, -inv]])
    return MeasurementSettings(np.eye(3), b)


def i3322_settings() -> MeasurementSettings:
    """Equiangular in-plane directions maximizing the three-setting inequality."""
    h = np.sqrt(3.0) / 2.0
    a = np.array([[0.0, 0.0, 1.0], [-h, 0.0, 0.5], [-h, 0.0, -0.5]])
    b = np.array([[-h, 0.0, 0.5], [0.0, 0.0, 1.0], [h, 0.0, 0.5]])
    return MeasurementSettings(a, b)
