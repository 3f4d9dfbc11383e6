"""Detection layer: witness operators, noise thresholds, set-separation radii,
and the CHSH / I3322 reference tests.

The gauge value of a correlation matrix doubles as a detection sensitivity:
mixing the source state with white noise scales its correlations by (1 - p),
so detection survives exactly while p < 1 - 1/gauge. The other noise
thresholds are closed forms too: on the Werner family every detection
margin is affine in p, so its root follows from the two endpoints. The
containment radii depend only on r = min rank of the settings, and their
maximizers are built by aligning the row spaces; the verification battery,
not each call, checks that the inner gauge reaches the radius there.
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
    support: float             # support of the model's body at z_star


@dataclass
class RatioReport:
    pair: tuple[str, str]      # (outer, inner) model tags
    radius: float
    maximizer_c: np.ndarray


def _witness(s: MeasurementSettings, z, phi: float) -> np.ndarray:
    """I4 - S(Z) / phi, for phi the support of a body at Z."""
    if phi <= 0.0:
        raise ValueError("witness needs a coefficient matrix with positive support")
    return twoqubit.I4 - twoqubit.bell_operator(s, z) / phi


def entanglement_witness(s: MeasurementSettings, z) -> np.ndarray:
    """I4 - S(Z) / support(sep, Z); nonnegative on every separable state."""
    return _witness(s, z, geometry.support(SEP, s, z))


def bqs_witness(s: MeasurementSettings, z) -> np.ndarray:
    """I4 - S(Z) / support(qm, Z); nonnegative on every quantum state."""
    return _witness(s, z, geometry.support(QM, s, z))


def critical_noise(model: str, s: MeasurementSettings, c) -> float:
    """Largest white-noise fraction at which C stays detectable, 1 - 1/gauge."""
    if model not in (SEP, QM):
        raise ValueError("critical noise is defined against the sep and qm bodies")
    g = geometry.gauge(model, s, c)
    if not g.finite:
        raise ValueError("gauge is infinite; critical noise is undefined")
    return _gauge_threshold(g.value)


def _gauge_threshold(g: float) -> float:
    """1 - 1/g for a finite gauge value g, and 0.0 when g <= 1."""
    return 0.0 if g <= 1.0 else 1.0 - 1.0 / g


def witness_report(model: str, s: MeasurementSettings, c) -> WitnessReport:
    """Bundle the optimal witness against the sep or qm body for a target
    correlation matrix; the gauge and the optimizer read one core record of
    the settings."""
    if model not in (SEP, QM):
        raise ValueError("witnesses are defined against the sep and qm bodies")
    g = geometry.gauge(model, s, c)
    if not g.finite:
        raise ValueError("target correlation has infinite gauge; no finite witness")
    if g.value <= 0.0:
        raise ValueError("target correlation vanishes; nothing to witness")
    z_star = geometry.optimizer_z(model, s, c)
    phi = geometry.support(model, s, z_star)
    return WitnessReport(
        witness=_witness(s, z_star, phi),
        z_star=z_star,
        sensitivity=g.value,
        p_crit=_gauge_threshold(g.value),
        support=phi,
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
    carries a point of the outer body at which the inner gauge reaches the
    radius; optimizer_z there gives the witness weights that expose it.
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
    return RatioReport(pair=(outer, inner), radius=radius, maximizer_c=s.a @ q @ s.b.T)


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


def _affine_root(f) -> float:
    """Noise fraction at which a detection margin f reaches zero.

    f(p) > 0 means the criterion still detects the Werner state
    (1-p) Phi+ + p I4/4. Every margin here is affine in p: the partial
    transpose and the correlators are linear in the state, and I4/4
    commutes with everything, so for instance
    lambda_min((1-p) X + p I4/4) = (1-p) lambda_min(X) + p/4. The root of
    the line through f(0) and f(1) is therefore exact. A margin that is not
    positive at p = 0 gives 0.0, and one still positive at p = 1 gives 1.0.
    """
    f0, f1 = f(0.0), f(1.0)
    if f0 <= 0.0:
        return 0.0
    if f1 > 0.0:
        return 1.0
    return f0 / (f0 - f1)


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

    Every cell is a closed form. The gauge row is 1 - 1/gauge, and the
    other rows are the exact root of a margin affine in the noise fraction
    (see _affine_root), so no cell depends on a search tolerance.
    """
    if s2.m != 2:
        raise ValueError("first scenario must have two settings per party")
    if s3.m != 3 or s3.r != 3:
        raise ValueError("second scenario must have three full-rank settings per party")
    phi = twoqubit.PHI_PLUS

    # Peres: for two qubits a state is separable exactly when its partial
    # transpose is positive semidefinite.
    ppt = _affine_root(lambda p: -float(
        np.linalg.eigvalsh(twoqubit.partial_transpose(twoqubit.werner_state(p)))[0]))

    gauge_2 = critical_noise(SEP, s2, geometry.correlation_matrix(phi, s2))
    gauge_3 = critical_noise(SEP, s3, geometry.correlation_matrix(phi, s3))

    # CHSH and the three-setting inequality are evaluated at their own optimal
    # directions: s2 is CHSH-optimal by contract, and the three-setting optimum
    # lives in a rank-2 plane that the full-rank s3 cannot contain.
    chsh_p = _affine_root(lambda p: chsh_value(twoqubit.werner_state(p), s2) - 2.0)

    ineq3 = i3322_settings()
    i3322_p = _affine_root(lambda p: i3322_value(twoqubit.werner_state(p), ineq3))

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
