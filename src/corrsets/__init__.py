"""Geometry of two-qubit correlation bodies under fixed measurements.

The three nested bodies (separable, quantum, maximal) are handled through
their support and gauge functions, all reduced to small singular value
problems. Submodules: smallmat (matrix kernels), twoqubit (states and
operators), geometry (the bodies themselves), detect (witnesses and noise
thresholds), oracles (independent cross-checks with the kernels and
samplers only they use), selfcheck (the verification battery), cli
(command line).
"""

from ._version import __version__
from .detect import (
    MAX_OVER_QM,
    QM_OVER_SEP,
    RatioReport,
    TableRow,
    WitnessReport,
    bqs_witness,
    chsh_settings,
    chsh_value,
    containment_radius,
    critical_noise,
    entanglement_witness,
    i3322_settings,
    i3322_value,
    pauli_settings,
    rotated_settings,
    table1,
    witness_report,
)
from .geometry import (
    MAX,
    MODELS,
    QM,
    SEP,
    GaugeValue,
    MeasurementSettings,
    correlation_matrix,
    extreme_point,
    gauge,
    gauge_stack,
    membership,
    optimizer_z,
    planar_settings,
    support,
    support_stack,
)
from .selfcheck import VerifyReport, run_battery
from .twoqubit import (
    PAULI,
    PauliForm,
    StateClass,
    bell_operator,
    classify_state,
    hull_state,
    max_entangled,
    pauli_assemble,
    pauli_expand,
    partial_transpose,
    rho_max,
    tau_state,
    werner_state,
)

__all__ = [
    "__version__",
    "MAX", "MAX_OVER_QM", "MODELS", "QM", "QM_OVER_SEP", "SEP", "PAULI",
    "GaugeValue", "MeasurementSettings", "PauliForm", "RatioReport",
    "StateClass", "TableRow", "VerifyReport", "WitnessReport",
    "bell_operator", "bqs_witness", "chsh_settings", "chsh_value",
    "classify_state", "containment_radius", "correlation_matrix",
    "critical_noise", "entanglement_witness", "extreme_point", "gauge", "gauge_stack",
    "hull_state", "i3322_settings", "i3322_value", "max_entangled",
    "membership", "optimizer_z", "pauli_assemble", "pauli_expand",
    "pauli_settings", "partial_transpose", "planar_settings", "rho_max",
    "rotated_settings", "run_battery", "support", "support_stack", "table1", "tau_state",
    "werner_state", "witness_report",
]
