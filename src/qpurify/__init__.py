"""Recurrence entanglement purification with noisy local operations.

Simulation and analysis of the two-way purification protocol when every
local operation is itself noisy: exact Bell-label algebra, per-pair
error-flag bookkeeping, the sixteen-coefficient round recurrence with
fixpoint/threshold analysis, finite-population Monte Carlo, and a dense
density-matrix oracle that grounds every label map.
"""

from .bell import BellLabel, PauliIndex, bcnot_map, measurement_coincides, rotation_step3
from .errors import (
    ConfigError,
    DegenerateRoundError,
    NoThresholdError,
    ProtocolHaltError,
    QpurifyError,
)
from .flags import FLAG_UPDATE_TABLE, ErrorFlag
from .noise import NoiseModel
from .recurrence import (
    BEFORE_BCNOT,
    BEFORE_ROTATION,
    Regime,
    RegimeReport,
    SubensembleState,
    Trajectory,
    classify_regime,
    conditional_fidelity,
    fidelity,
    find_thresholds,
    iterate,
    one_round,
    scan_thresholds,
    scan_werner_grid,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BellLabel",
    "PauliIndex",
    "ErrorFlag",
    "NoiseModel",
    "SubensembleState",
    "Trajectory",
    "Regime",
    "RegimeReport",
    "rotation_step3",
    "bcnot_map",
    "measurement_coincides",
    "FLAG_UPDATE_TABLE",
    "fidelity",
    "conditional_fidelity",
    "one_round",
    "iterate",
    "classify_regime",
    "find_thresholds",
    "scan_thresholds",
    "scan_werner_grid",
    "BEFORE_ROTATION",
    "BEFORE_BCNOT",
    "QpurifyError",
    "ConfigError",
    "DegenerateRoundError",
    "NoThresholdError",
    "ProtocolHaltError",
]
