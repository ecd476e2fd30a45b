"""BB84 key rates for chirped Gaussian single-photon pulses in dispersive,
lossy fiber with jittery, dark-count-prone detectors.

The pipeline: `twf` broadens the pulse, `detection` turns spreads into
window probabilities, `keyrate` assembles QBER and secret-key rate,
`analysis` sweeps and optimizes, `cli` exposes it all on the command line.
"""

from .analysis import (
    ChirpScanResult,
    ScenarioResult,
    SweepResult,
    max_distance,
    run_scenario,
    scan_chirp,
    sweep_distance,
)
from .keyrate import (
    DarkCountModel,
    ProtocolPoint,
    ScenarioParams,
    TransmittanceConvention,
    evaluate_point,
)
from .numerics import Bracket, BracketError, NonConvergenceError

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "BracketError",
    "ChirpScanResult",
    "DarkCountModel",
    "NonConvergenceError",
    "ProtocolPoint",
    "ScenarioParams",
    "ScenarioResult",
    "SweepResult",
    "TransmittanceConvention",
    "evaluate_point",
    "max_distance",
    "run_scenario",
    "scan_chirp",
    "sweep_distance",
    "__version__",
]
