"""Virtual qubits from a shared random phase.

A virtual qubit is a classical two-valued signal ``sign(cos(phi + alpha))``
read off a phase ``phi`` shared by every qubit in a register.  Varying the
detector angles alone dials the pairwise correlation anywhere between -1
and +1 along the triangular law ``1 - 2*|delta|/pi``, which is enough to
imitate initialization, Hadamard and CNOT semantics, while an exact
state-vector oracle quantifies what the imitation misses: CHSH stops at 2
here but reaches ``2*sqrt(2)`` quantum-mechanically.
"""

from .config import (
    COMMANDS,
    FORMATS,
    ConfigError,
    ExperimentConfig,
    default_angles,
    parse_angle,
    parse_angles,
    parse_config,
    serialize_config,
    validate_config,
)
from .oracle import (
    QuantumState,
    apply_cnot,
    apply_hadamard,
    basis_state,
    chsh_quantum,
    observable,
    singlet_correlation,
    singlet_state,
)
from .phase import (
    IID_UNIFORM,
    OSCILLATOR_ENSEMBLE,
    TWO_PI,
    PhaseModel,
    PhaseStream,
    chunk_quota,
    make_phase_stream,
    phases_at,
    substream,
    wrap_angle,
)
from .register import (
    Balanced,
    Definite,
    QubitState,
    VirtualRegister,
    apply_cnot_to_bits,
    cnot,
    hadamard,
    initialize,
)
from .signals import (
    CorrelationEstimate,
    analytic_correlation,
    conditional_same_color_probability,
    dichotomic,
    dichotomic_array,
    estimate_correlation,
)
from .stats import (
    ChshResult,
    CurvePoint,
    KsResult,
    analytic_chsh,
    chsh_classical,
    correlation_curve,
    ks_uniformity,
)

__version__ = "0.1.0"

__all__ = [
    "Balanced",
    "COMMANDS",
    "ChshResult",
    "ConfigError",
    "CorrelationEstimate",
    "CurvePoint",
    "Definite",
    "ExperimentConfig",
    "FORMATS",
    "IID_UNIFORM",
    "KsResult",
    "OSCILLATOR_ENSEMBLE",
    "PhaseModel",
    "PhaseStream",
    "QuantumState",
    "QubitState",
    "TWO_PI",
    "VirtualRegister",
    "analytic_chsh",
    "analytic_correlation",
    "apply_cnot",
    "apply_cnot_to_bits",
    "apply_hadamard",
    "basis_state",
    "chsh_classical",
    "chsh_quantum",
    "chunk_quota",
    "cnot",
    "conditional_same_color_probability",
    "correlation_curve",
    "default_angles",
    "dichotomic",
    "dichotomic_array",
    "estimate_correlation",
    "hadamard",
    "initialize",
    "ks_uniformity",
    "make_phase_stream",
    "observable",
    "parse_angle",
    "parse_angles",
    "parse_config",
    "phases_at",
    "serialize_config",
    "singlet_correlation",
    "singlet_state",
    "substream",
    "validate_config",
    "wrap_angle",
]
