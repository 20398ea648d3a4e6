"""Numerical simulator of a zero/one-photon travelling-wave teleporter built
from two quantum-scissors stages, with exact CPTP models of lossy beam
splitters and inefficient photon counters, plus a closed-form oracle layer."""

from .analytic import (
    NoiseParams,
    OracleReport,
    combined_damping,
    teleport_fidelity,
    teleport_norm,
    truncation_fidelity,
    truncation_norm,
)
from .apparatus import (
    QubitAmplitudes,
    RunResult,
    ScissorsConfig,
    TeleportConfig,
    bell_click_assignment,
    bell_states,
    bs_action_on_bell,
    full_pipeline,
    run_scissors,
    run_teleport,
)
from .channels import (
    BeamSplitterSpec,
    DetectorSpec,
    ImpossibleOutcomeError,
    apply_bs_channel,
    detector_povm,
    postselect,
)
from .fock import (
    CoherentDrive,
    DensityOperator,
    FactoredState,
    FockVector,
    ModeRegister,
    basis_ket,
    coherent_amplitudes,
    fidelity,
    pad_cutoffs,
    partial_trace,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitterSpec",
    "CoherentDrive",
    "DensityOperator",
    "DetectorSpec",
    "FactoredState",
    "FockVector",
    "ImpossibleOutcomeError",
    "ModeRegister",
    "NoiseParams",
    "OracleReport",
    "QubitAmplitudes",
    "RunResult",
    "ScissorsConfig",
    "TeleportConfig",
    "apply_bs_channel",
    "basis_ket",
    "bell_click_assignment",
    "bell_states",
    "bs_action_on_bell",
    "coherent_amplitudes",
    "combined_damping",
    "detector_povm",
    "fidelity",
    "full_pipeline",
    "pad_cutoffs",
    "partial_trace",
    "postselect",
    "run_scissors",
    "run_teleport",
    "teleport_fidelity",
    "teleport_norm",
    "tensor",
    "truncation_fidelity",
    "truncation_norm",
]
