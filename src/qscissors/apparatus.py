"""End-to-end pipelines: Bell-basis algebra, the quantum-scissors state
engineering stage, and the zero/one-photon teleporter, with post-selection
probabilities and fidelities against the ideal target.

Mode naming follows the optical layout: the teleporter prepares its entangled
channel from a single photon on modes (a, b), mixes Alice's input mode c with
b, and detects (b, c); the scissors stage prepares that input by mixing a
single photon on (c, d) and a coherent drive on e, detecting (d, e).
Environment modes of lossy elements are traced out immediately inside the
channel application, so the largest live register stays at three modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (
    BeamSplitterSpec,
    DetectorSpec,
    apply_bs_channel,
    ideal_bs_unitary,
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
    tensor,
)

BELL_LABELS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")
MEMORY_LIMIT_BYTES = 2 * 2**30
# peak bytes per lifted entry of the splitter's block operator, with margin.  ru_maxrss above
# the imported interpreter, drive 1 at cutoffs 100/200/300: 23/14/12; drive 10, near the
# largest drive the automatic cutoff admits, at 200/250/300: 37/28/23.  The blocks take 8 and the
# factor's share falls as the cutoff grows: the largest admitted cutoff, 404, peaks at 16
# (1.4 GB in all) at drive 10
BYTES_PER_OPERATOR_ENTRY = 24


@dataclass(frozen=True)
class QubitAmplitudes:
    """Normalized zero/one-photon superposition amplitudes."""

    c0: complex
    c1: complex

    def __post_init__(self):
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "c1", complex(self.c1))
        nsq = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(nsq - 1.0) > 1e-12:
            raise ValueError(f"|c0|^2 + |c1|^2 = {nsq} is not 1")

    @classmethod
    def from_drive(cls, drive: CoherentDrive) -> "QubitAmplitudes":
        """The drive's renormalized vacuum and one-photon amplitudes: the scissors target."""
        norm = math.sqrt(drive.qubit_norm_sq)
        return cls(drive.amp0 / norm, drive.amp1 / norm)

    def as_vector(self, label: str = "c", cutoff: int = 1) -> FockVector:
        reg = ModeRegister((label,), (cutoff,))
        amps = np.zeros(reg.dim, dtype=complex)
        amps[0] = self.c0
        amps[1] = self.c1
        return FockVector(reg, amps)

    def phase_flipped(self) -> "QubitAmplitudes":
        return QubitAmplitudes(self.c0, -self.c1)


@dataclass(frozen=True)
class ScissorsConfig:
    """State-engineering stage: single photon and coherent drive, detect (d, e)."""

    drive: CoherentDrive = field(default_factory=lambda: CoherentDrive(1.0))
    bs1: BeamSplitterSpec = field(default_factory=BeamSplitterSpec.ideal_5050)
    bs2: BeamSplitterSpec = field(default_factory=BeamSplitterSpec.ideal_5050)
    detectors: DetectorSpec = field(default_factory=lambda: DetectorSpec(1.0))
    clicks: tuple[int, int] = (1, 0)
    output_cutoff: int = 1


@dataclass(frozen=True)
class TeleportConfig:
    """Teleportation stage: entangled channel from a single photon, detect (b, c)."""

    input_state: DensityOperator | QubitAmplitudes | None = None
    bs1: BeamSplitterSpec = field(default_factory=BeamSplitterSpec.ideal_5050)
    bs2: BeamSplitterSpec = field(default_factory=BeamSplitterSpec.ideal_5050)
    detectors: DetectorSpec = field(default_factory=lambda: DetectorSpec(1.0))
    clicks: tuple[int, int] = (1, 0)
    target: FockVector | None = None


@dataclass(frozen=True)
class RunResult:
    """Conditional output of one post-selected pipeline run."""

    state: DensityOperator
    probability: float
    fidelity: float
    target: FockVector
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


def bell_states(register: ModeRegister | None = None) -> dict[str, FockVector]:
    """The four maximally entangled zero/one-photon states on modes (b, c):
    psi_pm = (|01> pm i|10>)/sqrt(2), phi_pm = (|00> pm i|11>)/sqrt(2)."""
    reg = register if register is not None else ModeRegister(("b", "c"), (1, 1))
    if reg.n_modes != 2:
        raise ValueError("Bell states need a two-mode register")
    s = 1 / math.sqrt(2)

    def vec(pairs):
        amps = np.zeros(reg.dim, dtype=complex)
        for occ, a in pairs:
            amps[reg.index(occ)] = a
        return FockVector(reg, amps)

    return {
        "psi_plus": vec([((0, 1), s), ((1, 0), 1j * s)]),
        "psi_minus": vec([((0, 1), s), ((1, 0), -1j * s)]),
        "phi_plus": vec([((0, 0), s), ((1, 1), 1j * s)]),
        "phi_minus": vec([((0, 0), s), ((1, 1), -1j * s)]),
    }


@dataclass(frozen=True)
class BellBranch:
    """One Bell component of the joint input-times-channel state.

    ``conditional`` is the exact (sub-normalized) relative state of mode a,
    so summing bell_state (x) conditional over all four branches rebuilds the
    joint state including phases; ``weight`` is its squared norm.
    """

    label: str
    conditional: FockVector
    weight: float


def ideal_channel(labels: tuple[str, str] = ("a", "b")) -> FockVector:
    """The entangled resource a 50/50 splitter makes from one photon:
    (|10> + i|01>)/sqrt(2)."""
    reg = ModeRegister(labels, (1, 1))
    s = 1 / math.sqrt(2)
    amps = np.zeros(reg.dim, dtype=complex)
    amps[reg.index((1, 0))] = s
    amps[reg.index((0, 1))] = 1j * s
    return FockVector(reg, amps)


def bell_decompose(qubit: QubitAmplitudes) -> list[BellBranch]:
    """Expand (input qubit on c) x (ideal channel on a, b) over the Bell basis
    of modes (b, c).

    Each branch carries weight 1/4.  Which Bell label carries the unmodified
    qubit is resolved numerically from the fixed conventions above (it is the
    psi_plus branch), not assumed.
    """
    joint = tensor(ideal_channel(("a", "b")), qubit.as_vector("c"))
    reg = joint.register
    a_reg = ModeRegister(("a",), (1,))
    bells = bell_states()
    branches = []
    for label in BELL_LABELS:
        bell = bells[label]
        cond = np.zeros(2, dtype=complex)
        for na in range(2):
            amp = 0j
            for occ_bc, b_amp in zip(bell.register.occupations(), bell.amplitudes):
                if b_amp == 0:
                    continue
                amp += np.conj(b_amp) * joint.amplitudes[reg.index((na, occ_bc[0], occ_bc[1]))]
            cond[na] = amp
        vec = FockVector(a_reg, cond)
        branches.append(BellBranch(label, vec, vec.norm_sq()))
    return branches


def reconstruct_joint(branches: list[BellBranch]) -> FockVector:
    """Rebuild the joint (a, b, c) state from its Bell branches."""
    bells = bell_states()
    total = None
    for branch in branches:
        piece = tensor(branch.conditional, bells[branch.label])
        total = piece.amplitudes if total is None else total + piece.amplitudes
    return FockVector(ModeRegister(("a", "b", "c"), (1, 1, 1)), total)


def bs_action_on_bell(spec: BeamSplitterSpec) -> dict[str, FockVector]:
    """Images of the four Bell states under the balanced lossless splitter,
    on a cutoff-2 register so the two-photon components are retained."""
    if not spec.is_lossless:
        raise ValueError("Bell-state mapping is defined for the lossless element")
    if abs(abs(spec.t) - abs(spec.r)) > 1e-12:
        raise ValueError("Bell-state mapping needs a balanced (|t| = |r|) element")
    reg = ModeRegister(("b", "c"), (2, 2))
    u = ideal_bs_unitary(spec, reg, ("b", "c"))
    out = {}
    for label, state in bell_states().items():
        padded = pad_cutoffs(state, {"b": 2, "c": 2})
        out[label] = FockVector(reg, u @ padded.amplitudes)
    return out


def bell_click_assignment(spec: BeamSplitterSpec | None = None) -> dict[str, tuple[int, int] | None]:
    """Which detector click pattern on (b, c) each Bell state is mapped to,
    resolved numerically; None for states spread over several patterns."""
    spec = spec if spec is not None else BeamSplitterSpec.ideal_5050()
    images = bs_action_on_bell(spec)
    assignment = {}
    for label, img in images.items():
        nz = [
            (int(occ[0]), int(occ[1]))
            for occ, amp in zip(img.register.occupations(), img.amplitudes)
            if abs(amp) > 1e-12
        ]
        assignment[label] = nz[0] if len(nz) == 1 else None
    return assignment


def run_scissors(config: ScissorsConfig) -> RunResult:
    """Engineer the zero/one-photon state: single photon into the first
    splitter, coherent drive against its d output on the second, then
    post-select the click pattern on (d, e).

    Mode cutoffs are sized so every element acts exactly on the retained
    photon-number blocks: with drive cutoff N, modes d and e get N + 1.
    """
    check_scissors_memory(config.drive.resolved_cutoff(), config.output_cutoff)
    drive_vec = coherent_amplitudes(config.drive, label="e")
    n_drive = drive_vec.register.cutoffs[0]
    tail = max(0.0, 1.0 - drive_vec.norm_sq())
    target = QubitAmplitudes.from_drive(config.drive).as_vector("c", config.output_cutoff)
    diagnostics = {"truncation_error": tail, "drive_cutoff": n_drive}
    return _run_stage(("c", "d", "e"), config.output_cutoff, n_drive + 1, drive_vec, config, target, diagnostics)


def check_scissors_memory(drive_cutoff: int, output_cutoff: int = 1):
    """Refuse, before anything is allocated, a scissors register whose peak
    memory estimate exceeds MEMORY_LIMIT_BYTES.  The estimate counts the
    entries of the splitter's block operator on modes (d, e), both of dim
    D = drive_cutoff + 2, lifted over mode c: D^2 + (D-1) D (2D-1) / 3 block
    entries per c state."""
    dim = drive_cutoff + 2
    entries = (dim * dim + (dim - 1) * dim * (2 * dim - 1) // 3) * (output_cutoff + 1)
    estimate = BYTES_PER_OPERATOR_ENTRY * entries
    if estimate > MEMORY_LIMIT_BYTES:
        raise ValueError(f"drive cutoff {drive_cutoff} needs an estimated {estimate} bytes, over {MEMORY_LIMIT_BYTES}")


def run_teleport(config: TeleportConfig) -> RunResult:
    """Teleport the mode-c input onto mode a: entangle (a, b) from a single
    photon, mix c with b, post-select the click pattern on (b, c)."""
    rho_c, default_target = _teleport_input(config)
    target = config.target if config.target is not None else default_target
    if target is None:
        raise ValueError("a target is required when the input is a density operator")
    return _run_stage(("a", "b", "c"), 1, 2, rho_c, config, target, {})


def _run_stage(labels, out_cutoff, budget, probe, config, target, diagnostics) -> RunResult:
    """The circuit both stages share, on labels (out, mid, probe): a photon on
    ``out`` meets vacuum on ``mid`` at bs1, ``mid`` meets the probe state at
    bs2 (both padded to ``budget``), and clicks on (mid, probe) are
    post-selected.  The register propagates as a low-rank factor."""
    out, mid, probe_label = labels
    rho = FactoredState.from_state(basis_ket(ModeRegister((out, mid), (out_cutoff, 1)), (1, 0)))
    rho = apply_bs_channel(rho, (out, mid), config.bs1)
    trace_defect = abs(rho.trace() - 1.0)
    probe = pad_cutoffs(FactoredState.from_state(probe), {probe_label: budget})
    rho = tensor(pad_cutoffs(rho, {mid: budget}), probe)
    expected_trace = rho.trace()
    rho = apply_bs_channel(rho, (mid, probe_label), config.bs2)
    trace_defect = max(trace_defect, abs(rho.trace() - expected_trace))
    events = [(mid, config.detectors, config.clicks[0]), (probe_label, config.detectors, config.clicks[1])]
    state, probability = postselect(rho, events)
    diagnostics.update(
        trace_defect=trace_defect,
        register_dim=rho.register.dim,
        state_rank=rho.rank,
        compression_error=rho.compression_error,
    )
    return RunResult(state, probability, fidelity(state, target), target, diagnostics)


def full_pipeline(
    scissors: ScissorsConfig, teleport: TeleportConfig | None = None
) -> tuple[RunResult, RunResult, float]:
    """Run state engineering, feed its conditional output into the teleporter,
    and report the end-to-end fidelity of mode a against the ideal target."""
    if teleport is None:
        teleport = TeleportConfig(
            bs1=scissors.bs1, bs2=scissors.bs2, detectors=scissors.detectors
        )
    scissors_result = run_scissors(scissors)
    teleport_cfg = replace(
        teleport,
        input_state=scissors_result.state,
        target=QubitAmplitudes.from_drive(scissors.drive).as_vector("a"),
    )
    teleport_result = run_teleport(teleport_cfg)
    return scissors_result, teleport_result, teleport_result.fidelity


def _teleport_input(config: TeleportConfig) -> tuple[FockVector | DensityOperator, FockVector | None]:
    state = config.input_state
    if state is None:
        raise ValueError("TeleportConfig.input_state is not set")
    if isinstance(state, QubitAmplitudes):
        return state.as_vector("c"), state.as_vector("a")
    if isinstance(state, DensityOperator):
        if state.register.n_modes != 1:
            raise ValueError("teleport input must be a single-mode state")
        if state.register.labels != ("c",):
            state = DensityOperator(
                ModeRegister(("c",), state.register.cutoffs), state.matrix, check=False
            )
        return state, None
    raise TypeError(f"unsupported input state type {type(state).__name__}")
