"""End-to-end pipelines: Bell-basis algebra, the quantum-scissors state
engineering stage, and the zero/one-photon teleporter, with post-selection
probabilities and fidelities against the ideal target.

Mode naming follows the optical layout: the teleporter prepares its entangled
channel from a single photon on modes (a, b), mixes Alice's input mode c with
b, and detects (b, c); the scissors stage prepares that input by mixing a
single photon on (c, d) and a coherent drive on e, detecting (d, e).
Environment modes of lossy elements are traced out immediately inside the
channel application, so the largest live register stays at three modes.

The scissors stage runs in the displaced frame: with a vacuum environment a
splitter of scattering matrix S maps a displaced input to a displaced output,
Phi(D(a) rho D(a)^dag) = D(S a) Phi(rho) D(S a)^dag, and so does a counter of
efficiency eta, a loss that scales a by eta^(1/2).  Only the drive-free inner
state, one photon in all, goes through the splitters, on a cutoff-1 register
(dim 8) whatever the drive; the drive enters in closed form at the counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    BeamSplitterSpec,
    DetectorSpec,
    _loss_table,
    apply_bs_channel,
    postselect,
)
from .fock import (
    HERMITICITY_TOL,
    NORM_SLACK,
    POSITIVITY_TOL,
    CoherentDrive,
    DensityOperator,
    FactoredState,
    FockVector,
    ModeRegister,
    basis_ket,
    fidelity,
    pad_cutoffs,
    tensor,
)

# the largest counter reading a run accepts: a fixed, documented limit of the config surface, not a
# memory bound, since the clicked row costs the same at every reading (``_displaced_clicks``)
MAX_CLICKS = 201
# the cutoff run_teleport pads (b, c) to, and so its largest counter reading: two photons at most
TELEPORT_CUTOFF = 2
_IDEAL_COUNTER = DetectorSpec(1.0)


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
        norm = math.hypot(1.0, abs(drive.gamma))  # amplitudes 0 and 1: exp(-|gamma|^2 / 2) (1, gamma)
        return cls(1.0 / norm, drive.gamma / norm)

    def as_vector(self, label: str = "c", cutoff: int = 1) -> FockVector:
        reg = ModeRegister((label,), (cutoff,))
        amps = np.zeros(reg.dim, dtype=complex)
        amps[0] = self.c0
        amps[1] = self.c1
        return FockVector(reg, amps)


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


class UnphysicalStateError(ValueError):
    """A stage's conditional output is not a zero/one-photon qubit."""


def qubit_defect(rho: DensityOperator) -> str | None:
    """Why a one-mode state is not a zero/one-photon qubit, or None.  It may hold no weight
    above one photon beyond NORM_SLACK, and its 2x2 block must be Hermitian, of unit trace
    and positive, checked in closed form: a Hermitian 2x2 matrix is positive when its
    diagonal and determinant are, so no LAPACK call is made."""
    matrix = rho.matrix
    if len(matrix) > 2:
        above = float(np.trace(matrix[2:, 2:]).real)
        if abs(above) > NORM_SLACK:
            return f"has weight {above} above one photon"
    (a, b), (c, d) = matrix[:2, :2].tolist()
    if max(abs(b - c.conjugate()), 2 * abs(a.imag), 2 * abs(d.imag)) > HERMITICITY_TOL:
        return "is not Hermitian"
    if abs(a.real + d.real - 1.0) > NORM_SLACK:
        return f"has trace {a.real + d.real}, not a state"
    lowest = min(a.real, d.real, (a * d - b * c).real)
    if lowest < -POSITIVITY_TOL:
        return f"is not positive (lowest minor {lowest:.3e})"
    return None


@dataclass(frozen=True)
class RunResult:
    """Conditional output of one post-selected pipeline run.  A state that is not a qubit
    (``qubit_defect``) raises UnphysicalStateError before anything reads it; the fidelity
    against the target is then derived from the checked state."""

    state: DensityOperator
    probability: float
    fidelity: float = field(init=False)
    target: FockVector
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        defect = qubit_defect(self.state)
        if defect is not None:
            raise UnphysicalStateError(f"conditional state {defect}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        object.__setattr__(self, "fidelity", fidelity(self.state, self.target))


def bell_states() -> dict[str, FockVector]:
    """The four maximally entangled zero/one-photon states on modes (b, c), cutoffs (1, 1):
    psi_pm = (|01> pm i|10>)/sqrt(2), phi_pm = (|00> pm i|11>)/sqrt(2)."""
    reg = ModeRegister(("b", "c"), (1, 1))
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


def bs_action_on_bell(spec: BeamSplitterSpec) -> dict[str, FockVector]:
    """Images of the four Bell states under the balanced lossless splitter, each
    sent through ``apply_bs_channel`` on a cutoff-2 register so the two-photon
    components are retained (no Bell state holds more than 2 photons)."""
    if not spec.is_lossless:
        raise ValueError("Bell-state mapping is defined for the lossless element")
    if abs(abs(spec.t) - abs(spec.r)) > 1e-12:
        raise ValueError("Bell-state mapping needs a balanced (|t| = |r|) element")
    out = {}
    for label, state in bell_states().items():
        rho = pad_cutoffs(FactoredState.from_state(state), {"b": 2, "c": 2})
        image = apply_bs_channel(rho, ("b", "c"), spec)
        out[label] = FockVector(image.register, image.amplitudes[:, 0])
    return out


def bell_click_assignment(images: dict[str, FockVector] | None = None) -> dict[str, tuple[int, int] | None]:
    """Which detector click pattern on (b, c) each Bell image (``bs_action_on_bell``'s,
    through the ideal 50/50 when None) is mapped to; None for an image spread over
    several patterns."""
    if images is None:
        images = bs_action_on_bell(BeamSplitterSpec.ideal_5050())
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

    The drive is never put into Fock space.  With a vacuum environment a
    splitter of scattering matrix S maps a displaced input to a displaced
    output, Phi(D(a) rho D(a)^dag) = D(S a) Phi(rho) D(S a)^dag, and detector
    loss of efficiency eta does the same with eta^(1/2).  So the drive-free
    inner state (a photon on c, vacuum on d and e) goes through both splitters
    on a cutoff-1 register, and the drive enters only at the counters, as
    D(eta^(1/2) (r gamma, t gamma)) on (d, e) (``_displaced_clicks``).  Nothing
    is truncated, so any drive runs; ``clicks`` must lie in [0, MAX_CLICKS].
    """
    for clicks in config.clicks:
        if not 0 <= clicks <= MAX_CLICKS:
            raise ValueError(f"clicks must lie in [0, {MAX_CLICKS}], got {clicks}")
    vacuum = basis_ket(ModeRegister(("e",), (1,)), (0,))
    rho, diagnostics = _propagate(("c", "d", "e"), config.output_cutoff, 1, vacuum, config)
    counters = [("d", _IDEAL_COUNTER, 0), ("e", _IDEAL_COUNTER, 0)]
    state, probability = postselect(_displaced_clicks(rho, config), counters)
    target = QubitAmplitudes.from_drive(config.drive).as_vector("c", config.output_cutoff)
    return RunResult(state, probability, target, diagnostics)


def _displaced_clicks(rho: FactoredState, config: ScissorsConfig) -> FactoredState:
    """The scissors' inner (c, d, e) factor after detector loss and the drive's
    displacement D(eta^(1/2) beta), beta = S (0, gamma), kept only on the
    clicked row (k_d, k_e).  That row is written at occupation (0, 0) of the
    factor's own register, whose d and e cutoffs are 1, so that ideal counters
    at 0 clicks post-select it exactly and nothing grows with the click counts.

    Each counter contributes the rows R[j, n] = <k| D(b) A_j |n>, n <= 1, of
    its loss branches A_j (``_click_rows``), with <k|D(b)|0> = <k|b> and
    <k|D(b)|1> = sqrt(k) <k-1|b> - b* <k|b>
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)); every pair of branches
    becomes a column of the factor."""
    eta, gamma, (k_d, k_e) = config.detectors.eta, config.drive.gamma, config.clicks
    scale = _loss_table(eta, 2)[0, 0, 1].item()  # eta^(1/2), the amplitude A_0 keeps of one photon
    row_d = _click_rows(eta, scale * config.bs2.r * gamma, k_d)
    row_e = _click_rows(eta, scale * config.bs2.t * gamma, k_e)
    rows = (row_d[:, None, :, None] * row_e[None, :, None, :]).reshape(4, 4)  # [(j_d, j_e), (n_d, n_e)]
    reg = rho.register
    out = reg.dims[0]
    branches = (rows @ rho.amplitudes.reshape(out, 4, -1)).reshape(out, -1)
    amps = np.zeros(reg.dims + branches.shape[1:], dtype=complex)
    amps[:, 0, 0] = branches
    return FactoredState(reg, amps.reshape(reg.dim, -1), rho.compression_error)


def _click_rows(eta: float, b: complex, k: int) -> np.ndarray:
    """R[j, n] = <k| D(b) A_j |n>, n <= 1, A_j |n> = sqrt(W[j, n]) |n-j> the counter's loss
    branches (W ``_loss_table(eta, 2)``'s weights): sqrt(W) * [[<k|D|0>, <k|D|1>], [0, <k|D|0>]]."""
    amplitude = CoherentDrive(b).amplitude
    vac = amplitude(k)
    one = -b.conjugate() * vac + (math.sqrt(k) * amplitude(k - 1) if k else 0.0)
    return _loss_table(eta, 2)[0] * np.array([[vac, one], [0.0, vac]])


def run_teleport(config: TeleportConfig) -> RunResult:
    """Teleport the mode-c input onto mode a: entangle (a, b) from a single
    photon, mix c with b, post-select the click pattern on (b, c)."""
    rho_c, default_target = _teleport_input(config)
    target = config.target if config.target is not None else default_target
    if target is None:
        raise ValueError("a target is required when the input is a density operator")
    rho, diagnostics = _propagate(("a", "b", "c"), 1, TELEPORT_CUTOFF, rho_c, config)
    events = [("b", config.detectors, config.clicks[0]), ("c", config.detectors, config.clicks[1])]
    state, probability = postselect(rho, events)
    return RunResult(state, probability, target, diagnostics)


def _propagate(labels, out_cutoff, budget, probe, config) -> tuple[FactoredState, dict]:
    """The circuit both stages share, on labels (out, mid, probe): a photon on
    ``out`` meets vacuum on ``mid`` at bs1, then ``mid`` meets the probe state
    at bs2 (both padded to ``budget``).  The register propagates as a low-rank
    factor; returns it with its diagnostics."""
    out, mid, probe_label = labels
    rho = FactoredState.from_state(basis_ket(ModeRegister((out, mid), (out_cutoff, 1)), (1, 0)))
    rho = apply_bs_channel(rho, (out, mid), config.bs1)
    trace_defect = abs(rho.trace() - 1.0)
    probe = pad_cutoffs(FactoredState.from_state(probe), {probe_label: budget})
    rho = tensor(pad_cutoffs(rho, {mid: budget}), probe)
    expected_trace = rho.trace()
    rho = apply_bs_channel(rho, (mid, probe_label), config.bs2)
    trace_defect = max(trace_defect, abs(rho.trace() - expected_trace))
    diagnostics = dict(
        trace_defect=trace_defect,
        register_dim=rho.register.dim,
        state_rank=rho.rank,
        compression_error=rho.compression_error,
    )
    return rho, diagnostics


def full_pipeline(scissors: ScissorsConfig) -> tuple[RunResult, RunResult, float]:
    """Run state engineering, feed its conditional output into a teleporter with
    the same splitters and counters, and report the end-to-end fidelity of mode a
    against the ideal target."""
    scissors_result = run_scissors(scissors)
    teleport_result = run_teleport(
        TeleportConfig(
            input_state=scissors_result.state,
            bs1=scissors.bs1,
            bs2=scissors.bs2,
            detectors=scissors.detectors,
            target=QubitAmplitudes.from_drive(scissors.drive).as_vector("a"),
        )
    )
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
            raise ValueError(f"teleport input must be on mode 'c', got {state.register.labels[0]!r}")
        (cutoff,) = state.register.cutoffs
        if cutoff > TELEPORT_CUTOFF:
            raise ValueError(f"teleport input cutoff {cutoff} exceeds the limit of {TELEPORT_CUTOFF}")
        defect = qubit_defect(state)
        if defect is not None:
            raise ValueError(f"teleport input {defect}")
        return state, None
    raise TypeError(f"unsupported input state type {type(state).__name__}")
