"""Truncated multimode Fock-space states and the operations that move them around.

Basis convention (fixed, relied on by serialization): the joint basis of a
register with mode labels ``(m1, ..., mk)`` and per-mode cutoffs
``(c1, ..., ck)`` is enumerated lexicographically over occupation tuples
``(n1, ..., nk)`` with ``0 <= ni <= ci``, last mode fastest (row-major).
Basis index of an occupation tuple is therefore
``n1 * prod(c2+1, ..., ck+1) + ... + nk``.

All state objects are immutable in intent: operations return new objects and
never mutate their inputs, so one value can be shared freely between calls.

Inside the engine every mixed state is a low-rank factor (``FactoredState``):
a state enters through ``FactoredState.from_state`` and leaves as a
``DensityOperator`` through ``partial_trace``.
``tensor``, ``pad_cutoffs`` and ``partial_trace`` take factors only; neither
a pure vector nor the dense form is an input to them.

A coherent drive is held by its amplitude alone: the scissors stage takes it
in the displaced frame, so no drive cutoff or Poisson tail enters a run.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
NORM_SLACK = 1e-12
# eigen-weights below this fraction of the trace are dropped by rank compression
COMPRESSION_TOL = 1e-14

BASIS_ORDER_NOTE = "lexicographic over occupation tuples, last mode fastest (row-major)"


@dataclass(frozen=True, init=False)
class ModeRegister:
    """Ordered collection of bosonic modes with per-mode photon-number cutoffs.
    ``dims`` (cutoff + 1 per mode), ``dim`` (their product) and the row-major
    ``strides`` of the joint basis index are set once, at construction."""

    labels: tuple[str, ...]
    cutoffs: tuple[int, ...]

    def __init__(self, labels, cutoffs):
        labels, cutoffs = tuple(labels), tuple(map(int, cutoffs))
        if len(labels) != len(cutoffs):
            raise ValueError("labels and cutoffs must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be unique, got {labels}")
        if min(cutoffs, default=1) < 1:
            raise ValueError(f"every cutoff must be >= 1, got {cutoffs}")
        strides, dim = [], 1
        for c in reversed(cutoffs):
            strides.insert(0, dim)
            dim *= c + 1
        dims = tuple(c + 1 for c in cutoffs)
        # frozen, so every attribute is set at once through the instance dict
        vars(self).update(labels=labels, cutoffs=cutoffs, dims=dims, dim=dim, strides=tuple(strides))

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown mode label {label!r}; register has {self.labels}") from None

    def index(self, occupation: tuple[int, ...]) -> int:
        """Basis index of an occupation tuple."""
        if len(occupation) != self.n_modes:
            raise ValueError("occupation length does not match register")
        idx = 0
        for n, c, s in zip(occupation, self.cutoffs, self.strides):
            if not 0 <= n <= c:
                raise ValueError(f"occupation {occupation} exceeds cutoffs {self.cutoffs}")
            idx += n * s
        return idx

    def occupations(self) -> np.ndarray:
        """All occupation tuples in basis order, shape (dim, n_modes)."""
        if self.n_modes == 0:
            return np.zeros((1, 0), dtype=int)
        return np.indices(self.dims).reshape(self.n_modes, -1).T

    def subregister(self, labels) -> "ModeRegister":
        labels = tuple(labels)
        return ModeRegister(labels, tuple(self.cutoffs[self.position(l)] for l in labels))

    def merged(self, other: "ModeRegister") -> "ModeRegister":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"mode labels overlap: {sorted(overlap)}")
        return ModeRegister(self.labels + other.labels, self.cutoffs + other.cutoffs)


class FockVector:
    """Pure state on a register; amplitudes indexed by the documented basis order.

    Sub-normalized vectors (squared norm < 1) are legal as intermediate
    post-selection results; squared norm may never exceed 1 beyond slack.
    """

    def __init__(self, register: ModeRegister, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.shape != (register.dim,):
            raise ValueError(
                f"amplitude vector has length {amplitudes.shape[0]}, register needs {register.dim}"
            )
        nsq = float(np.vdot(amplitudes, amplitudes).real)
        if nsq > 1.0 + NORM_SLACK:
            raise ValueError(f"squared norm {nsq} exceeds 1 beyond tolerance")
        self.register = register
        self.amplitudes = amplitudes
        self.amplitudes.setflags(write=False)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def to_json_dict(self) -> dict:
        return {
            "register": {"labels": list(self.register.labels), "cutoffs": list(self.register.cutoffs)},
            "basis_order": BASIS_ORDER_NOTE,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    def __repr__(self):
        return f"FockVector(modes={self.register.labels}, norm^2={self.norm_sq():.6g})"


class DensityOperator:
    """Mixed state on a register. Hermiticity is enforced at construction.

    Trace may be below 1 only for sub-normalized post-selection intermediates.
    Positivity is not checked here, since it would cost a full eigendecomposition;
    ``apparatus.qubit_defect`` checks each stage's one-mode input and output in closed form.
    """

    def __init__(self, register: ModeRegister, matrix: np.ndarray, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (register.dim, register.dim):
            raise ValueError(
                f"matrix has shape {matrix.shape}, register needs {(register.dim, register.dim)}"
            )
        if check:
            defect = float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0
            if defect > HERMITICITY_TOL:
                raise ValueError(f"matrix is not Hermitian (max defect {defect:.3e})")
            tr = float(np.trace(matrix).real)
            if tr > 1.0 + NORM_SLACK or tr < -NORM_SLACK:
                raise ValueError(f"trace {tr} outside [0, 1] beyond tolerance")
        self.register = register
        self.matrix = matrix
        self.matrix.setflags(write=False)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> "DensityOperator":
        tr = self.trace()
        if tr <= 0.0:
            raise ValueError("cannot normalize, trace is not positive")
        return DensityOperator(self.register, self.matrix / tr, check=False)

    def to_json_dict(self) -> dict:
        flat = self.matrix.reshape(-1)
        return {
            "register": {"labels": list(self.register.labels), "cutoffs": list(self.register.cutoffs)},
            "basis_order": BASIS_ORDER_NOTE,
            "matrix": [[float(a.real), float(a.imag)] for a in flat],
        }

    def __repr__(self):
        return f"DensityOperator(modes={self.register.labels}, trace={self.trace():.6g})"


class FactoredState:
    """Mixed state rho = psi psi^dag held as its factor: ``amplitudes`` is psi,
    shape (dim, rank), one sub-normalized ensemble member per column.
    ``compression_error`` is the trace dropped so far by rank compression."""

    def __init__(self, register: ModeRegister, amplitudes: np.ndarray, compression_error: float = 0.0):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 2 or amplitudes.shape[0] != register.dim:
            raise ValueError(f"factor has shape {amplitudes.shape}, register needs ({register.dim}, rank)")
        self.register = register
        self.amplitudes = amplitudes
        self.compression_error = compression_error

    @classmethod
    def from_state(cls, state) -> "FactoredState":
        """Factor a FockVector (rank 1) or a DensityOperator (by its eigendecomposition)."""
        if isinstance(state, FockVector):
            return cls(state.register, state.amplitudes[:, None])
        vals, vecs = np.linalg.eigh(state.matrix)
        cut, dropped = _dominant(vals)
        return cls(state.register, vecs[:, cut:] * np.sqrt(vals[cut:]), dropped)

    @property
    def rank(self) -> int:
        return self.amplitudes.shape[1]

    def trace(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def compressed(self) -> "FactoredState":
        """The same state on the fewest columns, psi times the dominant
        eigenvectors of the small Gram matrix psi^dag psi."""
        vals, vecs = np.linalg.eigh(self.amplitudes.conj().T @ self.amplitudes)
        cut, dropped = _dominant(vals)
        return FactoredState(self.register, self.amplitudes @ vecs[:, cut:], self.compression_error + dropped)


def _dominant(weights: np.ndarray) -> tuple[int, float]:
    """For ascending ``weights`` (as ``eigh`` returns them): the index of the first one above
    COMPRESSION_TOL of the total, and the positive weight below it."""
    values = weights.tolist()
    cut = bisect.bisect_right(values, COMPRESSION_TOL * max(sum(values), 0.0))
    return cut, sum(max(v, 0.0) for v in values[:cut])


@dataclass(frozen=True)
class CoherentDrive:
    """Coherent field driving the auxiliary port, held by its amplitude alone.

    The pipeline never truncates it: the scissors stage takes the drive in
    the displaced frame (``apparatus.run_scissors``), so the drive has no
    cutoff.  ``coherent_amplitudes`` gives its Fock amplitudes up to a cutoff
    the caller names.
    """

    gamma: complex

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        if not math.isfinite(abs(self.gamma) * abs(self.gamma)):
            raise ValueError(f"drive amplitude {self.gamma} must have a finite |gamma|^2")

    def amplitude(self, n: int) -> complex:
        """Poissonian amplitude exp(-|g|^2/2) g^n / sqrt(n!)."""
        g = self.gamma
        if g == 0:
            return 1.0 + 0j if n == 0 else 0j
        logmag = -abs(g) ** 2 / 2 + n * math.log(abs(g)) - 0.5 * math.lgamma(n + 1)
        return math.exp(logmag) * cmath.exp(1j * n * cmath.phase(g))

    @property
    def ratio(self) -> float:
        """Vacuum-to-one-photon weight ratio |amplitude(0) / amplitude(1)|^2 = 1 / |gamma|^2, in the
        closed form that stays finite where both amplitudes underflow."""
        lam = abs(self.gamma) ** 2
        return 1.0 / lam if lam else math.inf


def coherent_amplitudes(drive: CoherentDrive, cutoff: int, label: str = "e") -> FockVector:
    """The drive's Fock amplitudes up to ``cutoff`` on a single mode.

    The vector is deliberately not renormalized: its missing weight is the
    Poisson tail above the cutoff.
    """
    amps = np.array([drive.amplitude(n) for n in range(cutoff + 1)])
    return FockVector(ModeRegister((label,), (cutoff,)), amps)


def basis_ket(register: ModeRegister, occupation: tuple[int, ...]) -> FockVector:
    amps = np.zeros(register.dim, dtype=complex)
    amps[register.index(tuple(occupation))] = 1.0
    return FockVector(register, amps)


def tensor(x: FactoredState, y: FactoredState) -> FactoredState:
    """Kronecker composition of two factors, in basis order: every pair of columns."""
    reg = x.register.merged(y.register)
    amps = x.amplitudes[:, None, :, None] * y.amplitudes[None, :, None, :]  # np.kron by broadcasting
    return FactoredState(reg, amps.reshape(reg.dim, -1), x.compression_error + y.compression_error)


def partial_trace(rho: FactoredState, keep) -> DensityOperator:
    """Trace a factor over every mode not in ``keep``, a sequence of labels.  The
    reduced state, its modes in the order of ``keep``, leaves the engine here as a
    DensityOperator: with the kept modes first the factor is a matrix M, and rho = M M^dag."""
    reg = rho.register
    keep_pos = [reg.position(l) for l in keep]
    sub = reg.subregister(keep)
    order = keep_pos + [i for i in range(reg.n_modes + 1) if i not in keep_pos]
    m = rho.amplitudes.reshape(reg.dims + (rho.rank,)).transpose(order).reshape(sub.dim, -1)
    return DensityOperator(sub, m @ m.conj().T, check=False)


def fidelity(rho: DensityOperator, target: FockVector) -> float:
    """Overlap <target| rho |target> for a normalized pure target.

    Values escaping [0, 1] by more than a small slack indicate a broken
    invariant upstream and raise instead of being clamped.
    """
    _require_same_register(rho.register, target.register)
    if abs(target.norm_sq() - 1.0) > 1e-9:
        raise ValueError(f"target must be normalized, squared norm is {target.norm_sq()}")
    val = float(np.real(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes)))
    if not -1e-10 <= val <= 1.0 + 1e-10:
        raise ValueError(f"fidelity {val} outside [0, 1] beyond slack; upstream state is unphysical")
    return min(1.0, max(0.0, val))


def pad_cutoffs(state: FactoredState, new_cutoffs: dict) -> FactoredState:
    """Embed a factor into a register with enlarged cutoffs (zero padding)."""
    reg = state.register
    cutoffs = tuple(max(c, int(new_cutoffs.get(l, c))) for l, c in zip(reg.labels, reg.cutoffs))
    for l, c_new in new_cutoffs.items():
        if c_new < reg.cutoffs[reg.position(l)]:
            raise ValueError(f"cannot shrink cutoff of mode {l!r}")
    if cutoffs == reg.cutoffs:
        return state
    big = ModeRegister(reg.labels, cutoffs)
    amps = np.zeros(big.dims + (state.rank,), dtype=complex)
    amps[tuple(slice(0, d) for d in reg.dims)] = state.amplitudes.reshape(reg.dims + (state.rank,))
    return FactoredState(big, amps.reshape(big.dim, -1), state.compression_error)


def _require_same_register(a: ModeRegister, b: ModeRegister):
    if a.labels != b.labels or a.cutoffs != b.cutoffs:
        raise ValueError(f"register mismatch: {a.labels}/{a.cutoffs} vs {b.labels}/{b.cutoffs}")
