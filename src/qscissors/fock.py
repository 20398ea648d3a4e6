"""Truncated multimode Fock-space states and the operations that move them around.

Basis convention (fixed, relied on by serialization): the joint basis of a
register with mode labels ``(m1, ..., mk)`` and per-mode cutoffs
``(c1, ..., ck)`` is enumerated lexicographically over occupation tuples
``(n1, ..., nk)`` with ``0 <= ni <= ci``, last mode fastest (row-major).
Basis index of an occupation tuple is therefore
``n1 * prod(c2+1, ..., ck+1) + ... + nk``.

All state objects are immutable in intent: operations return new objects and
never mutate their inputs, so values can be shared freely across sweep workers.
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

    def total_photons(self) -> np.ndarray:
        """Total photon number of each basis state, shape (dim,)."""
        return self.occupations().sum(axis=1)

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

    def amplitude(self, occupation: tuple[int, ...]) -> complex:
        return complex(self.amplitudes[self.register.index(occupation)])

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.register, self.amplitudes / n)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.register, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "FockVector") -> complex:
        _require_same_register(self.register, other.register)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_json_dict(self) -> dict:
        return {
            "register": {"labels": list(self.register.labels), "cutoffs": list(self.register.cutoffs)},
            "basis_order": BASIS_ORDER_NOTE,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FockVector":
        reg = ModeRegister(tuple(data["register"]["labels"]), tuple(data["register"]["cutoffs"]))
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return cls(reg, amps)

    def __repr__(self):
        return f"FockVector(modes={self.register.labels}, norm^2={self.norm_sq():.6g})"


class DensityOperator:
    """Mixed state on a register. Hermiticity is enforced at construction.

    Trace may be below 1 only for sub-normalized post-selection intermediates;
    positivity is checked on demand (``assert_physical``) because it costs a
    full eigendecomposition.
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

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def assert_physical(self, positivity_tol: float = POSITIVITY_TOL):
        """Raise if Hermiticity, positivity, or the trace bound is violated."""
        defect = self.hermiticity_defect()
        if defect > HERMITICITY_TOL:
            raise ValueError(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL}")
        lo = self.min_eigenvalue()
        if lo < -positivity_tol:
            raise ValueError(f"minimum eigenvalue {lo:.3e} below -{positivity_tol}")
        tr = self.trace()
        if not -NORM_SLACK <= tr <= 1.0 + NORM_SLACK:
            raise ValueError(f"trace {tr} outside [0, 1]")

    def normalized(self) -> "DensityOperator":
        tr = self.trace()
        if tr <= 0.0:
            raise ValueError("cannot normalize, trace is not positive")
        return DensityOperator(self.register, self.matrix / tr, check=False)

    def population(self, occupation: tuple[int, ...]) -> float:
        i = self.register.index(occupation)
        return float(self.matrix[i, i].real)

    def mode_population_above(self, label: str, n: int) -> float:
        """Total probability of finding more than n photons in one mode."""
        occ = self.register.occupations()[:, self.register.position(label)]
        diag = np.diag(self.matrix).real
        return float(diag[occ > n].sum())

    def to_json_dict(self) -> dict:
        flat = self.matrix.reshape(-1)
        return {
            "register": {"labels": list(self.register.labels), "cutoffs": list(self.register.cutoffs)},
            "basis_order": BASIS_ORDER_NOTE,
            "matrix": [[float(a.real), float(a.imag)] for a in flat],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityOperator":
        reg = ModeRegister(tuple(data["register"]["labels"]), tuple(data["register"]["cutoffs"]))
        flat = np.array([complex(re, im) for re, im in data["matrix"]])
        return cls(reg, flat.reshape(reg.dim, reg.dim))

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

    def to_density(self) -> DensityOperator:
        return DensityOperator(self.register, self.amplitudes @ self.amplitudes.conj().T, check=False)


def _dominant(weights: np.ndarray) -> tuple[int, float]:
    """For ascending ``weights`` (as ``eigh`` returns them): the index of the first one above
    COMPRESSION_TOL of the total, and the positive weight below it."""
    values = weights.tolist()
    cut = bisect.bisect_right(values, COMPRESSION_TOL * max(sum(values), 0.0))
    return cut, sum(max(v, 0.0) for v in values[:cut])


@dataclass(frozen=True)
class CoherentDrive:
    """Coherent field driving the auxiliary port, with explicit truncation control.

    ``cutoff=None`` asks for the smallest cutoff whose discarded Poisson tail is
    below ``tail_eps``; an explicit cutoff that cannot satisfy the tail bound is
    rejected (naming the required cutoff) rather than silently accepted.
    """

    gamma: complex
    cutoff: int | None = None
    tail_eps: float = 1e-12
    max_cutoff: int = 200

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        if self.tail_eps <= 0:
            raise ValueError("tail_eps must be positive")

    def tail_probability(self, cutoff: int) -> float:
        """Poisson probability of more than ``cutoff`` photons."""
        lam = abs(self.gamma) ** 2
        if lam == 0.0:
            return 0.0
        term = math.exp(-lam)
        total = term
        for n in range(1, cutoff + 1):
            term *= lam / n
            total += term
        return max(0.0, 1.0 - total)

    def resolved_cutoff(self) -> int:
        """Cutoff actually used, honouring the tail invariant.  It is at least
        1, because the zero/one-photon target needs the one-photon amplitude.
        One running pass over the Poisson sum, with the float operations of
        ``tail_probability``, so each tail is bitwise the one it returns."""
        lam = abs(self.gamma) ** 2
        term = total = math.exp(-lam)
        for required in range(1, self.max_cutoff + 1):
            term *= lam / required
            total += term
            if max(0.0, 1.0 - total) < self.tail_eps:  # tail_probability(required); 0 when lam = 0
                break
        else:
            raise ValueError(
                f"tail_eps={self.tail_eps} unattainable at max_cutoff={self.max_cutoff} "
                f"for |gamma|^2={abs(self.gamma) ** 2:.6g}"
            )
        if self.cutoff is None:
            return required
        if self.cutoff < required:
            raise ValueError(
                f"cutoff {self.cutoff} leaves a coherent tail above tail_eps={self.tail_eps}; "
                f"cutoff {required} is required"
            )
        return self.cutoff

    def amplitude(self, n: int) -> complex:
        """Poissonian amplitude exp(-|g|^2/2) g^n / sqrt(n!)."""
        g = self.gamma
        if g == 0:
            return 1.0 + 0j if n == 0 else 0j
        logmag = -abs(g) ** 2 / 2 + n * math.log(abs(g)) - 0.5 * math.lgamma(n + 1)
        return math.exp(logmag) * cmath.exp(1j * n * cmath.phase(g))

    @property
    def amp0(self) -> complex:
        """Vacuum amplitude."""
        return self.amplitude(0)

    @property
    def amp1(self) -> complex:
        """One-photon amplitude."""
        return self.amplitude(1)

    @property
    def ratio(self) -> float:
        """Vacuum-to-one-photon weight ratio (|amp0| / |amp1|)^2 = 1 / |gamma|^2, in the
        closed form that stays finite where both amplitudes underflow."""
        lam = abs(self.gamma) ** 2
        return 1.0 / lam if lam else math.inf

    @property
    def qubit_norm_sq(self) -> float:
        """Combined weight of the vacuum and one-photon components."""
        return abs(self.amp0) ** 2 + abs(self.amp1) ** 2


def coherent_amplitudes(drive: CoherentDrive, label: str = "e") -> FockVector:
    """Truncated coherent state on a single mode.

    The vector is deliberately not renormalized after truncation; the missing
    weight (below ``drive.tail_eps`` by construction) is the tracked
    truncation error.
    """
    cutoff = drive.resolved_cutoff()
    amps = np.array([drive.amplitude(n) for n in range(cutoff + 1)])
    return FockVector(ModeRegister((label,), (cutoff,)), amps)


def basis_ket(register: ModeRegister, occupation: tuple[int, ...]) -> FockVector:
    amps = np.zeros(register.dim, dtype=complex)
    amps[register.index(tuple(occupation))] = 1.0
    return FockVector(register, amps)


def tensor(x, y):
    """Kronecker composition of two states of the same kind, in basis order
    (for factors, every pair of columns)."""
    reg = x.register.merged(y.register)
    if isinstance(x, FockVector) and isinstance(y, FockVector):
        return FockVector(reg, np.kron(x.amplitudes, y.amplitudes))
    if isinstance(x, FactoredState) and isinstance(y, FactoredState):
        amps = x.amplitudes[:, None, :, None] * y.amplitudes[None, :, None, :]  # np.kron by broadcasting
        return FactoredState(reg, amps.reshape(reg.dim, -1), x.compression_error + y.compression_error)
    if isinstance(x, DensityOperator) and isinstance(y, DensityOperator):
        return DensityOperator(reg, np.kron(x.matrix, y.matrix), check=False)
    raise TypeError("tensor requires two states of the same kind")


def partial_trace(rho, keep) -> DensityOperator:
    """Trace out all modes not in ``keep``; preserves trace and Hermiticity.
    A FactoredState's factor, kept modes first, is a matrix M: rho = M M^dag."""
    keep = [keep] if isinstance(keep, str) else list(keep)
    reg = rho.register
    keep_pos = [reg.position(l) for l in keep]
    n = reg.n_modes
    dims = reg.dims
    sub = reg.subregister(keep)
    if isinstance(rho, FactoredState):
        order = keep_pos + [i for i in range(n + 1) if i not in keep_pos]
        m = rho.amplitudes.reshape(dims + (rho.rank,)).transpose(order).reshape(sub.dim, -1)
        return DensityOperator(sub, m @ m.conj().T, check=False)
    tensor_form = rho.matrix.reshape(dims + dims)
    row_axes = list(range(n))
    col_axes = [n + i for i in range(n)]
    # traced modes share an index between row and column sides
    for i in range(n):
        if i not in keep_pos:
            col_axes[i] = row_axes[i]
    out_subscripts = [row_axes[i] for i in keep_pos] + [col_axes[i] for i in keep_pos]
    reduced = np.einsum(tensor_form, row_axes + col_axes, out_subscripts)
    return DensityOperator(sub, reduced.reshape(sub.dim, sub.dim), check=False)


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


def pad_cutoffs(state, new_cutoffs: dict):
    """Embed a FockVector or FactoredState into a register with enlarged
    cutoffs (zero padding)."""
    reg = state.register
    cutoffs = tuple(max(c, int(new_cutoffs.get(l, c))) for l, c in zip(reg.labels, reg.cutoffs))
    for l, c_new in new_cutoffs.items():
        if c_new < reg.cutoffs[reg.position(l)]:
            raise ValueError(f"cannot shrink cutoff of mode {l!r}")
    if cutoffs == reg.cutoffs:
        return state
    big = ModeRegister(reg.labels, cutoffs)
    columns = state.amplitudes.shape[1:]
    amps = np.zeros(big.dims + columns, dtype=complex)
    amps[tuple(slice(0, d) for d in reg.dims)] = state.amplitudes.reshape(reg.dims + columns)
    if isinstance(state, FockVector):
        return FockVector(big, amps.reshape(-1))
    return FactoredState(big, amps.reshape(big.dim, -1), state.compression_error)


def _require_same_register(a: ModeRegister, b: ModeRegister):
    if a.labels != b.labels or a.cutoffs != b.cutoffs:
        raise ValueError(f"register mismatch: {a.labels}/{a.cutoffs} vs {b.labels}/{b.cutoffs}")
