"""Optical elements as quantum operations on truncated Fock registers.

Three models live here:

* exact passive two-mode unitaries, held as their total-photon blocks
  (``PairOperator``).  A block within both mode cutoffs is the n-photon
  representation of the 2x2 matrix, built by a two-sided photon-number
  recurrence with no eigendecomposition (truncation can never corrupt it); a
  truncated block is the exponential of its truncated generator.  A splitter
  acting on a state is built only up to the largest total photon number the
  state occupies on its two modes.  A block operator acts on a register by
  moving its two modes last and multiplying each block into the amplitudes it
  touches; no register-sized operator is built;
* lossy beam splitters as CPTP channels, through the SVD
  S = W diag(s) X^dag: a passive unitary, single-mode loss of transmissivity
  s_i^2, and a second passive unitary.  With the environment in vacuum this is
  the channel of every unitary dilation with noise covariance
  N = I - S S^dag, since that channel depends on S alone (the explicit
  dilation and its Kraus set are test oracles in ``tests/reference.py``);
* inefficient click detectors as diagonal binomial POVMs with post-selection.

Channels act on a low-rank factor rho = psi psi^dag (``fock.FactoredState``),
so memory and work grow with dim * rank, never dim^2; the rank stays small
because a coherent drive stays pure under loss.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import (
    COMPRESSION_TOL,
    DensityOperator,
    FactoredState,
    ModeRegister,
    partial_trace,
)

PSD_TOL = 1e-12
LOSSLESS_TOL = 1e-14
UNITARITY_TOL = 1e-12
IMPOSSIBLE_PROBABILITY = 1e-300


class ImpossibleOutcomeError(RuntimeError):
    """Raised when a post-selection pattern has (numerically) zero probability."""

    def __init__(self, probability: float):
        super().__init__(f"post-selection outcome has probability {probability}")
        self.probability = probability


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Beam splitter with complex transmission t and reflection r.

    Scattering matrix S = [[t, r], [r, t]].  The damping constant
    Gamma = 1 - |t|^2 - |r|^2 and cross term Omega = t r* + r t* must give a
    positive semidefinite noise covariance N = [[Gamma, -Omega], [-Omega, Gamma]]
    (Gamma >= |Omega|), otherwise the element is unphysical and rejected.
    """

    t: complex
    r: complex

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "r", complex(self.r))
        if self.gamma < -PSD_TOL:
            raise ValueError(f"|t|^2 + |r|^2 = {1 - self.gamma} exceeds 1: spec is unphysical")
        if self.gamma < abs(self.omega) - PSD_TOL:
            raise ValueError(
                f"noise covariance not positive semidefinite: Gamma={self.gamma:.6g} < "
                f"|Omega|={abs(self.omega):.6g}"
            )

    @classmethod
    def ideal_5050(cls) -> "BeamSplitterSpec":
        """Symmetric lossless 50/50: t = 1/sqrt(2), r = i/sqrt(2)."""
        return cls(1 / math.sqrt(2), 1j / math.sqrt(2))

    @classmethod
    def lossy_5050(cls, gamma: float) -> "BeamSplitterSpec":
        """Balanced lossy element: |t| = |r| with 2|t|^2 = 1 - Gamma, r = i|t|."""
        if not 0 <= gamma < 1:
            raise ValueError(f"damping must lie in [0, 1), got {gamma}")
        mag = math.sqrt((1 - gamma) / 2)
        return cls(mag, 1j * mag)

    @property
    def gamma(self) -> float:
        """Damping constant 1 - |t|^2 - |r|^2."""
        return 1.0 - abs(self.t) ** 2 - abs(self.r) ** 2

    @property
    def omega(self) -> float:
        """Cross noise term t r* + r t* (real by construction)."""
        return float(2 * (self.t * self.r.conjugate()).real)

    @property
    def scattering_matrix(self) -> np.ndarray:
        return np.array([[self.t, self.r], [self.r, self.t]])

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """S = W diag(s) X^dag as (W, s, X^dag), computed once per spec."""
        return np.linalg.svd(self.scattering_matrix)

    @property
    def noise_covariance(self) -> np.ndarray:
        s = self.scattering_matrix
        return np.eye(2) - s @ s.conj().T

    @property
    def is_lossless(self) -> bool:
        return self.gamma <= LOSSLESS_TOL


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon counter with detection efficiency eta."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class PairOperator:
    """Number-conserving operator on two modes of sizes ``dims`` (basis
    (n1, n2), second fastest), held as its total-photon blocks.  Each batch is
    (index (B, size), blocks (B, size, size)) with
    <index[b, i]| op |index[b, j]> = blocks[b, i, j], and states in no batch
    map to zero; a diagonal operator keeps only its ``phases``."""

    dims: tuple[int, int]
    batches: tuple = ()
    phases: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        if self.phases is not None:
            return self.phases.size
        return sum(blocks.size for _, blocks in self.batches)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """op acting on axis 1 of x, shape (rest, d1 * d2, rank)."""
        if self.phases is not None:
            return x * self.phases[:, None]
        y = np.zeros(x.shape, dtype=complex)
        for index, blocks in self.batches:
            y[:, index] = blocks @ x[:, index]
        return y

    def toarray(self) -> np.ndarray:
        """Dense (d1 * d2) x (d1 * d2) matrix."""
        dim = math.prod(self.dims)
        return self.apply(np.eye(dim)[None])[0]


@dataclass(frozen=True)
class LiftedPairOperator:
    """A PairOperator bound to two axes of a register; ``@ psi`` moves those
    axes last (before the rank axis) by ``order``, applies the blocks and moves
    them back by ``inverse``, which is free (views only) when the two modes are
    already the last two, as in every stage.  ``nnz`` counts the entries the
    equivalent register-sized sparse matrix would store."""

    op: PairOperator
    register: ModeRegister
    order: tuple[int, ...]
    inverse: tuple[int, ...]

    @property
    def nnz(self) -> int:
        return self.op.nnz * (self.register.dim // math.prod(self.op.dims))

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        moved = psi.reshape(self.register.dims + (-1,)).transpose(self.order)
        out = self.op.apply(moved.reshape(-1, math.prod(self.op.dims), moved.shape[-1]))
        return out.reshape(moved.shape).transpose(self.inverse).reshape(psi.shape)


def two_mode_unitary_matrix(matrix_2x2: np.ndarray, cutoff1: int, cutoff2: int) -> np.ndarray:
    """Fock representation of a passive transformation with 2x2 matrix V.

    Heisenberg convention: output operators are V times input operators, so a
    creation operator on input mode i maps to sum_j V[j, i] a_j^dag.  The
    result conserves total photon number and is exact (the n-photon representation
    of V) on every block with total photons n <= min(cutoff1, cutoff2); V must be unitary.
    """
    return _blockwise_passive(matrix_2x2, cutoff1, cutoff2).toarray()


def _blockwise_passive(v: np.ndarray, cutoff1: int, cutoff2: int, top: int | None = None) -> PairOperator:
    """Block operator of a unitary V on the totals n <= ``top`` (every total when None);
    the other totals map to zero, so for top < cutoff1 + cutoff2 it is P_(<=top) U.

    A block with n within both cutoffs is the n-photon representation of V, built from
    B_0 = [[1]] by the two-sided recurrence (n + 1) B_(n+1) = (b1^dag B_n) A1^T + (b2^dag B_n) A2^T:
    A1, A2 add a photon to mode 1 or 2, b_k^dag = sum_j V[j, k] A_j, and rows and columns
    count the photons in mode 1.  Averaging the two ways of adding a photon keeps every
    coefficient at most 1, as in Risbo's construction of Wigner d-functions (J. Geodesy 70,
    383, 1996); no eigendecomposition is needed, and block n keeps about n times the float
    unitarity defect of V itself.  A truncated block (min cutoff < n <= top) is exp(-i G)
    on the truncated basis, G = sum_ij h_ij a_i^dag a_j, h = i log V in closed form from
    V = c exp(-i theta n.sigma) with c = +-sqrt(det V), Re tr(V/c) >= 0 (the branch centred
    on the determinant phase).  G is tridiagonal over the states (m, n - m); the phases
    exp(i k arg h_01) make it real, and blocks of equal size share one batched
    eigendecomposition.  A diagonal V gives the exact phases V00^m V11^n."""
    if np.max(np.abs(v @ v.conj().T - np.eye(2))) > UNITARITY_TOL:
        raise ValueError(f"passive matrix is not unitary within {UNITARITY_TOL}")
    dims = (cutoff1 + 1, cutoff2 + 1)
    top = cutoff1 + cutoff2 if top is None else min(top, cutoff1 + cutoff2)
    (v00, v01), (v10, v11) = np.asarray(v, dtype=complex).tolist()
    if v01 == 0 and v10 == 0:
        powers0 = np.cumprod(np.append(1, np.full(cutoff1, v00)))
        powers1 = np.cumprod(np.append(1, np.full(cutoff2, v11)))
        phases = np.outer(powers0, powers1)
        phases[np.add.outer(np.arange(dims[0]), np.arange(dims[1])) > top] = 0
        return PairOperator(dims, phases=phases.ravel())
    low = min(cutoff1, cutoff2, top)
    root = np.sqrt(np.arange(low + 1.0))
    step = np.arange(low + 1) * (dims[1] - 1)  # index of (i, n - i) is step[i] + n
    block = np.ones((1, 1), dtype=complex)
    batches = [(step[None, :1], block[None])]
    for n in range(1, low + 1):
        up, down = root[1 : n + 1, None], root[n:0:-1, None]  # sqrt(i) for i >= 1, sqrt(n - i) for i < n
        raised = np.zeros((2, n + 1, n), dtype=complex)
        raised[0, 1:] = up * block  # A1 B_(n-1)
        raised[1, :-1] = down * block  # A2 B_(n-1)
        rows = (v.T @ raised.reshape(2, -1)).reshape(2, n + 1, n)  # b1^dag B, b2^dag B
        block = np.zeros((n + 1, n + 1), dtype=complex)
        block[:, 1:] = rows[0] * up.T
        block[:, :-1] += rows[1] * down.T
        block /= n
        batches.append((step[None, : n + 1] + n, block[None]))
    if top > low:
        batches += _truncated_blocks((v00, v01, v10, v11), dims, low, top)
    return PairOperator(dims, tuple(batches))


def _truncated_blocks(v, dims: tuple[int, int], low: int, top: int) -> list:
    """Batches exp(-i G) of the blocks with totals low < n <= top (see ``_blockwise_passive``)."""
    v00, v01, v10, v11 = v
    c = cmath.sqrt(v00 * v11 - v01 * v10)
    c = c if ((v00 + v11) / c).real >= 0 else -c
    alpha, beta = (v00 / c + (v11 / c).conjugate()) / 2, (v01 / c - (v10 / c).conjugate()) / 2
    sin = math.hypot(alpha.imag, abs(beta))  # alpha = cos theta - i sin theta n_z
    f = math.atan2(sin, alpha.real) / sin if sin else 1.0
    h00, h11, h01 = -cmath.phase(c) - f * alpha.imag, -cmath.phase(c) + f * alpha.imag, 1j * f * beta
    m, n = np.divmod(np.arange(math.prod(dims)), dims[1])
    states = np.flatnonzero((m + n > low) & (m + n <= top))
    m, n = m[states], n[states]
    sizes = np.minimum(m + n, dims[0] - 1) - np.maximum(0, m + n - dims[1] + 1) + 1
    order = np.argsort((sizes * sum(dims) + m + n) * dims[0] + m)  # by (size, total, m): one run per size
    energy = (h00 * m + h11 * n)[order]
    hop = (abs(h01) * np.sqrt((m + 1.0) * n))[order]  # couples (m, n) to (m + 1, n - 1)
    k = np.arange(min(dims) + 1)
    phases = np.exp(1j * cmath.phase(h01) * (k[:, None] - k))
    counts = np.bincount(sizes, minlength=k.size)[1:] // k[1:]
    batches, start = [], 0
    for size, count in enumerate(counts, 1):
        stop = start + size * count
        if count:
            gen = np.zeros((count, size * size))
            gen[:, :: size + 1] = energy[start:stop].reshape(count, size)
            gen[:, 1 :: size + 1] = gen[:, size :: size + 1] = hop[start:stop].reshape(count, size)[:, :-1]
            energies, basis = np.linalg.eigh(gen.reshape(count, size, size))
            blocks = (basis * np.exp(-1j * energies)[:, None, :]) @ basis.transpose(0, 2, 1)
            batches.append((states[order[start:stop]].reshape(count, size), blocks * phases[:size, :size]))
        start = stop
    return batches


def ideal_bs_unitary(spec: BeamSplitterSpec, register: ModeRegister, modes: tuple[str, str]) -> np.ndarray:
    """Full-register unitary of a lossless beam splitter on two modes."""
    if not spec.is_lossless:
        raise ValueError(f"spec has Gamma={spec.gamma:.3e} > 0; only lossless elements have a unitary")
    c1 = register.cutoffs[register.position(modes[0])]
    c2 = register.cutoffs[register.position(modes[1])]
    op = _blockwise_passive(spec.scattering_matrix, c1, c2)
    return lift_pair_operator(op, register, modes) @ np.eye(register.dim)


def detector_povm(det: DetectorSpec, clicks: int, cutoff: int) -> np.ndarray:
    """Diagonal of the POVM element for registering ``clicks`` counts.

    E_n = sum_(m>=n) C(m, n) eta^n (1-eta)^(m-n) |m><m|.  The all-photons-seen
    entry (n = m) is stored as the float remainder of the rest of its binomial
    family, so summing the family over click numbers in ascending order
    resolves the identity exactly, float rounding included.
    """
    if not 0 <= clicks <= cutoff:
        raise ValueError(f"clicks must lie in [0, {cutoff}], got {clicks}")
    eta = det.eta
    diag = np.zeros(cutoff + 1)
    for m in range(cutoff + 1):
        if clicks > m:
            continue
        if clicks == m:
            partial = 0.0
            for k in range(m):
                partial += math.comb(m, k) * eta**k * (1 - eta) ** (m - k)
            diag[m] = 1.0 - partial
        else:
            diag[m] = math.comb(m, clicks) * eta**clicks * (1 - eta) ** (m - clicks)
    return diag


def postselect(rho, events) -> tuple[DensityOperator, float]:
    """Condition on detector outcomes and drop the measured modes.

    ``rho`` is a FactoredState or a DensityOperator; ``events`` is a sequence
    of (mode label, DetectorSpec, clicks).  The POVM weights scale the rows of
    the factor.  Returns the normalized conditional state on the unmeasured
    modes and the outcome probability.  A (numerically) impossible outcome raises
    ImpossibleOutcomeError instead of producing a NaN state.
    """
    if isinstance(rho, DensityOperator):
        rho = FactoredState.from_state(rho)
    reg = rho.register
    seen = set()
    weights = {}
    for label, det, clicks in events:
        if label in seen:
            raise ValueError(f"duplicate post-selection on mode {label!r}")
        seen.add(label)
        weights[label] = detector_povm(det, clicks, reg.cutoffs[reg.position(label)])
    occ = reg.occupations()
    w_full = np.ones(reg.dim)
    for label, w in weights.items():
        w_full *= w[occ[:, reg.position(label)]]
    weighted = FactoredState(reg, np.sqrt(w_full)[:, None] * rho.amplitudes)
    probability = weighted.trace()
    if probability < IMPOSSIBLE_PROBABILITY:
        raise ImpossibleOutcomeError(probability)
    keep = [l for l in reg.labels if l not in seen]
    return partial_trace(weighted, keep).normalized(), min(probability, 1.0)


def apply_bs_channel(rho, modes: tuple[str, str], spec: BeamSplitterSpec):
    """Send two modes of a register state through a (possibly lossy) beam
    splitter, tracing the environment immediately.

    ``rho`` is a FactoredState, or a DensityOperator (factored on entry and
    returned dense).  Lossless specs apply the exact block unitary.  Lossy
    specs use the SVD S = W diag(s) X^dag: a passive unitary, single-mode
    attenuators of transmissivity s_i^2, and a second passive unitary; with a
    vacuum environment this is the explicit dilation's channel (it only
    depends on S).
    """
    dense = isinstance(rho, DensityOperator)
    state = FactoredState.from_state(rho) if dense else rho
    if spec.is_lossless:
        state = _passive(state, spec.scattering_matrix, modes)
    else:
        w, svals, xh = spec.svd
        state = _passive(state, xh, modes)
        for label, s in zip(modes, svals):
            state = _attenuate(state, label, min(float(s) ** 2, 1.0))
        state = _passive(state, w, modes)
    return state.to_density() if dense else state


def _passive(state: FactoredState, v: np.ndarray, modes: tuple[str, str]) -> FactoredState:
    """V on two modes, built only up to the largest total the factor occupies there."""
    reg = state.register
    pair = (reg.position(modes[0]), reg.position(modes[1]))
    rest = tuple(i for i in range(reg.n_modes + 1) if i not in pair)
    occupied = np.nonzero(np.any(state.amplitudes.reshape(reg.dims + (state.rank,)) != 0, axis=rest))
    top = int((occupied[0] + occupied[1]).max(initial=0))
    op = lift_pair_operator(_blockwise_passive(v, reg.cutoffs[pair[0]], reg.cutoffs[pair[1]], top), reg, modes)
    return FactoredState(reg, op @ state.amplitudes, state.compression_error)


def _attenuate(state: FactoredState, label: str, tau: float) -> FactoredState:
    """Loss A_k |n> = sqrt(C(n,k) tau^(n-k) (1-tau)^k) |n-k> on one mode: the
    branches A_k psi, bar those below COMPRESSION_TOL, are stacked as columns
    and re-compressed; dropped weight goes to ``compression_error``."""
    if tau >= 1.0:
        return state
    reg = state.register
    pos = reg.position(label)
    d = reg.dims[pos]
    post = reg.strides[pos]
    amps = state.amplitudes.reshape(-1, d, post, state.rank)
    n = np.arange(d)
    k = n[:, None]
    # row k of the running product is C(n, k): prod_{j <= k} (n - j + 1) / j, zero once j > n
    comb = np.cumprod(np.where(k == 0, 1.0, np.maximum(n - k + 1, 0) / np.maximum(k, 1)), axis=0)
    amp_k = np.sqrt(comb * tau ** np.maximum(n - k, 0) * (1 - tau) ** k)
    parts = np.ascontiguousarray(state.amplitudes).view(float).reshape(-1, d, 2 * post * state.rank)
    population = np.einsum("ijk,ijk->j", parts, parts)
    branch_weight = amp_k**2 @ population
    keep = branch_weight > COMPRESSION_TOL * branch_weight.sum()
    kept = np.flatnonzero(keep)
    error = state.compression_error + float(branch_weight[~keep].sum())
    if kept.size == 1 and kept[0] == 0:  # A_0 = tau^(n/2) alone (a vacuum mode) only rescales rows
        return FactoredState(reg, (amps * amp_k[0, :, None, None]).reshape(reg.dim, -1), error)
    source = k + kept  # output photon number n of branch k reads input n + k
    clipped = np.minimum(source, d - 1)
    coeff = np.where(source < d, amp_k[kept, clipped], 0.0)
    gather = (clipped[:, None, :] * post + np.arange(post)[:, None]).reshape(-1)
    out = np.take(amps.reshape(-1, d * post, state.rank), gather, axis=1).reshape(-1, d, post, kept.size, state.rank)
    out *= coeff[:, None, :, None]
    return FactoredState(reg, out.reshape(reg.dim, -1), error).compressed()


def lift_pair_operator(op: PairOperator, register: ModeRegister, modes: tuple[str, str]) -> LiftedPairOperator:
    """Bind a two-mode block operator (basis (n_a, n_b), second fastest) to
    the register axes of ``modes``."""
    axes = (register.position(modes[0]), register.position(modes[1]))
    if op.dims != (register.dims[axes[0]], register.dims[axes[1]]):
        raise ValueError("operator size does not match the selected modes")
    n = register.n_modes
    order = (*(i for i in range(n) if i not in axes), *axes, n)
    return LiftedPairOperator(op, register, order, tuple(sorted(range(n + 1), key=order.__getitem__)))
