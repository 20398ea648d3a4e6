"""Optical elements as quantum operations on truncated Fock registers.

Three models live here:

* exact passive two-mode unitaries, held as their total-photon blocks
  (``PairOperator``).  A block within both mode cutoffs is the n-photon
  representation of the 2x2 matrix, built by a two-sided photon-number
  recurrence with no eigendecomposition (truncation can never corrupt it); a
  truncated block is the exponential of its truncated generator.  A splitter
  acting on a state is built only up to the largest total photon number the
  state occupies on its two modes, from blocks its spec keeps for every later
  call (``SplitterStore``).  A block operator acts on a register by
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
# a table grows to at least this size: the teleporter's modes have cutoff 2, so one build
# per transmissivity serves both stages of a point
LOSS_TABLE_MIN_SIZE = 3
_LADDER_ROOT = np.ones((1, 1, 1), dtype=complex)  # B_0, the vacuum block of every passive V
_LADDER_ROOT.flags.writeable = False


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

    @cached_property
    def store(self) -> "SplitterStore":
        """Blocks and loss tables shared by every call of this splitter; they only grow, and
        live as long as this spec (see ``SplitterStore``)."""
        return SplitterStore(self)

    @property
    def noise_covariance(self) -> np.ndarray:
        s = self.scattering_matrix
        return np.eye(2) - s @ s.conj().T

    @property
    def is_lossless(self) -> bool:
        return self.gamma <= LOSSLESS_TOL


class SplitterStore:
    """What every call of one splitter rebuilds from the spec alone, built on first use.

    ``factors`` are the passive matrices the channel applies in turn (S when lossless;
    X^dag, then W when lossy), and ``ladders[i]`` holds the within-cutoff blocks B_0..B_n of
    ``factors[i]``, which ``_blockwise_passive`` extends only as far as a call's top needs (a
    diagonal factor keeps its exact phases and needs none).
    ``taus`` are the loss step's transmissivities s_i^2 in closed form: S = [[t, r], [r, t]]
    = H diag(t + r, t - r) H with H the Hadamard matrix, so s_i = |t +- r|, sorted as ``svd``
    sorts them (a balanced splitter's two are then equal bit for bit); ``loss_table`` keeps one table
    A_k(n) per tau, grown to the largest mode size asked for (at least LOSS_TABLE_MIN_SIZE),
    and hands out its top-left corner, which is bit for bit the table of the smaller size.
    Nothing is rebuilt or dropped while the spec lives, and every stored array is read-only."""

    def __init__(self, spec: BeamSplitterSpec):
        if spec.is_lossless:
            self.factors, self.taus = (spec.scattering_matrix,), ()
        else:
            w, _, xh = spec.svd
            taus = sorted((abs(spec.t + spec.r) ** 2, abs(spec.t - spec.r) ** 2), reverse=True)
            self.factors, self.taus = (xh, w), tuple(min(tau, 1.0) for tau in taus)
        self.ladders = tuple([_LADDER_ROOT] for _ in self.factors)
        self._tables = {}

    def loss_table(self, tau: float, d: int) -> np.ndarray:
        table = self._tables.get(tau)
        if table is None or table.shape[-1] < d:
            table = self._tables[tau] = _loss_table(tau, max(d, LOSS_TABLE_MIN_SIZE))
        return table[:, :d, :d]


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
    (slices, blocks (B, size, size)) with <s[i]| op |s[j]> = blocks[b, i, j] for
    s = range(dims[0] * dims[1])[slices[b]]: the states (m, n - m) of one total n,
    m ascending, lie d2 - 1 apart in the pair index, so every block reads and
    writes a strided view.  States in no batch map to zero; a diagonal operator
    keeps only its ``phases``."""

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
        """op acting on axis 1 of x, shape (rest, d1 * d2, rank): each block
        maps the strided view x[:, s] to y[:, s], one block at a time."""
        if self.phases is not None:
            return x * self.phases[:, None]
        y = np.zeros(x.shape, dtype=complex)
        for slices, blocks in self.batches:
            for s, block in zip(slices, blocks):
                np.matmul(block, x[:, s], out=y[:, s])
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


def _blockwise_passive(v: np.ndarray, cutoff1: int, cutoff2: int, top: int | None = None, ladder=None) -> PairOperator:
    """Block operator of a unitary V on the totals n <= ``top`` (every total when None);
    the other totals map to zero, so for top < cutoff1 + cutoff2 it is P_(<=top) U.
    ``ladder`` is V's list of blocks B_0.. (``SplitterStore.ladders``), extended in place as
    far as this call needs; without one the blocks are built for this call only.

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
    (v00, v01), (v10, v11) = np.asarray(v, dtype=complex).tolist()
    defect = max(  # the largest entry of |V V^dag - I|
        abs(abs(v00) ** 2 + abs(v01) ** 2 - 1),
        abs(abs(v10) ** 2 + abs(v11) ** 2 - 1),
        abs(v00 * v10.conjugate() + v01 * v11.conjugate()),
    )
    if defect > UNITARITY_TOL:
        raise ValueError(f"passive matrix is not unitary within {UNITARITY_TOL}")
    dims = (cutoff1 + 1, cutoff2 + 1)
    top = cutoff1 + cutoff2 if top is None else min(top, cutoff1 + cutoff2)
    if v01 == 0 and v10 == 0:
        p1, p2 = _powers(v00, cutoff1), _powers(v11, cutoff2)
        phases = [a * b if m + n <= top else 0j for m, a in enumerate(p1) for n, b in enumerate(p2)]
        return PairOperator(dims, phases=np.array(phases))
    low = min(cutoff1, cutoff2, top)
    ladder = [_LADDER_ROOT] if ladder is None else ladder
    if len(ladder) <= low:
        _extend_ladder(v, ladder, low)
    step = dims[1] - 1 or 1  # state (i, n - i) sits at n + i (d2 - 1); any step serves d2 = 1
    batches = [((slice(n, n + n * step + 1, step),), ladder[n]) for n in range(low + 1)]
    if top > low:
        batches += _truncated_blocks((v00, v01, v10, v11), dims, low, top, step)
    return PairOperator(dims, tuple(batches))


def _powers(z: complex, n: int) -> list:
    """[1, z, z^2, .., z^n], each the product of the one before and z."""
    powers = [1.0 + 0j]
    for _ in range(n):
        powers.append(powers[-1] * z)
    return powers


def _extend_ladder(v: np.ndarray, ladder: list, low: int):
    """Append B_n, n = len(ladder) .. low, each (1, n + 1, n + 1) and read-only, to V's
    ``ladder`` by the recurrence of ``_blockwise_passive``."""
    root = np.sqrt(np.arange(low + 1.0))
    block = ladder[-1][0]
    for n in range(len(ladder), low + 1):
        up, down = root[1 : n + 1, None], root[n:0:-1, None]  # sqrt(i) for i >= 1, sqrt(n - i) for i < n
        raised = np.zeros((2, n + 1, n), dtype=complex)
        raised[0, 1:] = up * block  # A1 B_(n-1)
        raised[1, :-1] = down * block  # A2 B_(n-1)
        rows = (v.T @ raised.reshape(2, -1)).reshape(2, n + 1, n)  # b1^dag B, b2^dag B
        block = np.zeros((n + 1, n + 1), dtype=complex)
        block[:, 1:] = rows[0] * up.T
        block[:, :-1] += rows[1] * down.T
        block /= n
        block.flags.writeable = False
        ladder.append(block[None])


def _truncated_blocks(v, dims: tuple[int, int], low: int, top: int, step: int) -> list:
    """Batches exp(-i G) of the blocks with totals low < n <= top (see ``_blockwise_passive``),
    each block on the slice of its states, ``step`` apart."""
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
            first = states[order[start:stop:size]].tolist()  # each block's state of least m
            slices = tuple(slice(i, i + (size - 1) * step + 1, step) for i in first)
            batches.append((slices, blocks * phases[:size, :size]))
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
    of (mode label, DetectorSpec, clicks).  The counters' POVM weights, each
    broadcast along its own mode's axis, multiply into one table over the
    measured modes, whose square root scales the factor.  Returns the normalized
    conditional state on the unmeasured modes and the outcome probability.  A
    (numerically) impossible outcome raises ImpossibleOutcomeError instead of
    producing a NaN state.
    """
    if isinstance(rho, DensityOperator):
        rho = FactoredState.from_state(rho)
    reg = rho.register
    seen = set()
    w_full = 1.0
    for label, det, clicks in events:
        if label in seen:
            raise ValueError(f"duplicate post-selection on mode {label!r}")
        seen.add(label)
        pos = reg.position(label)
        shape = [1] * (reg.n_modes + 1)
        shape[pos] = -1
        w_full = w_full * detector_povm(det, clicks, reg.cutoffs[pos]).reshape(shape)
    amps = np.sqrt(w_full) * rho.amplitudes.reshape(reg.dims + (rho.rank,))
    weighted = FactoredState(reg, amps.reshape(reg.dim, -1))
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
    depends on S).  Blocks and loss tables come from ``spec.store``, which
    later calls with the same spec extend instead of rebuilding.
    """
    dense = isinstance(rho, DensityOperator)
    state = FactoredState.from_state(rho) if dense else rho
    store = spec.store
    state = _passive(state, store.factors[0], modes, store.ladders[0])
    if not spec.is_lossless:
        for label, tau in zip(modes, store.taus):
            state = _attenuate(state, label, tau, store)
        state = _passive(state, store.factors[1], modes, store.ladders[1])
    return state.to_density() if dense else state


def _passive(state: FactoredState, v: np.ndarray, modes: tuple[str, str], ladder=None) -> FactoredState:
    """V on two modes, built only up to the largest total the factor occupies there."""
    reg = state.register
    pair = (reg.position(modes[0]), reg.position(modes[1]))
    rest = tuple(i for i in range(reg.n_modes + 1) if i not in pair)
    occupied = state.amplitudes.reshape(reg.dims + (state.rank,)).any(axis=rest).nonzero()
    top = int((occupied[0] + occupied[1]).max(initial=0))
    op = _blockwise_passive(v, reg.cutoffs[pair[0]], reg.cutoffs[pair[1]], top, ladder)
    op = lift_pair_operator(op, reg, modes)
    return FactoredState(reg, op @ state.amplitudes, state.compression_error)


def _loss_table(tau: float, d: int) -> np.ndarray:
    """Read-only [A, A^2] with A[k, n] = sqrt(C(n,k) tau^(n-k) (1-tau)^k), n, k < d."""
    n = np.arange(d)
    k = n[:, None]
    # row k of the running product is C(n, k): prod_{j <= k} (n - j + 1) / j, zero once j > n
    comb = np.cumprod(np.where(k == 0, 1.0, np.maximum(n - k + 1, 0) / np.maximum(k, 1)), axis=0)
    amp_k = np.sqrt(comb * tau ** np.maximum(n - k, 0) * (1 - tau) ** k)
    table = np.stack((amp_k, amp_k**2))
    table.flags.writeable = False
    return table


def _attenuate(state: FactoredState, label: str, tau: float, store: SplitterStore | None = None) -> FactoredState:
    """Loss A_k |n> = sqrt(C(n,k) tau^(n-k) (1-tau)^k) |n-k> on one mode: the
    branches A_k psi, bar those below COMPRESSION_TOL, are stacked as columns
    and re-compressed; dropped weight goes to ``compression_error``.  The table
    A_k(n) comes from ``store`` when given."""
    if tau >= 1.0:
        return state
    reg = state.register
    pos = reg.position(label)
    d = reg.dims[pos]
    post = reg.strides[pos]
    amps = state.amplitudes.reshape(-1, d, post, state.rank)
    amp_k, weight = store.loss_table(tau, d) if store is not None else _loss_table(tau, d)
    parts = np.ascontiguousarray(state.amplitudes).view(float).reshape(-1, d, 2 * post * state.rank)
    branch_weight = (weight @ np.einsum("ijk,ijk->j", parts, parts)).tolist()
    floor = COMPRESSION_TOL * sum(branch_weight)
    kept = [k for k, w in enumerate(branch_weight) if w > floor]
    error = state.compression_error + sum(w for w in branch_weight if w <= floor)
    if kept == [0]:  # A_0 = tau^(n/2) alone (a vacuum mode) only rescales rows
        return FactoredState(reg, (amps * amp_k[0, :, None, None]).reshape(reg.dim, -1), error)
    out = np.zeros(amps.shape[:3] + (len(kept), state.rank), dtype=complex)
    for j, k in enumerate(kept):  # output photon number n of branch k reads input n + k
        out[:, : d - k, :, j] = amps[:, k:] * amp_k[k, k:, None, None]
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
