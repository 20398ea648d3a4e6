"""Optical elements as quantum operations on truncated Fock registers.

Three models live here:

* exact passive two-mode unitaries, held as one block per total photon
  number (``PairOperator``): the n-photon representation of the 2x2 matrix,
  built by a two-sided photon-number recurrence with no eigendecomposition.
  Only the totals both modes can hold are kept: a splitter would move part of
  any larger total out of the register, so the operator maps it to zero and
  the lost weight shows as a trace defect (callers pad with
  ``fock.pad_cutoffs`` so that nothing is lost).  A splitter is sized by its
  register: it keeps every total up to the smaller cutoff of its two modes.
  Blocks depend on V alone and loss tables on tau alone, so both are memoized
  by value here (``_ladder``, ``_loss_table``): equal splitters share them.
  A block operator acts on a register by moving its two modes last and
  multiplying each block into the amplitudes it touches; no register-sized
  operator is built;
* lossy beam splitters as CPTP channels, through the closed-form SVD
  S = W diag(s) X^dag: a passive unitary, single-mode loss of transmissivity
  s_i^2, and a second passive unitary.  With the environment in vacuum this is
  the channel of every unitary dilation with noise covariance
  N = I - S S^dag, since that channel depends on S alone (the explicit
  dilation and its Kraus set are test oracles in ``tests/reference.py``);
* inefficient click detectors as diagonal POVMs with post-selection: a counter
  of efficiency eta is a loss eta before an ideal one, so it shares those tables.

Channels and post-selection take a low-rank factor rho = psi psi^dag
(``fock.FactoredState``) only, so memory and work grow with dim * rank, never
dim^2.  The rank stays small because no drive enters a channel (the scissors
stage takes it in the displaced frame): a register holds at most two photons,
a loss step adds one branch per photon number a mode can lose, and the
re-compressed factor has no more columns than its register has states (8 in
the scissors stage at output cutoff 1, 18 in the teleporter).
Only the post-selected conditional state leaves as a ``DensityOperator``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

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
    A spec is a value: specs with equal (t, r) are equal, and it holds nothing
    mutable (its ``factors``, computed once, are read-only).
    """

    t: complex
    r: complex

    def __post_init__(self):
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "r", complex(self.r))
        if not (cmath.isfinite(self.t) and cmath.isfinite(self.r)):
            raise ValueError(f"t = {self.t} and r = {self.r} must be finite")
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

    @property
    def is_lossless(self) -> bool:
        return self.gamma <= LOSSLESS_TOL

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, ...]:
        """The passive matrices the channel applies in turn: S when lossless, else X^dag and
        then W of S = W diag(s) X^dag, in closed form from S = H diag(l) H (H the Hadamard
        matrix, l = (t + r, t - r)): P sorts s = |l| descending, X^dag = P H, W = H diag(l/|l|) P^T.
        Equal singular values (S = s U, every balanced splitter) take X^dag = I and W = S / s,
        which keeps a zero Hong-Ou-Mandel amplitude t^2 + r^2 of S exactly zero."""
        lam = (self.t + self.r, self.t - self.r)
        s = [abs(z) for z in lam]
        if self.is_lossless:
            factors = (self.scattering_matrix,)
        elif s[0] == s[1]:
            factors = (np.eye(2), self.scattering_matrix / s[0] if s[0] else np.eye(2))
        else:
            hadamard, perm = np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.eye(2)[:: 1 if s[0] > s[1] else -1]
            phases = np.diag([z / abs(z) if z else 1.0 for z in lam])
            factors = (perm @ hadamard, hadamard @ phases @ perm.T)
        for v in factors:
            v.flags.writeable = False
        return factors

    @functools.cached_property
    def taus(self) -> tuple[float, ...]:
        """The loss step's transmissivities s_i^2 = |t +- r|^2, descending as in ``factors``."""
        taus = sorted((abs(self.t + self.r) ** 2, abs(self.t - self.r) ** 2), reverse=True)
        return () if self.is_lossless else tuple(min(tau, 1.0) for tau in taus)


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
    (n1, n2), second fastest), held as one block per total n.  Each of ``blocks``
    is (slice, block (size, size)) with <s[i]| op |s[j]> = block[i, j] for
    s = range(dims[0] * dims[1])[slice]: the states (m, n - m) of one total,
    m ascending, lie d2 - 1 apart in the pair index, so every block reads and
    writes a strided view.  States in no block map to zero; a diagonal operator
    keeps only its ``phases``."""

    dims: tuple[int, int]
    blocks: tuple = ()
    phases: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        if self.phases is not None:
            return self.phases.size
        return sum(block.size for _, block in self.blocks)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """op acting on axis 1 of x, shape (rest, d1 * d2, rank): each block
        maps the strided view x[:, s] to y[:, s]."""
        if self.phases is not None:
            return x * self.phases[:, None]
        y = np.zeros(x.shape, dtype=complex)
        for s, block in self.blocks:
            np.matmul(block, x[:, s], out=y[:, s])
        return y


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


def _blockwise_passive(v: np.ndarray, cutoff1: int, cutoff2: int) -> PairOperator:
    """Block operator P_(<=low) U of a unitary V on two modes, sized by their cutoffs: U on the
    totals n <= low = min(cutoff1, cutoff2), zero on every other total, since U would move part
    of a total above the smaller cutoff out of the register.  The blocks are ``_ladder``'s.
    A diagonal V moves no photon, so it keeps the exact phases V00^m V11^n on every state of
    the pair, each power the running product of V's entry."""
    (v00, v01), (v10, v11) = np.asarray(v, dtype=complex).tolist()
    defect = max(  # the largest entry of |V V^dag - I|
        abs(abs(v00) ** 2 + abs(v01) ** 2 - 1),
        abs(abs(v10) ** 2 + abs(v11) ** 2 - 1),
        abs(v00 * v10.conjugate() + v01 * v11.conjugate()),
    )
    if defect > UNITARITY_TOL:
        raise ValueError(f"passive matrix is not unitary within {UNITARITY_TOL}")
    dims = (cutoff1 + 1, cutoff2 + 1)
    if v01 == 0 and v10 == 0:
        p1 = list(itertools.accumulate([v00] * cutoff1, operator.mul, initial=1 + 0j))
        p2 = list(itertools.accumulate([v11] * cutoff2, operator.mul, initial=1 + 0j))
        return PairOperator(dims, phases=np.outer(p1, p2).ravel())
    ladder = _ladder(v00, v01, v10, v11, min(cutoff1, cutoff2))
    step = dims[1] - 1 or 1  # state (i, n - i) sits at n + i (d2 - 1); any step serves d2 = 1
    return PairOperator(dims, tuple((slice(n, n + n * step + 1, step), block) for n, block in enumerate(ladder)))


@functools.lru_cache
def _ladder(v00: complex, v01: complex, v10: complex, v11: complex, low: int) -> tuple[np.ndarray, ...]:
    """The read-only blocks B_0..B_low of V = [[v00, v01], [v10, v11]], block n the n-photon
    representation of V, (n + 1, n + 1); memoized by value (a zero's sign is not part of the
    key), so every splitter with this V and register shares them.

    Built in a loop from B_0 = [[1]] by the two-sided recurrence
    (n + 1) B_(n+1) = (b1^dag B_n) A1^T + (b2^dag B_n) A2^T: A1, A2 add a photon to mode 1 or
    2, b_k^dag = sum_j V[j, k] A_j, and rows and columns count the photons in mode 1.
    Averaging the two ways of adding a photon keeps every coefficient at most 1, as in Risbo's
    construction of Wigner d-functions (J. Geodesy 70, 383, 1996); no eigendecomposition is
    needed, and block n keeps about n times the float unitarity defect of V itself."""
    v = np.array([[v00, v01], [v10, v11]])
    root = np.sqrt(np.arange(low + 1.0))
    block = np.ones((1, 1), dtype=complex)
    block.flags.writeable = False
    ladder = [block]
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
        block.flags.writeable = False
        ladder.append(block)
    return tuple(ladder)


def detector_povm(det: DetectorSpec, clicks: int, cutoff: int) -> np.ndarray:
    """Diagonal of the POVM element for registering ``clicks`` counts.

    E_c = sum_(m>=c) W[m-c, m] |m><m|, W the weights of ``_loss_table(eta, cutoff + 1)``: the
    counter misses m - c of m photons.  The all-photons-seen entry (m = c) is stored as the
    float remainder of the rest of its binomial family, so summing the family over click
    numbers in ascending order resolves the identity exactly, float rounding included.
    """
    if not 0 <= clicks <= cutoff:
        raise ValueError(f"clicks must lie in [0, {cutoff}], got {clicks}")
    weight = _loss_table(det.eta, cutoff + 1)[1]
    diag = np.zeros(cutoff + 1)
    diag[clicks:] = weight.diagonal(clicks)
    diag[clicks] = 1.0 - sum(weight[clicks:0:-1, clicks].tolist())  # 0, 1, .., c - 1 seen, in turn
    return diag


def postselect(rho: FactoredState, events) -> tuple[DensityOperator, float]:
    """Condition on detector outcomes and drop the measured modes.

    ``rho`` is a FactoredState (factors only); ``events`` is a sequence of
    (mode label, DetectorSpec, clicks).  The counters' POVM weights, each
    broadcast along its own mode's axis, multiply into one table over the
    measured modes, whose square root scales the factor.  Returns the
    normalized conditional state on the unmeasured modes (a DensityOperator:
    the state leaves the engine here) and the outcome probability.  A
    (numerically) impossible outcome raises ImpossibleOutcomeError instead of
    producing a NaN state.
    """
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


def apply_bs_channel(rho: FactoredState, modes: tuple[str, str], spec: BeamSplitterSpec) -> FactoredState:
    """Send two modes of a factor through a (possibly lossy) beam splitter,
    tracing the environment immediately; returns a factor.

    Lossless specs apply the exact block unitary.  Lossy specs use the
    closed-form SVD S = W diag(s) X^dag (``BeamSplitterSpec.factors``): a
    passive unitary, single-mode attenuators of transmissivity s_i^2, and a
    second passive unitary; with a vacuum environment this is the explicit
    dilation's channel (it only depends on S).  Blocks and loss tables come
    from this module's caches (``_ladder``, ``_loss_table``), keyed by V and
    tau, so every spec with the same factors or transmissivities shares them.
    """
    state = _passive(rho, spec.factors[0], modes)
    if not spec.is_lossless:
        for label, tau in zip(modes, spec.taus):
            state = _attenuate(state, label, tau)
        state = _passive(state, spec.factors[1], modes)
    return state


def _passive(state: FactoredState, v: np.ndarray, modes: tuple[str, str]) -> FactoredState:
    """V on two modes, sized by their cutoffs in the factor's register."""
    reg = state.register
    op = _blockwise_passive(v, reg.cutoffs[reg.position(modes[0])], reg.cutoffs[reg.position(modes[1])])
    op = lift_pair_operator(op, reg, modes)
    return FactoredState(reg, op @ state.amplitudes, state.compression_error)


@functools.lru_cache
def _loss_table(tau: float, d: int) -> np.ndarray:
    """Read-only [sqrt(W), W], n, k < d, with W[k, n] = C(n,k) tau^(n-k) (1-tau)^k the weight of
    losing k of n photons to a loss of transmissivity tau; zero for k > n.  The package's one
    copy of the binomial loss law: a counter of efficiency eta is a loss of transmissivity eta
    in front of an ideal counter (Barnett et al., Phys. Rev. A 57, 2134 (1998)), so splitters
    and counters alike read it, memoized by value."""
    w = [[math.comb(n, k) * tau ** (n - k) * (1 - tau) ** k if k <= n else 0.0 for n in range(d)] for k in range(d)]
    table = np.stack((np.sqrt(w), w))
    table.flags.writeable = False
    return table


def _attenuate(state: FactoredState, label: str, tau: float) -> FactoredState:
    """Loss A_k |n> = sqrt(W[k, n]) |n-k> on one mode, W ``_loss_table``'s weights: the
    branches A_k psi, bar those below COMPRESSION_TOL, are stacked as columns
    and re-compressed; dropped weight, read from W, goes to ``compression_error``."""
    reg = state.register
    pos = reg.position(label)
    d = reg.dims[pos]
    post = reg.strides[pos]
    amps = state.amplitudes.reshape(-1, d, post, state.rank)
    amp_k, weight = _loss_table(tau, d)
    branch_weight = (weight @ (abs(amps) ** 2).sum(axis=(0, 2, 3))).tolist()
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
