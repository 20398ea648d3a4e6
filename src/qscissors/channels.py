"""Optical elements as quantum operations on truncated Fock registers.

Three models live here:

* exact passive two-mode unitaries, built block-by-block in total photon
  number from an eigendecomposition of each block's generator, so that every
  block is unitary to float precision and blocks with total photons within
  both mode cutoffs are exact (truncation can never corrupt a retained block);
* lossy beam splitters as CPTP channels, realized as a unitary dilation onto
  two vacuum environment modes that is traced out immediately.  The dilation
  reproduces the element's noise covariance N = I - S S^dag when the
  environment is in vacuum, which fixes the channel completely (any unitary
  completion gives the same channel);
* inefficient click detectors as diagonal binomial POVMs with post-selection.

Channels act on a low-rank factor rho = psi psi^dag (``fock.FactoredState``),
so memory and work grow with dim * rank, never dim^2; the rank stays small
because a coherent drive stays pure under loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


@dataclass
class KrausChannel:
    """Explicit Kraus representation of a lossy two-mode element.

    Operators act on the two-mode basis with per-mode cutoff ``cutoff``
    (basis order: (n1, n2), second mode fastest).  ``outcomes[i]`` is the
    environment photon pair counted by ``operators[i]``.
    """

    operators: list
    outcomes: list
    cutoff: int
    spec: BeamSplitterSpec

    def completeness_defect(self, block_max: int | None = None) -> float:
        """Max deviation of sum K^dag K from identity on blocks with total
        photons <= block_max (defaults to the per-mode cutoff, the largest
        total for which no output component can be truncated away)."""
        if block_max is None:
            block_max = self.cutoff
        dim = self.cutoff + 1
        total = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in self.operators:
            total += k.conj().T @ k
        n1, n2 = np.divmod(np.arange(dim * dim), dim)
        retained = (n1 + n2) <= block_max
        delta = total - np.eye(dim * dim)
        return float(np.max(np.abs(delta[np.ix_(retained, retained)])))

    def apply(self, rho: DensityOperator, modes: tuple[str, str]) -> DensityOperator:
        """Apply the channel to two modes of a register state."""
        reg = rho.register
        for label in modes:
            if reg.cutoffs[reg.position(label)] != self.cutoff:
                raise ValueError(
                    f"mode {label!r} has cutoff {reg.cutoffs[reg.position(label)]}, "
                    f"channel was built for cutoff {self.cutoff}"
                )
        out = np.zeros_like(rho.matrix)
        for k in self.operators:
            lifted = lift_pair_operator(sp.csr_matrix(k), reg, modes).toarray()
            out += lifted @ rho.matrix @ lifted.conj().T
        return DensityOperator(reg, out, check=False)


def two_mode_unitary_matrix(matrix_2x2: np.ndarray, cutoff1: int, cutoff2: int) -> np.ndarray:
    """Fock representation of a passive transformation with 2x2 matrix V.

    Heisenberg convention: output operators are V times input operators, so a
    creation operator on input mode i maps to sum_j V[j, i] a_j^dag.  The
    result conserves total photon number and is exactly unitary on every block
    with total photons <= min(cutoff1, cutoff2); V must be unitary.
    """
    return _blockwise_passive(matrix_2x2, cutoff1, cutoff2).toarray()


def _blockwise_passive(v: np.ndarray, cutoff1: int, cutoff2: int) -> sp.csr_matrix:
    """Sparse Fock operator exp(-i G) of a unitary V, G = sum_ij h_ij a_i^dag a_j
    with h = i log V.  On the block of total photons n, G is tridiagonal over
    the states (m, n - m); conjugating by the phases exp(i k arg h_01) makes it
    real, and blocks of equal size share one batched eigendecomposition.  The
    log branch is centred on the determinant phase to keep h well conditioned.
    A diagonal V gives the exact phases V00^m V11^n."""
    if np.max(np.abs(v @ v.conj().T - np.eye(2))) > UNITARITY_TOL:
        raise ValueError(f"passive matrix is not unitary within {UNITARITY_TOL}")
    d2 = cutoff2 + 1
    dim = (cutoff1 + 1) * d2
    shape = (dim, dim)
    if v[0, 1] == 0 and v[1, 0] == 0:
        powers0 = np.cumprod(np.append(1, np.full(cutoff1, v[0, 0])))
        powers1 = np.cumprod(np.append(1, np.full(cutoff2, v[1, 1])))
        return sp.csr_matrix((np.outer(powers0, powers1).ravel(), np.arange(dim), np.arange(dim + 1)), shape=shape)
    eigvals, eigvecs = np.linalg.eig(v)
    centre = np.sqrt(eigvals[0] * eigvals[1])
    centre = centre if (eigvals / centre).real.sum() >= 0 else -centre
    h = -(eigvecs * (np.angle(centre) + np.angle(eigvals / centre))) @ np.linalg.inv(eigvecs)
    h = (h + h.conj().T) / 2
    m, n = np.divmod(np.arange(dim), d2)
    totals = np.arange(cutoff1 + cutoff2 + 1)
    lowest = np.maximum(0, totals - cutoff2)
    sizes = np.minimum(totals, cutoff1) - lowest + 1
    indptr = np.concatenate(([0], np.cumsum(sizes[m + n])))
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=np.int32)
    energy = h[0, 0].real * m + h[1, 1].real * n
    hop = abs(h[0, 1]) * np.sqrt((m + 1.0) * n)  # couples (m, n) to (m + 1, n - 1)
    k = np.arange(sizes.max())
    phases = np.exp(1j * np.angle(h[0, 1]) * (k[:, None] - k))
    for size in np.unique(sizes):
        ntot = totals[sizes == size, None]
        index = (lowest[ntot] + k[:size]) * cutoff2 + ntot  # (blocks, size) rows of the block states
        gen = np.zeros((ntot.size, size * size))
        gen[:, :: size + 1] = energy[index]
        gen[:, 1 :: size + 1] = gen[:, size :: size + 1] = hop[index[:, :-1]]
        energies, basis = np.linalg.eigh(gen.reshape(-1, size, size))
        blocks = (basis * np.exp(-1j * energies)[:, None, :]) @ basis.transpose(0, 2, 1)
        slots = indptr[index][:, :, None] + k[:size]
        data[slots] = blocks * phases[:size, :size]
        indices[slots] = index[:, None, :]
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def ideal_bs_unitary(spec: BeamSplitterSpec, register: ModeRegister, modes: tuple[str, str]) -> np.ndarray:
    """Full-register unitary of a lossless beam splitter on two modes."""
    if not spec.is_lossless:
        raise ValueError(f"spec has Gamma={spec.gamma:.3e} > 0; only lossless elements have a unitary")
    c1 = register.cutoffs[register.position(modes[0])]
    c2 = register.cutoffs[register.position(modes[1])]
    op = _blockwise_passive(spec.scattering_matrix, c1, c2)
    return lift_pair_operator(op, register, modes).toarray()


def dilate(spec: BeamSplitterSpec) -> np.ndarray:
    """4x4 unitary scattering matrix for system modes (1, 2) plus two vacuum
    environment modes (3, 4).

    Upper-left block is S; the environment coupling block B satisfies
    B B^dag = I - S S^dag, which is all the channel depends on.  A lossless
    spec decouples the environment exactly.
    """
    s = spec.scattering_matrix
    n = spec.noise_covariance
    if np.max(np.abs(n)) <= PSD_TOL:
        return np.block([[s, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    b = _psd_sqrt(n)
    c = _psd_sqrt(np.eye(2) - s.conj().T @ s)
    v = np.block([[s, b], [c, -s.conj().T]])
    defect = np.max(np.abs(v @ v.conj().T - np.eye(4)))
    if defect > 1e-10:
        raise ValueError(f"dilation completion failed, unitarity defect {defect:.3e}")
    return v


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -PSD_TOL:
        raise ValueError(f"matrix not positive semidefinite (min eigenvalue {vals[0]:.3e})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def lossy_bs_kraus(spec: BeamSplitterSpec, cutoff: int) -> KrausChannel:
    """Kraus operators of the lossy element on a two-mode space with the given
    per-mode cutoff.

    K_(j,k) collects the amplitude for the vacuum environment to end with
    (j, k) photons.  Completeness holds to float precision on all blocks with
    total photons <= cutoff; higher blocks lose the truncated components.
    """
    if spec.is_lossless:
        op = two_mode_unitary_matrix(spec.scattering_matrix, cutoff, cutoff)
        return KrausChannel([op], [(0, 0)], cutoff, spec)
    v = dilate(spec)
    dim = cutoff + 1
    budget = 2 * cutoff
    images = {}
    for m in range(dim):
        for n in range(dim):
            images[(m, n)] = _four_mode_image(v, m, n, budget)
    ops = []
    outcomes = []
    for j in range(budget + 1):
        for k in range(budget + 1 - j):
            kmat = np.zeros((dim * dim, dim * dim), dtype=complex)
            for (m, n), arr in images.items():
                kmat[:, m * dim + n] = arr[:dim, :dim, j, k].reshape(-1)
            if np.any(kmat):
                ops.append(kmat)
                outcomes.append((j, k))
    return KrausChannel(ops, outcomes, cutoff, spec)


def _four_mode_image(v: np.ndarray, m: int, n: int, budget: int) -> np.ndarray:
    """Amplitudes of U(V) |m, n, 0, 0> over the four-mode basis, as an array
    indexed (p, q, j, k) up to total photons m + n."""
    dim = budget + 1
    arr = np.zeros((dim, dim, dim, dim), dtype=complex)
    arr[0, 0, 0, 0] = 1.0
    sqrtn = np.sqrt(np.arange(1, dim))
    for col, count in ((1, n), (0, m)):
        for _ in range(count):
            new = np.zeros_like(arr)
            for i in range(4):
                coeff = v[i, col]
                if coeff == 0:
                    continue
                src = [slice(None)] * 4
                dst = [slice(None)] * 4
                src[i] = slice(0, dim - 1)
                dst[i] = slice(1, dim)
                shape = [1] * 4
                shape[i] = dim - 1
                new[tuple(dst)] += coeff * sqrtn.reshape(shape) * arr[tuple(src)]
            arr = new
    arr /= math.sqrt(math.factorial(m) * math.factorial(n))
    return arr


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
        w, svals, xh = np.linalg.svd(spec.scattering_matrix)
        state = _passive(state, xh, modes)
        for label, s in zip(modes, svals):
            state = _attenuate(state, label, min(float(s) ** 2, 1.0))
        state = _passive(state, w, modes)
    return state.to_density() if dense else state


def _passive(state: FactoredState, v: np.ndarray, modes: tuple[str, str]) -> FactoredState:
    reg = state.register
    c1 = reg.cutoffs[reg.position(modes[0])]
    c2 = reg.cutoffs[reg.position(modes[1])]
    op = lift_pair_operator(_blockwise_passive(v, c1, c2), reg, modes)
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
    amps = state.amplitudes.reshape(-1, d * post, state.rank)
    n = np.arange(d)
    k = n[:, None]
    # row k of the running product is C(n, k): prod_{j <= k} (n - j + 1) / j, zero once j > n
    comb = np.cumprod(np.where(k == 0, 1.0, np.maximum(n - k + 1, 0) / np.maximum(k, 1)), axis=0)
    amp_k = np.sqrt(comb * tau ** np.maximum(n - k, 0) * (1 - tau) ** k)
    population = (np.abs(amps.reshape(-1, d, post, state.rank)) ** 2).sum(axis=(0, 2, 3))
    branch_weight = amp_k**2 @ population
    keep = branch_weight > COMPRESSION_TOL * branch_weight.sum()
    kept = np.flatnonzero(keep)
    source = k + kept  # output photon number n of branch k reads input n + k
    clipped = np.minimum(source, d - 1)
    coeff = np.where(source < d, amp_k[kept, clipped], 0.0)
    gather = (clipped[:, None, :] * post + np.arange(post)[:, None]).reshape(-1)
    out = amps[:, gather].reshape(-1, d, post, kept.size, state.rank)
    out *= coeff[:, None, :, None]
    dropped = float(branch_weight[~keep].sum())
    return FactoredState(reg, out.reshape(reg.dim, -1), state.compression_error + dropped).compressed()


def lift_pair_operator(op, register: ModeRegister, modes: tuple[str, str]) -> sp.csr_matrix:
    """Embed a sparse operator on two modes (basis (n_a, n_b), second fastest)
    into the full register as a CSR matrix: each register row copies the row of
    ``op`` its (n_a, n_b) selects, shifted by the spectator modes' offset."""
    op = op.tocsr()
    ia, ib = register.position(modes[0]), register.position(modes[1])
    sa, sb = register.strides[ia], register.strides[ib]
    da, db = register.dims[ia], register.dims[ib]
    if op.shape[0] != da * db:
        raise ValueError("operator size does not match the selected modes")
    pa, qa = np.divmod(np.arange(da * db), db)
    core = pa * sa + qa * sb  # register offset of each two-mode basis state
    full = np.arange(register.dim)
    pair = (full // sa % da) * db + full // sb % db
    base = full - core[pair]
    row_nnz = np.diff(op.indptr)[pair]
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    source = np.repeat(op.indptr[pair] - indptr[:-1], row_nnz)  # entry of op each stored entry copies
    source += np.arange(indptr[-1])
    indices = core.astype(np.int32)[op.indices][source]
    indices += np.repeat(base.astype(np.int32), row_nnz)
    return sp.csr_matrix((op.data[source], indices, indptr), shape=(register.dim, register.dim))
