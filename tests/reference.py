"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's operator constructions:
beam-splitter unitaries come from scipy's expm of the two-mode generator, the
explicit Kraus set of a lossy element from its unitary dilation applied to
creation operators one photon at a time, operators are embedded in a register
with ``np.moveaxis``, and states and partial traces are plain dense numpy.
Agreement between this path and the package is a genuine cross-check, not a
tautology.  Only the package's containers (``BeamSplitterSpec``,
``DensityOperator``) and its PSD tolerance are reused.

Imports stay absolute: the benchmark loads this file by path.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from qscissors.channels import PSD_TOL, BeamSplitterSpec
from qscissors.fock import DensityOperator


def destroy(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def fock_unitary_from_2x2(v, d1, d2):
    """expm realization of the passive transformation with Heisenberg matrix v."""
    h = 1j * logm(v)
    a1 = np.kron(destroy(d1), np.eye(d2))
    a2 = np.kron(np.eye(d1), destroy(d2))
    ops = (a1, a2)
    gen = sum(h[i, j] * ops[i].conj().T @ ops[j] for i in range(2) for j in range(2))
    return expm(-1j * gen)


def fock_block_from_2x2(v, n):
    """expm realization of the n-photon block of the passive transformation with
    Heisenberg matrix v, on the states (i, n - i), i = 0..n."""
    h = 1j * logm(v)
    i = np.arange(n + 1)
    hop = np.sqrt((i[:-1] + 1.0) * (n - i[:-1]))  # <i + 1, n - i - 1| a1^dag a2 |i, n - i>
    gen = np.diag(h[0, 0] * i + h[1, 1] * (n - i)) + np.diag(h[0, 1] * hop, -1) + np.diag(h[1, 0] * hop, 1)
    return expm(-1j * gen)


def moveaxis_embedding(op, dims, ia, ib):
    """Dense register operator of a two-mode op: move modes (ia, ib) to the
    front of every basis vector, apply op, move them back."""
    dim = math.prod(dims)
    moved = np.moveaxis(np.eye(dim).reshape(tuple(dims) + (dim,)), (ia, ib), (0, 1))
    out = (op @ moved.reshape(dims[ia] * dims[ib], -1)).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (ia, ib)).reshape(dim, dim)


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

    def apply(self, rho: DensityOperator, modes: tuple) -> DensityOperator:
        """Apply the channel to two modes of a register state."""
        reg = rho.register
        for label in modes:
            if reg.cutoffs[reg.position(label)] != self.cutoff:
                raise ValueError(
                    f"mode {label!r} has cutoff {reg.cutoffs[reg.position(label)]}, "
                    f"channel was built for cutoff {self.cutoff}"
                )
        ia, ib = reg.position(modes[0]), reg.position(modes[1])
        out = np.zeros_like(rho.matrix)
        for k in self.operators:
            lifted = moveaxis_embedding(k, reg.dims, ia, ib)
            out += lifted @ rho.matrix @ lifted.conj().T
        return DensityOperator(reg, out, check=False)


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
    total photons <= cutoff; higher blocks lose the truncated components.  A
    lossless element has the single Kraus operator of its expm unitary.
    """
    if spec.is_lossless:
        op = fock_unitary_from_2x2(spec.scattering_matrix, cutoff + 1, cutoff + 1)
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


def attenuation_kraus(tau: float, cutoff: int) -> list:
    """Single-mode loss channel of transmissivity tau as Kraus matrices
    A_k |n> = sqrt(C(n,k) tau^(n-k) (1-tau)^k) |n-k>."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {tau}")
    dim = cutoff + 1
    ops = []
    for k in range(dim):
        a = np.zeros((dim, dim))
        for n in range(k, dim):
            a[n - k, n] = math.sqrt(math.comb(n, k) * tau ** (n - k) * (1 - tau) ** k)
        if np.any(a):
            ops.append(a)
    return ops


def coherent_vec(gamma, dim):
    n = np.arange(dim)
    amps = np.array(
        [gamma**k * math.exp(-abs(gamma) ** 2 / 2) / math.sqrt(math.factorial(k)) for k in n],
        dtype=complex,
    )
    return amps


def povm_diag(eta, clicks, dim):
    w = np.zeros(dim)
    for m in range(clicks, dim):
        w[m] = math.comb(m, clicks) * eta**clicks * (1 - eta) ** (m - clicks)
    return w


def apply_lossy_bs(rho, dims, pair, t, r):
    """Lossy splitter on two adjacent modes of a dense rho, via SVD of the
    scattering matrix into unitary / per-mode loss / unitary."""
    s = np.array([[t, r], [r, t]])
    w, svals, xh = np.linalg.svd(s)
    i, j = pair
    d1, d2 = dims[i], dims[j]

    def lift(op):
        before = int(np.prod(dims[:i])) if i > 0 else 1
        after = int(np.prod(dims[j + 1 :])) if j + 1 < len(dims) else 1
        return np.kron(np.kron(np.eye(before), op), np.eye(after))

    u_in = lift(fock_unitary_from_2x2(xh, d1, d2))
    u_out = lift(fock_unitary_from_2x2(w, d1, d2))
    rho = u_in @ rho @ u_in.conj().T
    for mode, sv in zip(pair, svals):
        tau = min(float(sv) ** 2, 1.0)
        dm = dims[mode]
        acc = np.zeros_like(rho)
        for a in attenuation_kraus(tau, dm - 1):
            before = int(np.prod(dims[:mode])) if mode > 0 else 1
            after = int(np.prod(dims[mode + 1 :])) if mode + 1 < len(dims) else 1
            al = np.kron(np.kron(np.eye(before), a), np.eye(after))
            acc += al @ rho @ al.conj().T
        rho = acc
    return u_out @ rho @ u_out.conj().T


def trace_keep_first(rho, dims):
    """Partial trace keeping only the first mode."""
    d0 = dims[0]
    rest = int(np.prod(dims[1:]))
    t = rho.reshape(d0, rest, d0, rest)
    return np.einsum("irjr->ij", t)


def reference_scissors(eta, gamma_bs, drive_gamma, n_drive):
    """Full scissors stage on modes (c, d, e): returns (rho_c, probability,
    fidelity against the normalized zero/one-photon drive target)."""
    budget = n_drive + 1
    dims = [2, budget + 1, budget + 1]
    tt = math.sqrt((1 - gamma_bs) / 2)
    t, r = tt, 1j * tt

    rho_cd = np.zeros((2 * (budget + 1),) * 2, dtype=complex)
    idx = 1 * (budget + 1) + 0
    rho_cd[idx, idx] = 1.0
    rho_cd = apply_lossy_bs(rho_cd, [2, budget + 1], (0, 1), t, r)

    ce = np.zeros(budget + 1, dtype=complex)
    ce[: n_drive + 1] = coherent_vec(drive_gamma, n_drive + 1)
    rho = np.kron(rho_cd, np.outer(ce, ce.conj()))
    rho = apply_lossy_bs(rho, dims, (1, 2), t, r)

    wd = povm_diag(eta, 1, budget + 1)
    we = povm_diag(eta, 0, budget + 1)
    w = np.kron(np.ones(2), np.kron(wd, we))
    prob = float(np.sum(w * np.diag(rho).real))
    sw = np.sqrt(w)
    weighted = rho * np.outer(sw, sw)
    rho_c = trace_keep_first(weighted, dims) / prob

    g0 = math.exp(-abs(drive_gamma) ** 2 / 2)
    g1 = g0 * drive_gamma
    tgt = np.array([g0, g1], dtype=complex)
    tgt /= np.linalg.norm(tgt)
    fid = float(np.real(tgt.conj() @ rho_c @ tgt))
    return rho_c, prob, fid


def closed_form_scissors_fidelity(eta, gamma_bs, drive_gamma):
    """Hand-derived closed form for the scissors fidelity with a balanced
    lossy element and efficiency-eta counters (validated against the expm
    reference above)."""
    lam = abs(drive_gamma) ** 2
    d = eta * gamma_bs + 1 - eta
    xi2 = (1 - gamma_bs) / 2
    num = xi2 * (1 + lam * d + lam**2 + 2 * lam) + lam * gamma_bs
    den = (1 + lam) * (xi2 * (1 + lam * d + lam) + lam * gamma_bs)
    return num / den


def closed_form_teleport_stage(eta, c0, c1):
    """Hand-derived lossless-splitter teleport stage with efficiency-eta
    counters: returns (probability, fidelity) for a pure qubit input."""
    d = 1 - eta
    p = (eta / 4) * (1 + 2 * d * abs(c1) ** 2)
    f = (1 + 2 * d * abs(c0 * c1) ** 2) / (1 + 2 * d * abs(c1) ** 2)
    return p, f


def corrected_scissors_fidelity(eta, gamma_bs, ratio, r_sq):
    """Eq. 16 with the bracket of the printed Eq. 15,
    x' = eta G + G/|r|^2 + 1 - eta, in place of the printed
    x = 1 - eta (1+G^2)/(1-G):  F = 1 - x'/((1+R)(1+R+x')).
    At Gamma = 0, x' = 1 - eta and this is criterion 08b's corrected form."""
    x = eta * gamma_bs + gamma_bs / r_sq + 1 - eta
    return 1 - x / ((1 + ratio) * (1 + ratio + x))


def corrected_teleport_fidelity(eta, gamma_bs, ratio):
    """Eq. 20 with the (R + x)/R factor of the printed normalization N_eq180,
    x = 4/(1-G) - 3 eta (1-G), in place of the printed 1 + R x:
    F = 1 - (x-1)/((1+R)(R+x)).  The two agree only at R = 1."""
    x = 4 / (1 - gamma_bs) - 3 * eta * (1 - gamma_bs)
    return 1 - (x - 1) / ((1 + ratio) * (ratio + x))
