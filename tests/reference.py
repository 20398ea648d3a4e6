"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's operator constructions:
beam-splitter unitaries come from scipy's expm of the two-mode generator,
states and partial traces from plain dense numpy.  Agreement between this path
and the package is a genuine cross-check, not a tautology.
"""

import math

import numpy as np
from scipy.linalg import expm, logm


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
