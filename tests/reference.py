"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's operator constructions:
beam-splitter unitaries come from scipy's expm of the two-mode generator, the
explicit Kraus set of a lossy element from its unitary dilation applied to
creation operators one photon at a time, operators are embedded in a register
with ``np.moveaxis``, and states and partial traces are plain dense numpy.
Agreement between this path and the package is a genuine cross-check, not a
tautology.  Only the package's containers (``BeamSplitterSpec``,
``DensityOperator``) and its PSD tolerance are reused.  The Bell-branch
algebra of the ideal teleporter and the vacuum Wick moment, oracles that only
the tests use, also live here; they build on the package's Fock vectors and
Bell states.  So do plain-numpy readers of the package's containers that only
tests need: amplitudes, populations, overlaps, normalization, Kronecker products
of pure vectors, the dense form of a pure vector, the JSON loaders, a
splitter's noise covariance, a drive's zero/one-photon weight, a qubit's phase
flip, and the eigenvalue check of a density operator's physicality; and the
inputs several test modules share: random physical splitters, random states,
a mixed qubit, the product of two splitters, the beam-splitter-and-ancilla
model of a counter, and the brute-force Wick moment.  Nothing here names the
Fock engine's internals, which only the engine tests (``test_fock_engine.py`` and
the ``fock_engine`` tests of ``test_channels.py``) test.

Imports stay absolute: the benchmark loads this file by path.  scipy is
imported only inside the two functions that call ``expm``/``logm``, so loading
the file for its closed forms keeps scipy out of the process.
"""

import math
from dataclasses import dataclass

import numpy as np

from qscissors.analytic import NoiseParams
from qscissors.apparatus import QubitAmplitudes, bell_states
from qscissors.channels import PSD_TOL, BeamSplitterSpec
from qscissors.fock import (
    HERMITICITY_TOL,
    NORM_SLACK,
    POSITIVITY_TOL,
    DensityOperator,
    FockVector,
    ModeRegister,
)


def amplitude(x: FockVector, occupation: tuple) -> complex:
    """The amplitude of one occupation tuple."""
    return complex(x.amplitudes[x.register.index(occupation)])


def normalized(x: FockVector) -> FockVector:
    n = x.norm()
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return FockVector(x.register, x.amplitudes / n)


def phase_flipped(qubit: QubitAmplitudes) -> QubitAmplitudes:
    return QubitAmplitudes(qubit.c0, -qubit.c1)


def hermiticity_defect(rho: DensityOperator) -> float:
    return float(np.max(np.abs(rho.matrix - rho.matrix.conj().T)))


def min_eigenvalue(rho: DensityOperator) -> float:
    return float(np.linalg.eigvalsh(rho.matrix)[0])


def assert_physical(rho: DensityOperator, positivity_tol: float = POSITIVITY_TOL):
    """Raise if Hermiticity, positivity, or the trace bound is violated."""
    defect = hermiticity_defect(rho)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL}")
    lo = min_eigenvalue(rho)
    if lo < -positivity_tol:
        raise ValueError(f"minimum eigenvalue {lo:.3e} below -{positivity_tol}")
    tr = rho.trace()
    if not -NORM_SLACK <= tr <= 1.0 + NORM_SLACK:
        raise ValueError(f"trace {tr} outside [0, 1]")


def total_photons(register: ModeRegister) -> np.ndarray:
    """Total photon number of each basis state, shape (dim,)."""
    return register.occupations().sum(axis=1)


def overlap(x: FockVector, y: FockVector) -> complex:
    """<x|y> of two vectors on the same register."""
    if x.register != y.register:
        raise ValueError(f"register mismatch: {x.register} vs {y.register}")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def kron(x: FockVector, y: FockVector) -> FockVector:
    """x (x) y in the package's basis order, x's modes first."""
    reg = ModeRegister(x.register.labels + y.register.labels, x.register.cutoffs + y.register.cutoffs)
    return FockVector(reg, np.kron(x.amplitudes, y.amplitudes))


def pure_density(x: FockVector) -> DensityOperator:
    """|x><x| of a pure vector, checked as any DensityOperator is."""
    return DensityOperator(x.register, np.outer(x.amplitudes, x.amplitudes.conj()))


def random_physical_specs(count, seed=11):
    """Sample beam-splitter specs whose noise covariance is PSD."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        t = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
        r = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
        scale = rng.uniform(0.7, 1.0) / max(1e-9, math.sqrt(abs(t) ** 2 + abs(r) ** 2))
        t, r = t * scale, r * scale
        gamma = 1 - abs(t) ** 2 - abs(r) ** 2
        omega = 2 * (t * np.conj(r)).real
        if gamma >= abs(omega):
            specs.append(BeamSplitterSpec(t, r))
    return specs


def random_retained_state(reg, seed, block_max):
    """Random density operator supported on total-photon blocks <= block_max."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    mat = mat @ mat.conj().T
    keep = total_photons(reg) <= block_max
    mat[~keep, :] = 0.0
    mat[:, ~keep] = 0.0
    mat /= np.trace(mat).real
    return DensityOperator(reg, mat)


def composed(s1: BeamSplitterSpec, s2: BeamSplitterSpec) -> BeamSplitterSpec:
    """The one element of scattering matrix T = S2 S1."""
    return BeamSplitterSpec(s2.t * s1.t + s2.r * s1.r, s2.t * s1.r + s2.r * s1.t)


def mixed_input() -> DensityOperator:
    """A fixed mixed qubit on mode c, the teleporter's density input."""
    reg = ModeRegister(("c",), (1,))
    return DensityOperator(reg, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))


def norm_C2(params: NoiseParams) -> float:
    """Combined zero/one-photon weight of the drive, |C|^2 = e^(-|g|^2) (1 + |g|^2)."""
    lam = params.gamma_amp**2
    return math.exp(-lam) * (1.0 + lam)


def population(rho: DensityOperator, occupation: tuple) -> float:
    """<n|rho|n> of one occupation tuple."""
    i = rho.register.index(occupation)
    return float(rho.matrix[i, i].real)


def mode_population_above(rho: DensityOperator, label: str, n: int) -> float:
    """Total probability of finding more than n photons in one mode."""
    occ = rho.register.occupations()[:, rho.register.position(label)]
    return float(np.diag(rho.matrix).real[occ > n].sum())


def _register_from_json(data: dict) -> ModeRegister:
    return ModeRegister(tuple(data["register"]["labels"]), tuple(data["register"]["cutoffs"]))


def vector_from_json_dict(data: dict) -> FockVector:
    """Inverse of ``FockVector.to_json_dict``."""
    return FockVector(_register_from_json(data), np.array([complex(re, im) for re, im in data["amplitudes"]]))


def density_from_json_dict(data: dict) -> DensityOperator:
    """Inverse of ``DensityOperator.to_json_dict``."""
    reg = _register_from_json(data)
    flat = np.array([complex(re, im) for re, im in data["matrix"]])
    return DensityOperator(reg, flat.reshape(reg.dim, reg.dim))


def noise_covariance(spec: BeamSplitterSpec) -> np.ndarray:
    """N = I - S S^dag, the splitter's noise covariance."""
    s = spec.scattering_matrix
    return np.eye(2) - s @ s.conj().T


def destroy(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def fock_unitary_from_2x2(v, d1, d2):
    """expm realization of the passive transformation with Heisenberg matrix v."""
    from scipy.linalg import expm, logm

    h = 1j * logm(v)
    a1 = np.kron(destroy(d1), np.eye(d2))
    a2 = np.kron(np.eye(d1), destroy(d2))
    ops = (a1, a2)
    gen = sum(h[i, j] * ops[i].conj().T @ ops[j] for i in range(2) for j in range(2))
    return expm(-1j * gen)


def fock_block_from_2x2(v, n):
    """expm realization of the n-photon block of the passive transformation with
    Heisenberg matrix v, on the states (i, n - i), i = 0..n."""
    from scipy.linalg import expm, logm

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
    n = noise_covariance(spec)
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


def bs_ancilla_click_probability(state_vec, eta, clicks, cutoff):
    """Oracle: mix the signal with a vacuum ancilla on a lossless splitter of amplitude
    transmissivity sqrt(eta), its expm unitary, then project the transmitted port on a
    photon count with a perfect counter.  No input total exceeds the cutoff, so nothing
    is truncated."""
    t, r = math.sqrt(eta), 1j * math.sqrt(1 - eta)
    dim = cutoff + 1
    u = fock_unitary_from_2x2(np.array([[t, r], [r, t]]), dim, dim)
    ancilla = np.zeros(dim)
    ancilla[0] = 1.0
    out = (u @ np.kron(state_vec.amplitudes, ancilla)).reshape(dim, dim)
    return float(np.sum(np.abs(out[clicks]) ** 2))


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


def trace_keep(rho, dims, keep=(0,)):
    """Partial trace of a dense matrix over modes of sizes ``dims``, keeping the
    modes at positions ``keep`` in that order: a traced mode shares one einsum
    index between the row and the column side."""
    n = len(dims)
    rows, cols = list(range(n)), list(range(n, 2 * n))
    for i in set(range(n)) - set(keep):
        cols[i] = rows[i]
    d = math.prod(dims[i] for i in keep)
    out = np.einsum(rho.reshape(tuple(dims) * 2), rows + cols, [rows[i] for i in keep] + [cols[i] for i in keep])
    return out.reshape(d, d)


def reference_scissors(eta, gamma_bs, drive_gamma, n_drive, clicks=(1, 0), spec=None):
    """Full scissors stage on modes (c, d, e), with the drive truncated at
    ``n_drive`` photons and counts ``clicks`` on (d, e): returns (rho_c,
    probability, fidelity against the normalized zero/one-photon drive
    target).  Both splitters are the balanced element of damping
    ``gamma_bs``, or ``spec``'s (t, r) when it is given."""
    budget = n_drive + 1
    dims = [2, budget + 1, budget + 1]
    tt = math.sqrt((1 - gamma_bs) / 2)
    t, r = (tt, 1j * tt) if spec is None else (spec.t, spec.r)

    rho_cd = np.zeros((2 * (budget + 1),) * 2, dtype=complex)
    idx = 1 * (budget + 1) + 0
    rho_cd[idx, idx] = 1.0
    rho_cd = apply_lossy_bs(rho_cd, [2, budget + 1], (0, 1), t, r)

    ce = np.zeros(budget + 1, dtype=complex)
    ce[: n_drive + 1] = coherent_vec(drive_gamma, n_drive + 1)
    rho = np.kron(rho_cd, np.outer(ce, ce.conj()))
    rho = apply_lossy_bs(rho, dims, (1, 2), t, r)

    wd = povm_diag(eta, clicks[0], budget + 1)
    we = povm_diag(eta, clicks[1], budget + 1)
    w = np.kron(np.ones(2), np.kron(wd, we))
    prob = float(np.sum(w * np.diag(rho).real))
    sw = np.sqrt(w)
    weighted = rho * np.outer(sw, sw)
    rho_c = trace_keep(weighted, dims) / prob

    g0 = math.exp(-abs(drive_gamma) ** 2 / 2)
    g1 = g0 * drive_gamma
    tgt = np.array([g0, g1], dtype=complex)
    tgt /= np.linalg.norm(tgt)
    fid = float(np.real(tgt.conj() @ rho_c @ tgt))
    return rho_c, prob, fid


def reference_teleport(eta, spec1, spec2, rho_c, clicks):
    """Full teleport stage on modes (a, b, c) at cutoffs (1, 2, 2): a photon on a
    meets vacuum on b at ``spec1``, then b meets the 2x2 input ``rho_c`` on c at
    ``spec2``, and efficiency-eta counters register ``clicks`` on (b, c).  At most
    two photons reach (b, c), so nothing is truncated.  Returns the sub-normalized
    conditional state of a, whose trace is the outcome probability."""
    dims = [2, 3, 3]
    rho_ab = np.zeros((6, 6), dtype=complex)
    rho_ab[3, 3] = 1.0  # |1, 0> on (a, b)
    rho_ab = apply_lossy_bs(rho_ab, dims[:2], (0, 1), spec1.t, spec1.r)
    padded = np.zeros((3, 3), dtype=complex)
    padded[:2, :2] = rho_c
    rho = apply_lossy_bs(np.kron(rho_ab, padded), dims, (1, 2), spec2.t, spec2.r)
    w = np.kron(np.ones(2), np.kron(povm_diag(eta, clicks[0], 3), povm_diag(eta, clicks[1], 3)))
    sw = np.sqrt(w)
    return trace_keep(rho * np.outer(sw, sw), dims)


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
    qubit is resolved numerically from the package's fixed conventions (it is the
    psi_plus branch), not assumed.
    """
    joint = kron(ideal_channel(("a", "b")), qubit.as_vector("c"))
    reg = joint.register
    a_reg = ModeRegister(("a",), (1,))
    branches = []
    for label, bell in bell_states().items():
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
        piece = kron(branch.conditional, bells[branch.label])
        total = piece.amplitudes if total is None else total + piece.amplitudes
    return FockVector(ModeRegister(("a", "b", "c"), (1, 1, 1)), total)


def wick_moment(n: int, m: int, d: float) -> float:
    """Vacuum moment <L^n L^dag^m> of a noise operator with [L, L^dag] = d:
    delta_nm n! d^n."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    if d < 0:
        raise ValueError("d must be non-negative")
    if n != m:
        return 0.0
    return math.factorial(n) * d**n


def wick_bruteforce(n: int, m: int, d: "Fraction") -> "Fraction":
    """Independent oracle: normal-order L^n L^dag^m over vacuum by repeatedly
    commuting L through, using only [L, L^dag] = d and L|0> = 0.

    A state sum_k c_k L^dag^k |0> is a dict {k: c_k}; applying L maps
    L^dag^k |0> to k d L^dag^(k-1) |0>.  ``fractions`` is imported here, so
    loading the file for its closed forms does not import it.
    """
    from fractions import Fraction

    state = {m: Fraction(1)}
    for _ in range(n):
        new = {}
        for power, coeff in state.items():
            if power > 0:
                new[power - 1] = new.get(power - 1, Fraction(0)) + coeff * power * d
        state = new
    return state.get(0, Fraction(0))
