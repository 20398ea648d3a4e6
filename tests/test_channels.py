import math

import numpy as np
import pytest

from qscissors.apparatus import bell_states
from qscissors.channels import (
    BeamSplitterSpec,
    PairOperator,
    _attenuate,
    _blockwise_passive,
    DetectorSpec,
    apply_bs_channel,
    detector_povm,
    lift_pair_operator,
)
from qscissors.fock import DensityOperator, FactoredState, FockVector, ModeRegister, basis_ket, pad_cutoffs

from .reference import (
    apply_lossy_bs,
    assert_physical,
    bs_ancilla_click_probability,
    dilate,
    fock_block_from_2x2,
    fock_unitary_from_2x2,
    lossy_bs_kraus,
    moveaxis_embedding,
    noise_covariance,
    population,
    pure_density,
    random_physical_specs,
    random_retained_state,
    total_photons,
)

SQ2 = math.sqrt(2)


# The tests marked fock_engine check the engine's passive blocks, lift and loss;
# they and these helpers go when the engine does.


def to_density(state: FockVector | FactoredState) -> DensityOperator:
    """|x><x| of a pure vector (checked), or psi psi^dag of a factor (unchecked, as the engine's)."""
    if isinstance(state, FockVector):
        return DensityOperator(state.register, np.outer(state.amplitudes, state.amplitudes.conj()))
    return DensityOperator(state.register, state.amplitudes @ state.amplitudes.conj().T, check=False)


def ideal_bs_unitary(spec, register, modes):
    """Full-register unitary of a lossless splitter on two modes: its blocks, lifted."""
    if not spec.is_lossless:
        raise ValueError(f"spec has Gamma={spec.gamma:.3e} > 0; only lossless elements have a unitary")
    c1, c2 = (register.cutoffs[register.position(label)] for label in modes)
    op = _blockwise_passive(spec.scattering_matrix, c1, c2)
    return lift_pair_operator(op, register, modes) @ np.eye(register.dim)


def pair_matrix(op):
    """Dense (d1 * d2) x (d1 * d2) matrix of a PairOperator (basis (n1, n2), second fastest)."""
    return op.apply(np.eye(math.prod(op.dims))[None])[0]


def two_mode_unitary_matrix(v, cutoff1, cutoff2):
    """Dense pair matrix of a passive V: exact on every total within both cutoffs, zero on the rest."""
    return pair_matrix(_blockwise_passive(v, cutoff1, cutoff2))


def block_states(op, s):
    """The pair indices of a block's states, read through its slice."""
    return np.arange(math.prod(op.dims))[s]


# ---------------------------------------------------------------- specs


def test_spec_gamma_and_omega():
    spec = BeamSplitterSpec(0.6, 0.6j)
    assert spec.gamma == pytest.approx(0.28)
    assert spec.omega == pytest.approx(0.0, abs=1e-15)
    n = noise_covariance(spec)
    assert np.allclose(n, np.diag([0.28, 0.28]))


def test_spec_rejects_gamma_below_omega():
    # Gamma = 0.28 < Omega = 0.72: noise covariance has a negative eigenvalue
    with pytest.raises(ValueError, match="positive semidefinite"):
        BeamSplitterSpec(0.6, 0.6)


def test_spec_rejects_over_unity_throughput():
    with pytest.raises(ValueError, match="unphysical"):
        BeamSplitterSpec(0.9, 0.9j)


def test_spec_rejects_non_finite_amplitudes():
    # NaN passes both bounds above: every comparison with it is false
    with pytest.raises(ValueError, match=r"^t = \(nan\+0j\) and r = \(0\.5\+0j\) must be finite$"):
        BeamSplitterSpec(float("nan"), 0.5)


def test_lossless_spec_has_zero_omega():
    spec = BeamSplitterSpec.ideal_5050()
    assert spec.gamma == pytest.approx(0.0, abs=1e-15)
    assert spec.omega == pytest.approx(0.0, abs=1e-15)


def test_lossy_5050_convention():
    spec = BeamSplitterSpec.lossy_5050(0.02)
    assert abs(spec.t) == pytest.approx(abs(spec.r))
    assert 2 * abs(spec.t) ** 2 == pytest.approx(0.98)
    assert spec.gamma == pytest.approx(0.02)


def test_detector_spec_range():
    DetectorSpec(0.0)
    DetectorSpec(1.0)
    with pytest.raises(ValueError, match="eta"):
        DetectorSpec(1.2)


# ---------------------------------------------------------------- ideal unitary


@pytest.mark.fock_engine
def test_ideal_bs_single_photon():
    reg = ModeRegister(("c", "d"), (1, 1))
    u = ideal_bs_unitary(BeamSplitterSpec.ideal_5050(), reg, ("c", "d"))
    out = u @ basis_ket(reg, (1, 0)).amplitudes
    assert out[reg.index((1, 0))] == pytest.approx(1 / SQ2)
    assert out[reg.index((0, 1))] == pytest.approx(1j / SQ2)


@pytest.mark.fock_engine
def test_ideal_bs_vacuum_invariance():
    reg = ModeRegister(("c", "d"), (2, 2))
    for spec in random_physical_specs(3, seed=5):
        if not spec.is_lossless:
            continue
        u = ideal_bs_unitary(spec, reg, ("c", "d"))
        out = u @ basis_ket(reg, (0, 0)).amplitudes
        assert out[reg.index((0, 0))] == pytest.approx(1.0)


@pytest.mark.fock_engine
def test_ideal_bs_two_photon_interference():
    # |1,1> -> (i/sqrt2)(|20> + |02>): both photons bunch
    reg = ModeRegister(("c", "d"), (2, 2))
    u = ideal_bs_unitary(BeamSplitterSpec.ideal_5050(), reg, ("c", "d"))
    out = u @ basis_ket(reg, (1, 1)).amplitudes
    assert out[reg.index((2, 0))] == pytest.approx(1j / SQ2)
    assert out[reg.index((0, 2))] == pytest.approx(1j / SQ2)
    assert abs(out[reg.index((1, 1))]) < 1e-14


@pytest.mark.fock_engine
def test_ideal_bs_rejects_lossy_spec():
    reg = ModeRegister(("c", "d"), (1, 1))
    with pytest.raises(ValueError, match="Gamma"):
        ideal_bs_unitary(BeamSplitterSpec.lossy_5050(0.1), reg, ("c", "d"))


@pytest.mark.fock_engine
def test_ideal_bs_blockwise_unitary_and_number_conserving():
    cutoff = 5
    reg = ModeRegister(("x", "y"), (cutoff, cutoff))
    u = ideal_bs_unitary(BeamSplitterSpec.ideal_5050(), reg, ("x", "y"))
    totals = total_photons(reg)
    for n in range(cutoff + 1):
        block = totals == n
        sub = u[np.ix_(block, block)]
        assert np.max(np.abs(sub.conj().T @ sub - np.eye(sub.shape[0]))) < 1e-12
    # no matrix element connects different totals
    off = u[np.ix_(totals == 2, totals == 3)]
    assert np.max(np.abs(off)) == 0.0


@pytest.mark.fock_engine
def test_general_passive_matrix_matches_expm_reference():
    from .reference import fock_unitary_from_2x2

    rng = np.random.default_rng(2)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v, _ = np.linalg.qr(z)
    mine = two_mode_unitary_matrix(v, 4, 4)
    ref = fock_unitary_from_2x2(v, 5, 5)
    # blocks with total <= 4 are exact; the reference truncates identically there
    reg = ModeRegister(("x", "y"), (4, 4))
    keep = total_photons(reg) <= 4
    assert np.max(np.abs(mine[np.ix_(keep, keep)] - ref[np.ix_(keep, keep)])) < 1e-10


@pytest.mark.fock_engine
@pytest.mark.parametrize("cutoff", [26, 37, 52, 87])
def test_passive_build_retained_blocks_stay_unitary(cutoff):
    # the W factor the lossy channel applies; the blocks are read straight
    # from the block operator (a dense cutoff-87 matrix would need 960 MB)
    w = BeamSplitterSpec.lossy_5050(0.02).factors[1]
    op = _blockwise_passive(w, cutoff, cutoff)
    retained = []
    for s, block in op.blocks:
        index = block_states(op, s)
        total = index[0] // (cutoff + 1) + index[0] % (cutoff + 1)
        if total <= cutoff:
            retained.append((int(total), block))
    assert sorted(n for n, _ in retained) == list(range(cutoff + 1))
    for n, block in retained:
        defect = np.max(np.abs(block.conj().T @ block - np.eye(n + 1)))
        assert defect <= 1e-13, f"block {n}: unitarity defect {defect:.2e}"


@pytest.mark.fock_engine
def test_passive_build_rejects_non_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        _blockwise_passive(BeamSplitterSpec.lossy_5050(0.02).scattering_matrix, 3, 3)
    with pytest.raises(ValueError, match="not unitary"):
        _blockwise_passive(np.eye(2) * (1 + 1e-11), 3, 3)


def assert_zero_beyond(mine, retained):
    """P_(<=low) U: every state outside ``retained`` maps to zero, and none maps into it."""
    assert not mine[~retained].any() and not mine[:, ~retained].any()


@pytest.mark.fock_engine
@pytest.mark.parametrize("cutoffs", [(3, 6), (6, 2)])
def test_passive_build_at_unequal_cutoffs_matches_expm_reference(cutoffs):
    # unequal cutoffs: only the totals within the smaller cutoff are kept
    from .reference import fock_unitary_from_2x2

    reg = ModeRegister(("x", "y"), cutoffs)
    retained = total_photons(reg) <= min(cutoffs)
    rng = np.random.default_rng(4)
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    mine = pair_matrix(_blockwise_passive(v, *cutoffs))
    ref = fock_unitary_from_2x2(v, *reg.dims)
    assert np.max(np.abs(mine - ref)[np.ix_(retained, retained)]) < 1e-10
    assert_zero_beyond(mine, retained)


@pytest.mark.fock_engine
@pytest.mark.parametrize("cutoffs", [(3, 6), (6, 2)])
def test_passive_build_of_diagonal_matrix_is_exact_phases(cutoffs):
    # numpy's SVD of a balanced splitter has a diagonal X^dag with a sign, diag(-1, 1)
    _, _, xh = np.linalg.svd(BeamSplitterSpec.lossy_5050(0.1).scattering_matrix)
    m, n = np.divmod(np.arange((cutoffs[0] + 1) * (cutoffs[1] + 1)), cutoffs[1] + 1)
    for v in (np.diag([1j, -1]), xh):
        op = _blockwise_passive(v, *cutoffs)
        assert op.nnz == (cutoffs[0] + 1) * (cutoffs[1] + 1)
        expected = [v[0, 0] ** int(a) * v[1, 1] ** int(b) for a, b in zip(m, n)]
        assert np.array_equal(op.phases, expected)


def closed_form_log_cases():
    """Edge-case unitaries: zero trace, det V = -1 in a real dtype, and a near-diagonal V,
    each where i log V would need a choice of branch."""
    cases = {}
    for gamma in (0.02, 0.1, 0.137, 0.2):
        # numpy's SVD factor W of a balanced splitter; its trace is zero at the first three
        cases[f"W(Gamma={gamma})"] = np.linalg.svd(BeamSplitterSpec.lossy_5050(gamma).scattering_matrix)[0]
    cases["reflection"] = np.array([[0.6, 0.8], [0.8, -0.6]])  # det V = -1, real dtype
    rotation = np.array([[math.cos(1e-9), -math.sin(1e-9)], [math.sin(1e-9), math.cos(1e-9)]])
    cases["near-diagonal"] = rotation @ np.diag(np.exp([0.3j, -0.7j])) @ rotation.T
    return cases


@pytest.mark.fock_engine
@pytest.mark.parametrize("name", list(closed_form_log_cases()))
@pytest.mark.parametrize("cutoffs", [(4, 4), (3, 6), (6, 2)])
def test_passive_build_closed_form_log_edge_cases(name, cutoffs):
    v = closed_form_log_cases()[name]
    reg = ModeRegister(("x", "y"), cutoffs)
    retained = total_photons(reg) <= min(cutoffs)
    op = _blockwise_passive(v, *cutoffs)
    mine = pair_matrix(op)
    ref = fock_unitary_from_2x2(v, *reg.dims)
    assert np.max(np.abs(mine - ref)[np.ix_(retained, retained)]) < 1e-10
    assert_zero_beyond(mine, retained)
    for _, block in op.blocks:
        eye = np.eye(block.shape[-1])
        assert np.max(np.abs(block.conj().T @ block - eye)) <= 1e-13


def recurrence_cases():
    """The W factor of a lossy splitter, the ideal 50/50 splitter and three random unitaries."""
    cases = {
        "W": BeamSplitterSpec.lossy_5050(0.1).factors[1],
        "ideal 50/50": BeamSplitterSpec.ideal_5050().scattering_matrix,
    }
    rng = np.random.default_rng(21)
    for j in range(3):
        cases[f"random {j}"] = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    return cases


@pytest.mark.fock_engine
@pytest.mark.parametrize("cutoff", [26, 87, 200, 404])
@pytest.mark.parametrize("name", list(recurrence_cases()))
def test_recurrence_blocks_match_expm_reference_and_stay_unitary(name, cutoff):
    # Equal cutoffs keep the recurrence blocks up to the cutoff.  Block n represents V exactly,
    # so it inherits n times V's own float defect (0 to 4.4e-16 here, up to 1.8e-13
    # at n = 404); the rounding of the recurrence itself must stay within 1e-13.
    # Every block is checked at cutoff 26, a sample with the largest one above it
    v = recurrence_cases()[name]
    own = np.linalg.norm(v.conj().T @ v - np.eye(2), 2)
    op = _blockwise_passive(v, cutoff, cutoff)
    assert len(op.blocks) == cutoff + 1
    for n in range(cutoff + 1) if cutoff == 26 else (0, 1, cutoff // 2, cutoff):
        s, block = op.blocks[n]
        index = block_states(op, s)
        i = np.arange(n + 1)
        assert np.array_equal(index, i * (cutoff + 1) + n - i)
        defect = np.max(np.abs(block.conj().T @ block - np.eye(n + 1)))
        assert defect <= 1e-13 + n * own, f"block {n}: unitarity defect {defect:.2e}"
        assert np.max(np.abs(block - fock_block_from_2x2(v, n))) <= 1e-12, f"block {n}"


UNBALANCED_SPECS = [BeamSplitterSpec(0.7, 0.1), BeamSplitterSpec(0.3, 0.8j)]


@pytest.mark.fock_engine
@pytest.mark.parametrize("spec", [BeamSplitterSpec.lossy_5050(0.02)] + UNBALANCED_SPECS + random_physical_specs(6, seed=17))
def test_store_transmissivities_are_the_squared_singular_values(spec):
    # the closed form |t +- r|^2, in svd's descending order
    assert np.max(np.abs(np.array(spec.taus) - np.linalg.svd(spec.scattering_matrix)[1] ** 2)) <= 1e-15
    assert list(spec.taus) == sorted(spec.taus, reverse=True)


@pytest.mark.fock_engine
def test_balanced_splitter_transmissivities_are_equal_bit_for_bit():
    for gamma in (0.02, 0.1, 0.137, 0.5):
        taus = BeamSplitterSpec.lossy_5050(gamma).taus
        assert taus[0] == taus[1]


@pytest.mark.fock_engine
@pytest.mark.parametrize(
    "spec",
    [BeamSplitterSpec.lossy_5050(0.1), BeamSplitterSpec(0.6, 0.5j), BeamSplitterSpec(0.5, 0.5)]
    + UNBALANCED_SPECS
    + random_physical_specs(6, seed=17),
)
def test_closed_form_factors_are_an_svd_of_the_scattering_matrix(spec):
    # S = W diag(s) X^dag with W and X^dag unitary and s^2 = taus; equal singular values
    # (t r* + r t* = 0) give X^dag = I and W = S / s exactly.  (0.5, 0.5) has s = (1, 0)
    xh, w = spec.factors
    s = np.sqrt(spec.taus)
    assert np.max(np.abs(w * s @ xh - spec.scattering_matrix)) <= 1e-15
    for v in (w, xh):
        assert np.max(np.abs(v @ v.conj().T - np.eye(2))) <= 1e-15
    if spec.omega == 0:
        assert np.array_equal(xh, np.eye(2)) and np.array_equal(w, spec.scattering_matrix / s[0])


@pytest.mark.fock_engine
@pytest.mark.parametrize("cutoffs", [(4, 4), (3, 6), (6, 2)])
@pytest.mark.parametrize("extra", [0, 2, None])
def test_strided_blocks_match_expm_reference_through_the_embedding(cutoffs, extra):
    # factors supported up to the smaller cutoff, two above it, and on every total: the
    # operator keeps the totals within the smaller cutoff and maps the factor's other
    # totals to zero.  The pair (z, x) is reversed and not adjacent
    c_z, c_x = cutoffs
    reg = ModeRegister(("x", "s", "z"), (c_x, 1, c_z))
    iz, ix = reg.position("z"), reg.position("x")
    rng = np.random.default_rng(40 + c_z)
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    near_identity = (v * np.exp(-1j * rng.uniform(-1.5, 1.5, 2))) @ v.conj().T
    support = c_z + c_x if extra is None else min(cutoffs) + extra
    op = _blockwise_passive(near_identity, c_z, c_x)
    occ = reg.occupations()
    totals = occ[:, iz] + occ[:, ix]
    psi = rng.normal(size=(reg.dim, 3)) + 1j * rng.normal(size=(reg.dim, 3))
    psi[totals > support] = 0.0
    out = lift_pair_operator(op, reg, ("z", "x")) @ psi
    retained = totals <= min(cutoffs)
    ref = moveaxis_embedding(fock_unitary_from_2x2(near_identity, c_z + 1, c_x + 1), reg.dims, iz, ix) @ psi
    assert np.max(np.abs(out - ref)[retained]) <= 1e-10
    assert not out[~retained].any()


@pytest.mark.fock_engine
@pytest.mark.parametrize("cutoffs", [(3, 0), (0, 3)])
def test_strided_blocks_of_a_cutoff_zero_mode_match_expm_reference(cutoffs):
    # a mode of size 1 holds no photon, so only the vacuum total is kept
    rng = np.random.default_rng(44)
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    near_identity = (v * np.exp(-1j * rng.uniform(-1.5, 1.5, 2))) @ v.conj().T
    ref = fock_unitary_from_2x2(near_identity, cutoffs[0] + 1, cutoffs[1] + 1)
    mine = two_mode_unitary_matrix(near_identity, *cutoffs)
    retained = np.arange(mine.shape[0]) == 0
    assert np.max(np.abs(mine - ref)[np.ix_(retained, retained)]) <= 1e-10
    assert_zero_beyond(mine, retained)


# ---------------------------------------------------------------- lift and loss


def random_block_operator(dims, seed):
    """Block operator with the passive build's block structure and random
    complex blocks."""
    rng = np.random.default_rng(seed)
    skeleton = _blockwise_passive(BeamSplitterSpec.ideal_5050().scattering_matrix, dims[0] - 1, dims[1] - 1)
    blocks = tuple(
        (s, rng.normal(size=block.shape) + 1j * rng.normal(size=block.shape))
        for s, block in skeleton.blocks
    )
    return PairOperator(skeleton.dims, blocks)


@pytest.mark.fock_engine
@pytest.mark.parametrize("modes", [("z", "x"), ("x", "z"), ("s", "z"), ("z", "s"), ("x", "s")])
def test_lift_matches_moveaxis_embedding(modes):
    reg = ModeRegister(("x", "s", "z"), (2, 1, 3))
    ia, ib = reg.position(modes[0]), reg.position(modes[1])
    op = random_block_operator((reg.dims[ia], reg.dims[ib]), seed=ia * 3 + ib)
    lifted = lift_pair_operator(op, reg, modes) @ np.eye(reg.dim)
    assert np.max(np.abs(lifted - moveaxis_embedding(pair_matrix(op), reg.dims, ia, ib))) <= 1e-15


@pytest.mark.fock_engine
def test_lifted_passive_on_reversed_pair_matches_expm_reference():
    # modes (z, x) are reversed and not adjacent, so the factor is transposed
    # in and out; the input lives on the retained blocks of the (z, x) pair
    reg = ModeRegister(("x", "s", "z"), (3, 1, 4))
    iz, ix = reg.position("z"), reg.position("x")
    rng = np.random.default_rng(12)
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    occ = reg.occupations()
    psi = rng.normal(size=(reg.dim, 3)) + 1j * rng.normal(size=(reg.dim, 3))
    psi[occ[:, iz] + occ[:, ix] > 3] = 0.0
    out = lift_pair_operator(_blockwise_passive(v, 4, 3), reg, ("z", "x")) @ psi
    ref = moveaxis_embedding(fock_unitary_from_2x2(v, 5, 4), reg.dims, iz, ix) @ psi
    assert np.max(np.abs(out - ref)) <= 1e-10


@pytest.mark.fock_engine
@pytest.mark.parametrize("tau", [0.0, 0.3, 0.98])
def test_attenuator_matches_kraus_oracle_on_middle_mode(tau):
    from .reference import attenuation_kraus

    reg = ModeRegister(("a", "b", "c"), (1, 4, 2))
    rng = np.random.default_rng(7)
    psi = rng.normal(size=(reg.dim, 3)) + 1j * rng.normal(size=(reg.dim, 3))
    psi /= np.linalg.norm(psi)
    rho = psi @ psi.conj().T
    expected = np.zeros_like(rho)
    for a in attenuation_kraus(tau, cutoff=4):
        lifted = np.kron(np.kron(np.eye(2), a), np.eye(3))
        expected += lifted @ rho @ lifted.T
    out = to_density(_attenuate(FactoredState(reg, psi), "b", tau)).matrix
    assert np.max(np.abs(out - expected)) <= 1e-13


@pytest.mark.fock_engine
@pytest.mark.parametrize("tau", [0.3, 0.98])
def test_attenuator_on_vacuum_mode_rescales_rows_and_keeps_columns(tau):
    from .reference import attenuation_kraus

    reg = ModeRegister(("a", "b", "c"), (1, 4, 2))
    rng = np.random.default_rng(8)
    psi = rng.normal(size=(reg.dim, 3)) + 1j * rng.normal(size=(reg.dim, 3))
    psi[reg.occupations()[:, 1] > 0] = 0.0  # mode b in vacuum
    psi[:, 2] = 0.5j * psi[:, 0]  # a dependent column, which a re-compression would drop
    psi /= np.linalg.norm(psi)
    rho = psi @ psi.conj().T
    expected = np.zeros_like(rho)
    for a in attenuation_kraus(tau, cutoff=4):
        lifted = np.kron(np.kron(np.eye(2), a), np.eye(3))
        expected += lifted @ rho @ lifted.T
    out = _attenuate(FactoredState(reg, psi), "b", tau)
    assert out.rank == 3
    assert np.max(np.abs(to_density(out).matrix - expected)) <= 1e-13


@pytest.mark.fock_engine
def test_hong_ou_mandel_pair_keeps_only_the_outputs_the_register_holds():
    # |1,1> through the ideal 50/50 leaves as (i/sqrt2)(|2,0> + |0,2>): at cutoffs (1, 1)
    # neither output fits, so nothing is kept (trace 0); at (2, 2) both are
    spec = BeamSplitterSpec.ideal_5050()
    small = ModeRegister(("a", "b"), (1, 1))
    out = apply_bs_channel(FactoredState.from_state(basis_ket(small, (1, 1))), ("a", "b"), spec)
    assert out.trace() == 0.0
    reg = ModeRegister(("a", "b"), (2, 2))
    out = apply_bs_channel(FactoredState.from_state(basis_ket(reg, (1, 1))), ("a", "b"), spec)
    expected = np.zeros(reg.dim, dtype=complex)
    expected[[reg.index((2, 0)), reg.index((0, 2))]] = 1j / SQ2
    assert np.max(np.abs(out.amplitudes[:, 0] - expected)) <= 1e-15


@pytest.mark.fock_engine
def test_splitter_with_a_lossless_singular_value_matches_the_dense_reference():
    # Gamma = Omega = 0.48: the noise covariance is singular and the first loss step has
    # tau = 1, where A_0 is the identity
    spec = BeamSplitterSpec(0.6, 0.4)
    assert spec.taus[0] == 1.0 and spec.taus[1] == pytest.approx(0.04, abs=1e-15)
    reg = ModeRegister(("a", "b"), (3, 3))
    rho = random_retained_state(reg, seed=23, block_max=3)  # totals <= 3: nothing truncated
    out = to_density(apply_bs_channel(FactoredState.from_state(rho), ("a", "b"), spec)).matrix
    ref = apply_lossy_bs(rho.matrix, [4, 4], (0, 1), spec.t, spec.r)
    assert np.max(np.abs(out - ref)) <= 1e-12


def padded_inputs():
    """|1,0> at cutoffs (6, 6) and the four Bell states at (2, 2): registers that hold more
    photons than their states."""
    one = FactoredState.from_state(basis_ket(ModeRegister(("b", "c"), (6, 6)), (1, 0)))
    bells = {
        label: pad_cutoffs(FactoredState.from_state(bell), {"b": 2, "c": 2}) for label, bell in bell_states().items()
    }
    return {"one photon": one, **bells}


@pytest.mark.fock_engine
@pytest.mark.parametrize(
    "spec",
    [BeamSplitterSpec.ideal_5050(), BeamSplitterSpec.lossy_5050(0.1), BeamSplitterSpec(0.7, 0.1)],
    ids=["ideal_5050", "lossy_5050", "unbalanced"],
)
@pytest.mark.parametrize("name", list(padded_inputs()))
def test_splitter_on_a_padded_register_matches_the_dense_reference(name, spec):
    # a splitter keeps every total its register holds, so it acts above the state's photons
    rho = padded_inputs()[name]
    out = to_density(apply_bs_channel(rho, ("b", "c"), spec)).matrix
    ref = apply_lossy_bs(to_density(rho).matrix, list(rho.register.dims), (0, 1), spec.t, spec.r)
    assert np.max(np.abs(out - ref)) <= 1e-12


# ---------------------------------------------------------------- dilation


def test_dilate_lossless_decouples_environment():
    v = dilate(BeamSplitterSpec.ideal_5050())
    s = BeamSplitterSpec.ideal_5050().scattering_matrix
    assert np.allclose(v[:2, :2], s)
    assert np.allclose(v[2:, :2], 0.0)
    assert np.allclose(v[:2, 2:], 0.0)
    assert np.allclose(v[2:, 2:], np.eye(2))


def test_dilate_unitary_with_scattering_block():
    spec = BeamSplitterSpec(0.6, 0.6j)
    v = dilate(spec)
    assert np.max(np.abs(v @ v.conj().T - np.eye(4))) < 1e-12
    assert np.allclose(v[:2, :2], spec.scattering_matrix)


def test_dilate_environment_covariance_matches_noise():
    for spec in random_physical_specs(6, seed=3):
        v = dilate(spec)
        b = v[:2, 2:]
        assert np.max(np.abs(b @ b.conj().T - noise_covariance(spec))) < 1e-12
        assert np.max(np.abs(v @ v.conj().T - np.eye(4))) < 1e-12


# ---------------------------------------------------------------- kraus channel


def test_kraus_trace_preserving_on_retained_blocks():
    spec = BeamSplitterSpec.lossy_5050(0.15)
    chan = lossy_bs_kraus(spec, cutoff=3)
    reg = ModeRegister(("x", "y"), (3, 3))
    rho = random_retained_state(reg, seed=9, block_max=3)
    out = chan.apply(rho, ("x", "y"))
    assert abs(out.trace() - 1.0) < 1e-10
    assert_physical(out)


def test_kraus_single_photon_loss_arithmetic():
    spec = BeamSplitterSpec(math.sqrt(0.49), 1j * math.sqrt(0.49))
    assert spec.gamma == pytest.approx(0.02)
    chan = lossy_bs_kraus(spec, cutoff=1)
    reg = ModeRegister(("x", "y"), (1, 1))
    rho = chan.apply(pure_density(basis_ket(reg, (1, 0))), ("x", "y"))
    assert population(rho, (1, 0)) == pytest.approx(0.49, abs=1e-12)
    assert population(rho, (0, 1)) == pytest.approx(0.49, abs=1e-12)
    assert population(rho, (0, 0)) == pytest.approx(0.02, abs=1e-12)


def test_kraus_completeness_random_specs():
    for i, spec in enumerate(random_physical_specs(8, seed=21)):
        chan = lossy_bs_kraus(spec, cutoff=2)
        assert chan.completeness_defect() < 1e-10, f"spec {i}: {spec}"


# ---------------------------------------------------------------- detector povm


def test_povm_perfect_detector_is_projective():
    diag = detector_povm(DetectorSpec(1.0), clicks=1, cutoff=4)
    assert np.allclose(diag, [0, 1, 0, 0, 0])


def test_povm_no_click_weights():
    diag = detector_povm(DetectorSpec(0.7), clicks=0, cutoff=3)
    assert diag == pytest.approx([1.0, 0.3, 0.09, 0.027])


def test_povm_single_click_weights():
    diag = detector_povm(DetectorSpec(0.7), clicks=1, cutoff=3)
    expected = [0.0, 0.7, 2 * 0.7 * 0.3, 3 * 0.7 * 0.09]
    assert diag == pytest.approx(expected)


def test_povm_family_resolves_identity_exactly():
    for eta in (0.3, 0.7, 1.0):
        det = DetectorSpec(eta)
        total = sum(detector_povm(det, n, 5) for n in range(6))
        assert np.array_equal(total, np.ones(6))


def test_povm_rejects_clicks_beyond_cutoff():
    with pytest.raises(ValueError, match="clicks"):
        detector_povm(DetectorSpec(0.5), clicks=5, cutoff=4)


# ------------------------------------------------- model equivalences


def test_povm_equals_bs_ancilla_model():
    cutoff = 4
    reg_s = ModeRegister(("s",), (cutoff,))
    rng = np.random.default_rng(17)
    states = [basis_ket(reg_s, (m,)) for m in range(cutoff + 1)]
    for _ in range(3):
        amps = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
        states.append(FockVector(reg_s, amps / np.linalg.norm(amps)))
    for eta in (0.3, 0.7, 1.0):
        det = DetectorSpec(eta)
        for state in states:
            diag_probs = np.abs(state.amplitudes) ** 2
            for n in range(cutoff + 1):
                povm_prob = float(diag_probs @ detector_povm(det, n, cutoff))
                oracle = bs_ancilla_click_probability(state, eta, n, cutoff)
                assert povm_prob == pytest.approx(oracle, abs=1e-12)


def test_attenuation_kraus_completeness():
    from .reference import attenuation_kraus

    for tau in (0.0, 0.3, 1.0):
        ops = attenuation_kraus(tau, cutoff=4)
        total = sum(a.T @ a for a in ops)
        assert np.max(np.abs(total - np.eye(5))) < 1e-12
