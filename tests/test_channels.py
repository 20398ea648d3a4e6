import math
import tracemalloc

import numpy as np
import pytest

from qscissors.analytic import combined_damping
from qscissors.apparatus import bell_states
from qscissors.channels import (
    BeamSplitterSpec,
    PairOperator,
    _attenuate,
    _blockwise_passive,
    _ladder,
    _loss_table,
    DetectorSpec,
    ImpossibleOutcomeError,
    apply_bs_channel,
    detector_povm,
    lift_pair_operator,
    postselect,
)
from qscissors.fock import (
    DensityOperator,
    FactoredState,
    FockVector,
    ModeRegister,
    basis_ket,
    pad_cutoffs,
    partial_trace,
    tensor,
)

from .reference import (
    apply_lossy_bs,
    assert_physical,
    dilate,
    fock_block_from_2x2,
    fock_unitary_from_2x2,
    lossy_bs_kraus,
    moveaxis_embedding,
    noise_covariance,
    population,
    to_density,
    total_photons,
)

SQ2 = math.sqrt(2)


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


def test_ideal_bs_single_photon():
    reg = ModeRegister(("c", "d"), (1, 1))
    u = ideal_bs_unitary(BeamSplitterSpec.ideal_5050(), reg, ("c", "d"))
    out = u @ basis_ket(reg, (1, 0)).amplitudes
    assert out[reg.index((1, 0))] == pytest.approx(1 / SQ2)
    assert out[reg.index((0, 1))] == pytest.approx(1j / SQ2)


def test_ideal_bs_vacuum_invariance():
    reg = ModeRegister(("c", "d"), (2, 2))
    for spec in random_physical_specs(3, seed=5):
        if not spec.is_lossless:
            continue
        u = ideal_bs_unitary(spec, reg, ("c", "d"))
        out = u @ basis_ket(reg, (0, 0)).amplitudes
        assert out[reg.index((0, 0))] == pytest.approx(1.0)


def test_ideal_bs_two_photon_interference():
    # |1,1> -> (i/sqrt2)(|20> + |02>): both photons bunch
    reg = ModeRegister(("c", "d"), (2, 2))
    u = ideal_bs_unitary(BeamSplitterSpec.ideal_5050(), reg, ("c", "d"))
    out = u @ basis_ket(reg, (1, 1)).amplitudes
    assert out[reg.index((2, 0))] == pytest.approx(1j / SQ2)
    assert out[reg.index((0, 2))] == pytest.approx(1j / SQ2)
    assert abs(out[reg.index((1, 1))]) < 1e-14


def test_ideal_bs_rejects_lossy_spec():
    reg = ModeRegister(("c", "d"), (1, 1))
    with pytest.raises(ValueError, match="Gamma"):
        ideal_bs_unitary(BeamSplitterSpec.lossy_5050(0.1), reg, ("c", "d"))


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


def test_passive_build_rejects_non_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        _blockwise_passive(BeamSplitterSpec.lossy_5050(0.02).scattering_matrix, 3, 3)
    with pytest.raises(ValueError, match="not unitary"):
        _blockwise_passive(np.eye(2) * (1 + 1e-11), 3, 3)


def assert_zero_beyond(mine, retained):
    """P_(<=low) U: every state outside ``retained`` maps to zero, and none maps into it."""
    assert not mine[~retained].any() and not mine[:, ~retained].any()


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


@pytest.mark.parametrize("spec", [BeamSplitterSpec.lossy_5050(0.02)] + UNBALANCED_SPECS + random_physical_specs(6, seed=17))
def test_store_transmissivities_are_the_squared_singular_values(spec):
    # the closed form |t +- r|^2, in svd's descending order
    assert np.max(np.abs(np.array(spec.taus) - np.linalg.svd(spec.scattering_matrix)[1] ** 2)) <= 1e-15
    assert list(spec.taus) == sorted(spec.taus, reverse=True)


def test_balanced_splitter_transmissivities_are_equal_bit_for_bit():
    for gamma in (0.02, 0.1, 0.137, 0.5):
        taus = BeamSplitterSpec.lossy_5050(gamma).taus
        assert taus[0] == taus[1]


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


def test_splitter_store_is_read_only_and_equals_fresh_builds():
    # after one lossy call: every block and loss table kept is read-only and equals a build
    # that bypasses the cache, and the small table is the larger one's corner bit for bit.
    # Unlike lossy_5050, whose X^dag is the identity, this spec has two non-diagonal factors
    spec = BeamSplitterSpec(0.7, 0.1)
    reg = ModeRegister(("a", "b"), (6, 6))
    apply_bs_channel(FactoredState.from_state(basis_ket(reg, (1, 5))), ("a", "b"), spec)
    built = _ladder.cache_info().misses
    for v in spec.factors:
        entries = v.ravel().tolist()
        ladder = _ladder(*entries, 6)
        fresh = _ladder.__wrapped__(*entries, 6)
        assert len(ladder) == 7
        for block, fresh_block in zip(ladder, fresh):
            assert np.array_equal(block, fresh_block)
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0
    for tau in spec.taus:
        table = _loss_table(tau, 7)
        assert np.array_equal(table, _loss_table.__wrapped__(tau, 7))
        assert np.array_equal(table[:, :3, :3], _loss_table(tau, 3))
        for stored in (table, _loss_table(tau, 3)):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0, 0] = 0
    assert _ladder.cache_info().misses == built  # the channel's blocks, not new ones


def test_balanced_splitters_share_their_w_blocks():
    # every lossy_5050 has the same W = S / s bit for bit, so its blocks are built once
    specs = [BeamSplitterSpec.lossy_5050(g) for g in (0.02, 0.1)]
    assert np.array_equal(*(spec.factors[1] for spec in specs))
    ops = [_blockwise_passive(spec.factors[1], 3, 3) for spec in specs]
    assert all(a is b for (_, a), (_, b) in zip(ops[0].blocks, ops[1].blocks))


def test_alternating_splitters_equal_their_cold_builds():
    # blocks and tables are keyed by value: two specs applied in turn must each give, bit for
    # bit, what it gives with empty caches
    specs = [BeamSplitterSpec(0.7, 0.1), BeamSplitterSpec(0.6, 0.5j)]
    reg = ModeRegister(("a", "b"), (3, 4))
    rng = np.random.default_rng(8)
    state = FactoredState(reg, rng.normal(size=(reg.dim, 2)) + 1j * rng.normal(size=(reg.dim, 2)))

    def apply(spec):
        return apply_bs_channel(state, ("a", "b"), spec).amplitudes

    cold = []
    for spec in specs:
        _ladder.cache_clear()
        _loss_table.cache_clear()
        cold.append(apply(spec))
    for spec, amplitudes in zip(specs * 2, cold * 2):
        assert np.array_equal(apply(spec), amplitudes)


def test_scissors_splitter_build_and_lift_peak_memory():
    # drive cutoff 100: modes d and e get cutoff 101, blocks for the totals up to 101.
    # The blocks hold 8 bytes per lifted entry and build, lift and one application
    # to a rank-11 factor peak near 13; a register-sized CSR lift (39 at its leanest)
    # would exceed the bound
    w = BeamSplitterSpec.lossy_5050(0.1).factors[1]
    reg = ModeRegister(("c", "d", "e"), (1, 101, 101))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(reg.dim, 11)) + 1j * rng.normal(size=(reg.dim, 11))
    tracemalloc.start()
    try:
        lifted = lift_pair_operator(_blockwise_passive(w, 101, 101), reg, ("d", "e"))
        lifted @ psi
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lifted.nnz == 2 * sum(n * n for n in range(1, 103))
    assert peak / lifted.nnz <= 16, f"{peak / lifted.nnz:.1f} bytes per lifted entry"


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


@pytest.mark.parametrize("modes", [("z", "x"), ("x", "z"), ("s", "z"), ("z", "s"), ("x", "s")])
def test_lift_matches_moveaxis_embedding(modes):
    reg = ModeRegister(("x", "s", "z"), (2, 1, 3))
    ia, ib = reg.position(modes[0]), reg.position(modes[1])
    op = random_block_operator((reg.dims[ia], reg.dims[ib]), seed=ia * 3 + ib)
    lifted = lift_pair_operator(op, reg, modes) @ np.eye(reg.dim)
    assert np.max(np.abs(lifted - moveaxis_embedding(pair_matrix(op), reg.dims, ia, ib))) <= 1e-15


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


# ---------------------------------------------------------------- displacements
# With a vacuum environment a splitter maps the coherent product |alpha> to
# |S alpha> and loss maps |alpha> to |sqrt(tau) alpha>: the identity the
# scissors stage's displaced frame rests on.  Each |alpha_i| keeps the
# amplitude at its mode's cutoff below 1e-15, so the loss of a truncated
# coherent state is exact to float precision.  A passive splitter conserves
# the total photon number, so its image is compared on the totals within both
# cutoffs, which its recurrence blocks cover exactly.  The coherent amplitudes
# are built here, not by the package.


def coherent_factor(labels, cutoffs, alphas):
    columns = []
    for cutoff, alpha in zip(cutoffs, alphas):
        n = np.arange(cutoff + 1)
        log_mag = n * math.log(abs(alpha)) - 0.5 * np.array([math.lgamma(k + 1) for k in n]) - abs(alpha) ** 2 / 2
        columns.append(np.exp(log_mag + 1j * n * np.angle(alpha)))
    amps = columns[0]
    for column in columns[1:]:
        amps = np.kron(amps, column)
    return FactoredState(ModeRegister(labels, cutoffs), amps[:, None])


def assert_pure_and_equal(state, expected, tol, rows=slice(None)):
    """``state`` is rank 1 and, on ``rows``, its column is ``expected``'s up to a global phase."""
    assert state.rank == 1
    psi, want = state.amplitudes[rows, 0], expected.amplitudes[rows, 0]
    overlap = np.vdot(want, psi)
    assert np.max(np.abs(psi * (abs(overlap) / overlap) - want)) <= tol


DISPLACEMENT_CASES = [
    ((8, 8), (0.015 + 0.01j, -0.02j)),
    ((20, 60), (0.4 - 0.25j, 1.2 + 0.4j)),
    ((200, 200), (3 + 4j, -2 + 1j)),
]


@pytest.mark.parametrize("cutoffs, alphas", DISPLACEMENT_CASES)
@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_splitter_maps_a_coherent_product_to_the_coherent_product_at_s_alpha(cutoffs, alphas, gamma):
    spec = BeamSplitterSpec.lossy_5050(gamma)
    state = coherent_factor(("a", "b"), cutoffs, alphas)
    out = apply_bs_channel(state, ("a", "b"), spec)
    expected = coherent_factor(("a", "b"), cutoffs, spec.scattering_matrix @ np.array(alphas))
    assert out.compression_error <= 1e-13
    assert_pure_and_equal(out, expected, 1e-14, total_photons(state.register) <= min(cutoffs))


def test_random_lossy_splitters_map_coherent_products_to_s_alpha():
    alphas = np.array((0.4 + 0.3j, -0.45j))
    for spec in random_physical_specs(4, seed=23):
        state = coherent_factor(("a", "b"), (24, 24), alphas)
        out = apply_bs_channel(state, ("a", "b"), spec)
        expected = coherent_factor(("a", "b"), (24, 24), spec.scattering_matrix @ alphas)
        assert_pure_and_equal(out, expected, 1e-14, total_photons(state.register) <= 24)


@pytest.mark.parametrize("cutoffs, alphas", DISPLACEMENT_CASES)
@pytest.mark.parametrize("tau", [0.02, 0.5, 0.9])
def test_loss_maps_a_coherent_state_to_sqrt_tau_alpha(cutoffs, alphas, tau):
    out = _attenuate(coherent_factor(("a", "b"), cutoffs, alphas), "b", tau)
    expected = coherent_factor(("a", "b"), cutoffs, (alphas[0], math.sqrt(tau) * alphas[1]))
    assert out.compression_error <= 1e-13
    assert_pure_and_equal(out, expected, 1e-14)


def test_tensor_of_factors_equals_kron():
    rng = np.random.default_rng(9)
    x = FactoredState(ModeRegister(("a", "b"), (1, 2)), rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    y = FactoredState(ModeRegister(("c",), (3,)), rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    assert np.array_equal(tensor(x, y).amplitudes, np.kron(x.amplitudes, y.amplitudes))


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


def test_lossless_kraus_is_single_ideal_unitary():
    spec = BeamSplitterSpec.ideal_5050()
    chan = lossy_bs_kraus(spec, cutoff=3)
    assert len(chan.operators) == 1
    reg = ModeRegister(("x", "y"), (3, 3))
    u = ideal_bs_unitary(spec, reg, ("x", "y"))
    retained = total_photons(reg) <= 3
    assert np.max(np.abs(chan.operators[0] - u)[np.ix_(retained, retained)]) < 1e-12


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
    rho = chan.apply(to_density(basis_ket(reg, (1, 0))), ("x", "y"))
    assert population(rho, (1, 0)) == pytest.approx(0.49, abs=1e-12)
    assert population(rho, (0, 1)) == pytest.approx(0.49, abs=1e-12)
    assert population(rho, (0, 0)) == pytest.approx(0.02, abs=1e-12)


def test_kraus_completeness_random_specs():
    for i, spec in enumerate(random_physical_specs(8, seed=21)):
        chan = lossy_bs_kraus(spec, cutoff=2)
        assert chan.completeness_defect() < 1e-10, f"spec {i}: {spec}"


def test_fast_channel_matches_explicit_kraus():
    reg = ModeRegister(("x", "y"), (3, 3))
    for i, spec in enumerate(random_physical_specs(4, seed=31)):
        chan = lossy_bs_kraus(spec, cutoff=3)
        rho = random_retained_state(reg, seed=100 + i, block_max=3)
        via_kraus = chan.apply(rho, ("x", "y"))
        via_fast = to_density(apply_bs_channel(FactoredState.from_state(rho), ("x", "y"), spec))
        assert np.max(np.abs(via_kraus.matrix - via_fast.matrix)) < 1e-12


def test_fast_channel_with_spectator_mode():
    reg = ModeRegister(("s", "x", "y"), (1, 2, 2))
    spec = BeamSplitterSpec.lossy_5050(0.1)
    chan = lossy_bs_kraus(spec, cutoff=2)
    rho = random_retained_state(reg, seed=8, block_max=2)
    via_kraus = chan.apply(rho, ("x", "y"))
    via_fast = to_density(apply_bs_channel(FactoredState.from_state(rho), ("x", "y"), spec))
    assert np.max(np.abs(via_kraus.matrix - via_fast.matrix)) < 1e-12
    assert abs(via_fast.trace() - 1.0) < 1e-10


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


# ---------------------------------------------------------------- postselect


def test_postselect_certain_outcome_empty_remainder():
    reg = ModeRegister(("b", "c"), (1, 1))
    rho = FactoredState.from_state(basis_ket(reg, (1, 0)))
    det = DetectorSpec(1.0)
    state, prob = postselect(rho, [("b", det, 1), ("c", det, 0)])
    assert prob == pytest.approx(1.0, abs=1e-14)
    assert state.register.n_modes == 0
    assert state.matrix[0, 0] == pytest.approx(1.0)


def test_postselect_ideal_teleport_joint_state():
    # brute-force expansion: the (1,0) click on (b,c) projects mode a onto the
    # input qubit with probability 1/4
    c0, c1 = 0.6, 0.8
    reg = ModeRegister(("a", "b", "c"), (1, 2, 2))
    amps = np.zeros(reg.dim, dtype=complex)
    s = 1 / SQ2
    for (na, nb), w in (((1, 0), s), ((0, 1), 1j * s)):
        for nc, cw in ((0, c0), (1, c1)):
            amps[reg.index((na, nb, nc))] = w * cw
    joint = to_density(FockVector(reg, amps))
    u = ideal_bs_unitary(BeamSplitterSpec.ideal_5050(), reg, ("b", "c"))
    rotated = DensityOperator(reg, u @ joint.matrix @ u.conj().T)
    det = DetectorSpec(1.0)
    state, prob = postselect(FactoredState.from_state(rotated), [("b", det, 1), ("c", det, 0)])
    assert prob == pytest.approx(0.25, abs=1e-12)
    expected = np.array([c0, c1])
    assert np.max(np.abs(state.matrix - np.outer(expected, expected))) < 1e-12


def test_postselect_impossible_outcome_raises():
    reg = ModeRegister(("b", "c"), (1, 1))
    rho = FactoredState.from_state(basis_ket(reg, (0, 1)))
    det = DetectorSpec(1.0)
    with pytest.raises(ImpossibleOutcomeError):
        postselect(rho, [("b", det, 1), ("c", det, 0)])


def test_postselect_rejects_duplicate_modes():
    reg = ModeRegister(("b", "c"), (1, 1))
    rho = FactoredState.from_state(basis_ket(reg, (0, 0)))
    det = DetectorSpec(1.0)
    with pytest.raises(ValueError, match="duplicate"):
        postselect(rho, [("b", det, 0), ("b", det, 0)])


# ------------------------------------------------- model equivalences


def bs_ancilla_click_probability(state_vec, eta, clicks, cutoff):
    """Oracle: mix the signal with a vacuum ancilla on a splitter of amplitude
    transmissivity sqrt(eta), then project the transmitted port on a photon
    count with a perfect counter."""
    reg = ModeRegister(("s", "anc"), (cutoff, cutoff))
    ancilla = basis_ket(ModeRegister(("anc",), (cutoff,)), (0,))
    joint = tensor(FactoredState.from_state(state_vec), FactoredState.from_state(ancilla))
    spec = BeamSplitterSpec(math.sqrt(eta), 1j * math.sqrt(1 - eta))
    u = ideal_bs_unitary(spec, reg, ("s", "anc"))
    rho = DensityOperator(reg, u @ to_density(joint).matrix @ u.conj().T)
    try:
        _, prob = postselect(FactoredState.from_state(rho), [("s", DetectorSpec(1.0), clicks)])
    except ImpossibleOutcomeError:
        prob = 0.0
    return prob


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


def test_lossy_bs_then_detectors_reproduces_combined_damping():
    # single photon in one port, other blocked: the probability that neither
    # counter fires is the combined damping eta*Gamma + (1 - eta)
    for eta in (0.3, 0.7, 1.0):
        for gamma in (0.0, 0.02, 0.3):
            spec = BeamSplitterSpec.lossy_5050(gamma)
            reg = ModeRegister(("x", "y"), (1, 1))
            rho = apply_bs_channel(FactoredState.from_state(basis_ket(reg, (1, 0))), ("x", "y"), spec)
            det = DetectorSpec(eta)
            try:
                _, p_none = postselect(rho, [("x", det, 0), ("y", det, 0)])
            except ImpossibleOutcomeError:
                p_none = 0.0
            assert p_none == pytest.approx(combined_damping(eta, gamma), abs=1e-12)
            # per-port no-click: 1 - eta (1-Gamma) * (port transmission share)
            share = abs(spec.t) ** 2 / (1 - gamma)
            _, p_x_none = postselect(rho, [("x", det, 0)])
            assert p_x_none == pytest.approx(1 - eta * (1 - gamma) * share, abs=1e-12)


def test_attenuation_kraus_completeness():
    from .reference import attenuation_kraus

    for tau in (0.0, 0.3, 1.0):
        ops = attenuation_kraus(tau, cutoff=4)
        total = sum(a.T @ a for a in ops)
        assert np.max(np.abs(total - np.eye(5))) < 1e-12
