"""Tests of the Fock engine itself: the truncated registers, low-rank factors,
passive block operators, loss tables and post-selection that the stages run on
today, and the caches that share their blocks.

This module and the tests marked ``fock_engine`` in ``test_channels.py`` (the
passive block builds, the lift and the loss) are the places in the suite that name
the engine's internals (``FactoredState``, ``apply_bs_channel``, ``postselect``,
``_ladder``, ``_propagate``, a run's ``register_dim``, ``state_rank`` and
``compression_error``, ...).  Every other test reaches the engine only through the
stage API, so ``pytest --ignore=tests/test_fock_engine.py -m "not fock_engine"`` is
the suite any engine must pass, and replacing the engine deletes this file and
those marked tests.
"""

import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscissors import apparatus, channels
from qscissors.analytic import combined_damping
from qscissors.apparatus import (
    QubitAmplitudes,
    ScissorsConfig,
    TeleportConfig,
    full_pipeline,
    run_scissors,
    run_teleport,
)
from qscissors.channels import (
    BeamSplitterSpec,
    _attenuate,
    _blockwise_passive,
    _ladder,
    _loss_table,
    DetectorSpec,
    ImpossibleOutcomeError,
    apply_bs_channel,
    lift_pair_operator,
    postselect,
)
from qscissors.cli import SweepGrid, evaluate_point, main, run_sweep
from qscissors.fock import (
    CoherentDrive,
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
    composed,
    hermiticity_defect,
    lossy_bs_kraus,
    random_physical_specs,
    random_retained_state,
    total_photons,
    trace_keep,
)

SQ2 = math.sqrt(2)


@pytest.fixture(autouse=True)
def fresh_splitter_cache():
    """The splitter blocks and loss tables ``channels`` keeps for the process, dropped
    before each test, so that no test sees blocks or tables another test built."""
    channels._ladder.cache_clear()
    channels._loss_table.cache_clear()


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


# ---------------------------------------------------------------- splitter caches


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


# ---------------------------------------------------------------- kraus channel


def test_lossless_kraus_is_single_ideal_unitary():
    spec = BeamSplitterSpec.ideal_5050()
    chan = lossy_bs_kraus(spec, cutoff=3)
    assert len(chan.operators) == 1
    reg = ModeRegister(("x", "y"), (3, 3))
    u = ideal_bs_unitary(spec, reg, ("x", "y"))
    retained = total_photons(reg) <= 3
    assert np.max(np.abs(chan.operators[0] - u)[np.ix_(retained, retained)]) < 1e-12


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


# ---------------------------------------------------------------- registers and factors


def test_register_subregister_and_positions():
    reg = ModeRegister(("c", "d", "e"), (1, 3, 3))
    sub = reg.subregister(("e", "c"))
    assert sub.labels == ("e", "c")
    assert sub.cutoffs == (3, 1)
    with pytest.raises(KeyError):
        reg.position("z")


def test_tensor_vacuum_pair():
    a = basis_ket(ModeRegister(("a",), (1,)), (0,))
    b = basis_ket(ModeRegister(("b",), (1,)), (0,))
    ab = tensor(FactoredState.from_state(a), FactoredState.from_state(b))
    assert ab.register.labels == ("a", "b")
    assert ab.amplitudes[ab.register.index((0, 0)), 0] == 1.0


def test_tensor_rejects_overlapping_labels():
    a = FactoredState.from_state(basis_ket(ModeRegister(("a",), (1,)), (0,)))
    with pytest.raises(ValueError, match="overlap"):
        tensor(a, a)


def test_tensor_partial_trace_roundtrip_vacuum_ancilla():
    reg = ModeRegister(("x", "y"), (1, 1))
    amps = np.array([0.5, 0.5j, -0.5, 0.5])
    rho = to_density(FockVector(reg, amps))
    anc = to_density(basis_ket(ModeRegister(("z",), (2,)), (0,)))
    back = partial_trace(tensor(FactoredState.from_state(rho), FactoredState.from_state(anc)), ("x", "y"))
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14


def test_partial_trace_product_state():
    rho_a = to_density(basis_ket(ModeRegister(("a",), (1,)), (1,)))
    amps = np.array([1, 1j]) / math.sqrt(2)
    rho_b = to_density(FockVector(ModeRegister(("b",), (1,)), amps))
    joint = tensor(FactoredState.from_state(rho_a), FactoredState.from_state(rho_b))
    out = partial_trace(joint, ("a",))
    assert np.max(np.abs(out.matrix - rho_a.matrix)) < 1e-14
    assert out.trace() == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bell_state_is_maximally_mixed():
    reg = ModeRegister(("b", "c"), (1, 1))
    amps = np.zeros(4, dtype=complex)
    amps[reg.index((0, 1))] = 1 / math.sqrt(2)
    amps[reg.index((1, 0))] = -1j / math.sqrt(2)
    rho = to_density(FockVector(reg, amps))
    reduced = partial_trace(FactoredState.from_state(rho), ("b",))
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-14


def test_partial_trace_keep_all_is_identity():
    reg = ModeRegister(("a", "b"), (1, 1))
    amps = np.array([0.5, 0.5, 0.5, 0.5])
    rho = to_density(FockVector(reg, amps))
    same = partial_trace(FactoredState.from_state(rho), ("a", "b"))
    assert np.max(np.abs(same.matrix - rho.matrix)) < 1e-15


def test_partial_trace_unknown_label():
    rho = to_density(basis_ket(ModeRegister(("a",), (1,)), (0,)))
    with pytest.raises(KeyError):
        partial_trace(FactoredState.from_state(rho), ("q",))


def test_partial_trace_keeps_non_adjacent_modes_in_the_order_asked():
    rng = np.random.default_rng(3)
    reg = ModeRegister(("a", "b", "c"), (1, 2, 1))
    psi = rng.normal(size=(reg.dim, 3)) + 1j * rng.normal(size=(reg.dim, 3))
    psi /= np.linalg.norm(psi)
    out = partial_trace(FactoredState(reg, psi), ("c", "a"))
    assert out.register.labels == ("c", "a")
    assert out.register.cutoffs == (1, 1)
    expected = trace_keep(psi @ psi.conj().T, reg.dims, (2, 0))
    assert np.max(np.abs(out.matrix - expected)) < 1e-14


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    reg = ModeRegister(("a", "b", "c"), (1, 2, 1))
    mat = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    mat = mat @ mat.conj().T
    mat /= np.trace(mat).real
    rho = DensityOperator(reg, mat)
    out = partial_trace(FactoredState.from_state(rho), ("b",))
    assert abs(out.trace() - rho.trace()) < 1e-12
    assert hermiticity_defect(out) < 1e-12


def test_pad_cutoffs_embedding_and_shrink_rejection():
    reg = ModeRegister(("a", "b"), (1, 1))
    amps = np.array([0.5, 0.5, 0.5, 0.5])
    vec = FactoredState.from_state(FockVector(reg, amps))
    big = pad_cutoffs(vec, {"b": 3})
    assert big.register.cutoffs == (1, 3)
    assert big.amplitudes[big.register.index((1, 1)), 0] == 0.5
    assert big.amplitudes[big.register.index((1, 3)), 0] == 0.0
    with pytest.raises(ValueError, match="shrink"):
        pad_cutoffs(vec, {"b": 0})


# ---------------------------------------------------------------- caches and LAPACK


def test_evaluate_point_makes_no_eigh_call_inside_the_splitter_build(monkeypatch):
    import numpy as np

    callers = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        names, frame = set(), sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    evaluate_point(0.7, 0.1, 0.5)
    assert any("compressed" in names for names in callers)  # the counter sees the package's calls
    assert not [names for names in callers if "_blockwise_passive" in names]


def clear_splitter_caches():
    channels._ladder.cache_clear()
    channels._loss_table.cache_clear()


def splitter_builds() -> tuple[int, int]:
    """(ladders, loss tables) built since the caches were last cleared."""
    return channels._ladder.cache_info().misses, channels._loss_table.cache_info().misses


def counter_tables(etas) -> set[tuple[float, int]]:
    """The loss tables the counters of points at these etas read, keyed (eta, mode size): the
    scissors' lossy counters (eta, 2) and ideal counters (1, 2), the teleporter's (eta, 3)."""
    return {(1.0, 2)} | {(eta, d) for eta in etas for d in (2, 3)}


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_shared_spec_builds_nothing_after_its_largest_point(gamma):
    # later points rebuild no splitter block or table; a new eta builds only its counters' tables
    evaluate_point(0.7, gamma, 2.0)
    ladders, tables = splitter_builds()
    assert ladders > 0 and (tables > len(counter_tables([0.7]))) == (gamma > 0)
    later = ((0.7, 1.0), (0.7, 0.5), (0.5, 2.0), (1.0, 2.0), (0.5, 0.5))
    for eta, drive in later:
        evaluate_point(eta, gamma, drive)
    new_counters = counter_tables([eta for eta, _ in later]) - counter_tables([0.7])
    assert splitter_builds() == (ladders, tables + len(new_counters))


def test_balanced_splitter_keeps_one_loss_table_after_a_point():
    # the two transmissivities of lossy_5050 are equal bit for bit, so they share a table per
    # mode size: d = 2 in the scissors stage and d = 3 in the teleporter
    evaluate_point(0.7, 0.1, 1.0)
    (tau,) = set(BeamSplitterSpec.lossy_5050(0.1).taus)
    built = channels._loss_table.cache_info().misses
    assert channels._loss_table.cache_info().currsize == 2 + len(counter_tables([0.7]))
    for d in (2, 3):
        channels._loss_table(tau, d)  # kept: a hit, not a build
    assert channels._loss_table.cache_info().misses == built


def test_sweep_peak_memory_is_that_of_its_largest_point():
    # a sweep keeps every block and table it builds, and what it builds is keyed by value:
    # its builds contain those of its largest points, so equal build counts mean that the
    # sweep keeps exactly what its largest points build alone, not a copy per point
    gammas, drives = (0.02, 0.1), (0.5, 2.0, 6.0)
    for g in gammas:
        evaluate_point(0.7, g, max(drives))
    largest = splitter_builds()
    clear_splitter_caches()
    run_sweep(SweepGrid(eta=[0.7], gamma_bs=list(gammas), drive=list(drives)))
    assert splitter_builds() == largest
    assert min(largest) > 0


def test_refused_entry_paths_keep_the_trace_of_each_stage(monkeypatch):
    # a path that ends in ImpossibleOutcomeError returns no RunResult, so the trace defect
    # of each stage it ran is read where the circuit propagates
    defects, propagate = [], apparatus._propagate

    def recorded(*args):
        rho, diagnostics = propagate(*args)
        defects.append(diagnostics["trace_defect"])
        return rho, diagnostics

    monkeypatch.setattr(apparatus, "_propagate", recorded)
    lossy, counters = BeamSplitterSpec.lossy_5050(0.1), DetectorSpec(0.7)
    stage = dict(bs1=lossy, bs2=lossy, detectors=counters)

    def exits(argv, code):
        assert main(argv) == code, argv

    def hong_ou_mandel():  # both splitters balanced: the (1, 1) pattern is impossible
        with pytest.raises(ImpossibleOutcomeError):
            run_teleport(TeleportConfig(input_state=QubitAmplitudes(0.6, 0.8), clicks=(1, 1), **stage))

    paths = [
        # at drive 100 the (1, 0) pattern underflows: exit 1, after both scissors splitters ran
        lambda: exits(["pipeline", "--drive", "100"], 1),
        hong_ou_mandel,
    ]
    for i, path in enumerate(paths):
        before = len(defects)
        path()
        assert len(defects) > before and max(defects[before:]) <= 1e-12, (i, defects[before:])


# ---------------------------------------------------------------- run diagnostics


def lossy_cfg(eta, gamma_bs, drive_gamma, **kwargs):
    bs = BeamSplitterSpec.lossy_5050(gamma_bs)
    return ScissorsConfig(drive=CoherentDrive(drive_gamma), bs1=bs, bs2=bs, detectors=DetectorSpec(eta), **kwargs)


def test_large_drives_stay_low_rank_on_the_dim_8_register():
    # a Fock-space drive at 6 (cutoff 86) would need a register of dim 15488;
    # the displaced frame runs every drive on the same dim-8 register
    for g in (0.5, 3.0, 6.0, 10.0):
        cfg = lossy_cfg(0.5, 0.1, g)
        alone = run_scissors(cfg)
        s_res, t_res, _ = full_pipeline(cfg)
        for res in (alone, s_res, t_res):
            assert res.diagnostics["compression_error"] <= 1e-12
            assert res.diagnostics["state_rank"] <= 16
        assert s_res.diagnostics["register_dim"] == alone.diagnostics["register_dim"] == 8


@pytest.mark.parametrize("drive", [12.0, 25.0])
def test_every_drive_that_runs_runs_on_the_dim_8_register(drive):
    assert run_scissors(lossy_cfg(0.7, 0.1, drive)).diagnostics["register_dim"] == 8


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(min_value=1e-6, max_value=1.0),
    gamma=st.floats(min_value=1e-3, max_value=4.0),
    phase=st.floats(min_value=0.0, max_value=2 * math.pi),
    pattern=st.sampled_from([(1, 0), (0, 1)]),
)
def test_scissors_rank_compression_drops_below_1e_12(seed, eta, gamma, phase, pattern):
    # the inputs of tests/test_properties.py::test_scissors_outcome_is_physical
    spec = random_physical_specs(1, seed=seed)[0]
    drive = CoherentDrive(cmath.rect(gamma, phase))
    config = ScissorsConfig(drive=drive, bs1=spec, bs2=spec, detectors=DetectorSpec(eta), clicks=pattern)
    assert run_scissors(config).diagnostics["compression_error"] <= 1e-12


# ---------------------------------------------------------------- composition


COMPOSITION_PAIRS = [
    (BeamSplitterSpec.lossy_5050(0.1), BeamSplitterSpec.lossy_5050(0.3)),
    (BeamSplitterSpec.ideal_5050(), BeamSplitterSpec.lossy_5050(0.2)),
    tuple(random_physical_specs(2, seed=303)),
    tuple(random_physical_specs(2, seed=404)),
]


@pytest.mark.parametrize("s1, s2", COMPOSITION_PAIRS, ids=["lossy-lossy", "ideal-lossy", "random_c", "random_d"])
def test_two_lossy_splitters_are_one_element_in_the_engine(s1, s2):
    # tests/test_invariants.py::test_two_lossy_splitters_are_one_element_of_the_product_matrix
    # checks the law on the dense reference; this is the engine's channel on the same state
    t = composed(s1, s2)
    reg = ModeRegister(("a", "b"), (2, 2))
    rho = random_retained_state(reg, seed=17, block_max=2)  # total photons <= 2: nothing truncated
    two = apply_bs_channel(apply_bs_channel(FactoredState.from_state(rho), ("a", "b"), s1), ("a", "b"), s2)
    one = apply_bs_channel(FactoredState.from_state(rho), ("a", "b"), t)
    assert np.max(np.abs(to_density(two).matrix - to_density(one).matrix)) <= 1e-13
