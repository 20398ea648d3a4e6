import json
import math
from pathlib import Path

import numpy as np
import pytest

from qscissors.analytic import NoiseParams
from qscissors.fock import (
    CoherentDrive,
    DensityOperator,
    FockVector,
    ModeRegister,
    basis_ket,
    coherent_amplitudes,
    fidelity,
    pad_cutoffs,
    partial_trace,
    tensor,
)


def test_register_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="unique"):
        ModeRegister(("a", "a"), (1, 1))


def test_register_rejects_zero_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        ModeRegister(("a",), (0,))


def test_basis_order_is_lexicographic_row_major():
    reg = ModeRegister(("a", "b"), (1, 2))
    occ = reg.occupations()
    expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert [tuple(row) for row in occ] == expected
    for i, row in enumerate(expected):
        assert reg.index(row) == i


def test_register_subregister_and_positions():
    reg = ModeRegister(("c", "d", "e"), (1, 3, 3))
    sub = reg.subregister(("e", "c"))
    assert sub.labels == ("e", "c")
    assert sub.cutoffs == (3, 1)
    with pytest.raises(KeyError):
        reg.position("z")


def test_coherent_vacuum_drive():
    vec = coherent_amplitudes(CoherentDrive(0.0, cutoff=4))
    assert vec.amplitudes[0] == 1.0
    assert np.all(vec.amplitudes[1:] == 0.0)


def test_coherent_unit_amplitude_values():
    # cutoff 10 leaves a ~1e-8 Poisson tail, so the tail budget must say so
    drive = CoherentDrive(1.0, cutoff=10, tail_eps=1e-7)
    vec = coherent_amplitudes(drive)
    for n in range(11):
        expected = math.exp(-0.5) / math.sqrt(math.factorial(n))
        assert vec.amplitudes[n] == pytest.approx(expected, abs=1e-15)
    assert abs(drive.amp0) == pytest.approx(0.6065306597126334, abs=1e-12)
    assert drive.amp0 == pytest.approx(drive.amp1)


def test_coherent_ratio_and_qubit_weight():
    assert CoherentDrive(1.0).ratio == pytest.approx(1.0)
    assert CoherentDrive(0.5).ratio == pytest.approx(4.0)
    assert CoherentDrive(2.0).ratio == pytest.approx(0.25)
    drive = CoherentDrive(1.0)
    assert drive.qubit_norm_sq == pytest.approx(2 * math.exp(-1.0))


@pytest.mark.parametrize("drive", [30, 40, 1e3, 40j])
def test_coherent_ratio_stays_finite_at_large_drives(drive):
    # from drive 39 on, both amplitudes underflow and (|amp0| / |amp1|)^2 is inf
    assert CoherentDrive(drive).ratio == pytest.approx(1 / abs(drive) ** 2, rel=1e-15)
    assert NoiseParams.from_drive(0.7, 0.1, CoherentDrive(drive)).ratio_R == CoherentDrive(drive).ratio


def test_coherent_ratio_agrees_with_the_amplitude_form_on_golden_inputs():
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
    drives = {point[2] for path in golden.glob("*.json") for point in json.loads(path.read_text())["inputs"]}
    assert len(drives) > 100
    for g in drives:
        drive = CoherentDrive(g)
        amplitude_form = (abs(drive.amp0) / abs(drive.amp1)) ** 2
        assert abs(drive.ratio - amplitude_form) <= 1e-14 * amplitude_form
    assert CoherentDrive(0.0).ratio == math.inf


def test_coherent_tail_invariant_and_norm():
    for gamma in (0.5, 1.0, 2.0):
        drive = CoherentDrive(gamma)
        vec = coherent_amplitudes(drive)
        assert 1.0 - drive.tail_eps <= vec.norm_sq() <= 1.0 + 1e-15
        # not renormalized: missing weight is exactly the Poisson tail
        tail = drive.tail_probability(drive.resolved_cutoff())
        assert 1.0 - vec.norm_sq() == pytest.approx(tail, abs=1e-13)


def per_n_required_cutoff(drive):
    """The tail rule scanned from scratch at every n, or None when unattainable."""
    return next((n for n in range(1, drive.max_cutoff + 1) if drive.tail_probability(n) < drive.tail_eps), None)


@pytest.mark.parametrize("tail_eps", [1e-3, 1e-8, 1e-12, 1e-15, 1e-16])
def test_resolved_cutoff_matches_per_n_tail_rule(tail_eps):
    for gamma in (0.0, 1e-7, 0.2, 0.5, 0.7, 1.0, 1.7j, 2.0, 3.5, 6.0, 10.0, 30.0):
        drive = CoherentDrive(gamma, tail_eps=tail_eps, max_cutoff=60)
        required = per_n_required_cutoff(drive)
        if required is None:
            with pytest.raises(ValueError, match="unattainable"):
                drive.resolved_cutoff()
        else:
            assert drive.resolved_cutoff() == required, f"|gamma| = {abs(gamma)}"


def test_register_sizes_are_plain_attributes():
    reg = ModeRegister(("a", "b", "c"), (1, 3, 2))
    assert (vars(reg)["dims"], vars(reg)["dim"], vars(reg)["strides"]) == ((2, 4, 3), 24, (12, 3, 1))
    assert [reg.index(tuple(occ)) for occ in reg.occupations()] == list(range(reg.dim))
    empty = ModeRegister((), ())
    assert (empty.dims, empty.dim, empty.strides) == ((), 1, ())


def test_coherent_insufficient_cutoff_names_requirement():
    required = CoherentDrive(2.0).resolved_cutoff()
    with pytest.raises(ValueError, match=f"cutoff {required} is required"):
        CoherentDrive(2.0, cutoff=5).resolved_cutoff()


def test_coherent_unattainable_tail_at_max_cutoff():
    with pytest.raises(ValueError, match="unattainable"):
        CoherentDrive(3.0, max_cutoff=4).resolved_cutoff()


def test_coherent_unattainable_message_names_mean_photon_number():
    # the scan stops at max_cutoff even when exp(-|gamma|^2) underflows
    with pytest.raises(ValueError, match=r"unattainable at max_cutoff=200 for \|gamma\|\^2=1e\+06"):
        CoherentDrive(1000.0).resolved_cutoff()


def test_coherent_tiny_drive_resolves_to_cutoff_one():
    # the vacuum alone meets the tail bound, but the target needs |1>
    drive = CoherentDrive(1e-7)
    assert drive.resolved_cutoff() == 1
    vec = coherent_amplitudes(drive)
    assert vec.register.cutoffs == (1,)
    assert 1.0 - vec.norm_sq() <= drive.tail_eps


def test_coherent_complex_amplitude_phases():
    drive = CoherentDrive(1j)
    vec = coherent_amplitudes(drive)
    assert vec.amplitudes[1] == pytest.approx(1j * math.exp(-0.5))
    assert vec.amplitudes[2] == pytest.approx(-math.exp(-0.5) / math.sqrt(2))


def test_tensor_vacuum_pair():
    a = basis_ket(ModeRegister(("a",), (1,)), (0,))
    b = basis_ket(ModeRegister(("b",), (1,)), (0,))
    ab = tensor(a, b)
    assert ab.register.labels == ("a", "b")
    assert ab.amplitude((0, 0)) == 1.0


def test_tensor_rejects_overlapping_labels():
    a = basis_ket(ModeRegister(("a",), (1,)), (0,))
    with pytest.raises(ValueError, match="overlap"):
        tensor(a, a)


def test_tensor_partial_trace_roundtrip_vacuum_ancilla():
    reg = ModeRegister(("x", "y"), (1, 1))
    amps = np.array([0.5, 0.5j, -0.5, 0.5])
    rho = FockVector(reg, amps).to_density()
    anc = basis_ket(ModeRegister(("z",), (2,)), (0,)).to_density()
    back = partial_trace(tensor(rho, anc), ("x", "y"))
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14


def test_partial_trace_product_state():
    rho_a = basis_ket(ModeRegister(("a",), (1,)), (1,)).to_density()
    amps = np.array([1, 1j]) / math.sqrt(2)
    rho_b = FockVector(ModeRegister(("b",), (1,)), amps).to_density()
    joint = tensor(rho_a, rho_b)
    out = partial_trace(joint, ("a",))
    assert np.max(np.abs(out.matrix - rho_a.matrix)) < 1e-14
    assert out.trace() == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bell_state_is_maximally_mixed():
    reg = ModeRegister(("b", "c"), (1, 1))
    amps = np.zeros(4, dtype=complex)
    amps[reg.index((0, 1))] = 1 / math.sqrt(2)
    amps[reg.index((1, 0))] = -1j / math.sqrt(2)
    rho = FockVector(reg, amps).to_density()
    reduced = partial_trace(rho, ("b",))
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-14


def test_partial_trace_keep_all_is_identity():
    reg = ModeRegister(("a", "b"), (1, 1))
    amps = np.array([0.5, 0.5, 0.5, 0.5])
    rho = FockVector(reg, amps).to_density()
    same = partial_trace(rho, ("a", "b"))
    assert np.max(np.abs(same.matrix - rho.matrix)) < 1e-15


def test_partial_trace_unknown_label():
    rho = basis_ket(ModeRegister(("a",), (1,)), (0,)).to_density()
    with pytest.raises(KeyError):
        partial_trace(rho, ("q",))


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    reg = ModeRegister(("a", "b", "c"), (1, 2, 1))
    mat = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    mat = mat @ mat.conj().T
    mat /= np.trace(mat).real
    rho = DensityOperator(reg, mat)
    out = partial_trace(rho, ("b",))
    assert abs(out.trace() - rho.trace()) < 1e-12
    assert out.hermiticity_defect() < 1e-12


def test_fidelity_pure_state_is_one():
    reg = ModeRegister(("a",), (1,))
    psi = FockVector(reg, np.array([0.6, 0.8]))
    assert fidelity(psi.to_density(), psi) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_maximally_mixed_is_half():
    reg = ModeRegister(("a",), (1,))
    rho = DensityOperator(reg, np.eye(2) / 2)
    ket0 = basis_ket(reg, (0,))
    assert fidelity(rho, ket0) == pytest.approx(0.5, abs=1e-14)


def test_fidelity_register_mismatch():
    rho = basis_ket(ModeRegister(("a",), (1,)), (0,)).to_density()
    tgt = basis_ket(ModeRegister(("b",), (1,)), (0,))
    with pytest.raises(ValueError, match="register mismatch"):
        fidelity(rho, tgt)


def test_fidelity_requires_normalized_target():
    reg = ModeRegister(("a",), (1,))
    rho = basis_ket(reg, (0,)).to_density()
    with pytest.raises(ValueError, match="normalized"):
        fidelity(rho, FockVector(reg, np.array([0.5, 0.0])))


def test_fidelity_flags_unphysical_state():
    reg = ModeRegister(("a",), (1,))
    bad = DensityOperator(reg, np.array([[1.5, 0], [0, -0.5]]), check=False)
    with pytest.raises(ValueError, match="outside"):
        fidelity(bad, basis_ket(reg, (0,)))


def test_vector_rejects_excess_norm():
    reg = ModeRegister(("a",), (1,))
    with pytest.raises(ValueError, match="norm"):
        FockVector(reg, np.array([1.0, 0.5]))


def test_density_rejects_non_hermitian():
    reg = ModeRegister(("a",), (1,))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(reg, np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_assert_physical_catches_negativity():
    reg = ModeRegister(("a",), (1,))
    rho = DensityOperator(reg, np.array([[1.2, 0], [0, -0.2]]), check=False)
    with pytest.raises(ValueError, match="eigenvalue"):
        rho.assert_physical()


def test_pad_cutoffs_embedding_and_shrink_rejection():
    reg = ModeRegister(("a", "b"), (1, 1))
    amps = np.array([0.5, 0.5, 0.5, 0.5])
    vec = FockVector(reg, amps)
    big = pad_cutoffs(vec, {"b": 3})
    assert big.register.cutoffs == (1, 3)
    assert big.amplitude((1, 1)) == 0.5
    assert big.amplitude((1, 3)) == 0.0
    with pytest.raises(ValueError, match="shrink"):
        pad_cutoffs(vec, {"b": 0})


def test_serialization_roundtrip_is_bit_identical():
    reg = ModeRegister(("c", "d"), (1, 2))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    amps /= np.linalg.norm(amps)
    vec = FockVector(reg, amps)
    data = json.loads(json.dumps(vec.to_json_dict()))
    back = FockVector.from_json_dict(data)
    assert back.register == vec.register
    assert np.array_equal(back.amplitudes, vec.amplitudes)

    rho = vec.to_density()
    rho_back = DensityOperator.from_json_dict(json.loads(json.dumps(rho.to_json_dict())))
    assert np.array_equal(rho_back.matrix, rho.matrix)


def test_mode_population_above():
    reg = ModeRegister(("c",), (3,))
    diag = np.array([0.4, 0.3, 0.2, 0.1])
    rho = DensityOperator(reg, np.diag(diag))
    assert rho.mode_population_above("c", 1) == pytest.approx(0.3)
