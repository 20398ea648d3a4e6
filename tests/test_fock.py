import json
import math
from dataclasses import fields
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
)

from .reference import (
    assert_physical,
    density_from_json_dict,
    mode_population_above,
    norm_C2,
    pure_density,
    vector_from_json_dict,
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


def test_register_position_rejects_an_unknown_label():
    reg = ModeRegister(("c", "d", "e"), (1, 3, 3))
    with pytest.raises(KeyError):
        reg.position("z")


def test_coherent_vacuum_drive():
    vec = coherent_amplitudes(CoherentDrive(0.0), 4)
    assert vec.amplitudes[0] == 1.0
    assert np.all(vec.amplitudes[1:] == 0.0)


def test_coherent_unit_amplitude_values():
    drive = CoherentDrive(1.0)
    vec = coherent_amplitudes(drive, 10)
    for n in range(11):
        expected = math.exp(-0.5) / math.sqrt(math.factorial(n))
        assert vec.amplitudes[n] == pytest.approx(expected, abs=1e-15)
    assert abs(drive.amplitude(0)) == pytest.approx(0.6065306597126334, abs=1e-12)
    assert drive.amplitude(0) == pytest.approx(drive.amplitude(1))


def test_coherent_ratio_and_qubit_weight():
    assert CoherentDrive(1.0).ratio == pytest.approx(1.0)
    assert CoherentDrive(0.5).ratio == pytest.approx(4.0)
    assert CoherentDrive(2.0).ratio == pytest.approx(0.25)
    drive = CoherentDrive(1.0)
    assert abs(drive.amplitude(0)) ** 2 + abs(drive.amplitude(1)) ** 2 == pytest.approx(2 * math.exp(-1.0))
    assert norm_C2(NoiseParams.from_drive(1.0, 0.0, drive)) == pytest.approx(2 * math.exp(-1.0))


@pytest.mark.parametrize("drive", [30, 40, 1e3, 40j])
def test_coherent_ratio_stays_finite_at_large_drives(drive):
    # from drive 39 on, both amplitudes underflow and |amplitude(0) / amplitude(1)|^2 is inf
    assert CoherentDrive(drive).ratio == pytest.approx(1 / abs(drive) ** 2, rel=1e-15)
    assert NoiseParams.from_drive(0.7, 0.1, CoherentDrive(drive)).ratio_R == CoherentDrive(drive).ratio


def test_coherent_ratio_agrees_with_the_amplitude_form_on_golden_inputs():
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
    drives = {point[2] for path in golden.glob("*.json") for point in json.loads(path.read_text())["inputs"]}
    assert len(drives) > 100
    for g in drives:
        drive = CoherentDrive(g)
        amplitude_form = (abs(drive.amplitude(0)) / abs(drive.amplitude(1))) ** 2
        assert abs(drive.ratio - amplitude_form) <= 1e-14 * amplitude_form
    assert CoherentDrive(0.0).ratio == math.inf


def test_coherent_tail_invariant_and_norm():
    for gamma in (0.5, 1.0, 2.0):
        for cutoff in (1, 5, 25):
            vec = coherent_amplitudes(CoherentDrive(gamma), cutoff)
            assert vec.register.cutoffs == (cutoff,)
            assert vec.norm_sq() <= 1.0 + 1e-15
            # not renormalized: the missing weight is exactly the Poisson tail above the cutoff
            lam = gamma**2
            tail = math.fsum(math.exp(-lam) * lam**n / math.factorial(n) for n in range(cutoff + 1, 100))
            assert 1.0 - vec.norm_sq() == pytest.approx(tail, abs=1e-13)


def test_register_sizes_are_plain_attributes():
    reg = ModeRegister(("a", "b", "c"), (1, 3, 2))
    assert (vars(reg)["dims"], vars(reg)["dim"], vars(reg)["strides"]) == ((2, 4, 3), 24, (12, 3, 1))
    assert [reg.index(tuple(occ)) for occ in reg.occupations()] == list(range(reg.dim))
    empty = ModeRegister((), ())
    assert (empty.dims, empty.dim, empty.strides) == ((), 1, ())


def test_coherent_drive_holds_its_amplitude_alone():
    # no cutoff, tail budget or cutoff ceiling rides on the drive any more
    assert [f.name for f in fields(CoherentDrive)] == ["gamma"]
    for removed in ("cutoff", "tail_eps", "max_cutoff"):
        with pytest.raises(TypeError):
            CoherentDrive(2.0, **{removed: 5})
    for drive in (1e-7, 2.0, 1000.0, 1e150):
        assert CoherentDrive(drive).gamma == complex(drive)
        assert not hasattr(CoherentDrive(drive), "resolved_cutoff")
        assert not hasattr(CoherentDrive(drive), "tail_probability")
    # a tiny drive still gives the one-photon amplitude the target needs
    vec = coherent_amplitudes(CoherentDrive(1e-7), 1)
    assert vec.register.cutoffs == (1,)
    assert vec.amplitudes[1] == pytest.approx(1e-7 * math.exp(-0.5e-14), rel=1e-15)
    with pytest.raises(ValueError, match="cutoff"):
        coherent_amplitudes(CoherentDrive(1.0), 0)


@pytest.mark.parametrize("drive", [1e200, math.nan])
def test_coherent_drive_refuses_an_amplitude_whose_weight_is_not_finite(drive):
    # |gamma|^2 = 1e400 overflows in every amplitude, and a NaN amplitude has no weight at all
    with pytest.raises(ValueError, match=r"^drive amplitude .* must have a finite \|gamma\|\^2$"):
        CoherentDrive(drive)


def test_coherent_complex_amplitude_phases():
    drive = CoherentDrive(1j)
    vec = coherent_amplitudes(drive, 2)
    assert vec.amplitudes[1] == pytest.approx(1j * math.exp(-0.5))
    assert vec.amplitudes[2] == pytest.approx(-math.exp(-0.5) / math.sqrt(2))


def test_fidelity_pure_state_is_one():
    reg = ModeRegister(("a",), (1,))
    psi = FockVector(reg, np.array([0.6, 0.8]))
    assert fidelity(pure_density(psi), psi) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_maximally_mixed_is_half():
    reg = ModeRegister(("a",), (1,))
    rho = DensityOperator(reg, np.eye(2) / 2)
    ket0 = basis_ket(reg, (0,))
    assert fidelity(rho, ket0) == pytest.approx(0.5, abs=1e-14)


def test_fidelity_register_mismatch():
    rho = pure_density(basis_ket(ModeRegister(("a",), (1,)), (0,)))
    tgt = basis_ket(ModeRegister(("b",), (1,)), (0,))
    with pytest.raises(ValueError, match="register mismatch"):
        fidelity(rho, tgt)


def test_fidelity_requires_normalized_target():
    reg = ModeRegister(("a",), (1,))
    rho = pure_density(basis_ket(reg, (0,)))
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
        assert_physical(rho)


def test_serialization_roundtrip_is_bit_identical():
    reg = ModeRegister(("c", "d"), (1, 2))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    amps /= np.linalg.norm(amps)
    vec = FockVector(reg, amps)
    data = json.loads(json.dumps(vec.to_json_dict()))
    back = vector_from_json_dict(data)
    assert back.register == vec.register
    assert np.array_equal(back.amplitudes, vec.amplitudes)

    rho = pure_density(vec)
    rho_back = density_from_json_dict(json.loads(json.dumps(rho.to_json_dict())))
    assert np.array_equal(rho_back.matrix, rho.matrix)


def test_mode_population_above():
    reg = ModeRegister(("c",), (3,))
    diag = np.array([0.4, 0.3, 0.2, 0.1])
    rho = DensityOperator(reg, np.diag(diag))
    assert mode_population_above(rho, "c", 1) == pytest.approx(0.3)
