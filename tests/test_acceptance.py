"""Acceptance gate: one test per criterion, each at its stated tolerance.

A summary line per criterion is printed at the end of the run (see
conftest.py).  Criterion 8 is split: the report/flag/runtime part (8a) and
three formula matches (8b-8d), the first at zero damping.  At Gamma=0 the printed
truncation-fidelity formula (Eq. 16) reduces to 1 - d/((1+R)(1+R d)),
d = 1-eta, a misprint of 1 - d/((1+R)(1+R+d)): the printed normalization
constant (Eq. 15), from which Eq. 16 follows, carries the factor
(1+R+d)/(1+R).  8b checks the simulation against the corrected form, anchors
the correction to the verbatim Eq. 15, and keeps the printed-vs-corrected gap
visible in the ``abs_diff_16`` column.  8c does the same for Eq. 16 at
Gamma > 0, whose bracket must be the one of the printed Eq. 15, and 8d for
Eq. 20, whose denominator must carry the (R + x)/R factor of the printed
normalization N_eq180.  The verbatim oracles themselves (``analytic.py``)
are unchanged.
"""

import json
import math
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qscissors.analytic import (
    NoiseParams,
    teleport_fidelity,
    truncation_fidelity,
    wick_moment,
)
from qscissors.apparatus import (
    QubitAmplitudes,
    ScissorsConfig,
    TeleportConfig,
    bell_click_assignment,
    bell_states,
    bs_action_on_bell,
    run_scissors,
    run_teleport,
)
from qscissors.channels import (
    BeamSplitterSpec,
    DetectorSpec,
    detector_povm,
)
from qscissors.cli import CSV_COLUMNS, main, rows_to_csv, run_sweep, SweepGrid
from qscissors.fock import CoherentDrive, ModeRegister, basis_ket, fidelity

from .reference import corrected_scissors_fidelity, corrected_teleport_fidelity, lossy_bs_kraus
from .test_analytic import wick_bruteforce
from .test_channels import bs_ancilla_click_probability, random_physical_specs


def random_qubits(count, seed=2024):
    rng = np.random.default_rng(seed)
    qubits = []
    for _ in range(count):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        qubits.append(QubitAmplitudes(raw[0], raw[1]))
    return qubits


@pytest.fixture(scope="module")
def default_sweep():
    """The default 3x3x3 grid, run once and shared; records wall time."""
    grid = SweepGrid(
        eta=(0.5, 0.7, 1.0), gamma_bs=(0.0, 0.02, 0.1), drive=(0.5, 1.0, 2.0)
    )
    start = time.perf_counter()
    rows = run_sweep(grid)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_ideal_teleport_identity():
    start = time.perf_counter()
    for qubit in random_qubits(50):
        res = run_teleport(TeleportConfig(input_state=qubit))
        assert res.fidelity >= 1 - 1e-10
        assert abs(res.probability - 0.25) <= 1e-10

        flipped_res = run_teleport(TeleportConfig(input_state=qubit, clicks=(0, 1)))
        assert abs(flipped_res.probability - 0.25) <= 1e-10
        flipped_target = qubit.phase_flipped().as_vector("a")
        assert fidelity(flipped_res.state, flipped_target) >= 1 - 1e-10
    assert time.perf_counter() - start < 5.0


def test_criterion_02_ideal_scissors_truncation():
    for gamma in (0.5, 1.0, 2.0):
        res = run_scissors(ScissorsConfig(drive=CoherentDrive(gamma), output_cutoff=2))
        assert res.fidelity >= 1 - 1e-10, f"drive {gamma}"
        assert res.state.mode_population_above("c", 1) < 1e-12, f"drive {gamma}"


def test_criterion_03_bell_basis_checks(capsys):
    states = list(bell_states().values())
    gram = np.array([[a.overlap(b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-14

    images = bs_action_on_bell(BeamSplitterSpec.ideal_5050())
    support = {
        "psi_plus": {(1, 0)},
        "psi_minus": {(0, 1)},
        "phi_plus": {(0, 0), (2, 0), (0, 2)},
        "phi_minus": {(0, 0), (2, 0), (0, 2)},
    }
    for label, img in images.items():
        for occ, amp in zip(img.register.occupations(), img.amplitudes):
            if tuple(occ) not in support[label]:
                assert abs(amp) <= 1e-12, f"{label} leaks onto {tuple(occ)}"

    assignment = bell_click_assignment()
    assert assignment["psi_plus"] == (1, 0)
    assert assignment["psi_minus"] == (0, 1)

    assert main(["bell-check"]) == 0
    out = capsys.readouterr().out
    assert "psi_plus" in out and "(1,0)" in out
    assert "psi_minus" in out and "(0,1)" in out


def test_criterion_04_detector_model_equivalence():
    cutoff = 4
    reg = ModeRegister(("s",), (cutoff,))
    for eta in (0.3, 0.7, 1.0):
        det = DetectorSpec(eta)
        for m in range(cutoff + 1):
            state = basis_ket(reg, (m,))
            for clicks in range(cutoff + 1):
                povm_prob = float(detector_povm(det, clicks, cutoff)[m])
                oracle = bs_ancilla_click_probability(state, eta, clicks, cutoff)
                assert abs(povm_prob - oracle) <= 1e-12, (eta, m, clicks)


def test_criterion_05_kraus_completeness_and_loss_arithmetic():
    reg = ModeRegister(("x", "y"), (1, 1))
    for spec in random_physical_specs(20, seed=404):
        chan = lossy_bs_kraus(spec, cutoff=2)
        assert chan.completeness_defect() < 1e-10, spec
        small = lossy_bs_kraus(spec, cutoff=1)
        rho = small.apply(basis_ket(reg, (1, 0)).to_density(), ("x", "y"))
        assert abs(rho.population((0, 0)) - spec.gamma) <= 1e-12
        assert abs(rho.population((1, 0)) - abs(spec.t) ** 2) <= 1e-12
        assert abs(rho.population((0, 1)) - abs(spec.r) ** 2) <= 1e-12


def test_criterion_06_wick_oracle_exact():
    for d in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        for n in range(5):
            assert wick_moment(n, n, float(d)) == float(wick_bruteforce(n, n, d))
            if n >= 1:
                assert wick_moment(n, n - 1, float(d)) == 0.0


def test_criterion_07_verbatim_formula_reproduction():
    for ratio in (0.25, 1.0, 4.0):
        assert truncation_fidelity(NoiseParams(eta=1.0, gamma_bs=0.0, ratio_R=ratio)).value == 1.0
        assert teleport_fidelity(NoiseParams(eta=1.0, gamma_bs=0.0, ratio_R=ratio)).value == 1.0

    point = teleport_fidelity(NoiseParams(eta=0.7, gamma_bs=0.02, ratio_R=1.0))
    assert abs(point.value - 0.830728) <= 1e-6

    ratios = [0.25, 0.5, 1.0, 2.0, 4.0, 10.0, 100.0, 1e4, 1e6]
    values = [
        teleport_fidelity(NoiseParams(eta=0.7, gamma_bs=0.02, ratio_R=r)).value
        for r in ratios
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1 - 1e-4


def test_criterion_08a_sweep_report_flags_runtime(default_sweep, tmp_path):
    rows, elapsed = default_sweep
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    assert len(rows) == 27
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 28
    (tmp_path / "sweep.csv").write_text(text)

    for row in rows:
        assert row.run_error == ""
        assert math.isfinite(row.abs_diff_16) and math.isfinite(row.abs_diff_20)
        assert row.abs_diff_16 == abs(row.fid_scissors_numeric - row.fid_scissors_eq16)
        assert row.abs_diff_20 == abs(row.fid_teleport_numeric - row.fid_teleport_eq20)
        # out-of-range verbatim oracles always carry their flag
        in_range_16 = 0.0 <= row.fid_scissors_eq16 <= 1.0
        assert row.oor_eq16 == int(not in_range_16)
        if row.eta == 1.0 and row.gamma == 0.1:
            assert row.oor_eq16 == 1


def test_criterion_08b_scissors_gamma0_matches_verbatim_formula(default_sweep):
    """At zero damping the simulated scissors fidelity equals Eq. 16 with its
    misprint corrected by Eq. 15.

    Printed Eq. 16 at Gamma=0 reduces to 1 - d/((1+R)(1+R d)), d = 1-eta.
    The printed Eq. 15 at Gamma=0 is exactly
    1/N = e^(d|g|^2) * eta/2 * C^2/2 * (1+R+d)/(1+R), and the fidelity is
    <target|rho|target> * N, so Eq. 16's denominator must carry the same
    factor: the printed "1 + R d" is a misprint of "1 + R + d".  The
    corrected form also follows from the hand-derived closed form and the
    dense-expm reference in tests/reference.py.

    Per row: (1) the oracle is still the verbatim printed formula;
    (2) the verbatim Eq. 15 carries the (1+R+d) factor; (3) the simulation
    matches the corrected Eq. 16; (4) ``abs_diff_16`` is exactly the
    printed-vs-corrected gap, which stays visible (> 1e-6) for eta < 1.
    Nothing here extends to Gamma > 0, where the paper does not settle it.
    """
    rows, _ = default_sweep
    zero_damping = [row for row in rows if row.gamma == 0.0]
    assert len(zero_damping) == 9
    mismatches = []
    for row in zero_damping:
        d, ratio, lam = 1 - row.eta, row.ratio_R, row.drive_gamma**2
        printed = 1 - d / ((1 + ratio) * (1 + ratio * d))
        corrected = 1 - d / ((1 + ratio) * (1 + ratio + d))
        assert abs(printed - row.fid_scissors_eq16) < 1e-9

        qubit_weight = math.exp(-lam) * (1 + lam)
        inv_norm_eq15 = (
            math.exp(d * lam) * row.eta / 2 * qubit_weight / 2 * (1 + ratio + d) / (1 + ratio)
        )
        assert abs(row.norm_eq15 * inv_norm_eq15 - 1) < 1e-9, (row.eta, ratio)

        if abs(row.fid_scissors_numeric - corrected) > 1e-6:
            mismatches.append(
                f"eta={row.eta} R={ratio}: numeric {row.fid_scissors_numeric:.9f} "
                f"vs corrected formula {corrected:.9f}"
            )

        assert abs(row.abs_diff_16 - abs(corrected - printed)) < 1e-9, (row.eta, ratio)
        if row.eta < 1.0:
            assert row.abs_diff_16 > 1e-6, (row.eta, ratio)
    assert not mismatches, "Gamma=0 scissors fidelity vs corrected Eq. 16:\n" + "\n".join(mismatches)


def test_criterion_08c_scissors_lossy_matches_eq16_with_eq15_bracket(default_sweep):
    """At Gamma > 0 the simulated scissors fidelity equals Eq. 16 with its
    bracket x = 1 - eta (1+G^2)/(1-G) replaced by the bracket of the printed
    Eq. 15, x' = eta G + G/|r|^2 + 1 - eta.

    The printed x is negative at eta = 1 for every G > 0, where the printed
    Eq. 16 exceeds 1 (the ``oor_eq16`` flag).  With |t|^2 = |r|^2 the printed
    Eq. 15 is exactly 1/N = e^(d|g|^2) eta |r|^4 C^2 (1+R+x')/(1+R), and
    F = <target|rho|target> * N carries the same factor.

    Per row, as in 08b: (1) the oracle is still the verbatim printed formula;
    (2) the verbatim Eq. 15 carries the (1+R+x') factor; (3) the simulation
    matches the corrected form; (4) ``abs_diff_16`` is exactly the
    printed-vs-corrected gap, which stays visible (> 1e-6) on every row.
    """
    rows, _ = default_sweep
    lossy = [row for row in rows if row.gamma > 0.0]
    assert len(lossy) == 18
    mismatches = []
    for row in lossy:
        eta, g, ratio, lam = row.eta, row.gamma, row.ratio_R, row.drive_gamma**2
        x = 1 - eta * (1 + g**2) / (1 - g)
        printed = 1 - x / ((1 + ratio) * (1 + ratio * x))
        r_sq = (1 - g) / 2
        corrected = corrected_scissors_fidelity(eta, g, ratio, r_sq)
        assert abs(printed - row.fid_scissors_eq16) < 1e-9

        bracket = eta * g + g / r_sq + 1 - eta
        qubit_weight = math.exp(-lam) * (1 + lam)
        inv_norm_eq15 = (
            math.exp((eta * g + 1 - eta) * lam) * eta * r_sq**2 * qubit_weight
            * (1 + ratio + bracket) / (1 + ratio)
        )
        assert abs(row.norm_eq15 * inv_norm_eq15 - 1) < 1e-9, (eta, g, ratio)

        if abs(row.fid_scissors_numeric - corrected) > 1e-9:
            mismatches.append(
                f"eta={eta} Gamma={g} R={ratio}: numeric {row.fid_scissors_numeric:.12f} "
                f"vs corrected formula {corrected:.12f}"
            )

        assert abs(row.abs_diff_16 - abs(corrected - printed)) < 1e-9, (eta, g, ratio)
        assert row.abs_diff_16 > 1e-6, (eta, g, ratio)
    assert not mismatches, "Gamma>0 scissors fidelity vs corrected Eq. 16:\n" + "\n".join(mismatches)


def test_criterion_08d_teleport_matches_eq20_with_eq180_factor(default_sweep):
    """The simulated end-to-end fidelity equals Eq. 20 with its denominator
    factor 1 + R x replaced by R + x, x = 4/(1-G) - 3 eta (1-G).

    The printed normalization N_eq180 carries 1 + x/R = (R + x)/R, and
    F = <target|rho|target> * N, so Eq. 20 must carry the same factor.  The
    printed numerator (3+G)/(1-G) - 3 eta (1-G) is x - 1.  Printed minus
    corrected is (x-1)^2 (R-1) / ((1+R)(R+x)(1+Rx)), so the two agree only at
    R = 1 or x = 1 (eta = 1, Gamma = 0).

    Per row, as in 08b: (1) the oracle is still the verbatim printed formula;
    (2) the verbatim N_eq180 carries the (R+x)/R factor; (3) the simulation
    matches the corrected form; (4) ``abs_diff_20`` is exactly the
    printed-vs-corrected gap, which stays visible (> 1e-6) wherever R != 1
    and x != 1.
    """
    rows, _ = default_sweep
    assert len(rows) == 27
    mismatches = []
    for row in rows:
        eta, g, ratio, lam = row.eta, row.gamma, row.ratio_R, row.drive_gamma**2
        x = 4 / (1 - g) - 3 * eta * (1 - g)
        printed = 1 - ((3 + g) / (1 - g) - 3 * eta * (1 - g)) / ((1 + ratio) * (1 + ratio * x))
        corrected = corrected_teleport_fidelity(eta, g, ratio)
        assert abs(printed - row.fid_teleport_eq20) < 1e-9

        inv_norm_eq180 = math.exp(-eta * (1 - g) * lam) * eta * ((1 - g) / 2) ** 2 * (ratio + x) / ratio
        assert abs(row.norm_eq180 * inv_norm_eq180 - 1) < 1e-9, (eta, g, ratio)

        if abs(row.fid_teleport_numeric - corrected) > 1e-9:
            mismatches.append(
                f"eta={eta} Gamma={g} R={ratio}: numeric {row.fid_teleport_numeric:.12f} "
                f"vs corrected formula {corrected:.12f}"
            )

        assert abs(row.abs_diff_20 - abs(corrected - printed)) < 1e-9, (eta, g, ratio)
        if ratio != 1.0 and x != 1.0:
            assert row.abs_diff_20 > 1e-6, (eta, g, ratio)
    assert not mismatches, "teleport fidelity vs corrected Eq. 20:\n" + "\n".join(mismatches)


def test_criterion_09_pipeline_determinism(tmp_path):
    args = ["pipeline", "--eta", "0.7", "--gamma", "0.02", "--drive", "1.0"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_default_sweep_matches_benchmark_golden_rows(default_sweep):
    # the rows the benchmark recorded for this grid (read, never rewritten):
    # every float column to 1e-12, every other column exactly
    path = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "sweep_default.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    rows, _ = default_sweep
    assert [[row.eta, row.gamma, row.drive_gamma] for row in rows] == golden["inputs"]
    for row, want in zip(rows, golden["rows"], strict=True):
        got = asdict(row)
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, float):
                assert math.isclose(got[name], value, rel_tol=1e-12, abs_tol=1e-12), (name, got[name], value)
            else:
                assert got[name] == value, name
