import math
import time
import tracemalloc

import numpy as np
import pytest

from qscissors import cli
from qscissors.analytic import NoiseParams, teleport_norm, truncation_norm
from qscissors.apparatus import (
    MAX_CLICKS,
    QubitAmplitudes,
    RunResult,
    ScissorsConfig,
    TeleportConfig,
    UnphysicalStateError,
    bell_click_assignment,
    bell_states,
    bs_action_on_bell,
    full_pipeline,
    run_scissors,
    run_teleport,
)
from qscissors.channels import BeamSplitterSpec, DetectorSpec, ImpossibleOutcomeError
from qscissors.cli import evaluate_point, main
from qscissors.fock import CoherentDrive, DensityOperator, ModeRegister, fidelity

from .reference import (
    amplitude,
    assert_physical,
    bell_decompose,
    closed_form_scissors_fidelity,
    closed_form_teleport_stage,
    ideal_channel,
    kron,
    mixed_input,
    mode_population_above,
    normalized,
    overlap,
    phase_flipped,
    population,
    pure_density,
    reconstruct_joint,
    reference_scissors,
)

SQ2 = math.sqrt(2)


def lossy_cfg(eta, gamma_bs, drive_gamma, **kwargs):
    bs = BeamSplitterSpec.lossy_5050(gamma_bs)
    return ScissorsConfig(
        drive=CoherentDrive(drive_gamma),
        bs1=bs,
        bs2=bs,
        detectors=DetectorSpec(eta),
        **kwargs,
    )


# ---------------------------------------------------------------- bell algebra


def test_bell_states_orthonormal_gram():
    states = list(bell_states().values())
    gram = np.array([[overlap(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-14


def test_bell_state_components():
    states = bell_states()
    psi_minus = states["psi_minus"]
    assert amplitude(psi_minus, (0, 1)) == pytest.approx(1 / SQ2)
    assert amplitude(psi_minus, (1, 0)) == pytest.approx(-1j / SQ2)
    assert overlap(states["psi_plus"], states["psi_minus"]) == pytest.approx(0.0, abs=1e-15)
    assert overlap(states["psi_minus"], states["psi_minus"]) == pytest.approx(1.0)


def test_bell_decompose_weights_and_reconstruction():
    qubit = QubitAmplitudes(0.6, 0.8)
    branches = bell_decompose(qubit)
    assert len(branches) == 4
    assert sum(b.weight for b in branches) == pytest.approx(1.0, abs=1e-12)
    for b in branches:
        assert b.weight == pytest.approx(0.25, abs=1e-12)
    rebuilt = reconstruct_joint(branches)
    direct = kron(ideal_channel(("a", "b")), qubit.as_vector("c"))
    assert np.max(np.abs(rebuilt.amplitudes - direct.amplitudes)) < 1e-12


def test_bell_decompose_identity_branch():
    # the branch carrying the unmodified qubit is psi_plus under the fixed
    # channel and Bell conventions (resolved numerically, not assumed)
    branches = {b.label: b for b in bell_decompose(QubitAmplitudes(0.6, 0.8))}
    ident = normalized(branches["psi_plus"].conditional)
    assert ident.amplitudes[0] == pytest.approx(0.6, abs=1e-12)
    assert ident.amplitudes[1] == pytest.approx(0.8, abs=1e-12)
    flipped = normalized(branches["psi_minus"].conditional)
    # phase-flipped up to a global phase
    ratio = flipped.amplitudes / np.array([0.6, -0.8])
    assert abs(ratio[0] - ratio[1]) < 1e-12
    swapped = normalized(branches["phi_plus"].conditional)
    assert abs(swapped.amplitudes[0]) == pytest.approx(0.8, abs=1e-12)
    assert abs(swapped.amplitudes[1]) == pytest.approx(0.6, abs=1e-12)


def test_bell_decompose_trivial_input():
    branches = {b.label: b for b in bell_decompose(QubitAmplitudes(1.0, 0.0))}
    cond = normalized(branches["psi_plus"].conditional)
    assert abs(cond.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_bs_action_on_bell_images():
    images = bs_action_on_bell(BeamSplitterSpec.ideal_5050())
    reg = images["psi_plus"].register
    # psi images collapse onto a single one-photon ket each, no cross leakage
    psi_plus = images["psi_plus"]
    assert abs(amplitude(psi_plus, (1, 0))) == pytest.approx(1.0, abs=1e-12)
    leakage = np.abs(psi_plus.amplitudes).sum() - abs(amplitude(psi_plus, (1, 0)))
    assert leakage < 1e-12
    psi_minus = images["psi_minus"]
    assert abs(amplitude(psi_minus, (0, 1))) == pytest.approx(1.0, abs=1e-12)
    # phi images: |00> -/+ (|20>+|02>)/sqrt2 (up to normalization), nothing
    # on the one-photon kets
    for sign, label in ((-1, "phi_plus"), (1, "phi_minus")):
        img = images[label]
        assert abs(amplitude(img, (1, 0))) < 1e-12
        assert abs(amplitude(img, (0, 1))) < 1e-12
        assert amplitude(img, (0, 0)) == pytest.approx(1 / SQ2, abs=1e-12)
        assert amplitude(img, (2, 0)) == pytest.approx(sign * 0.5, abs=1e-12)
        assert amplitude(img, (0, 2)) == pytest.approx(sign * 0.5, abs=1e-12)
    for img in images.values():
        assert img.norm() == pytest.approx(1.0, abs=1e-12)


def test_bs_action_rejects_unbalanced_or_lossy():
    with pytest.raises(ValueError, match="lossless"):
        bs_action_on_bell(BeamSplitterSpec.lossy_5050(0.1))
    with pytest.raises(ValueError, match="balanced"):
        bs_action_on_bell(BeamSplitterSpec(0.8, 0.6j))


def test_bell_click_assignment_resolution():
    assignment = bell_click_assignment()
    assert assignment["psi_plus"] == (1, 0)
    assert assignment["psi_minus"] == (0, 1)
    assert assignment["phi_plus"] is None
    assert assignment["phi_minus"] is None


# ---------------------------------------------------------------- scissors


def test_scissors_ideal_unit_drive():
    res = run_scissors(ScissorsConfig(drive=CoherentDrive(1.0)))
    assert res.fidelity >= 1 - 1e-10
    c2 = 2 * math.exp(-1.0)
    assert res.probability == pytest.approx(c2 / 4, abs=1e-12)
    expected = np.array([1, 1]) / SQ2
    assert np.max(np.abs(res.state.matrix - np.outer(expected, expected))) < 1e-10
    assert_physical(res.state)


def test_scissors_weak_drive_approaches_vacuum():
    res = run_scissors(ScissorsConfig(drive=CoherentDrive(1e-4)))
    assert population(res.state, (0,)) > 1 - 1e-6
    assert res.fidelity >= 1 - 1e-10


def test_scissors_exact_truncation_with_room_above():
    res = run_scissors(ScissorsConfig(drive=CoherentDrive(1.0), output_cutoff=3))
    assert mode_population_above(res.state, "c", 1) < 1e-12
    assert res.fidelity >= 1 - 1e-10


def test_scissors_diagnostics_track_truncation():
    # the drive never enters Fock space, so nothing is truncated; the state
    # matches the dense reference, whose drive tail above 16 photons is 1.1e-15
    drive = CoherentDrive(1.0)
    res = run_scissors(ScissorsConfig(drive=drive))
    assert res.diagnostics["trace_defect"] < 1e-10
    ref_rho, ref_p, ref_f = reference_scissors(1.0, 0.0, 1.0, n_drive=16)
    assert res.probability == pytest.approx(ref_p, rel=1e-13)
    assert np.max(np.abs(res.state.matrix - ref_rho)) <= 1e-14
    assert res.fidelity == pytest.approx(ref_f, abs=1e-14)


@pytest.mark.parametrize("clicks", [(1, 0), (0, 1), (1, 1), (2, 1)])
def test_scissors_rare_click_patterns_match_the_dense_reference(clicks):
    # a drive-truncated engine misses the exact state by a relative 1.7e-8 at
    # clicks (2, 1) here, with a drive tail of only 7.5e-13; the frame is exact.
    # The reference keeps 12 drive photons, a tail of 4e-26
    eta, gamma_bs, drive = 0.402, 0.187, 0.251
    res = run_scissors(lossy_cfg(eta, gamma_bs, drive, clicks=clicks))
    ref_rho, ref_p, ref_f = reference_scissors(eta, gamma_bs, drive, n_drive=12, clicks=clicks)
    assert res.probability == pytest.approx(ref_p, rel=1e-12)
    assert np.max(np.abs(res.state.matrix - ref_rho)) <= 1e-12 * np.max(np.abs(ref_rho))
    assert res.fidelity == pytest.approx(ref_f, rel=1e-12)


def test_scissors_lossy_matches_expm_reference():
    # independent dense-expm simulation of the same stage
    for eta, gamma_bs in ((0.7, 0.0), (0.7, 0.02), (0.5, 0.1)):
        res = run_scissors(lossy_cfg(eta, gamma_bs, 1.0))
        _, ref_p, ref_f = reference_scissors(eta, gamma_bs, 1.0, n_drive=14)
        assert res.probability == pytest.approx(ref_p, abs=1e-10)
        assert res.fidelity == pytest.approx(ref_f, abs=1e-10)


def test_scissors_lossy_matches_closed_form():
    for eta, gamma_bs, g in ((0.7, 0.0, 1.0), (0.5, 0.02, 0.5), (0.9, 0.1, 1.0)):
        res = run_scissors(lossy_cfg(eta, gamma_bs, g))
        expected = closed_form_scissors_fidelity(eta, gamma_bs, g)
        assert res.fidelity == pytest.approx(expected, abs=1e-9)


def test_scissors_probability_equals_inverse_norm_constant():
    # resolved relationship: the post-selection probability is exactly the
    # reciprocal of the printed normalization constant
    for eta, gamma_bs, g in ((1.0, 0.0, 1.0), (0.7, 0.02, 1.0), (0.5, 0.1, 0.5)):
        res = run_scissors(lossy_cfg(eta, gamma_bs, g))
        params = NoiseParams.from_drive(eta, gamma_bs, CoherentDrive(g))
        norm = truncation_norm(params, BeamSplitterSpec.lossy_5050(gamma_bs))
        assert res.probability == pytest.approx(1.0 / norm.value, rel=1e-9)


@pytest.mark.parametrize("clicks", [(1, 0), (0, 1), (2, 1)])
def test_scissors_with_unbalanced_lossy_splitters_matches_the_dense_reference(clicks):
    # the b* <k|b> term of <k|D(b)|1> = sqrt(k) <k-1|b> - b* <k|b> cancels
    # between the counters when Omega = t r* + r t* = 0, as for every balanced
    # lossy_5050 element; these elements have Omega 0.36 and -0.1.  The
    # reference keeps 10 drive photons, a tail of 4e-18
    drive, detectors = CoherentDrive(0.3 - 0.2j), DetectorSpec(0.6)
    for spec in (BeamSplitterSpec(0.6, 0.3 + 0.2j), BeamSplitterSpec(0.5 + 0.3j, -0.4 + 0.5j)):
        res = run_scissors(ScissorsConfig(drive=drive, bs1=spec, bs2=spec, detectors=detectors, clicks=clicks))
        ref_rho, ref_p, ref_f = reference_scissors(0.6, 0.0, 0.3 - 0.2j, n_drive=10, clicks=clicks, spec=spec)
        assert res.probability == pytest.approx(ref_p, rel=1e-12)
        assert np.max(np.abs(res.state.matrix - ref_rho)) <= 1e-12 * np.max(np.abs(ref_rho))
        assert res.fidelity == pytest.approx(ref_f, rel=1e-12)


def test_scissors_custom_click_pattern():
    res = run_scissors(ScissorsConfig(drive=CoherentDrive(1.0), clicks=(0, 1)))
    # (0,1) heralds the phase-flipped qubit: fidelity against the unflipped
    # target drops below 1 but the run is still well-formed
    assert 0.0 <= res.fidelity <= 1.0
    assert 0.0 <= res.probability <= 1.0


# ---------------------------------------------------------------- teleport


def test_teleport_ideal_identity():
    res = run_teleport(TeleportConfig(input_state=QubitAmplitudes(0.6, 0.8)))
    assert res.probability == pytest.approx(0.25, abs=1e-10)
    assert res.fidelity >= 1 - 1e-10


def test_teleport_ideal_vacuum_input():
    res = run_teleport(TeleportConfig(input_state=QubitAmplitudes(1.0, 0.0)))
    assert res.fidelity >= 1 - 1e-12
    assert population(res.state, (0,)) == pytest.approx(1.0, abs=1e-12)


def test_teleport_flip_pattern_gives_phase_flip():
    qubit = QubitAmplitudes(0.6, 0.8)
    res = run_teleport(TeleportConfig(input_state=qubit, clicks=(0, 1)))
    assert res.probability == pytest.approx(0.25, abs=1e-10)
    flipped = phase_flipped(qubit).as_vector("a")
    assert fidelity(res.state, flipped) >= 1 - 1e-10
    # and against the unflipped target the overlap is strictly lower
    assert res.fidelity < 1 - 1e-3


def test_teleport_stage_closed_form_with_detector_loss():
    qubit = QubitAmplitudes(0.6, 0.8)
    for eta in (0.7, 0.5):
        res = run_teleport(TeleportConfig(input_state=qubit, detectors=DetectorSpec(eta)))
        p_exp, f_exp = closed_form_teleport_stage(eta, 0.6, 0.8)
        assert res.probability == pytest.approx(p_exp, abs=1e-12)
        assert res.fidelity == pytest.approx(f_exp, abs=1e-12)


def test_teleport_density_input_requires_target():
    rho = pure_density(QubitAmplitudes(1.0, 0.0).as_vector("c"))
    with pytest.raises(ValueError, match="target"):
        run_teleport(TeleportConfig(input_state=rho))


def test_teleport_density_input_on_another_mode_is_refused():
    rho = pure_density(QubitAmplitudes(0.6, 0.8).as_vector("a"))
    target = QubitAmplitudes(0.6, 0.8).as_vector("a")
    with pytest.raises(ValueError, match=r"^teleport input must be on mode 'c', got 'a'$"):
        run_teleport(TeleportConfig(input_state=rho, target=target))


def test_teleport_input_the_teleporter_cannot_hold_is_refused():
    # a scissors output above TELEPORT_CUTOFF photons, and a zero-trace input, each end in a
    # one-line ValueError before the engine sees them
    with pytest.raises(ValueError, match=r"^teleport input cutoff 3 exceeds the limit of 2$"):
        full_pipeline(ScissorsConfig(output_cutoff=3))
    empty = DensityOperator(ModeRegister(("c",), (1,)), np.zeros((2, 2)))
    target = QubitAmplitudes(0.6, 0.8).as_vector("a")
    with pytest.raises(ValueError, match=r"^teleport input has trace 0\.0, not a state$"):
        run_teleport(TeleportConfig(input_state=empty, target=target))


@pytest.mark.parametrize(
    "cutoff, matrix, message",
    [
        (2, np.diag([0.0, 0.0, 1.0]), r"has weight 1\.0 above one photon"),
        (2, np.diag([0.5, 0.0, 0.5]), r"has weight 0\.5 above one photon"),
        (1, np.diag([1.2, -0.2]), r"is not positive \(lowest minor -2\.400e-01\)"),
        (1, np.diag([0.18, 0.32]), r"has trace 0\.5, not a state"),
        # no |2> weight, but not positive (lowest eigenvalue -0.14) through its coherence into |2>
        (2, [[0.5, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.0]], r"has weight 0\.3 above one photon"),
        (1, [[math.nan, 0.0], [0.0, 0.5]], r"has an entry that is not finite"),
    ],
    ids=["two-photons", "vacuum-two-mixture", "negative-weight", "trace-0.5", "coherence-into-two", "nan-entry"],
)
def test_teleport_density_input_that_is_not_a_qubit_is_refused(cutoff, matrix, message):
    # the teleporter holds at most one input photon and reports a probability relative to a
    # unit-trace, positive input, so any other input is refused before the engine sees it
    rho = DensityOperator(ModeRegister(("c",), (cutoff,)), np.array(matrix))
    target = QubitAmplitudes(0.6, 0.8).as_vector("a")
    with pytest.raises(ValueError, match=rf"^teleport input {message}$"):
        run_teleport(TeleportConfig(input_state=rho, target=target))


@pytest.mark.parametrize(
    "matrix", [[[1.2, 0.0], [0.0, -0.2]], [[0.5, 0.6], [0.6, 0.5]]], ids=["negative-diagonal", "fidelity-1.1"]
)
def test_unphysical_conditional_output_raises_and_exits_one(monkeypatch, capsys, matrix):
    # every RunResult checks its state before its fidelity is read: a non-positive conditional
    # output never leaves a stage, even one whose overlap with the scissors target escapes [0, 1]
    def broken(config):  # a stage returning this conditional output, as every stage returns one
        state = DensityOperator(ModeRegister(("c",), (1,)), np.array(matrix))
        return RunResult(state, 0.5, QubitAmplitudes.from_drive(config.drive).as_vector("c"))

    with pytest.raises(UnphysicalStateError, match=r"^conditional state is not positive"):
        broken(ScissorsConfig())
    monkeypatch.setattr(cli, "full_pipeline", broken)
    monkeypatch.setattr(cli, "run_scissors", broken)
    assert evaluate_point(0.7, 0.1, 1.0).run_error == "unphysical_state"
    assert main(["scissors"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("run error: conditional state is not positive") and err.count("\n") == 1
    assert "Traceback" not in err


def test_teleport_missing_input_rejected():
    with pytest.raises(ValueError, match="input_state"):
        run_teleport(TeleportConfig())


HOM_INPUTS = {"pure": QubitAmplitudes(0.6, 0.8j), "mixed": mixed_input()}


def _coincidence(spec, eta, state):
    target = QubitAmplitudes(0.6, 0.8j).as_vector("a")
    config = TeleportConfig(input_state=state, bs1=spec, bs2=spec, detectors=DetectorSpec(eta), clicks=(1, 1), target=target)
    return run_teleport(config)


@pytest.mark.parametrize("kind", sorted(HOM_INPUTS))
@pytest.mark.parametrize("eta", [0.3, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 0.02, 0.1, 0.5, 0.9])
def test_balanced_splitter_refuses_the_coincidence_at_every_damping(gamma, eta, kind):
    # Hong-Ou-Mandel: through S = s U with U the balanced 50/50 unitary, two photons on (b, c)
    # leave by one port, t^2 + r^2 = 0, so the (1, 1) pattern is impossible at every Gamma
    with pytest.raises(ImpossibleOutcomeError):
        _coincidence(BeamSplitterSpec.lossy_5050(gamma), eta, HOM_INPUTS[kind])
    if kind == "pure":
        argv = ["teleport", "--gamma", str(gamma), "--eta", str(eta), "--config", '{"clicks": [1, 1]}']
        assert main(argv) == 1


@pytest.mark.parametrize("kind", sorted(HOM_INPUTS))
def test_equal_singular_values_alone_do_not_refuse_the_coincidence(kind):
    # S S^dag = s^2 I as for lossy_5050, but t^2 + r^2 = 0.11: the (1, 1) pattern runs
    spec = BeamSplitterSpec(0.6, 0.5j)
    assert abs(spec.t + spec.r) == abs(spec.t - spec.r)
    assert _coincidence(spec, 1.0, HOM_INPUTS[kind]).probability > 1e-4


# ---------------------------------------------------------------- pipeline


def test_pipeline_all_ideal_is_exact():
    s_res, t_res, fid = full_pipeline(ScissorsConfig(drive=CoherentDrive(1.0)))
    assert fid >= 1 - 1e-10
    assert s_res.probability == pytest.approx(2 * math.exp(-1) / 4, abs=1e-12)
    assert t_res.probability == pytest.approx(0.25, abs=1e-10)


def test_pipeline_ideal_any_ratio_is_exact():
    # ratio R = 4 (drive 0.5): ideal machine is exact for any ratio
    _, _, fid = full_pipeline(ScissorsConfig(drive=CoherentDrive(0.5)))
    assert fid >= 1 - 1e-10


def test_pipeline_end_to_end_matches_teleport_oracle_at_unit_ratio():
    # with ratio R=1 the printed teleported-state fidelity agrees with the
    # simulation (deviations appear away from R=1 and are report-only)
    from qscissors.analytic import teleport_fidelity

    for eta, gamma_bs in ((0.7, 0.02), (0.5, 0.0), (1.0, 0.1)):
        _, _, fid = full_pipeline(lossy_cfg(eta, gamma_bs, 1.0))
        oracle = teleport_fidelity(NoiseParams(eta=eta, gamma_bs=gamma_bs, ratio_R=1.0))
        assert fid == pytest.approx(oracle.value, abs=1e-6)


def test_pipeline_frozen_noise_point():
    # eta=0.7, Gamma=0.02, drive 1: end-to-end fidelity 123079/148158
    _, _, fid = full_pipeline(lossy_cfg(0.7, 0.02, 1.0))
    assert fid == pytest.approx(0.830728006587562, abs=1e-9)


def test_pipeline_probability_identity_with_teleport_norm():
    # resolved relationship: p_scissors * p_teleport equals
    # eta ((1-Gamma)/2)^2 / N_teleport at every tested noise point
    for eta, gamma_bs, g in ((1.0, 0.0, 1.0), (0.7, 0.02, 1.0), (0.5, 0.1, 0.5)):
        s_res, t_res, _ = full_pipeline(lossy_cfg(eta, gamma_bs, g))
        params = NoiseParams.from_drive(eta, gamma_bs, CoherentDrive(g))
        norm = teleport_norm(params).value
        expected = eta * ((1 - gamma_bs) / 2) ** 2 / norm
        assert s_res.probability * t_res.probability == pytest.approx(expected, rel=1e-9)


def test_pipeline_monotone_in_noise():
    # raising eta or lowering Gamma never lowers the end-to-end fidelity
    fids = {}
    for eta in (0.5, 0.7, 1.0):
        for gamma_bs in (0.0, 0.02, 0.1):
            _, _, fid = full_pipeline(lossy_cfg(eta, gamma_bs, 1.0))
            fids[(eta, gamma_bs)] = fid
    for gamma_bs in (0.0, 0.02, 0.1):
        assert fids[(0.5, gamma_bs)] <= fids[(0.7, gamma_bs)] + 1e-12
        assert fids[(0.7, gamma_bs)] <= fids[(1.0, gamma_bs)] + 1e-12
    for eta in (0.5, 0.7, 1.0):
        assert fids[(eta, 0.1)] <= fids[(eta, 0.02)] + 1e-12
        assert fids[(eta, 0.02)] <= fids[(eta, 0.0)] + 1e-12


def test_pipeline_deterministic_bit_identical():
    cfg = lossy_cfg(0.7, 0.02, 1.0)
    first = full_pipeline(cfg)
    second = full_pipeline(cfg)
    assert np.array_equal(first[0].state.matrix, second[0].state.matrix)
    assert np.array_equal(first[1].state.matrix, second[1].state.matrix)
    assert first[2] == second[2]
    assert first[0].probability == second[0].probability


def test_pipeline_results_in_range_and_physical():
    s_res, t_res, fid = full_pipeline(lossy_cfg(0.5, 0.1, 2.0))
    for res in (s_res, t_res):
        assert 0.0 <= res.probability <= 1.0
        assert 0.0 <= res.fidelity <= 1.0
        assert_physical(res.state)
    assert 0.0 <= fid <= 1.0


def test_large_drives_stay_exact_low_rank_and_fast():
    # a Fock-space drive at 6 (cutoff 86) would need a register of dim 15488;
    # the displaced frame runs every drive on the same dim-8 register
    eta, gamma_bs = 0.5, 0.1
    start = time.perf_counter()
    for g in (0.5, 3.0, 6.0, 10.0):
        cfg = lossy_cfg(eta, gamma_bs, g)
        params = NoiseParams.from_drive(eta, gamma_bs, CoherentDrive(g))
        norm15 = truncation_norm(params, BeamSplitterSpec.lossy_5050(gamma_bs)).value
        alone = run_scissors(cfg)
        s_res, t_res, _ = full_pipeline(cfg)
        for res in (alone, s_res):
            assert res.fidelity == pytest.approx(closed_form_scissors_fidelity(eta, gamma_bs, g), abs=1e-9)
            assert res.probability * norm15 == pytest.approx(1.0, rel=1e-9)
        expected = eta * ((1 - gamma_bs) / 2) ** 2
        pair = s_res.probability * t_res.probability * teleport_norm(params).value
        assert pair == pytest.approx(expected, rel=1e-9)
    assert time.perf_counter() - start < 15.0


def test_click_ceiling_admits_201_and_refuses_larger_counts():
    # the ceiling is a fixed bound of the config surface, whatever the drive
    assert MAX_CLICKS == 201
    cfg = lossy_cfg(0.7, 0.1, 20.0, clicks=(MAX_CLICKS, MAX_CLICKS))
    tracemalloc.start()
    try:
        res = run_scissors(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < res.probability <= 1.0
    assert abs(res.state.trace() - 1.0) <= 1e-12
    assert_physical(res.state)
    assert peak <= 40e6, f"{peak / 1e6:.1f} MB at the ceiling"
    for clicks in [(MAX_CLICKS + 1, 0), (0, MAX_CLICKS + 1), (10**6, 0), (20000, 20000), (-1, 0)]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"clicks must lie in \[0, 201\]"):
                run_scissors(lossy_cfg(0.7, 0.1, 20.0, clicks=clicks))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5


def test_clicked_row_costs_the_same_at_every_click_count():
    # the clicked row sits at occupation (0, 0) of a cutoff-1 (d, e) register, so the
    # ceiling costs what one click costs; 2.3003636559792787e-20 is the probability a
    # zero-padded register of (k_d + 1)(k_e + 1) rows gave
    cfg = lossy_cfg(0.7, 0.1, 20.0, clicks=(MAX_CLICKS, MAX_CLICKS))
    tracemalloc.start()
    try:
        res = run_scissors(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, f"{peak / 1e6:.1f} MB at clicks ({MAX_CLICKS}, {MAX_CLICKS})"
    assert res.probability == pytest.approx(2.3003636559792787e-20, rel=1e-12)


@pytest.mark.parametrize("drive", [12.0, 25.0, 100.0, 1e3, 1e150])
def test_scissors_runs_or_refuses_every_drive_without_a_cutoff(drive):
    # the displaced frame takes any drive: the outcome is either physical or impossible, never NaN
    start = time.perf_counter()
    try:
        res = run_scissors(lossy_cfg(0.7, 0.1, drive))
    except ImpossibleOutcomeError as exc:
        assert drive >= 100.0, exc
    else:
        assert drive < 100.0
        assert res.fidelity == pytest.approx(closed_form_scissors_fidelity(0.7, 0.1, drive), abs=1e-9)
        assert "drive_cutoff" not in res.diagnostics
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("drive", [30.0, 1e3, 1e3j, 1e150 + 1e150j])
def test_qubit_from_drive_holds_where_the_drive_amplitudes_underflow(drive):
    # the drive's zero/one-photon weight underflows from |gamma| = 27 on; the target does not
    qubit = QubitAmplitudes.from_drive(CoherentDrive(drive))
    norm = math.hypot(1.0, abs(drive))
    assert qubit.c0 == 1 / norm
    assert qubit.c1 == pytest.approx(drive / norm, rel=1e-15)
    assert abs(qubit.c0) ** 2 + abs(qubit.c1) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_qubit_from_drive_agrees_with_the_renormalized_drive_amplitudes():
    for drive in (1e-7, 0.3, 0.8 + 0.3j, -1.5j, 2.0, 6.0, 10.0, 20.0, 26.0):
        d = CoherentDrive(drive)
        norm = math.sqrt(abs(d.amplitude(0)) ** 2 + abs(d.amplitude(1)) ** 2)
        qubit = QubitAmplitudes.from_drive(d)
        assert abs(qubit.c0 - d.amplitude(0) / norm) <= 1e-15
        assert abs(qubit.c1 - d.amplitude(1) / norm) <= 1e-15


def test_qubit_from_drive_is_the_normalized_zero_one_target():
    drive = CoherentDrive(0.8 + 0.3j)
    qubit = QubitAmplitudes.from_drive(drive)
    norm = math.sqrt(abs(drive.amplitude(0)) ** 2 + abs(drive.amplitude(1)) ** 2)
    assert qubit.c0 == pytest.approx(drive.amplitude(0) / norm, abs=1e-15)
    assert qubit.c1 == pytest.approx(drive.amplitude(1) / norm, abs=1e-15)
    vec = qubit.as_vector("a", cutoff=2)
    assert vec.register.labels == ("a",)
    assert vec.amplitudes[2] == 0
    # the scissors stage uses the same builder for its target
    res = run_scissors(ScissorsConfig(drive=drive, output_cutoff=2))
    assert np.array_equal(res.target.amplitudes, qubit.as_vector("c", cutoff=2).amplitudes)
