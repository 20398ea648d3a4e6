import math
import time

import numpy as np
import pytest

from qscissors.analytic import NoiseParams, teleport_norm, truncation_norm
from qscissors.apparatus import (
    MEMORY_LIMIT_BYTES,
    QubitAmplitudes,
    ScissorsConfig,
    TeleportConfig,
    bell_click_assignment,
    bell_decompose,
    bell_states,
    bs_action_on_bell,
    check_scissors_memory,
    full_pipeline,
    ideal_channel,
    reconstruct_joint,
    run_scissors,
    run_teleport,
)
from qscissors.channels import BeamSplitterSpec, DetectorSpec
from qscissors.fock import CoherentDrive, fidelity, tensor

from .reference import (
    closed_form_scissors_fidelity,
    closed_form_teleport_stage,
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
    gram = np.array([[a.overlap(b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-14


def test_bell_state_components():
    states = bell_states()
    psi_minus = states["psi_minus"]
    assert psi_minus.amplitude((0, 1)) == pytest.approx(1 / SQ2)
    assert psi_minus.amplitude((1, 0)) == pytest.approx(-1j / SQ2)
    assert states["psi_plus"].overlap(states["psi_minus"]) == pytest.approx(0.0, abs=1e-15)
    assert states["psi_minus"].overlap(states["psi_minus"]) == pytest.approx(1.0)


def test_bell_decompose_weights_and_reconstruction():
    qubit = QubitAmplitudes(0.6, 0.8)
    branches = bell_decompose(qubit)
    assert len(branches) == 4
    assert sum(b.weight for b in branches) == pytest.approx(1.0, abs=1e-12)
    for b in branches:
        assert b.weight == pytest.approx(0.25, abs=1e-12)
    rebuilt = reconstruct_joint(branches)
    direct = tensor(ideal_channel(("a", "b")), qubit.as_vector("c"))
    assert np.max(np.abs(rebuilt.amplitudes - direct.amplitudes)) < 1e-12


def test_bell_decompose_identity_branch():
    # the branch carrying the unmodified qubit is psi_plus under the fixed
    # channel and Bell conventions (resolved numerically, not assumed)
    branches = {b.label: b for b in bell_decompose(QubitAmplitudes(0.6, 0.8))}
    ident = branches["psi_plus"].conditional.normalized()
    assert ident.amplitudes[0] == pytest.approx(0.6, abs=1e-12)
    assert ident.amplitudes[1] == pytest.approx(0.8, abs=1e-12)
    flipped = branches["psi_minus"].conditional.normalized()
    # phase-flipped up to a global phase
    ratio = flipped.amplitudes / np.array([0.6, -0.8])
    assert abs(ratio[0] - ratio[1]) < 1e-12
    swapped = branches["phi_plus"].conditional.normalized()
    assert abs(swapped.amplitudes[0]) == pytest.approx(0.8, abs=1e-12)
    assert abs(swapped.amplitudes[1]) == pytest.approx(0.6, abs=1e-12)


def test_bell_decompose_trivial_input():
    branches = {b.label: b for b in bell_decompose(QubitAmplitudes(1.0, 0.0))}
    cond = branches["psi_plus"].conditional.normalized()
    assert abs(cond.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_bs_action_on_bell_images():
    images = bs_action_on_bell(BeamSplitterSpec.ideal_5050())
    reg = images["psi_plus"].register
    # psi images collapse onto a single one-photon ket each, no cross leakage
    psi_plus = images["psi_plus"]
    assert abs(psi_plus.amplitude((1, 0))) == pytest.approx(1.0, abs=1e-12)
    leakage = np.abs(psi_plus.amplitudes).sum() - abs(psi_plus.amplitude((1, 0)))
    assert leakage < 1e-12
    psi_minus = images["psi_minus"]
    assert abs(psi_minus.amplitude((0, 1))) == pytest.approx(1.0, abs=1e-12)
    # phi images: |00> -/+ (|20>+|02>)/sqrt2 (up to normalization), nothing
    # on the one-photon kets
    for sign, label in ((-1, "phi_plus"), (1, "phi_minus")):
        img = images[label]
        assert abs(img.amplitude((1, 0))) < 1e-12
        assert abs(img.amplitude((0, 1))) < 1e-12
        assert img.amplitude((0, 0)) == pytest.approx(1 / SQ2, abs=1e-12)
        assert img.amplitude((2, 0)) == pytest.approx(sign * 0.5, abs=1e-12)
        assert img.amplitude((0, 2)) == pytest.approx(sign * 0.5, abs=1e-12)
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
    res.state.assert_physical()


def test_scissors_weak_drive_approaches_vacuum():
    res = run_scissors(ScissorsConfig(drive=CoherentDrive(1e-4)))
    assert res.state.population((0,)) > 1 - 1e-6
    assert res.fidelity >= 1 - 1e-10


def test_scissors_exact_truncation_with_room_above():
    res = run_scissors(ScissorsConfig(drive=CoherentDrive(1.0), output_cutoff=3))
    assert res.state.mode_population_above("c", 1) < 1e-12
    assert res.fidelity >= 1 - 1e-10


def test_scissors_diagnostics_track_truncation():
    drive = CoherentDrive(1.0)
    res = run_scissors(ScissorsConfig(drive=drive))
    tail = drive.tail_probability(drive.resolved_cutoff())
    assert res.diagnostics["truncation_error"] == pytest.approx(tail, abs=1e-14)
    assert res.diagnostics["trace_defect"] < 1e-10


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
    assert res.state.population((0,)) == pytest.approx(1.0, abs=1e-12)


def test_teleport_flip_pattern_gives_phase_flip():
    qubit = QubitAmplitudes(0.6, 0.8)
    res = run_teleport(TeleportConfig(input_state=qubit, clicks=(0, 1)))
    assert res.probability == pytest.approx(0.25, abs=1e-10)
    flipped = qubit.phase_flipped().as_vector("a")
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
    rho = QubitAmplitudes(1.0, 0.0).as_vector("c").to_density()
    with pytest.raises(ValueError, match="target"):
        run_teleport(TeleportConfig(input_state=rho))


def test_teleport_missing_input_rejected():
    with pytest.raises(ValueError, match="input_state"):
        run_teleport(TeleportConfig())


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
        res.state.assert_physical()
    assert 0.0 <= fid <= 1.0


def test_large_drives_stay_exact_low_rank_and_fast():
    # drive 6 (cutoff 86, register dim 15488) needs 3.8 GB as a dense rho;
    # the factored register runs it in well under a second
    eta, gamma_bs = 0.5, 0.1
    start = time.perf_counter()
    for g in (3.0, 6.0):
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
        for res in (alone, s_res, t_res):
            assert res.diagnostics["compression_error"] <= 1e-12
            assert res.diagnostics["state_rank"] <= 16
        assert s_res.diagnostics["register_dim"] == 2 * (s_res.diagnostics["drive_cutoff"] + 2) ** 2
    assert time.perf_counter() - start < 15.0


def test_memory_estimate_admits_every_auto_cutoff_and_refuses_larger_ones():
    # the estimate comes from register dims alone, so nothing is allocated here
    check_scissors_memory(CoherentDrive(1.0).max_cutoff)
    check_scissors_memory(305)
    with pytest.raises(ValueError, match=r"cutoff 405 needs an estimated \d+ bytes"):
        check_scissors_memory(405)
    with pytest.raises(ValueError, match=str(MEMORY_LIMIT_BYTES)):
        run_scissors(ScissorsConfig(drive=CoherentDrive(1.0, cutoff=10**6)))


def test_qubit_from_drive_is_the_normalized_zero_one_target():
    drive = CoherentDrive(0.8 + 0.3j)
    qubit = QubitAmplitudes.from_drive(drive)
    norm = math.sqrt(abs(drive.amp0) ** 2 + abs(drive.amp1) ** 2)
    assert qubit.c0 == pytest.approx(drive.amp0 / norm, abs=1e-15)
    assert qubit.c1 == pytest.approx(drive.amp1 / norm, abs=1e-15)
    vec = qubit.as_vector("a", cutoff=2)
    assert vec.register.labels == ("a",)
    assert vec.amplitudes[2] == 0
    # the scissors stage uses the same builder for its target
    res = run_scissors(ScissorsConfig(drive=drive, output_cutoff=2))
    assert np.array_equal(res.target.amplitudes, qubit.as_vector("c", cutoff=2).amplitudes)
