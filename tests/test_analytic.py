import itertools
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from qscissors.analytic import (
    NoiseParams,
    OracleReport,
    combined_damping,
    teleport_fidelity,
    teleport_norm,
    truncation_fidelity,
    truncation_norm,
)
from qscissors.channels import BeamSplitterSpec
from qscissors.fock import CoherentDrive

from .reference import norm_C2, wick_bruteforce, wick_moment


# ---------------------------------------------------------------- damping


def test_combined_damping_examples():
    assert combined_damping(1.0, 0.0) == 0.0
    assert combined_damping(1.0, 0.02) == pytest.approx(0.02, abs=1e-15)
    assert combined_damping(0.7, 0.02) == pytest.approx(0.314, abs=1e-15)


def test_combined_damping_reductions_exact():
    for g in (0.0, 0.1, 0.5):
        assert combined_damping(1.0, g) == g
    for eta in (0.0, 0.3, 1.0):
        assert combined_damping(eta, 0.0) == 1.0 - eta


# ---------------------------------------------------------------- wick


def test_wick_single_pair_is_d():
    for d in (0.0, 0.25, 0.314, 1.0):
        assert wick_moment(1, 1, d) == d


def test_wick_mismatched_orders_vanish():
    assert wick_moment(2, 3, 0.5) == 0.0
    assert wick_moment(0, 1, 0.9) == 0.0


def test_wick_triple_pair_value():
    # brute-force normal ordering gives 3! (1/2)^3 = 3/4
    assert wick_bruteforce(3, 3, Fraction(1, 2)) == Fraction(3, 4)
    assert wick_moment(3, 3, 0.5) == 0.75


def test_wick_matches_bruteforce_exactly_for_dyadic_d():
    for d_frac in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        for n in range(5):
            for m in range(5):
                expected = float(wick_bruteforce(n, m, d_frac))
                assert wick_moment(n, m, float(d_frac)) == expected


def test_wick_ratio_property_exact():
    for d in (0.25, 0.5, 1.0):
        for n in range(1, 5):
            assert wick_moment(n, n, d) / wick_moment(n - 1, n - 1, d) == n * d


def test_wick_rejects_negative_arguments():
    with pytest.raises(ValueError):
        wick_moment(-1, 0, 0.5)
    with pytest.raises(ValueError):
        wick_moment(1, 1, -0.1)


# ---------------------------------------------------------------- params


def test_noise_params_validation():
    with pytest.raises(ValueError, match="eta"):
        NoiseParams(eta=1.2, gamma_bs=0.0, ratio_R=1.0)
    with pytest.raises(ValueError, match="Gamma"):
        NoiseParams(eta=0.5, gamma_bs=1.0, ratio_R=1.0)
    with pytest.raises(ValueError, match="ratio"):
        NoiseParams(eta=0.5, gamma_bs=0.0, ratio_R=0.0)


def test_noise_params_from_drive():
    params = NoiseParams.from_drive(0.7, 0.02, CoherentDrive(1.0))
    assert params.ratio_R == pytest.approx(1.0)
    assert norm_C2(params) == pytest.approx(2 * math.exp(-1.0))
    params_half = NoiseParams.from_drive(1.0, 0.0, CoherentDrive(0.5))
    assert params_half.ratio_R == pytest.approx(4.0)


def test_oracle_report_requires_known_formula_and_finite_value():
    with pytest.raises(ValueError, match="formula"):
        OracleReport(1.0, "bogus")
    with pytest.raises(ValueError, match="finite"):
        OracleReport(math.inf, "F_eq16")


# ---------------------------------------------------------------- norms


def params_at(eta, gamma_bs, drive_gamma):
    return NoiseParams.from_drive(eta, gamma_bs, CoherentDrive(drive_gamma))


def test_truncation_norm_ideal_is_four_over_qubit_weight():
    params = params_at(1.0, 0.0, 1.0)
    report = truncation_norm(params, BeamSplitterSpec.ideal_5050())
    c2 = 2 * math.exp(-1.0)
    assert report.value == pytest.approx(4.0 / c2, rel=1e-12)
    assert report.formula == "N_eq15"


def test_truncation_norm_exponential_factor_trivial_at_ideal():
    # with eta=1, Gamma=0 the exponent vanishes: doubling the drive energy
    # only changes the bracket, not an exponential prefactor
    p1 = params_at(1.0, 0.0, 1.0)
    v1 = truncation_norm(p1, BeamSplitterSpec.ideal_5050()).value
    assert v1 == pytest.approx(4.0 / norm_C2(p1), rel=1e-12)


def test_norm_C2_is_derived_from_the_drive_and_cannot_be_set():
    params = NoiseParams.from_drive(0.7, 0.1, CoherentDrive(1.5))
    assert norm_C2(params) == math.exp(-2.25) * 3.25
    with pytest.raises(TypeError):
        NoiseParams(eta=0.7, gamma_bs=0.1, ratio_R=1.0, norm_C2=0.5)
    with pytest.raises(AttributeError):
        params.norm_C2 = 0.5


def test_noise_params_of_a_ratio_carry_its_drive_amplitude():
    # R = 1/|gamma|^2 fixes the drive, so the triple gives the norms that the drive gives
    by_ratio = NoiseParams(0.7, 0.1, ratio_R=4.0)
    by_drive = NoiseParams.from_drive(0.7, 0.1, CoherentDrive(0.5))
    bs = BeamSplitterSpec.lossy_5050(0.1)
    for norm in (teleport_norm, lambda params: truncation_norm(params, bs)):
        want = norm(by_drive).value
        assert abs(norm(by_ratio).value - want) <= 1e-15 * want


def test_gamma_amp_is_derived_from_the_ratio_and_cannot_be_set():
    params = NoiseParams(0.7, 0.1, ratio_R=4.0)
    assert [f.name for f in fields(NoiseParams)] == ["eta", "gamma_bs", "ratio_R"]
    assert params.gamma_amp == 0.5
    with pytest.raises(TypeError):
        NoiseParams(eta=0.7, gamma_bs=0.1, ratio_R=4.0, gamma_amp=1.0)
    with pytest.raises(AttributeError):
        params.gamma_amp = 1.0


def printed_eq15_form(params, bs):
    """Eq. 15 term by term, e^(d |g|^2) and |C|^2 apart: finite only while |C|^2 is normal."""
    t2, r2, eta, g = abs(bs.t) ** 2, abs(bs.r) ** 2, params.eta, params.gamma_bs
    c2 = math.exp(-params.gamma_amp**2) * (1 + params.gamma_amp**2)
    inner = c2 * t2 + (eta * g + g / r2 + 1 - eta) * r2 * c2 / (1 + params.ratio_R)
    return 1 / (math.exp(combined_damping(eta, g) * params.gamma_amp**2) * eta * r2 * inner)


def test_truncation_norm_matches_the_printed_form_where_both_are_finite():
    drives = [0.2, 0.5, 1.0, 1.7, 2.0, 3.0, 5.0, 7.5, 10.0]
    for eta, g, drive in itertools.product([0.4, 0.7, 1.0], [0.0, 0.02, 0.1, 0.2], drives):
        params, bs = params_at(eta, g, drive), BeamSplitterSpec.lossy_5050(g)
        expected = printed_eq15_form(params, bs)
        assert abs(truncation_norm(params, bs).value - expected) <= 1.2e-14 * expected


@pytest.mark.parametrize("eta, drive_max", [(0.7, 30), (0.5, 36)])
def test_truncation_norm_stays_finite_where_the_qubit_weight_underflows(eta, drive_max):
    # |C|^2 = e^(-|g|^2) (1 + |g|^2) is 0.0 from |g| = 27.3 on; N_eq15 is not.  Its logarithm
    # gives the reference: ln N = -(d - 1) |g|^2 - ln(1 + |g|^2) - ln(eta |r|^2 bracket)
    bs = BeamSplitterSpec.lossy_5050(0.1)
    r2, t2 = abs(bs.r) ** 2, abs(bs.t) ** 2
    for drive in np.linspace(27.0, drive_max, 13):
        lam = float(drive) ** 2
        params = params_at(eta, 0.1, float(drive))
        d = combined_damping(eta, 0.1)
        bracket = t2 + (eta * 0.1 + 0.1 / r2 + 1 - eta) * r2 / (1 + 1 / lam)
        log_n = -(d - 1) * lam - math.log1p(lam) - math.log(eta * r2 * bracket)
        value = truncation_norm(params, bs).value
        assert math.isfinite(value)
        assert math.log(value) == pytest.approx(log_n, rel=1e-13)
    assert norm_C2(NoiseParams.from_drive(eta, 0.1, CoherentDrive(28.0))) == 0.0


def test_truncation_norm_golden_value():
    # frozen at first computation; independent arithmetic:
    # exp(0.686)/(0.7*0.49*exp(-1)*(0.98 + 0.49*(0.014 + 0.3 + 0.02/0.49)))*exp(-... )
    # evaluates to 5.017400587045...
    params = params_at(0.7, 0.02, 1.0)
    report = truncation_norm(params, BeamSplitterSpec.lossy_5050(0.02))
    golden = math.exp(0.686) / (0.343 * (0.98 + 0.49 * (0.014 + 0.3 + 0.02 / 0.49)))
    assert golden == pytest.approx(5.017400587045481, rel=1e-12)
    assert report.value == pytest.approx(golden, rel=1e-9)


def test_truncation_norm_rejects_zero_reflection():
    params = params_at(0.7, 0.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        truncation_norm(params, BeamSplitterSpec(1.0, 0.0))


def test_teleport_norm_ideal_value_is_2e():
    report = teleport_norm(params_at(1.0, 0.0, 1.0))
    assert report.value == pytest.approx(2 * math.e, rel=1e-12)
    assert report.formula == "N_eq180"


def test_teleport_norm_bracket_reduction_at_zero_damping():
    # at Gamma=0 the bracket term 4/(1-Gamma) - 3 eta (1-Gamma) is 4 - 3 eta
    for eta in (0.25, 0.7):
        for ratio in (0.5, 2.0):
            gamma_amp = 1.0 / math.sqrt(ratio)
            params = params_at(eta, 0.0, gamma_amp)
            expected = 1.0 / (
                math.exp(-eta * gamma_amp**2) * eta * 0.25 * (1 + (4 - 3 * eta) / ratio)
            )
            assert teleport_norm(params).value == pytest.approx(expected, rel=1e-12)


def test_teleport_norm_golden_value():
    # frozen at first computation; independent arithmetic:
    # exp(0.686)/(0.7*0.49^2*(1 + 4/0.98 - 2.058)) = 3.907570189505...
    report = teleport_norm(params_at(0.7, 0.02, 1.0))
    golden = math.exp(0.7 * 0.98) / (0.7 * 0.49**2 * (1 + (4 / 0.98 - 3 * 0.7 * 0.98)))
    assert golden == pytest.approx(3.907570189505999, rel=1e-12)
    assert report.value == pytest.approx(golden, rel=1e-9)


# ---------------------------------------------------------------- fidelities


def test_truncation_fidelity_ideal_is_one():
    for ratio in (0.25, 1.0, 4.0):
        params = NoiseParams(eta=1.0, gamma_bs=0.0, ratio_R=ratio)
        report = truncation_fidelity(params)
        assert report.value == 1.0
        assert not report.out_of_range


def test_truncation_fidelity_derived_values():
    # exact rational evaluation: 1 - 0.3/(2*1.3) = 23/26
    report = truncation_fidelity(NoiseParams(eta=0.7, gamma_bs=0.0, ratio_R=1.0))
    assert report.value == pytest.approx(float(Fraction(23, 26)), abs=1e-12)
    # Gamma=0.02: 1 - x/(2(1+x)) with x = 6993/24500, giving 55993/62986
    report2 = truncation_fidelity(NoiseParams(eta=0.7, gamma_bs=0.02, ratio_R=1.0))
    assert report2.value == pytest.approx(float(Fraction(55993, 62986)), abs=1e-9)
    assert report2.value == pytest.approx(0.888975, abs=1e-6)


def test_truncation_fidelity_out_of_range_flag():
    report = truncation_fidelity(NoiseParams(eta=1.0, gamma_bs=0.1, ratio_R=1.0))
    assert report.value == pytest.approx(1.0696202531645569, abs=1e-12)
    assert report.out_of_range
    # verbatim value survives, nothing is clamped
    assert report.value > 1.0


def test_truncation_fidelity_zero_damping_reduction():
    # the formula at Gamma=0 collapses to 1 - (1-eta)/((1+R)(1+R(1-eta)))
    for eta in (0.3, 0.7, 0.95):
        for ratio in (0.25, 1.0, 4.0):
            value = truncation_fidelity(NoiseParams(eta=eta, gamma_bs=0.0, ratio_R=ratio)).value
            reduced = 1 - (1 - eta) / ((1 + ratio) * (1 + ratio * (1 - eta)))
            assert value == pytest.approx(reduced, abs=1e-14)


def test_teleport_fidelity_ideal_is_one():
    for ratio in (0.25, 1.0, 4.0):
        report = teleport_fidelity(NoiseParams(eta=1.0, gamma_bs=0.0, ratio_R=ratio))
        assert report.value == pytest.approx(1.0, abs=1e-15)
        assert not report.out_of_range


def test_teleport_fidelity_derived_value():
    # exact rational evaluation: 1 - 25079/148158 = 123079/148158
    report = teleport_fidelity(NoiseParams(eta=0.7, gamma_bs=0.02, ratio_R=1.0))
    assert report.value == pytest.approx(float(Fraction(123079, 148158)), abs=1e-9)
    assert report.value == pytest.approx(0.830728, abs=1e-6)


def test_teleport_fidelity_monotone_and_approaches_one_in_ratio():
    ratios = np.logspace(-2, 6, 200)
    last = -1.0
    for ratio in ratios:
        value = teleport_fidelity(NoiseParams(eta=0.7, gamma_bs=0.02, ratio_R=float(ratio))).value
        assert value > last
        last = value
    assert last > 1 - 1e-4


def test_teleport_fidelity_in_range_for_ratio_at_least_one():
    # sign analysis: for R >= 1 the denominator exceeds the (non-negative)
    # numerator for every eta and Gamma, so the verbatim value stays in [0, 1]
    etas = np.linspace(0.0, 1.0, 11)
    gammas = np.linspace(0.0, 0.99, 12)
    ratios = np.logspace(0, 6, 10)
    for eta in etas:
        for g in gammas:
            for ratio in ratios:
                report = teleport_fidelity(
                    NoiseParams(eta=float(eta), gamma_bs=float(g), ratio_R=float(ratio))
                )
                assert 0.0 <= report.value <= 1.0, (eta, g, ratio, report.value)
                assert not report.out_of_range


def test_teleport_fidelity_escapes_range_at_small_ratio():
    # the verbatim formula is NOT a fidelity for small R at low efficiency;
    # the report carries the flag instead of clamping
    report = teleport_fidelity(NoiseParams(eta=0.0, gamma_bs=0.0, ratio_R=0.001))
    assert report.value < 0.0
    assert report.out_of_range


def test_teleport_fidelity_in_range_on_default_grid():
    for eta in (0.5, 0.7, 1.0):
        for g in (0.0, 0.02, 0.1):
            for ratio in (0.25, 1.0, 4.0):
                report = teleport_fidelity(NoiseParams(eta=eta, gamma_bs=g, ratio_R=ratio))
                assert 0.0 <= report.value <= 1.0
                assert not report.out_of_range


def test_fidelity_formulas_reject_unit_damping():
    with pytest.raises(ValueError):
        truncation_fidelity(NoiseParams(eta=0.7, gamma_bs=1.0, ratio_R=1.0))
    with pytest.raises(ValueError):
        teleport_fidelity(NoiseParams(eta=0.7, gamma_bs=1.0, ratio_R=1.0))
