"""Closed-form reference layer: noise moments, normalization constants, and
fidelity formulas evaluated verbatim as printed in the source derivation.

The formulas are never corrected, even where they are suspect; a fidelity
escaping [0, 1] is returned with an out-of-range flag so reports can surface
the anomaly while the numerical simulator stands as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import BeamSplitterSpec
from .fock import CoherentDrive

FORMULA_IDS = ("N_eq15", "F_eq16", "N_eq180", "F_eq20")


@dataclass(frozen=True)
class NoiseParams:
    """The noise triple (eta, Gamma, R) of one operating point.

    ratio_R is the vacuum-to-one-photon weight ratio 1/|gamma|^2 of the drive,
    so it fixes the drive amplitude magnitude ``gamma_amp`` that the printed
    normalization constants need.
    """

    eta: float
    gamma_bs: float
    ratio_R: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.gamma_bs < 1.0:
            raise ValueError(f"Gamma must lie in [0, 1), got {self.gamma_bs}")
        if not self.ratio_R > 0.0:
            raise ValueError(f"ratio R must be positive, got {self.ratio_R}")

    @property
    def gamma_amp(self) -> float:
        """|gamma| = 1/sqrt(R), standing in for the |alpha| of the exponential factors
        (the derivation never defines alpha; the drive amplitude is the only amplitude
        in the setup)."""
        return 1.0 / math.sqrt(self.ratio_R)

    @classmethod
    def from_drive(cls, eta: float, gamma_bs: float, drive: CoherentDrive) -> "NoiseParams":
        return cls(eta=eta, gamma_bs=gamma_bs, ratio_R=drive.ratio)


@dataclass(frozen=True)
class OracleReport:
    """One evaluated formula: value, which formula, and whether the value
    escaped its physical range."""

    value: float
    formula: str
    out_of_range: bool = False

    def __post_init__(self):
        if self.formula not in FORMULA_IDS:
            raise ValueError(f"unknown formula id {self.formula!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"oracle value for {self.formula} is not finite: {self.value}")


def combined_damping(eta: float, gamma: float) -> float:
    """Effective damping eta*Gamma + (1 - eta) of a lossy element followed by
    an efficiency-eta detector.

    Reduces to Gamma at eta = 1 and to 1 - eta at Gamma = 0.
    """
    return eta * gamma + (1.0 - eta)


def truncation_norm(params: NoiseParams, bs: BeamSplitterSpec) -> OracleReport:
    """Normalization constant of the engineered zero/one-photon state:

    N = { e^(d |g|^2) * eta |r|^2 * [ |C|^2 |t|^2
          + (eta G + G/|r|^2 + (1-eta)) |r|^2 |g1|^2 ] }^-1,  d = eta G + 1 - eta.
    """
    t2 = abs(bs.t) ** 2
    r2 = abs(bs.r) ** 2
    if r2 == 0.0:
        raise ZeroDivisionError("reflection r = 0 makes the normalization diverge")
    eta, g, lam = params.eta, params.gamma_bs, params.gamma_amp**2
    d = combined_damping(eta, g)
    # both bracket terms carry |C|^2 (|g1|^2 = |C|^2 / (1 + R)), and e^(d |g|^2) |C|^2 is formed as
    # (1 + |g|^2) e^((d-1) |g|^2): finite where |C|^2 alone underflows (from |g| = 27.3)
    weight = (1.0 + lam) * math.exp((d - 1.0) * lam)
    inner = t2 + (eta * g + g / r2 + (1.0 - eta)) * r2 / (1.0 + params.ratio_R)
    value = 1.0 / (weight * eta * r2 * inner)
    return OracleReport(value, "N_eq15")


def truncation_fidelity(params: NoiseParams) -> OracleReport:
    """Fidelity of the engineered state against its zero/one-photon target:

    F = 1 - [1 - eta (1+G^2)/(1-G)]
            / ( (1+R) * { 1 + R [1 - eta (1+G^2)/(1-G)] } ).

    Evaluated verbatim; flagged (not clamped) when it escapes [0, 1].

    At Gamma = 0 this reduces to 1 - d/((1+R)(1+R d)), d = 1-eta, which
    disagrees with the (1+R+d)/(1+R) factor of the printed normalization
    (Eq. 15, ``truncation_norm``): the printed "1 + R d" is a misprint of
    "1 + R + d", and acceptance criterion 08b checks the simulation against
    the corrected form.  At Gamma > 0 the bracket x is misprinted too: the
    simulation matches this form with x replaced by the bracket of the
    printed Eq. 15, x' = eta G + G/|r|^2 + 1 - eta, and with 1 + R x by
    1 + R + x' (criterion 08c).  The printed x is negative at eta = 1 for
    every G > 0, where this value exceeds 1.  Only the docstring records the
    correction; the value returned is the printed formula.
    """
    eta, g, r = params.eta, params.gamma_bs, params.ratio_R
    x = 1.0 - eta * (1.0 + g**2) / (1.0 - g)
    value = 1.0 - x / ((1.0 + r) * (1.0 + r * x))
    return OracleReport(value, "F_eq16", out_of_range=not 0.0 <= value <= 1.0)


def teleport_norm(params: NoiseParams) -> OracleReport:
    """Normalization constant of the teleported state:

    N = { e^(-eta (1-G) |g|^2) * eta ((1-G)/2)^2
          * [ 1 + (1/R) (4/(1-G) - 3 eta (1-G)) ] }^-1.
    """
    eta, g, r = params.eta, params.gamma_bs, params.ratio_R
    inner = 1.0 + (1.0 / r) * (4.0 / (1.0 - g) - 3.0 * eta * (1.0 - g))
    value = 1.0 / (math.exp(-eta * (1.0 - g) * params.gamma_amp**2) * eta * ((1.0 - g) / 2.0) ** 2 * inner)
    return OracleReport(value, "N_eq180")


def teleport_fidelity(params: NoiseParams) -> OracleReport:
    """Fidelity of the teleported state against the zero/one-photon target:

    F = 1 - [ (3+G)/(1-G) - 3 eta (1-G) ]
            / ( (1+R) * { 1 + R [ 4/(1-G) - 3 eta (1-G) ] } ).

    Evaluated verbatim; flagged (not clamped) when it escapes [0, 1].

    With x = 4/(1-G) - 3 eta (1-G) the numerator is x - 1, and the printed
    normalization (N_eq180, ``teleport_norm``) carries the factor
    1 + x/R = (R + x)/R, so the denominator should read (1+R)(R + x), not
    (1+R)(1 + R x): the simulation matches F = 1 - (x-1)/((1+R)(R+x))
    (criterion 08d).  The two agree only at R = 1 or x = 1.  Only the
    docstring records the correction; the value returned is the printed
    formula.
    """
    eta, g, r = params.eta, params.gamma_bs, params.ratio_R
    num = (3.0 + g) / (1.0 - g) - 3.0 * eta * (1.0 - g)
    den = (1.0 + r) * (1.0 + r * (4.0 / (1.0 - g) - 3.0 * eta * (1.0 - g)))
    value = 1.0 - num / den
    return OracleReport(value, "F_eq20", out_of_range=not 0.0 <= value <= 1.0)
