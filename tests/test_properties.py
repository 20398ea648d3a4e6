"""Property tests over random physical inputs: every run post-selects with a
probability in [0, 1] onto a unit-trace, Hermitian, positive conditional
state."""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qscissors.apparatus import (
    QubitAmplitudes,
    ScissorsConfig,
    TeleportConfig,
    run_scissors,
    run_teleport,
)
from qscissors.channels import DetectorSpec
from qscissors.fock import CoherentDrive

from .reference import assert_physical, random_physical_specs

# one spec drawn with random_physical_specs's PSD acceptance rule per seed
specs = st.integers(0, 2**32 - 1).map(lambda seed: random_physical_specs(1, seed=seed)[0])
# eta in (0, 1]; the floor keeps a click's probability far above the
# impossible-outcome threshold (eta = 0 is the impossible outcome the CLI
# boundary table covers)
etas = st.floats(min_value=1e-6, max_value=1.0)
phases = st.floats(min_value=0.0, max_value=2 * math.pi)
clicks = st.sampled_from([(1, 0), (0, 1)])


@st.composite
def drives(draw):
    return CoherentDrive(cmath.rect(draw(st.floats(min_value=1e-3, max_value=4.0)), draw(phases)))


@st.composite
def qubits(draw):
    theta = draw(st.floats(min_value=0.0, max_value=math.pi / 2))
    return QubitAmplitudes(math.cos(theta), cmath.rect(math.sin(theta), draw(phases)))


def assert_physical_outcome(result):
    assert 0.0 <= result.probability <= 1.0
    assert abs(result.state.trace() - 1.0) <= 1e-12
    assert_physical(result.state)
    assert 0.0 <= result.fidelity <= 1.0


@settings(max_examples=15, deadline=None)
@given(spec=specs, eta=etas, drive=drives(), pattern=clicks)
def test_scissors_outcome_is_physical(spec, eta, drive, pattern):
    result = run_scissors(
        ScissorsConfig(drive=drive, bs1=spec, bs2=spec, detectors=DetectorSpec(eta), clicks=pattern)
    )
    assert_physical_outcome(result)


@settings(max_examples=40, deadline=None)
@given(spec=specs, eta=etas, qubit=qubits(), pattern=clicks)
def test_teleport_outcome_is_physical(spec, eta, qubit, pattern):
    result = run_teleport(
        TeleportConfig(input_state=qubit, bs1=spec, bs2=spec, detectors=DetectorSpec(eta), clicks=pattern)
    )
    assert_physical_outcome(result)
