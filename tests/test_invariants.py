"""Engine-independent invariants of the two stages: the probabilities of every
click pattern sum to 1, two lossy splitters in sequence are one lossy element,
both stages commute with the photon-number phase, the teleporter is linear in
its input, and a frozen table of end-to-end results holds to 1e-12.

None of these looks at registers, ranks or blocks, so they hold for any engine
that computes the same physics.

The frozen table (``regression_table.json``) was recorded once from the Fock
engine with ``record_table()``; its inputs come from the seeded generator
``table_inputs()``, which the test checks against the stored inputs.  A
mismatch is a change of physics: it is never fixed by recording the table
again or by choosing another grid.  Its one correction so far: 18 teleport
(1, 1) rows through balanced splitters hold "refused" (Hong-Ou-Mandel), where
the recorded probabilities of 1e-41 to 1e-32 were the rounding residue of a
numerical SVD of the splitter.
"""

import cmath
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qscissors.apparatus import MAX_CLICKS, QubitAmplitudes, ScissorsConfig, TeleportConfig, run_scissors, run_teleport
from qscissors.channels import BeamSplitterSpec, DetectorSpec, ImpossibleOutcomeError, apply_bs_channel
from qscissors.fock import CoherentDrive, DensityOperator, FactoredState, ModeRegister

from .reference import apply_lossy_bs, to_density
from .test_channels import random_physical_specs, random_retained_state

COMPLETENESS_TOL = 1e-14
TAIL_EPS = 1e-17


def probability_or_zero(run, config) -> float:
    """The outcome's probability; a refused (impossible) outcome counts as 0."""
    try:
        return run(config).probability
    except ImpossibleOutcomeError:
        return 0.0


def poisson_tail_bound(mean: float, eps: float = TAIL_EPS) -> int:
    """The smallest K with P(N > K) < eps for N ~ Poisson(mean)."""
    n_max = int(mean + 40 * math.sqrt(mean) + 60)
    pmf = [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1)) for n in range(n_max + 1)]
    tail, k = 0.0, n_max
    while k > 0 and tail + pmf[k] < eps:
        tail += pmf[k]
        k -= 1
    return k


# ---------------------------------------------------------------- completeness

SPLITTER_PAIRS = {
    "ideal": (BeamSplitterSpec.ideal_5050(),) * 2,
    "lossy_0.1": (BeamSplitterSpec.lossy_5050(0.1),) * 2,
    "random_a": tuple(random_physical_specs(2, seed=101)),
    "random_b": tuple(random_physical_specs(2, seed=202)),
}


def _mixed_input() -> DensityOperator:
    reg = ModeRegister(("c",), (1,))
    return DensityOperator(reg, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))


@pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("pair", sorted(SPLITTER_PAIRS))
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_teleport_outcomes_are_complete(pair, eta, mixed):
    # at most two photons reach (b, c): one from the channel, at most one from the input
    bs1, bs2 = SPLITTER_PAIRS[pair]
    state = _mixed_input() if mixed else QubitAmplitudes(0.6, 0.8j)
    target = QubitAmplitudes(1.0, 0.0).as_vector("a")
    total = sum(
        probability_or_zero(
            run_teleport,
            TeleportConfig(input_state=state, bs1=bs1, bs2=bs2, detectors=DetectorSpec(eta), clicks=clicks, target=target),
        )
        for clicks in np.ndindex(3, 3)
    )
    assert abs(total - 1.0) <= COMPLETENESS_TOL


@pytest.mark.parametrize("drive", [0.5, 2.0])
@pytest.mark.parametrize("pair, eta", [("ideal", 1.0), ("lossy_0.1", 0.7), ("random_a", 0.3)])
def test_scissors_outcomes_are_complete(pair, eta, drive):
    # the counters see a Poisson count of mean at most eta |gamma|^2 (the splitters pass at
    # most the drive's weight) plus at most the one photon of the inner state
    bs1, bs2 = SPLITTER_PAIRS[pair]
    top = poisson_tail_bound(eta * drive**2) + 1
    total = sum(
        probability_or_zero(
            run_scissors,
            ScissorsConfig(drive=CoherentDrive(drive), bs1=bs1, bs2=bs2, detectors=DetectorSpec(eta), clicks=(k_d, k_e)),
        )
        for k_d in range(top + 1)
        for k_e in range(top + 1 - k_d)
    )
    assert abs(total - 1.0) <= COMPLETENESS_TOL


# ---------------------------------------------------------------- phase and linearity

COVARIANCE_TOL = 1e-12
# every (b, c) pattern of at most two photons, the most that reach the teleporter's counters
TELEPORT_PATTERNS = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]


def _random_qubit(rng) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = m @ m.conj().T
    return m / np.trace(m).real


def _teleport(rho_c: np.ndarray, pair: str, eta: float, clicks):
    bs1, bs2 = SPLITTER_PAIRS[pair]
    state = DensityOperator(ModeRegister(("c",), (1,)), rho_c)
    target = QubitAmplitudes(0.6, 0.8j).as_vector("a")
    config = TeleportConfig(input_state=state, bs1=bs1, bs2=bs2, detectors=DetectorSpec(eta), clicks=clicks, target=target)
    return run_teleport(config)


def _assert_rotated(turned, base, u):
    assert abs(turned.probability - base.probability) <= COVARIANCE_TOL
    assert np.max(np.abs(turned.state.matrix - u @ base.state.matrix @ u.conj().T)) <= COVARIANCE_TOL


@pytest.mark.parametrize("pair", ["random_a", "random_b"])
def test_stages_are_phase_covariant(pair):
    # passive splitters and photon counters commute with the photon-number phase, so turning
    # the drive or the teleport input by U = diag(1, e^(i phi)) turns the output by U too
    rng = np.random.default_rng(sorted(SPLITTER_PAIRS).index(pair))
    bs1, bs2 = SPLITTER_PAIRS[pair]
    eta, phi = rng.uniform(0.3, 1.0), rng.uniform(0.0, 2 * math.pi)
    u = np.diag([1.0, cmath.exp(1j * phi)])
    drive = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
    for clicks in [(1, 0), (0, 1), (2, 1)]:
        config = ScissorsConfig(drive=CoherentDrive(drive), bs1=bs1, bs2=bs2, detectors=DetectorSpec(eta), clicks=clicks)
        turned = replace(config, drive=CoherentDrive(drive * cmath.exp(1j * phi)))
        _assert_rotated(run_scissors(turned), run_scissors(config), u)
    rho_c = _random_qubit(rng)
    for clicks in TELEPORT_PATTERNS:
        _assert_rotated(_teleport(u @ rho_c @ u.conj().T, pair, eta, clicks), _teleport(rho_c, pair, eta, clicks), u)


@pytest.mark.parametrize("clicks", TELEPORT_PATTERNS)
@pytest.mark.parametrize("pair", ["random_a", "random_b"])
def test_teleport_output_is_linear_in_its_input(pair, clicks):
    # the unnormalized output p rho_a is linear in the input: a mixture's output is the
    # mixture of the outputs, each weighted by its probability
    rng = np.random.default_rng(10 + sorted(SPLITTER_PAIRS).index(pair))
    eta, w = rng.uniform(0.3, 1.0), rng.uniform()
    rho_1, rho_2 = _random_qubit(rng), _random_qubit(rng)
    one, two = (_teleport(rho, pair, eta, clicks) for rho in (rho_1, rho_2))
    mixed = _teleport(w * rho_1 + (1 - w) * rho_2, pair, eta, clicks)
    assert abs(mixed.probability - (w * one.probability + (1 - w) * two.probability)) <= COVARIANCE_TOL
    want = w * one.probability * one.state.matrix + (1 - w) * two.probability * two.state.matrix
    assert np.max(np.abs(mixed.probability * mixed.state.matrix - want)) <= COVARIANCE_TOL


# ---------------------------------------------------------------- composition


def composed(s1: BeamSplitterSpec, s2: BeamSplitterSpec) -> BeamSplitterSpec:
    """The one element of scattering matrix T = S2 S1."""
    return BeamSplitterSpec(s2.t * s1.t + s2.r * s1.r, s2.t * s1.r + s2.r * s1.t)


COMPOSITION_PAIRS = [
    (BeamSplitterSpec.lossy_5050(0.1), BeamSplitterSpec.lossy_5050(0.3)),
    (BeamSplitterSpec.ideal_5050(), BeamSplitterSpec.lossy_5050(0.2)),
    tuple(random_physical_specs(2, seed=303)),
    tuple(random_physical_specs(2, seed=404)),
]


@pytest.mark.parametrize("s1, s2", COMPOSITION_PAIRS, ids=["lossy-lossy", "ideal-lossy", "random_c", "random_d"])
def test_two_lossy_splitters_are_one_element_of_the_product_matrix(s1, s2):
    # with a vacuum environment a lossy element's channel depends on S alone, and a
    # sequence of two is the element of T = S2 S1 with noise I - T T^dag
    t = composed(s1, s2)
    assert np.allclose(t.scattering_matrix, s2.scattering_matrix @ s1.scattering_matrix, atol=1e-15)
    reg = ModeRegister(("a", "b"), (2, 2))
    rho = random_retained_state(reg, seed=17, block_max=2)  # total photons <= 2: nothing truncated
    two = apply_bs_channel(apply_bs_channel(FactoredState.from_state(rho), ("a", "b"), s1), ("a", "b"), s2)
    one = apply_bs_channel(FactoredState.from_state(rho), ("a", "b"), t)
    assert np.max(np.abs(to_density(two).matrix - to_density(one).matrix)) <= 1e-13
    dims = [3, 3]
    two_ref = apply_lossy_bs(apply_lossy_bs(rho.matrix, dims, (0, 1), s1.t, s1.r), dims, (0, 1), s2.t, s2.r)
    one_ref = apply_lossy_bs(rho.matrix, dims, (0, 1), t.t, t.r)
    assert np.max(np.abs(two_ref - one_ref)) <= 1e-13


# ---------------------------------------------------------------- frozen table

TABLE = Path(__file__).resolve().parent / "regression_table.json"
TABLE_ROWS = 200
TABLE_TOL = 1e-12
MAX_TABLE_DRIVE = 36.0


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def table_inputs() -> list[dict]:
    """The table's fixed grid, from one seed: eta in [0, 1] (both ends included), balanced
    lossy_5050(Gamma) splitters with Gamma in [0, 1) on even rows and two independent
    random physical splitters on odd rows, drives log-uniform up to 36 at a random
    phase, scissors clicks either small or near the drive's mean count (up to 201), and
    teleport clicks of at most two photons in all, the most that reach (b, c)."""
    rng = random.Random(20261019)
    rows = []
    for i in range(TABLE_ROWS):
        eta = (0.0, 1.0)[i // 25 % 2] if i % 25 == 0 else rng.uniform(0.0, 1.0)
        if i % 2 == 0:
            gamma_bs = rng.uniform(0.0, 1.0)
            specs = (BeamSplitterSpec.lossy_5050(gamma_bs),) * 2
        else:
            specs = tuple(random_physical_specs(2, seed=rng.randrange(2**32)))
        drive = cmath.rect(math.exp(rng.uniform(math.log(1e-3), math.log(MAX_TABLE_DRIVE))), rng.uniform(0, 2 * math.pi))
        clicks = []
        for amplitude in (specs[1].r * drive, specs[1].t * drive):
            mean = eta * abs(amplitude) ** 2
            if rng.random() < 0.5:
                clicks.append(rng.randrange(4))
            else:
                clicks.append(min(MAX_CLICKS, max(0, round(rng.gauss(mean, math.sqrt(mean) + 1)))))
        rows.append(
            {
                "eta": eta,
                "bs1": [_pair(specs[0].t), _pair(specs[0].r)],
                "bs2": [_pair(specs[1].t), _pair(specs[1].r)],
                "drive": _pair(drive),
                "scissors_clicks": clicks,
                "teleport_clicks": list(rng.choice([(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])),
            }
        )
    return rows


def _run(run, config):
    """One stage's record and result; a refused outcome is recorded as refused."""
    try:
        result = run(config)
    except ImpossibleOutcomeError:
        return "refused", None
    state = [_pair(z) for z in result.state.matrix.reshape(-1).tolist()]
    return {"probability": result.probability, "state": state}, result


def _spec(pair: list) -> BeamSplitterSpec:
    return BeamSplitterSpec(complex(*pair[0]), complex(*pair[1]))


def table_outputs(row: dict) -> dict:
    """Both stages of one row: the scissors output on c, teleported onto a."""
    stage = dict(bs1=_spec(row["bs1"]), bs2=_spec(row["bs2"]), detectors=DetectorSpec(row["eta"]))
    drive = CoherentDrive(complex(*row["drive"]))
    scissors, result = _run(run_scissors, ScissorsConfig(drive=drive, clicks=tuple(row["scissors_clicks"]), **stage))
    if result is None:
        return {"scissors": scissors, "teleport": "refused"}
    target = QubitAmplitudes.from_drive(drive).as_vector("a")
    config = TeleportConfig(input_state=result.state, clicks=tuple(row["teleport_clicks"]), target=target, **stage)
    return {"scissors": scissors, "teleport": _run(run_teleport, config)[0]}


def record_table(path: Path = TABLE):
    """Write the frozen table; run once, from the engine the table pins."""
    rows = [{"input": row, "output": table_outputs(row)} for row in table_inputs()]
    path.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8")


def _table() -> list[dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_inputs_are_the_seeded_grid():
    rows = _table()
    assert len(rows) == TABLE_ROWS
    assert [row["input"] for row in rows] == table_inputs()
    refused = sum(row["output"]["scissors"] == "refused" for row in rows)
    teleported = sum(row["output"]["teleport"] != "refused" for row in rows)
    assert 0 < refused < TABLE_ROWS // 2 and teleported > TABLE_ROWS // 2


def _stage_errors(got, want) -> list[str]:
    if got == "refused" or want == "refused":
        return [] if got == want else [f"{got!r} where the table has {want!r}"]
    errors = []
    if abs(got["probability"] - want["probability"]) > TABLE_TOL:
        errors.append(f"probability {got['probability']!r} vs {want['probability']!r}")
    diff = np.max(np.abs(np.array(got["state"]) - np.array(want["state"])))
    if diff > TABLE_TOL:
        errors.append(f"state differs by {diff:.3e}")
    return errors


def test_frozen_table_rows_hold():
    failures = {}
    for row in _table():
        got = table_outputs(row["input"])
        errors = [f"{stage}: {e}" for stage in ("scissors", "teleport") for e in _stage_errors(got[stage], row["output"][stage])]
        if errors:
            failures[json.dumps(row["input"])] = errors
    assert not failures


# balanced rows with |drive| <= 0.6 and scissors clicks <= 2, spread over the click patterns;
# at n_drive = 10 the drive's truncated tail is below 1e-14 on each
DENSE_ROWS = (4, 20, 46, 52, 88, 124, 126, 162)


@pytest.mark.parametrize("index", DENSE_ROWS)
def test_frozen_table_scissors_rows_match_the_dense_reference(index):
    from .reference import reference_scissors

    row = _table()[index]
    inputs, want = row["input"], row["output"]["scissors"]
    spec, drive, clicks = _spec(inputs["bs1"]), complex(*inputs["drive"]), tuple(inputs["scissors_clicks"])
    assert inputs["bs2"] == inputs["bs1"] and spec.omega == 0 and abs(drive) <= 0.6 and max(clicks) <= 2
    rho, probability, _ = reference_scissors(inputs["eta"], spec.gamma, drive, 10, clicks=clicks, spec=spec)
    assert abs(probability - want["probability"]) <= TABLE_TOL
    state = np.array([complex(*z) for z in want["state"]]).reshape(rho.shape)
    assert np.max(np.abs(rho - state)) <= TABLE_TOL


# the refused teleport rows are balanced (1, 1) patterns, which Hong-Ou-Mandel interference
# forbids; the reference's numerical SVD of the splitter leaves rounding residue below this
REFUSED_REFERENCE_PROBABILITY = 1e-30


def test_frozen_table_teleport_rows_match_the_dense_reference():
    # each row's teleporter takes that row's own recorded scissors state as its input
    from .reference import reference_teleport

    failures, checked = {}, {"kept": 0, "refused": 0}
    for index, row in enumerate(_table()):
        inputs, output = row["input"], row["output"]
        if output["scissors"] == "refused":
            continue
        rho_c = np.array([complex(*z) for z in output["scissors"]["state"]]).reshape(2, 2)
        clicks = tuple(inputs["teleport_clicks"])
        rho_a = reference_teleport(inputs["eta"], _spec(inputs["bs1"]), _spec(inputs["bs2"]), rho_c, clicks)
        probability = float(np.trace(rho_a).real)
        if output["teleport"] == "refused":
            checked["refused"] += 1
            errors = [] if probability < REFUSED_REFERENCE_PROBABILITY else [f"probability {probability:.3e}"]
        else:
            checked["kept"] += 1
            got = {"probability": probability, "state": [_pair(z) for z in (rho_a / probability).reshape(-1).tolist()]}
            errors = _stage_errors(got, output["teleport"])
        if errors:
            failures[index] = errors
    assert not failures
    assert checked == {"kept": 178, "refused": 18}
