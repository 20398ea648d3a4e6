"""Workload inputs and bodies.

Inputs come only from the seed.  Every body drives the package through
``qscissors.cli`` and leaves its rows in the JSON report it wrote, which is
what the correctness gate reads back.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# The ROADMAP's headline grid: each (Gamma, drive) pre-detection state is
# recomputed for all three etas, so reuse of passive builds shows here.
SWEEP_GRID = {
    "eta": [0.5, 0.7, 1.0],
    "gamma_bs": [0.0, 0.02, 0.1],
    "drive": [0.5, 1.0, 2.0],
}
SMALL_POINTS = 200
SMALL_DRIVE = (0.2, 0.6)  # dims 128 to 288: fixed per-call costs dominate
ETA_RANGE = (0.4, 1.0)
GAMMA_RANGE = (0.0, 0.2)

WORKLOADS = ("sweep_default", "points_small")


def make_inputs(workload: str, seed: int) -> list[tuple[float, float, float]]:
    """(eta, Gamma, |gamma|) of every point, in evaluation order."""
    if workload == "sweep_default":
        # fixed grid: the seed does not enter
        return [
            (eta, gamma, drive)
            for eta in SWEEP_GRID["eta"]
            for gamma in SWEEP_GRID["gamma_bs"]
            for drive in SWEEP_GRID["drive"]
        ]
    if workload != "points_small":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    drives = [rng.uniform(*SMALL_DRIVE) for _ in range(SMALL_POINTS)]
    return [(rng.uniform(*ETA_RANGE), rng.uniform(*GAMMA_RANGE), d) for d in drives]


def run_body(cli, workload: str, inputs, out_stem: str) -> tuple[int, str]:
    """Run one repetition; returns (exit code, JSON report path).

    ``cli.evaluate_point`` is looked up on the module at each call so a
    wrapper installed there (latency probe or tracer) sees every point.
    """
    if workload == "sweep_default":
        config = json.dumps({"sweep": SWEEP_GRID})
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", config, "--out", out_stem])
        return code, out_stem + ".json"
    rows = [cli.evaluate_point(eta, gamma, drive) for eta, gamma, drive in inputs]
    _, json_path = cli.write_reports(rows, out_stem)
    return 0, json_path
