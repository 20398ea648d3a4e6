"""Correctness gate applied to every report row a benchmark run produces.

Three identities hold at every point, whatever the seed:

* ``prob_scissors * N_eq15 = 1`` (relative 1e-9);
* ``fid_scissors_numeric`` equals the hand-derived closed form in
  ``tests/reference.py`` (absolute 1e-9);
* ``prob_scissors * prob_teleport * N_eq180 = eta ((1 - Gamma) / 2)^2``
  (relative 1e-9).

The verbatim ``F_eq16`` is deliberately not used: it disagrees with the
simulation (acceptance criterion 08b).  When golden rows recorded for the
same inputs exist, every float column must also match them to 1e-12, the
bar a speed-up has to meet.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

IDENTITY_REL = 1e-9
CLOSED_FORM_ABS = 1e-9
GOLDEN_TOL = 1e-12
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def identity_errors(row: dict, closed_form_scissors_fidelity) -> list[str]:
    """Names of the seed-independent identities the row breaks."""
    errors = []
    eta, gamma = row["eta"], row["gamma"]
    if not _rel_close(row["prob_scissors"] * row["norm_eq15"], 1.0):
        errors.append("prob_scissors*N_eq15 != 1")
    expected = closed_form_scissors_fidelity(eta, gamma, row["drive_gamma"])
    if not abs(row["fid_scissors_numeric"] - expected) <= CLOSED_FORM_ABS:
        errors.append("fid_scissors_numeric != closed form")
    lhs = row["prob_scissors"] * row["prob_teleport"] * row["norm_eq180"]
    if not _rel_close(lhs, eta * ((1.0 - gamma) / 2.0) ** 2):
        errors.append("p_s*p_t*N_eq180 != eta((1-Gamma)/2)^2")
    return errors


def golden_errors(row: dict, golden: dict) -> list[str]:
    """Float columns of ``row`` that differ from the golden row beyond 1e-12."""
    errors = []
    for name, want in golden.items():
        got = row.get(name)
        if isinstance(want, float):
            if not isinstance(got, (int, float)) or not math.isclose(
                got, want, rel_tol=GOLDEN_TOL, abs_tol=GOLDEN_TOL
            ):
                errors.append(f"{name}: {got!r} != golden {want!r}")
        elif got != want:
            errors.append(f"{name}: {got!r} != golden {want!r}")
    return errors


def load_golden(workload: str, inputs: list) -> list[dict] | None:
    """Golden rows for these inputs, or None when none were recorded."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if [list(p) for p in inputs] != data["inputs"]:
        return None
    return data["rows"]


def row_failures(row: dict, report_row_cls, closed_form, golden: dict | None) -> list[str]:
    """Every reason the row fails: a run error, an invariant the package
    itself checks, a broken identity or a golden mismatch."""
    if row.get("run_error"):
        return [f"run_error={row['run_error']}"]
    errors = []
    if report_row_cls(**row).has_violation():
        errors.append("has_violation")
    errors += identity_errors(row, closed_form)
    if golden is not None:
        errors += golden_errors(row, golden)
    return errors


def _rel_close(value: float, expected: float) -> bool:
    return abs(value - expected) <= IDENTITY_REL * abs(expected)
