"""Command-line front end: single runs, noise-parameter sweeps, and the
Bell-mapping table, with CSV/JSON reports that put the numerical results next
to the closed-form oracles.

The config schema is one table, ``ROOT_KEYS``: each root key's default, parser
and the commands that read it.  ``FLAGS`` gives the config path each flag
writes.  ``CONFIG_KEYS``, ``COMMAND_KEYS`` and every command's flags derive
from the two.  Every outside input is checked in one pass: a given flag
overrides its path of the ``--config`` object (for ``sweep``, it replaces that
grid axis; ``--ratio`` becomes the drive), ``parse_config`` checks the result,
and a key the command does not read is refused, not ignored.

Exit codes: 0 success, 1 invariant violation or impossible outcome, 2 config
error; a failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from .analytic import (
    NoiseParams,
    teleport_fidelity,
    teleport_norm,
    truncation_fidelity,
    truncation_norm,
)
from .apparatus import (
    MAX_CLICKS,
    TELEPORT_CUTOFF,
    QubitAmplitudes,
    ScissorsConfig,
    TeleportConfig,
    bell_click_assignment,
    bs_action_on_bell,
    full_pipeline,
    run_scissors,
    run_teleport,
)
from .channels import BeamSplitterSpec, DetectorSpec, ImpossibleOutcomeError
from .fock import HERMITICITY_TOL, NORM_SLACK, POSITIVITY_TOL, CoherentDrive

DEFAULT_SWEEP = {
    "eta": [0.5, 0.7, 1.0],
    "gamma_bs": [0.0, 0.02, 0.1],
    "drive": [0.5, 1.0, 2.0],
}

FLOAT_FORMAT = ".12g"


class ConfigError(ValueError):
    """Schema or range violation in a run configuration."""


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid over (eta, Gamma, drive amplitude)."""

    eta: tuple[float, ...]
    gamma_bs: tuple[float, ...]
    drive: tuple[float, ...]

    def __post_init__(self):
        for name, rule in (("eta", _check_eta), ("gamma_bs", _check_gamma_bs), ("drive", _check_drive)):
            path = f"sweep.{name}"
            values = tuple(getattr(self, name))
            if not values:
                raise ConfigError(f"{path}: list must be non-empty")
            object.__setattr__(self, name, tuple(rule(v, path).real for v in values))

    def points(self):
        """Deterministic lexicographic order over the grid."""
        return itertools.product(self.eta, self.gamma_bs, self.drive)


@dataclass
class ReportRow:
    """One sweep point: simulated quantities beside the verbatim oracles.

    ``run_error`` is empty for a clean point and carries a token (e.g.
    ``impossible_outcome``) when the point failed; failures never abort a
    sweep.  ``oor_*`` flag oracle values escaping [0, 1]; they are findings,
    not errors.  ``truncation_error`` is always 0.0, since the scissors stage
    takes the drive in the displaced frame and truncates nothing; the column
    stays because recorded reports and the benchmark's golden rows carry it.
    """

    eta: float
    gamma: float
    ratio_R: float
    drive_gamma: float
    fid_scissors_numeric: float = 0.0
    fid_scissors_eq16: float = 0.0
    fid_teleport_numeric: float = 0.0
    fid_teleport_eq20: float = 0.0
    prob_scissors: float = 0.0
    prob_teleport: float = 0.0
    norm_eq15: float = 0.0
    norm_eq180: float = 0.0
    abs_diff_16: float = 0.0
    abs_diff_20: float = 0.0
    oor_eq16: int = 0
    oor_eq20: int = 0
    truncation_error: float = 0.0
    run_error: str = ""

    def has_violation(self) -> bool:
        numeric = [self.fid_scissors_numeric, self.fid_teleport_numeric, self.prob_scissors, self.prob_teleport]
        if self.run_error or any(not math.isfinite(v) for v in vars(self).values() if isinstance(v, float)):
            return True
        return any(not 0.0 <= v <= 1.0 for v in numeric)


CSV_COLUMNS = [f.name for f in fields(ReportRow)]


def _load_config(source) -> dict:
    if isinstance(source, dict):
        return source
    text = str(source)
    try:
        if text.strip().startswith("{"):
            raw = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _is_number(value) -> bool:
    """A JSON number: true and false are not, although Python's bool is an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _drive_object(raw):
    """The drive's object form: a bare number is its amplitude."""
    return {"gamma": raw} if _is_number(raw) else raw


def _parse_drive(raw) -> complex:
    raw = _drive_object(raw)
    if not isinstance(raw, dict):
        raise ConfigError("drive: must be a number or an object")
    _check_keys(raw, "drive")
    return _check_drive(raw.get("gamma", 1.0), "drive.gamma")


def _parse_input(raw) -> QubitAmplitudes:
    if not isinstance(raw, dict) or set(raw) - set(CONFIG_KEYS["input"]):
        raise ConfigError("input: must be an object with keys c0, c1")
    c0 = _parse_complex(raw.get("c0", 1.0), "input.c0")
    c1 = _parse_complex(raw.get("c1", 0.0), "input.c1")
    norm = math.hypot(abs(c0), abs(c1))
    if not 0 < norm < math.inf:
        raise ConfigError("input: c0 and c1 must be finite and not both zero")
    return QubitAmplitudes(c0 / norm, c1 / norm)


def _parse_clicks(raw) -> tuple[int, int]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 or not all(
        _is_number(v) and isinstance(v, int) and v >= 0 for v in raw
    ):
        raise ConfigError("clicks: must be a pair of non-negative integers")
    if max(raw) > MAX_CLICKS:
        raise ConfigError(f"clicks: must lie in [0, {MAX_CLICKS}], got {max(raw)}")
    return int(raw[0]), int(raw[1])


def _parse_sweep(raw) -> SweepGrid:
    if not isinstance(raw, dict):
        raise ConfigError("sweep: must be an object")
    _check_keys(raw, "sweep")
    def listing(key):
        values = raw.get(key, DEFAULT_SWEEP[key])
        if not isinstance(values, list) or not all(map(_is_number, values)):
            raise ConfigError(f"sweep.{key}: must be a list of numbers")
        return values
    return SweepGrid(**{key: listing(key) for key in DEFAULT_SWEEP})


def _parse_out(raw) -> str | None:
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise ConfigError("out: must be a path string")
    if not os.path.basename(raw):  # "" or a directory: no report file to write
        raise ConfigError(f"out: {raw!r} names no file")
    if not os.access(os.path.dirname(os.path.abspath(raw)), os.W_OK):
        raise ConfigError(f"cannot write {raw!r}: its directory is missing or not writable")
    return raw


def _check_keys(raw: dict, section: str):
    for key in raw:
        if key not in CONFIG_KEYS[section]:
            path = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key {path!r}")


def _parse_complex(raw, path: str) -> complex:
    if _is_number(raw):
        return complex(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2 and all(map(_is_number, raw)):
        return complex(raw[0], raw[1])
    raise ConfigError(f"{path}: must be a number or [re, im] pair")


def _check_range(value, name, low, high, open_high=False) -> float:
    if not _is_number(value):
        raise ConfigError(f"{name}: must be a number")
    value = float(value)
    ok = low <= value < high if open_high else low <= value <= high
    if not ok:
        bracket = f"[{low}, {high})" if open_high else f"[{low}, {high}]"
        raise ConfigError(f"{name}: value {value} outside {bracket}")
    return value


def _check_eta(value, path="eta") -> float:
    return _check_range(value, path, 0.0, 1.0)


def _check_gamma_bs(value, path="gamma_bs") -> float:
    return _check_range(value, path, 0.0, 1.0, open_high=True)


def _check_drive(raw, path) -> complex:
    """A real amplitude must be finite and positive, a pair must have a finite, nonzero modulus,
    and |gamma|^2 must be a normal float so that R = 1/|gamma|^2 is finite.  Nothing else
    bounds the drive: the scissors stage never truncates it."""
    gamma = _parse_complex(raw, path)
    lam = abs(gamma) * abs(gamma)
    if (_is_number(raw) and raw < 0) or not sys.float_info.min <= lam < math.inf:
        raise ConfigError(f"{path}: drive amplitude {raw} must be finite and positive, |gamma|^2 normal")
    return gamma


COMMANDS = ("scissors", "teleport", "pipeline", "sweep")
_POINT = COMMANDS[:3]

# The config schema.  Each root key: its value when absent, the parser of a given value
# (which raises ConfigError naming the key's path), and the commands that read it; keys
# are parsed in this order, so the first bad key is the one reported.
ROOT_KEYS = {
    "eta": (1.0, _check_eta, _POINT),
    "gamma_bs": (0.0, _check_gamma_bs, _POINT),
    "drive": (1.0 + 0j, _parse_drive, _POINT),
    "clicks": ((1, 0), _parse_clicks, ("scissors", "teleport")),
    "input": (None, _parse_input, ("teleport",)),  # None: the drive's own qubit
    "sweep": (SweepGrid(**DEFAULT_SWEEP), _parse_sweep, ("sweep",)),
    "out": (None, _parse_out, COMMANDS),
}

# Each flag but --config: the config path it writes and its help.  A flag belongs to the
# commands that read its root key; on sweep, a flag on a grid axis replaces that axis.
# Two flags on one path exclude each other; --ratio R writes the drive 1/sqrt(R).
FLAGS = {
    "--eta": ("eta", "detector efficiency in [0, 1]"),
    "--gamma": ("gamma_bs", "beam-splitter damping in [0, 1)"),
    "--drive": ("drive.gamma", "coherent drive amplitude |gamma|"),
    "--ratio": ("drive.gamma", "target weight ratio R (sets drive to 1/sqrt(R))"),
    "--out": ("out", "report output path"),
    "--input-c0": ("input.c0", "input qubit amplitude c0"),
    "--input-c1": ("input.c1", "input qubit amplitude c1"),
}

# every key a config may hold, by section ("" is the root); parse_config refuses any other
CONFIG_KEYS = {"": tuple(ROOT_KEYS), "drive": ("gamma",), "input": ("c0", "c1"), "sweep": tuple(DEFAULT_SWEEP)}

# the root keys each command reads; ``main`` refuses any other, so no input is silently ignored
COMMAND_KEYS = {command: tuple(k for k, v in ROOT_KEYS.items() if command in v[2]) for command in COMMANDS}


def parse_config(source) -> dict:
    """Validate a raw config (dict, JSON text, or file path) against ``ROOT_KEYS``;
    rejects unknown keys and reports offending field paths, so that no input error
    surfaces later.  Returns every root key, parsed or at its default."""
    raw = _load_config(source)
    _check_keys(raw, "")
    return {key: parse(raw[key]) if key in raw else default for key, (default, parse, _) in ROOT_KEYS.items()}


def _merge_flags(raw: dict, args) -> dict:
    """The config object with each given flag written over its path (on ``sweep``, over
    that grid axis as a one-element list); parse_config checks it."""
    merged, writers = dict(raw), {}
    for flag, (path, _) in FLAGS.items():
        value = vars(args).get(flag[2:].replace("-", "_"))
        if value is None:
            continue
        if path in writers:
            raise ConfigError(f"give either {writers[path]} or {flag}, not both")
        writers[path] = flag
        if flag == "--ratio":
            if not 0 < value < math.inf:
                raise ConfigError(f"ratio: must be finite and positive, got {value}")
            value = 1.0 / math.sqrt(value)
        key, _, sub = path.partition(".")
        if args.command == "sweep" and key in DEFAULT_SWEEP:
            key, sub, value = "sweep", key, [value]
        if sub:
            section = _drive_object(merged.get(key, {})) if key == "drive" else merged.get(key, {})
            # a section that is not an object is left for parse_config to refuse
            value = {**section, sub: value} if isinstance(section, dict) else section
        merged[key] = value
    return merged


def evaluate_point(eta: float, gamma_bs: float, drive_gamma: float) -> ReportRow:
    """Run the full machine at one noise point and evaluate every oracle.
    (eta, Gamma, drive) is the whole input: both splitters are
    ``lossy_5050(gamma_bs)`` and both stages count with efficiency eta.
    Every drive the config check admits runs: the scissors stage takes it in
    the displaced frame, with no cutoff.  Splitter blocks and loss tables are
    memoized by value in ``channels``, so points whose splitters are equal share them."""
    bs = BeamSplitterSpec.lossy_5050(gamma_bs)
    drive = CoherentDrive(drive_gamma)
    params = NoiseParams.from_drive(eta, gamma_bs, drive)
    row = ReportRow(eta=eta, gamma=gamma_bs, ratio_R=params.ratio_R, drive_gamma=abs(drive_gamma))
    errors = []
    try:
        eq16, eq20 = truncation_fidelity(params), teleport_fidelity(params)
        eq15, eq180 = truncation_norm(params, bs), teleport_norm(params)
        row.fid_scissors_eq16 = eq16.value
        row.fid_teleport_eq20 = eq20.value
        row.norm_eq15 = eq15.value
        row.norm_eq180 = eq180.value
        row.oor_eq16 = int(eq16.out_of_range)
        row.oor_eq20 = int(eq20.out_of_range)
    except (ZeroDivisionError, OverflowError, ValueError):
        eq16 = eq20 = None
        errors.append("oracle_undefined")
    scissors_cfg = ScissorsConfig(drive=drive, bs1=bs, bs2=bs, detectors=DetectorSpec(eta))
    try:
        s_res, t_res, fid_e2e = full_pipeline(scissors_cfg)
        row.fid_scissors_numeric = s_res.fidelity
        row.fid_teleport_numeric = fid_e2e
        row.prob_scissors = s_res.probability
        row.prob_teleport = t_res.probability
        if eq16 is not None:
            row.abs_diff_16 = abs(s_res.fidelity - eq16.value)
            row.abs_diff_20 = abs(fid_e2e - eq20.value)
        if not (_is_physical_qubit(s_res.state) and _is_physical_qubit(t_res.state)):
            errors.append("unphysical_state")
    except ImpossibleOutcomeError:
        errors.append("impossible_outcome")
    row.run_error = ";".join(errors)
    return row


def _is_physical_qubit(rho) -> bool:
    """A 2x2 state is Hermitian, of unit trace and positive, checked in closed form: a Hermitian
    2x2 matrix is positive when its diagonal and determinant are, so no LAPACK call is made."""
    (a, b), (c, d) = rho.matrix.tolist()
    hermitian = max(abs(b - c.conjugate()), 2 * abs(a.imag), 2 * abs(d.imag)) <= HERMITICITY_TOL
    lowest = min(a.real, d.real, (a * d - b * c).real)
    return hermitian and abs(a.real + d.real - 1.0) <= NORM_SLACK and lowest >= -POSITIVITY_TOL


def run_sweep(grid: SweepGrid) -> list[ReportRow]:
    """One row per grid point, in deterministic lexicographic grid order."""
    return [evaluate_point(eta, g, drive) for eta, g, drive in grid.points()]


def format_float(value: float) -> str:
    return format(value, FLOAT_FORMAT)


def rows_to_csv(rows: list[ReportRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:  # the fields in column order
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in vars(row).values()))
    return "\n".join(lines) + "\n"


def write_reports(rows: list[ReportRow], out_path: str):
    # "r", "r.csv" and "r.json" all name the pair r.csv and r.json
    stem = out_path.removesuffix(".csv") if out_path.endswith(".csv") else out_path.removesuffix(".json")
    csv_path, json_path = stem + ".csv", stem + ".json"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
    payload = {"columns": CSV_COLUMNS, "rows": [vars(r) for r in rows]}  # the fields, not copied
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _cmd_single(kind: str, cfg: dict) -> int:
    drive = CoherentDrive(cfg["drive"])
    bs = BeamSplitterSpec.lossy_5050(cfg["gamma_bs"])
    stage = dict(bs1=bs, bs2=bs, detectors=DetectorSpec(cfg["eta"]), clicks=cfg["clicks"])
    if kind == "scissors":
        result = run_scissors(ScissorsConfig(drive=drive, **stage))
    else:
        qubit = cfg["input"] or QubitAmplitudes.from_drive(drive)
        result = run_teleport(TeleportConfig(input_state=qubit, **stage))
    payload = {
        "kind": kind,
        "eta": cfg["eta"],
        "gamma_bs": cfg["gamma_bs"],
        "drive_gamma": [cfg["drive"].real, cfg["drive"].imag],
        "clicks": list(cfg["clicks"]),
        "probability": result.probability,
        "fidelity": result.fidelity,
        "diagnostics": result.diagnostics,
        "conditional_state": result.state.to_json_dict(),
        "target": result.target.to_json_dict(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(
        f"{kind}: eta={format_float(cfg['eta'])} gamma={format_float(cfg['gamma_bs'])} "
        f"probability={format_float(result.probability)} fidelity={format_float(result.fidelity)}"
    )
    return 0


def _cmd_pipeline(cfg: dict) -> int:
    rows = [evaluate_point(cfg["eta"], cfg["gamma_bs"], abs(cfg["drive"]))]
    if cfg["out"]:
        write_reports(rows, cfg["out"])
    print(rows_to_csv(rows), end="")
    return 1 if rows[0].has_violation() else 0


def _cmd_sweep(cfg: dict) -> int:
    rows = run_sweep(cfg["sweep"])
    if cfg["out"]:
        csv_path, json_path = write_reports(rows, cfg["out"])
        print(f"wrote {csv_path} and {json_path} ({len(rows)} rows)")
    else:
        print(rows_to_csv(rows), end="")
    return 1 if any(r.has_violation() for r in rows) else 0


def _cmd_bell_check() -> int:
    images = bs_action_on_bell(BeamSplitterSpec.ideal_5050())
    assignment = bell_click_assignment(images)
    print("Bell state mapping through the balanced splitter (t=1/sqrt2, r=i/sqrt2):")
    print(f"{'state':<10} {'click pattern':<14} {'norm':<16} image components")
    violation = False
    for label, img in images.items():
        pattern = assignment[label]
        pattern_text = f"({pattern[0]},{pattern[1]})" if pattern else "mixed"
        norm = img.norm()
        violation |= abs(norm - 1.0) > 1e-12
        parts = [
            f"({amp.real:+.4f}{amp.imag:+.4f}i)|{occ[0]}{occ[1]}>"
            for occ, amp in zip(img.register.occupations(), img.amplitudes)
            if abs(amp) > 1e-12
        ]
        print(f"{label:<10} {pattern_text:<14} {format_float(norm):<16} " + " + ".join(parts))
    exact = assignment.get("psi_plus") == (1, 0) and assignment.get("psi_minus") == (0, 1)
    print(
        "resolved assignment: psi_plus <-> (1,0) click carries the unmodified input; "
        "psi_minus <-> (0,1) click carries the phase-flipped input"
        if exact
        else "WARNING: unexpected assignment"
    )
    return 1 if (violation or not exact) else 0


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line, an unknown flag included, as a one-line config error."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged.  Each command's
    flags come from ``FLAGS``."""
    parser = _Parser(
        prog="qscissors",
        description="Simulate the zero/one-photon scissors teleporter and compare with "
        "closed-form oracles. The drive is never truncated, so it has no cutoff to set. "
        "Flags override the same key of --config (for sweep, that axis). "
        "Exit codes: 0 ok, 1 invariant violation or impossible outcome, 2 config error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file or inline JSON object")
        for flag, (path, help_text) in FLAGS.items():
            key = path.partition(".")[0]
            if name in ROOT_KEYS[key][2] or (name == "sweep" and key in DEFAULT_SWEEP):
                p.add_argument(flag, type=None if key == "out" else float, help=help_text)
    sub.add_parser("bell-check")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "bell-check":
            return _cmd_bell_check()
        merged = _merge_flags(_load_config(args.config) if args.config else {}, args)
        cfg = parse_config(merged)
        for key in merged:
            if key not in COMMAND_KEYS[args.command]:
                raise ConfigError(f"{args.command} does not read {key!r}")
        if args.command == "teleport" and max(cfg["clicks"]) > TELEPORT_CUTOFF:
            raise ConfigError(f"clicks: teleport counts must lie in [0, {TELEPORT_CUTOFF}], got {max(cfg['clicks'])}")
        if args.command in ("scissors", "teleport"):
            return _cmd_single(args.command, cfg)
        return _cmd_sweep(cfg) if args.command == "sweep" else _cmd_pipeline(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write {exc.filename!r}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ImpossibleOutcomeError, ValueError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
