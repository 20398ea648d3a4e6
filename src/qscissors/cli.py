"""Command-line front end: single runs, noise-parameter sweeps, and the
Bell-mapping table, with CSV/JSON reports that put the numerical results next
to the closed-form oracles.

Every outside input is checked in one pass: command-line flags override the
same key of the ``--config`` object (for ``sweep``, they replace that axis;
``--ratio`` becomes the drive) and ``parse_config`` checks the result; a key
the command does not read (``COMMAND_KEYS``) is refused, not ignored.

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
from .fock import CoherentDrive

DEFAULT_SWEEP = {
    "eta": [0.5, 0.7, 1.0],
    "gamma_bs": [0.0, 0.02, 0.1],
    "drive": [0.5, 1.0, 2.0],
}

# every key a config may hold, by section ("" is the root); parse_config refuses any other
CONFIG_KEYS = {
    "": ("eta", "gamma_bs", "drive", "input", "clicks", "sweep", "out"),
    "drive": ("gamma",),
    "input": ("c0", "c1"),
    "sweep": tuple(DEFAULT_SWEEP),
}

# the root keys each command reads; ``main`` refuses any other, so no input is silently ignored
COMMAND_KEYS = {
    "scissors": ("eta", "gamma_bs", "drive", "clicks", "out"),
    "teleport": ("eta", "gamma_bs", "drive", "clicks", "input", "out"),
    "pipeline": ("eta", "gamma_bs", "drive", "out"),
    "sweep": ("sweep", "out"),
}

FLOAT_FORMAT = ".12g"


class ConfigError(ValueError):
    """Schema or range violation in a run configuration."""


@dataclass(frozen=True)
class RunSettings:
    """Validated single-point settings with defaults applied."""

    eta: float = 1.0
    gamma_bs: float = 0.0
    drive_gamma: complex = 1.0
    clicks: tuple[int, int] = (1, 0)
    input_qubit: QubitAmplitudes | None = None
    out: str | None = None


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
        if self.run_error:
            return True
        numeric = [
            self.fid_scissors_numeric,
            self.fid_teleport_numeric,
            self.prob_scissors,
            self.prob_teleport,
        ]
        if any(not math.isfinite(v) for v in vars(self).values() if isinstance(v, float)):
            return True
        return any(not 0.0 <= v <= 1.0 for v in numeric)


CSV_COLUMNS = [f.name for f in fields(ReportRow)]


def parse_config(source) -> dict:
    """Validate a raw config (dict, JSON text, or file path) against the
    schema; rejects unknown keys and reports offending field paths, so that no
    input error surfaces later."""
    raw = _load_config(source)
    _check_keys(raw, "")
    out = {}
    out["eta"] = _check_eta(raw.get("eta", 1.0))
    out["gamma_bs"] = _check_gamma_bs(raw.get("gamma_bs", 0.0))
    out["drive"] = _parse_drive(raw.get("drive", 1.0))
    out["clicks"] = _parse_clicks(raw.get("clicks", [1, 0]))
    out["input"] = _parse_input(raw.get("input")) if "input" in raw else None
    out["sweep"] = _parse_sweep(raw["sweep"]) if "sweep" in raw else None
    out["out"] = raw.get("out")
    if out["out"] is not None and not isinstance(out["out"], str):
        raise ConfigError("out: must be a path string")
    if out["out"] is not None and not os.access(os.path.dirname(os.path.abspath(out["out"])), os.W_OK):
        raise ConfigError(f"cannot write {out['out']!r}: its directory is missing or not writable")
    return out


def settings_from_config(cfg: dict) -> RunSettings:
    return RunSettings(
        eta=cfg["eta"],
        gamma_bs=cfg["gamma_bs"],
        drive_gamma=cfg["drive"],
        clicks=cfg["clicks"],
        input_qubit=cfg["input"],
        out=cfg["out"],
    )


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


def _merge_flags(raw: dict, args) -> dict:
    """The config object with each given flag written over the same key (for
    ``sweep``, over that axis as a one-element list); parse_config checks it."""
    if args.drive is not None and args.ratio is not None:
        raise ConfigError("give either --drive or --ratio, not both")
    drive = args.drive
    if args.ratio is not None:
        if not 0 < args.ratio < math.inf:
            raise ConfigError(f"ratio: must be finite and positive, got {args.ratio}")
        drive = 1.0 / math.sqrt(args.ratio)
    merged = _overlay(raw, out=args.out)
    if args.command == "sweep":
        flags = (("eta", args.eta), ("gamma_bs", args.gamma), ("drive", drive))
        axes = {key: [v] for key, v in flags if v is not None}
        merged["sweep"] = _overlay(raw.get("sweep", {}), **axes)
        return merged
    merged = _overlay(merged, eta=args.eta, gamma_bs=args.gamma)
    drive_raw = raw.get("drive", {})
    if isinstance(drive_raw, (int, float)):
        drive_raw = {"gamma": drive_raw}
    merged["drive"] = _overlay(drive_raw, gamma=drive)
    c0, c1 = getattr(args, "input_c0", None), getattr(args, "input_c1", None)
    if c0 is not None or c1 is not None:
        merged["input"] = _overlay(raw.get("input", {}), c0=c0, c1=c1)
    return merged


def _overlay(section, **updates):
    """``section`` with the non-None updates written over it; a non-object is left to parse_config."""
    if not isinstance(section, dict):
        return section
    return {**section, **{key: v for key, v in updates.items() if v is not None}}


def _parse_drive(raw) -> complex:
    if isinstance(raw, (int, float)):
        raw = {"gamma": raw}
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
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, int) and v >= 0 for v in raw)
    ):
        raise ConfigError("clicks: must be a pair of non-negative integers")
    return int(raw[0]), int(raw[1])


def _parse_sweep(raw) -> SweepGrid:
    if not isinstance(raw, dict):
        raise ConfigError("sweep: must be an object")
    _check_keys(raw, "sweep")
    def listing(key):
        values = raw.get(key, DEFAULT_SWEEP[key])
        if not isinstance(values, list) or not all(isinstance(v, (int, float)) for v in values):
            raise ConfigError(f"sweep.{key}: must be a list of numbers")
        return values
    return SweepGrid(**{key: listing(key) for key in DEFAULT_SWEEP})


def _check_keys(raw: dict, section: str):
    for key in raw:
        if key not in CONFIG_KEYS[section]:
            path = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key {path!r}")


def _parse_complex(raw, path: str) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2 and all(isinstance(v, (int, float)) for v in raw):
        return complex(raw[0], raw[1])
    raise ConfigError(f"{path}: must be a number or [re, im] pair")


def _check_range(value, name, low, high, open_high=False) -> float:
    if not isinstance(value, (int, float)):
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
    if (isinstance(raw, (int, float)) and raw < 0) or not sys.float_info.min <= lam < math.inf:
        raise ConfigError(f"{path}: drive amplitude {raw} must be finite and positive, |gamma|^2 normal")
    return gamma


def evaluate_point(
    eta: float, gamma_bs: float, drive_gamma: float, *, bs: BeamSplitterSpec | None = None
) -> ReportRow:
    """Run the full machine at one noise point and evaluate every oracle.
    Every drive the config check admits runs: the scissors stage takes it in
    the displaced frame, with no cutoff.

    ``bs`` is the point's splitter, ``BeamSplitterSpec.lossy_5050(gamma_bs)``, given so
    that points of one Gamma share its stored blocks and loss tables (see
    ``BeamSplitterSpec.store``); any other spec is a ValueError.  Without it the point
    builds its own."""
    if bs is None:
        bs = BeamSplitterSpec.lossy_5050(gamma_bs)
    elif bs != BeamSplitterSpec.lossy_5050(gamma_bs):
        raise ValueError(f"bs must equal lossy_5050({gamma_bs}), got {bs}")
    drive = CoherentDrive(drive_gamma)
    params = NoiseParams.from_drive(eta, gamma_bs, drive)
    row = ReportRow(
        eta=eta,
        gamma=gamma_bs,
        ratio_R=params.ratio_R,
        drive_gamma=abs(drive_gamma),
    )
    errors = []
    try:
        eq16 = truncation_fidelity(params)
        eq20 = teleport_fidelity(params)
        eq15 = truncation_norm(params, bs)
        eq180 = teleport_norm(params)
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
        row.truncation_error = s_res.diagnostics["truncation_error"]
        if eq16 is not None:
            row.abs_diff_16 = abs(s_res.fidelity - eq16.value)
            row.abs_diff_20 = abs(fid_e2e - eq20.value)
    except ImpossibleOutcomeError:
        errors.append("impossible_outcome")
    row.run_error = ";".join(errors)
    return row


def run_sweep(grid: SweepGrid) -> list[ReportRow]:
    """One row per grid point, in deterministic lexicographic grid order.

    Points are evaluated Gamma-major: one ``lossy_5050(Gamma)`` spec is alive at a time
    and is passed to every point of its Gamma, so its blocks and loss tables are built
    once; the rows are put back in grid order."""
    n_gamma, n_drive = len(grid.gamma_bs), len(grid.drive)
    rows = [None] * (len(grid.eta) * n_gamma * n_drive)
    for j, gamma in enumerate(grid.gamma_bs):
        bs = BeamSplitterSpec.lossy_5050(gamma)
        for (i, eta), (k, drive) in itertools.product(enumerate(grid.eta), enumerate(grid.drive)):
            rows[(i * n_gamma + j) * n_drive + k] = evaluate_point(eta, gamma, drive, bs=bs)
    return rows


def format_float(value: float) -> str:
    return format(value, FLOAT_FORMAT)


def rows_to_csv(rows: list[ReportRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for name in CSV_COLUMNS:
            value = getattr(row, name)
            if isinstance(value, float):
                cells.append(format_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_reports(rows: list[ReportRow], out_path: str):
    csv_path = out_path if out_path.endswith(".csv") else out_path + ".csv"
    json_path = csv_path[:-4] + ".json"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
    payload = {"columns": CSV_COLUMNS, "rows": [vars(r) for r in rows]}  # the fields, not copied
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _result_payload(kind: str, result, settings: RunSettings) -> dict:
    return {
        "kind": kind,
        "eta": settings.eta,
        "gamma_bs": settings.gamma_bs,
        "drive_gamma": [settings.drive_gamma.real, settings.drive_gamma.imag],
        "clicks": list(settings.clicks),
        "probability": result.probability,
        "fidelity": result.fidelity,
        "diagnostics": result.diagnostics,
        "conditional_state": result.state.to_json_dict(),
        "target": result.target.to_json_dict(),
    }


def _cmd_single(kind: str, settings: RunSettings) -> int:
    drive = CoherentDrive(settings.drive_gamma)
    bs = BeamSplitterSpec.lossy_5050(settings.gamma_bs)
    stage = dict(bs1=bs, bs2=bs, detectors=DetectorSpec(settings.eta), clicks=settings.clicks)
    if kind == "scissors":
        result = run_scissors(ScissorsConfig(drive=drive, **stage))
    else:
        qubit = settings.input_qubit or QubitAmplitudes.from_drive(drive)
        result = run_teleport(TeleportConfig(input_state=qubit, **stage))
    payload = _result_payload(kind, result, settings)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if settings.out:
        with open(settings.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(
        f"{kind}: eta={format_float(settings.eta)} gamma={format_float(settings.gamma_bs)} "
        f"probability={format_float(result.probability)} fidelity={format_float(result.fidelity)}"
    )
    return 0


def _cmd_pipeline(settings: RunSettings) -> int:
    row = evaluate_point(settings.eta, settings.gamma_bs, abs(settings.drive_gamma))
    rows = [row]
    if settings.out:
        write_reports(rows, settings.out)
    print(rows_to_csv(rows), end="")
    return 1 if row.has_violation() else 0


def _cmd_sweep(grid: SweepGrid, out: str | None) -> int:
    rows = run_sweep(grid)
    if out:
        csv_path, json_path = write_reports(rows, out)
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
        if abs(norm - 1.0) > 1e-12:
            violation = True
        parts = []
        for occ, amp in zip(img.register.occupations(), img.amplitudes):
            if abs(amp) > 1e-12:
                parts.append(f"({amp.real:+.4f}{amp.imag:+.4f}i)|{occ[0]}{occ[1]}>")
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
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = _Parser(
        prog="qscissors",
        description="Simulate the zero/one-photon scissors teleporter and compare with "
        "closed-form oracles. The drive is never truncated, so it has no cutoff to set. "
        "Flags override the same key of --config (for sweep, that axis). "
        "Exit codes: 0 ok, 1 invariant violation or impossible outcome, 2 config error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("scissors", "teleport", "pipeline", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file or inline JSON object")
        p.add_argument("--eta", type=float, help="detector efficiency in [0, 1]")
        p.add_argument("--gamma", type=float, help="beam-splitter damping in [0, 1)")
        p.add_argument("--drive", type=float, help="coherent drive amplitude |gamma|")
        p.add_argument("--ratio", type=float, help="target weight ratio R (sets drive to 1/sqrt(R))")
        p.add_argument("--out", help="report output path")
        if name == "teleport":
            p.add_argument("--input-c0", type=float, help="input qubit amplitude c0")
            p.add_argument("--input-c1", type=float, help="input qubit amplitude c1")
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
        if args.command == "sweep":
            return _cmd_sweep(cfg["sweep"], cfg["out"])
        settings = settings_from_config(cfg)
        if args.command == "pipeline":
            return _cmd_pipeline(settings)
        return _cmd_single(args.command, settings)
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
