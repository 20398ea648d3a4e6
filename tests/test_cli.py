import argparse
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from qscissors import cli
from qscissors.cli import (
    CSV_COLUMNS,
    ConfigError,
    ReportRow,
    SweepGrid,
    evaluate_point,
    main,
    parse_config,
    rows_to_csv,
    run_sweep,
)
from qscissors.channels import BeamSplitterSpec

from .reference import closed_form_scissors_fidelity


def test_cli_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, qscissors.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_console_script_is_main_and_runs_bell_check():
    # [project.scripts] in pyproject.toml is the command an install makes; read without
    # tomllib, which Python 3.10 lacks
    root = Path(__file__).resolve().parent.parent
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"$', section, re.M))
    module, _, name = scripts["qscissors"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
    # the installed command calls main() with no arguments and exits with what it returns
    code = f"import sys, {module}; sys.exit({module}.{name}())"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code, "bell-check"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "resolved assignment: psi_plus <-> (1,0)" in done.stdout


def test_loading_the_reference_closed_forms_and_a_point_load_no_scipy():
    # the benchmark execs tests/reference.py for its closed forms; scipy would add
    # about 27 MB to the process, so only the expm oracles import it
    src = Path(cli.__file__).resolve().parent.parent
    reference = Path(__file__).resolve().parent / "reference.py"
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('qscissors_reference', {str(reference)!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "from qscissors import cli\n"
        "row = cli.evaluate_point(0.7, 0.1, 1.0)\n"
        "assert abs(module.closed_form_scissors_fidelity(0.7, 0.1, 1.0) - row.fid_scissors_numeric) < 1e-9\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# every numpy.linalg decomposition and solver (LAPACK behind each); a version without one skips its name
LINALG_ROUTINES = (
    "cholesky", "qr", "svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh",
    "det", "slogdet", "solve", "lstsq", "inv", "pinv", "tensorsolve", "tensorinv", "matrix_rank", "cond",
)


def count_linalg_calls(monkeypatch) -> list:
    """The names of the numpy.linalg routines called from now on, one entry per call."""
    import numpy as np

    calls = []
    for name in LINALG_ROUTINES:
        original = getattr(np.linalg, name, None)
        if original is not None:
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    return calls


def test_evaluate_point_lapack_budget(monkeypatch):
    # one point: no LAPACK call for the splitter (its SVD is in closed form and a
    # recurrence builds its blocks), and one eigh per Gram compression and teleport
    # input factorization
    calls = count_linalg_calls(monkeypatch)
    evaluate_point(0.7, 0.1, 0.5)
    assert len(calls) <= 6, sorted(calls)


@pytest.mark.parametrize(
    "argv",
    [["sweep"], ["pipeline", "--gamma", "0.1"], ["scissors", "--gamma", "0.1"], ["teleport", "--gamma", "0.1"], ["bell-check"]],
    ids=lambda argv: argv[0],
)
def test_no_cli_path_calls_svd(monkeypatch, capsys, argv):
    calls = count_linalg_calls(monkeypatch)
    assert main(argv) == 0
    assert "svd" not in calls and "svdvals" not in calls, sorted(calls)


def test_every_entry_path_keeps_the_trace_of_each_stage(monkeypatch):
    # a splitter keeps only the totals both of its modes can hold, so a register padded
    # one short would lose weight; every stage result the package returns must keep its trace
    from qscissors.apparatus import (
        QubitAmplitudes,
        ScissorsConfig,
        TeleportConfig,
        bs_action_on_bell,
        full_pipeline,
        run_scissors,
        run_teleport,
    )
    from qscissors.channels import DetectorSpec
    from qscissors.fock import CoherentDrive

    defects, pipeline = [], cli.full_pipeline

    def kept(*results):
        defects.extend(result.diagnostics["trace_defect"] for result in results)

    def recorded(config):
        results = pipeline(config)
        kept(*results[:2])
        return results

    monkeypatch.setattr(cli, "full_pipeline", recorded)
    lossy, counters = BeamSplitterSpec.lossy_5050(0.1), DetectorSpec(0.7)
    stage = dict(bs1=lossy, bs2=lossy, detectors=counters)
    unbalanced = BeamSplitterSpec(0.6, 0.5j)

    def exits(argv, code):
        assert main(argv) == code, argv

    paths = [
        lambda: exits(["sweep"], 0),
        lambda: kept(run_scissors(ScissorsConfig(drive=CoherentDrive(1.5), clicks=(3, 5), **stage))),
        lambda: kept(run_scissors(ScissorsConfig(drive=CoherentDrive(0.8), output_cutoff=2, **stage))),
        lambda: kept(run_scissors(ScissorsConfig(drive=CoherentDrive(20.0), clicks=(201, 201), **stage))),
        lambda: kept(run_teleport(TeleportConfig(input_state=QubitAmplitudes(0.6, 0.8), clicks=(2, 0), **stage))),
        lambda: kept(
            *full_pipeline(
                ScissorsConfig(drive=CoherentDrive(0.4 - 0.7j), bs1=unbalanced, bs2=unbalanced, detectors=counters)
            )[:2]
        ),
    ]
    for i, path in enumerate(paths):
        before = len(defects)
        path()
        assert len(defects) > before and max(defects[before:]) <= 1e-12, (i, defects[before:])
    # bell-check sends each Bell state through the splitter alone, on a cutoff-2 register
    assert main(["bell-check"]) == 0
    for image in bs_action_on_bell(BeamSplitterSpec.ideal_5050()).values():
        assert abs(image.norm_sq() - 1.0) <= 1e-12


# ---------------------------------------------------------------- config


def test_parse_empty_config_gives_ideal_defaults():
    cfg = parse_config({})
    assert cfg["eta"] == 1.0
    assert cfg["gamma_bs"] == 0.0
    assert cfg["drive"] == 1.0
    assert cfg["clicks"] == (1, 0)
    assert cfg["input"] is None
    assert cfg["out"] is None
    assert cfg["sweep"] == SweepGrid(**cli.DEFAULT_SWEEP)
    # no drive cutoff or tail budget is left to default
    assert list(cfg) == ["eta", "gamma_bs", "drive", "clicks", "input", "sweep", "out"]


def test_parse_hardware_estimate_point():
    cfg = parse_config({"eta": 0.7, "gamma_bs": 0.02})
    assert cfg["eta"] == 0.7
    assert cfg["gamma_bs"] == 0.02


def test_parse_rejects_eta_out_of_range():
    with pytest.raises(ConfigError, match="eta"):
        parse_config({"eta": 1.3})


def test_parse_rejects_unknown_keys_with_path():
    with pytest.raises(ConfigError, match="'frobz'"):
        parse_config({"frobz": 1})
    with pytest.raises(ConfigError, match="drive.widget"):
        parse_config({"drive": {"widget": 2}})
    with pytest.raises(ConfigError, match="sweep.foo"):
        parse_config({"sweep": {"foo": []}})


def test_parse_drive_forms():
    assert parse_config({"drive": 2.0})["drive"] == 2.0
    assert parse_config({"drive": {"gamma": [0.0, 1.0]}})["drive"] == 1j
    # nothing bounds a drive but a normal |gamma|^2
    for drive in (12.0, 100.0, 1e150, [0.0, 1e150]):
        gamma = parse_config({"drive": {"gamma": drive}})["drive"]
        assert gamma == (complex(*drive) if isinstance(drive, list) else drive)
    for key, value in (("cutoff", 12), ("tail_eps", 1e-9), ("max_cutoff", 300)):
        with pytest.raises(ConfigError, match=f"^unknown config key 'drive.{key}'$"):
            parse_config({"drive": {"gamma": 1.0, key: value}})
    with pytest.raises(ConfigError, match="drive.gamma"):
        parse_config({"drive": {"gamma": "big"}})


def test_parse_input_qubit_normalizes():
    cfg = parse_config({"input": {"c0": 3.0, "c1": 4.0}})
    qubit = cfg["input"]
    assert abs(qubit.c0) == pytest.approx(0.6)
    assert abs(qubit.c1) == pytest.approx(0.8)


def test_parse_clicks_validation():
    assert parse_config({"clicks": [0, 1]})["clicks"] == (0, 1)
    with pytest.raises(ConfigError, match="clicks"):
        parse_config({"clicks": [1]})
    with pytest.raises(ConfigError, match="clicks"):
        parse_config({"clicks": [1, -1]})


def test_parse_inline_json_and_file(tmp_path):
    cfg = parse_config('{"eta": 0.5}')
    assert cfg["eta"] == 0.5
    path = tmp_path / "cfg.json"
    path.write_text('{"gamma_bs": 0.1}')
    assert parse_config(str(path))["gamma_bs"] == 0.1
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.json"))


def test_sweep_grid_validation():
    with pytest.raises(ConfigError, match="non-empty"):
        SweepGrid(eta=[], gamma_bs=[0.0], drive=[1.0])
    with pytest.raises(ConfigError, match="sweep.eta"):
        SweepGrid(eta=[1.5], gamma_bs=[0.0], drive=[1.0])
    grid = SweepGrid(eta=[1.0, 0.5], gamma_bs=[0.0], drive=[1.0])
    assert list(grid.points()) == [(1.0, 0.0, 1.0), (0.5, 0.0, 1.0)]


# ---------------------------------------------------------------- rows


def test_evaluate_point_ideal():
    row = evaluate_point(1.0, 0.0, 1.0)
    assert row.fid_teleport_numeric == pytest.approx(1.0, abs=1e-10)
    assert row.abs_diff_20 <= 1e-10
    assert row.fid_scissors_numeric == pytest.approx(1.0, abs=1e-10)
    assert row.run_error == ""
    assert not row.has_violation()


def test_evaluate_point_scissors_oracle_column():
    row = evaluate_point(0.7, 0.0, 1.0)
    assert row.fid_scissors_eq16 == pytest.approx(0.884615384615, abs=1e-9)
    assert row.ratio_R == pytest.approx(1.0)


def test_evaluate_point_out_of_range_flag():
    row = evaluate_point(1.0, 0.1, 1.0)
    assert row.oor_eq16 == 1
    assert row.oor_eq20 == 0
    assert row.fid_scissors_eq16 > 1.0


def test_evaluate_point_impossible_outcome_recorded_in_row():
    # blind detectors can never herald a click, and the norm formulas diverge
    # at eta=0; the row records both failures instead of aborting
    row = evaluate_point(0.0, 0.0, 1.0)
    assert "impossible_outcome" in row.run_error
    assert "oracle_undefined" in row.run_error
    assert row.has_violation()


def test_abs_diff_columns_recomputable_from_row():
    for eta, g in ((0.7, 0.02), (1.0, 0.1), (0.5, 0.0)):
        row = evaluate_point(eta, g, 1.0)
        assert row.abs_diff_16 == abs(row.fid_scissors_numeric - row.fid_scissors_eq16)
        assert row.abs_diff_20 == abs(row.fid_teleport_numeric - row.fid_teleport_eq20)


def test_csv_layout_and_formatting():
    row = evaluate_point(0.7, 0.02, 1.0)
    text = rows_to_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0].startswith("eta,gamma,ratio_R,drive_gamma,fid_scissors_numeric")
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    # 12 significant digits
    idx = CSV_COLUMNS.index("fid_teleport_numeric")
    assert cells[idx] == format(row.fid_teleport_numeric, ".12g")
    assert text.endswith("\n")
    assert '"' not in text


def test_small_sweep_rows_in_grid_order():
    grid = SweepGrid(eta=[1.0, 0.7], gamma_bs=[0.0], drive=[1.0])
    rows = run_sweep(grid)
    assert [r.eta for r in rows] == [1.0, 0.7]
    assert all(r.run_error == "" for r in rows)


@pytest.mark.parametrize(
    "axes",
    [cli.DEFAULT_SWEEP, {"eta": [0.9, 0.3], "gamma_bs": [0.05, 0.0], "drive": [1.5, 0.4, 12.0]}],
    ids=["default", "custom_grid"],
)
def test_sweep_rows_equal_independent_points_exactly(axes):
    # every float of a sweep row must match the same point evaluated alone
    grid = SweepGrid(**axes)
    alone = [evaluate_point(*point) for point in grid.points()]
    assert [asdict(r) for r in run_sweep(grid)] == [asdict(r) for r in alone]


@pytest.mark.parametrize(
    "matrix",
    [[[1.2, 0.0], [0.0, -0.2]], [[0.5, 0.6], [0.6, 0.5]], [[0.5, 0.5], [0.4, 0.5]], [[0.5, 0.0], [0.0, 0.4]]],
    ids=["negative-diagonal", "negative-determinant", "not-hermitian", "trace-0.9"],
)
@pytest.mark.parametrize("stage", [0, 1], ids=["scissors", "teleport"])
def test_unphysical_conditional_state_is_reported_on_the_row(monkeypatch, stage, matrix):
    import numpy as np

    from qscissors.fock import DensityOperator

    full_pipeline = cli.full_pipeline

    def broken(config):
        results = list(full_pipeline(config))
        state = DensityOperator(results[stage].state.register, np.array(matrix, dtype=complex), check=False)
        results[stage] = replace(results[stage], state=state)
        return tuple(results)

    monkeypatch.setattr(cli, "full_pipeline", broken)
    row = evaluate_point(0.7, 0.1, 0.5)
    assert row.run_error == "unphysical_state"
    assert row.has_violation()


# ---------------------------------------------------------------- commands


def test_cmd_pipeline_writes_reports_and_is_byte_stable(tmp_path):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    args = ["pipeline", "--eta", "0.7", "--gamma", "0.02", "--drive", "1.0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads((tmp_path / "run1.json").read_text())
    assert payload["columns"] == CSV_COLUMNS
    assert len(payload["rows"]) == 1


@pytest.mark.parametrize("command", ["pipeline", "sweep"])
def test_reports_out_names_the_pair_with_or_without_its_suffix(tmp_path, capsys, command):
    # "r", "r.csv" and "r.json" all write r.csv and r.json, as scissors --out r.json writes r.json
    written = {}
    for suffix in ("", ".csv", ".json"):
        folder = tmp_path / (suffix or "bare")
        folder.mkdir()
        assert main([command, "--eta", "0.7", "--drive", "1.0", "--out", str(folder / f"r{suffix}")]) == 0
        assert sorted(p.name for p in folder.iterdir()) == ["r.csv", "r.json"]
        written[suffix] = [(folder / name).read_bytes() for name in ("r.csv", "r.json")]
    assert written[".csv"] == written[""] == written[".json"]
    capsys.readouterr()


def test_cmd_pipeline_ratio_flag(tmp_path, capsys):
    assert main(["pipeline", "--ratio", "4.0"]) == 0
    out = capsys.readouterr().out
    line = out.splitlines()[1]
    drive_cell = line.split(",")[CSV_COLUMNS.index("drive_gamma")]
    assert float(drive_cell) == pytest.approx(0.5)


def test_cmd_pipeline_rejects_drive_and_ratio_together(capsys):
    assert main(["pipeline", "--drive", "1.0", "--ratio", "1.0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cmd_scissors_writes_json_report(tmp_path, capsys):
    out = tmp_path / "scissors.json"
    code = main(["scissors", "--eta", "0.7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "scissors"
    assert 0.0 <= payload["probability"] <= 1.0
    assert payload["conditional_state"]["register"]["labels"] == ["c"]
    assert "fidelity=" in capsys.readouterr().out


def test_cmd_teleport_with_input_flags(capsys):
    code = main(["teleport", "--input-c0", "0.6", "--input-c1", "0.8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "probability=0.25" in out
    assert "fidelity=1" in out


def test_cmd_sweep_with_config_file(tmp_path, capsys):
    cfg = {"sweep": {"eta": [1.0], "gamma_bs": [0.0], "drive": [1.0]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report"
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    assert code == 0
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv_text.splitlines()) == 2


def test_cmd_sweep_empty_grid_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"sweep": {"eta": []}}')
    assert main(["sweep", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cmd_bell_check_prints_resolved_assignment(capsys):
    assert main(["bell-check"]) == 0
    out = capsys.readouterr().out
    assert "psi_plus" in out and "(1,0)" in out
    assert "psi_minus" in out and "(0,1)" in out
    assert "resolved assignment" in out


BELL_CHECK_TEXT = """\
Bell state mapping through the balanced splitter (t=1/sqrt2, r=i/sqrt2):
state      click pattern  norm             image components
psi_plus   (1,0)          1                (+0.0000+1.0000i)|10>
psi_minus  (0,1)          1                (+1.0000+0.0000i)|01>
phi_plus   mixed          1                (+0.7071+0.0000i)|00> + (-0.5000+0.0000i)|02> + (-0.5000+0.0000i)|20>
phi_minus  mixed          1                (+0.7071+0.0000i)|00> + (+0.5000+0.0000i)|02> + (+0.5000+0.0000i)|20>
resolved assignment: psi_plus <-> (1,0) click carries the unmodified input; \
psi_minus <-> (0,1) click carries the phase-flipped input
"""


def test_bell_check_prints_the_mapping_table_and_makes_no_linalg_call(monkeypatch, capsys):
    # the Bell images need no decomposition
    calls = count_linalg_calls(monkeypatch)
    assert main(["bell-check"]) == 0
    assert capsys.readouterr().out == BELL_CHECK_TEXT
    assert calls == []


# (argv, exit code, pattern the single stderr line must start with); exit-0
# rows print nothing to stderr
BOUNDARY_TABLE = [
    pytest.param(["pipeline", "--eta", "1.5"], 2, r"config error: eta", id="pipeline-eta-over-one"),
    pytest.param(["scissors", "--eta", "0"], 1, r"run error: post-selection outcome", id="scissors-eta-0"),
    pytest.param(["teleport", "--eta", "0"], 1, r"run error: post-selection outcome", id="teleport-eta-0"),
    pytest.param(["pipeline", "--drive", "inf"], 2, r"config error: drive\.gamma: drive amplitude inf", id="drive-inf"),
    pytest.param(["pipeline", "--drive", "nan"], 2, r"config error: drive\.gamma: drive amplitude nan", id="drive-nan"),
    pytest.param(
        ["pipeline", "--config", '{"drive": {"gamma": [1e308, 1e308]}}'],
        2,
        r"config error: drive\.gamma: drive amplitude",
        id="drive-pair-overflow",
    ),
    # drives past the click's reach run, and their rows report the impossible outcome (exit 1)
    pytest.param(["pipeline", "--drive", "100"], 1, None, id="drive-100"),
    pytest.param(["pipeline", "--drive", "1000"], 1, None, id="drive-1000"),
    pytest.param(["pipeline", "--drive", "1e-7"], 0, None, id="drive-1e-7"),
    pytest.param(
        ["sweep", "--config", '{"sweep": {"tail_eps": "x"}}'],
        2,
        r"config error: unknown config key 'sweep\.tail_eps'$",
        id="sweep-tail-eps-x",
    ),
    pytest.param(
        ["sweep", "--config", '{"sweep": {"cutoff": "x"}}'],
        2,
        r"config error: unknown config key 'sweep\.cutoff'$",
        id="sweep-cutoff-x",
    ),
    pytest.param(["pipeline", "--config", '{"drive": -1}'], 2, r"config error: drive\.gamma", id="config-drive-negative"),
    pytest.param(["pipeline", "--drive", "-1"], 2, r"config error: drive\.gamma", id="flag-drive-negative"),
    pytest.param(["sweep", "--drive", "-1"], 2, r"config error: sweep\.drive", id="sweep-drive-negative"),
    pytest.param(
        ["sweep", "--config", '{"sweep": {"eta": [1.0], "gamma_bs": [0.0], "drive": [1.0]}}', "--eta", "0.5"],
        0,
        None,
        id="sweep-eta-flag-over-config",
    ),
    pytest.param(["sweep", "--ratio", "4", "--eta", "1", "--gamma", "0"], 0, None, id="sweep-ratio-flag"),
    pytest.param(["scissors", "--config", '{"clicks": [50, 0]}'], 0, None, id="clicks-50"),
    pytest.param(["scissors", "--drive", "20", "--config", '{"clicks": [201, 201]}'], 0, None, id="clicks-201"),
    pytest.param(
        ["scissors", "--config", '{"clicks": [0, 202]}'],
        2,
        r"config error: clicks: must lie in \[0, 201\], got 202$",
        id="clicks-202",
    ),
    pytest.param(
        ["scissors", "--config", '{"clicks": [1000000, 0]}'],
        2,
        r"config error: clicks: must lie in \[0, 201\], got 1000000$",
        id="clicks-1e6",
    ),
    pytest.param(
        ["teleport", "--config", '{"clicks": [3, 0]}'],
        2,
        r"config error: clicks: teleport counts must lie in \[0, 2\], got 3$",
        id="teleport-clicks-3-0",
    ),
    pytest.param(
        ["teleport", "--config", '{"clicks": [0, 3]}'],
        2,
        r"config error: clicks: teleport counts must lie in \[0, 2\], got 3$",
        id="teleport-clicks-0-3",
    ),
    pytest.param(["pipeline", "--ratio", "0"], 2, r"config error: ratio", id="ratio-0"),
    pytest.param(["pipeline", "--drive", "1", "--ratio", "1"], 2, r"config error: give either", id="drive-and-ratio"),
    pytest.param(
        ["pipeline", "--cutoff", "3", "--drive", "2"],
        2,
        r"config error: unrecognized arguments: --cutoff 3$",
        id="cutoff-3-drive-2",
    ),
    pytest.param(["teleport", "--input-c0", "0", "--input-c1", "0"], 2, r"config error: input", id="input-zero"),
    pytest.param(
        ["scissors", "--out", "/nonexistent_dir/x"], 2, r"config error: cannot write", id="scissors-out-missing-dir"
    ),
    pytest.param(
        ["teleport", "--out", "/nonexistent_dir/x"], 2, r"config error: cannot write", id="teleport-out-missing-dir"
    ),
    pytest.param(
        ["pipeline", "--drive", "0.5", "--out", "/nonexistent_dir/x"],
        2,
        r"config error: cannot write",
        id="pipeline-out-missing-dir",
    ),
    pytest.param(["sweep", "--out", "/nonexistent_dir/x"], 2, r"config error: cannot write", id="sweep-out-missing-dir"),
    pytest.param(["pipeline", "--eta", "x"], 2, r"config error: argument --eta: invalid float value: 'x'$", id="eta-x"),
    pytest.param([], 2, r"config error: the following arguments are required: command$", id="no-command"),
    # JSON true/false are not numbers, and an empty path or a directory names no report file
    pytest.param(["pipeline", "--config", '{"eta": true}'], 2, r"config error: eta: must be a number$", id="eta-true"),
    pytest.param(
        ["pipeline", "--config", '{"gamma_bs": false}'], 2, r"config error: gamma_bs: must be a number$", id="gamma-false"
    ),
    pytest.param(
        ["pipeline", "--config", '{"drive": true}'], 2, r"config error: drive: must be a number or an object$", id="drive-true"
    ),
    pytest.param(
        ["pipeline", "--config", '{"drive": {"gamma": [true, 1]}}'],
        2,
        r"config error: drive\.gamma: must be a number or \[re, im\] pair$",
        id="drive-pair-true",
    ),
    pytest.param(
        ["scissors", "--config", '{"clicks": [true, false]}'],
        2,
        r"config error: clicks: must be a pair of non-negative integers$",
        id="clicks-true-false",
    ),
    pytest.param(
        ["teleport", "--config", '{"input": {"c0": true, "c1": false}}'],
        2,
        r"config error: input\.c0: must be a number or \[re, im\] pair$",
        id="input-true-false",
    ),
    pytest.param(
        ["sweep", "--config", '{"sweep": {"eta": [true]}}'],
        2,
        r"config error: sweep\.eta: must be a list of numbers$",
        id="sweep-eta-true",
    ),
    pytest.param(["pipeline", "--out", ""], 2, r"config error: out: '' names no file$", id="out-empty"),
    pytest.param(["sweep", "--config", '{"out": ""}'], 2, r"config error: out: '' names no file$", id="config-out-empty"),
    pytest.param(["sweep", "--out", "reports/"], 2, r"config error: out: 'reports/' names no file$", id="out-directory"),
]


@pytest.mark.parametrize("argv, code, stderr_start", BOUNDARY_TABLE)
def test_cmd_rejects_bad_flag_ranges(argv, code, stderr_start, capsys):
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if stderr_start is None:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1
        assert re.match(stderr_start, lines[0]), lines[0]


def _csv_rows(text):
    header, *rows = text.splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_cmd_pipeline_tiny_drive_runs_with_cutoff_one(capsys):
    assert main(["pipeline", "--drive", "1e-7"]) == 0
    (row,) = _csv_rows(capsys.readouterr().out)
    assert row["run_error"] == ""
    assert all(math.isfinite(float(row[name])) for name in CSV_COLUMNS if name != "run_error")
    assert float(row["truncation_error"]) == 0.0


def _perfbench(name):
    """perfbench/<name>.py run as a fresh module, so nothing is written next to it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize(
    "flags",
    [["--drive", "12"], ["--drive", "25"], ["--eta", "0.5", "--gamma", "0.1", "--drive", "36"]],
    ids=["drive-12", "drive-25", "eta-0.5-gamma-0.1-drive-36"],
)
def test_drives_the_stage_computes_run_and_pass_the_gate(flags, tmp_path, capsys):
    # a Poisson cutoff refused each of these drives, although the displaced frame computes them
    assert main(["pipeline", *flags, "--out", str(tmp_path / "point")]) == 0
    assert capsys.readouterr().err == ""
    (row,) = json.loads((tmp_path / "point.json").read_text())["rows"]
    assert row["run_error"] == ""
    assert row["truncation_error"] == 0.0
    assert _perfbench("gate").identity_errors(row, closed_form_scissors_fidelity) == []


def test_points_small_rows_pass_the_benchmark_gate_against_its_golden_rows(tmp_path):
    # the workload that builds a fresh spec for every point, run and checked as the benchmark does
    gate, workloads = _perfbench("gate"), _perfbench("workloads")
    inputs = workloads.make_inputs("points_small", 0)
    golden = gate.load_golden("points_small", inputs)
    assert golden is not None and len(golden) == len(inputs)
    code, report = workloads.run_body(cli, "points_small", inputs, str(tmp_path / "points"))
    assert code == 0
    rows = json.loads(Path(report).read_text(encoding="utf-8"))["rows"]
    failures = {
        i: errors
        for i, (row, want) in enumerate(zip(rows, golden, strict=True))
        if (errors := gate.row_failures(row, ReportRow, closed_form_scissors_fidelity, want))
    }
    assert not failures


def test_drive_past_the_clicks_reach_reports_the_impossible_outcome(tmp_path, capsys):
    start = time.perf_counter()
    assert main(["pipeline", "--drive", "100", "--out", str(tmp_path / "point")]) == 1
    assert time.perf_counter() - start < 10.0
    out, err = capsys.readouterr()
    assert err == ""
    assert "Traceback" not in out
    (row,) = json.loads((tmp_path / "point.json").read_text())["rows"]
    assert row["run_error"] == "oracle_undefined;impossible_outcome"
    assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))


@pytest.mark.parametrize("command", ["scissors", "teleport", "pipeline", "sweep"])
def test_cutoff_flag_is_refused_on_every_subcommand(command, capsys):
    assert main([command, "--cutoff", "30"]) == 2
    assert capsys.readouterr().err == "config error: unrecognized arguments: --cutoff 30\n"


@pytest.mark.parametrize(
    "config, path",
    [
        ({"drive": {"gamma": 1.0, "cutoff": 30}}, "drive.cutoff"),
        ({"drive": {"gamma": 1.0, "tail_eps": 1e-9}}, "drive.tail_eps"),
        ({"sweep": {"drive": [1.0], "cutoff": 30}}, "sweep.cutoff"),
        ({"sweep": {"drive": [1.0], "tail_eps": 1e-9}}, "sweep.tail_eps"),
    ],
)
def test_removed_config_keys_are_refused_as_unknown(config, path, capsys):
    command = "sweep" if "sweep" in config else "pipeline"
    assert main([command, "--config", json.dumps(config)]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key '{path}'\n"


# the whole option surface, by subcommand and by config section ("" is the root); a new
# flag or key must be added here on purpose
COMMON_FLAGS = {"-h", "--help", "--config", "--eta", "--gamma", "--drive", "--ratio", "--out"}
OPTION_SURFACE = {
    "scissors": COMMON_FLAGS,
    "teleport": COMMON_FLAGS | {"--input-c0", "--input-c1"},
    "pipeline": COMMON_FLAGS,
    "sweep": COMMON_FLAGS,
    "bell-check": {"-h", "--help"},
}
CONFIG_SURFACE = {
    "": {"eta", "gamma_bs", "drive", "input", "clicks", "sweep", "out"},
    "drive": {"gamma"},
    "input": {"c0", "c1"},
    "sweep": {"eta", "gamma_bs", "drive"},
}
# one valid config per accepted key
KEY_EXAMPLES = {
    "": {"eta": 0.7, "gamma_bs": 0.1, "drive": 2.0, "input": {}, "clicks": [0, 1], "sweep": {}, "out": None},
    "drive": {"gamma": 2.0},
    "input": {"c0": 0.6, "c1": 0.8},
    "sweep": {"eta": [0.7], "gamma_bs": [0.1], "drive": [2.0]},
}


# the root keys each command reads; main refuses any other with one line and exit 2
COMMAND_READS = {
    "scissors": {"eta", "gamma_bs", "drive", "clicks", "out"},
    "teleport": {"eta", "gamma_bs", "drive", "clicks", "out", "input"},
    "pipeline": {"eta", "gamma_bs", "drive", "out"},
    "sweep": {"sweep", "out"},
}


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c, reads in COMMAND_READS.items() for k in sorted(CONFIG_SURFACE[""] - reads)],
)
def test_config_keys_the_command_does_not_read_are_refused(command, key, capsys):
    assert main([command, "--config", json.dumps({key: KEY_EXAMPLES[""][key]})]) == 2
    assert capsys.readouterr().err == f"config error: {command} does not read '{key}'\n"


@pytest.mark.parametrize("command", sorted(COMMAND_READS))
def test_config_keys_the_command_reads_are_accepted(command, capsys):
    config = {key: KEY_EXAMPLES[""][key] for key in COMMAND_READS[command]}
    assert main([command, "--config", json.dumps(config)]) == 0
    assert capsys.readouterr().err == ""


def _section(key, section):
    return {key: KEY_EXAMPLES[""][key]} if not section else {section: {key: KEY_EXAMPLES[section][key]}}


def test_option_surface_is_the_documented_set():
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {s for a in p._actions for s in a.option_strings} for name, p in subparsers.choices.items()}
    assert flags == OPTION_SURFACE
    assert {k: set(v) for k, v in cli.CONFIG_KEYS.items()} == CONFIG_SURFACE
    # parse_config accepts each documented key and refuses any other, removed ones included
    for section, keys in CONFIG_SURFACE.items():
        for key in keys:
            parse_config(_section(key, section))
        for key in {"cutoff", "tail_eps", "max_cutoff", "frobz"} | set().union(*CONFIG_SURFACE.values()) - keys:
            raw = {key: 1} if not section else {section: {key: 1}}
            with pytest.raises(ConfigError, match="unknown config key|input: must be an object with keys c0, c1"):
                parse_config(raw)
    assert sum(map(len, OPTION_SURFACE.values())) + sum(map(len, CONFIG_SURFACE.values())) == 49


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_main_calls_leak_no_flag(tmp_path, capsys):
    flagged = ["--eta", "0.5", "--gamma", "0.1", "--drive", "2", "--out", str(tmp_path / "first")]
    assert main(["pipeline", *flagged]) == 0
    capsys.readouterr()
    assert main(["pipeline"]) == 0
    (row,) = _csv_rows(capsys.readouterr().out)
    assert row == _csv_rows(rows_to_csv([evaluate_point(1.0, 0.0, 1.0)]))[0]
    assert sorted(tmp_path.iterdir()) == [tmp_path / "first.csv", tmp_path / "first.json"]
    assert main(["teleport", "--input-c0", "0.6", "--input-c1", "0.8", "--eta", "0.7"]) == 0
    capsys.readouterr()
    for command in OPTION_SURFACE:
        args = vars(cli.build_parser().parse_args([command]))
        assert args.pop("command") == command
        assert set(args.values()) <= {None}, args


def test_cmd_sweep_flags_replace_config_axes(capsys):
    grid = '{"sweep": {"eta": [1.0], "gamma_bs": [0.0], "drive": [1.0]}}'
    assert main(["sweep", "--config", grid, "--eta", "0.5"]) == 0
    (row,) = _csv_rows(capsys.readouterr().out)
    assert float(row["eta"]) == 0.5
    assert main(["sweep", "--ratio", "4", "--eta", "1", "--gamma", "0"]) == 0
    (row,) = _csv_rows(capsys.readouterr().out)
    assert float(row["drive_gamma"]) == pytest.approx(0.5)


def test_cmd_internal_value_error_exits_one(monkeypatch, capsys):
    # invariant checks (RunResult, fidelity) raise plain ValueErrors: exit 1
    def broken(*args, **kwargs):
        raise ValueError("fidelity 1.5 outside [0, 1] beyond slack")

    monkeypatch.setattr(cli, "evaluate_point", broken)
    assert main(["pipeline"]) == 1
    assert capsys.readouterr().err == "run error: fidelity 1.5 outside [0, 1] beyond slack\n"


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def test_reports_bytes_equal_the_asdict_serialization(tmp_path):
    # the JSON rows are the dataclass fields, and the CSV the .12g cells, as dataclasses.asdict gives them
    rows = [evaluate_point(*point) for point in json.loads((GOLDEN / "sweep_default.json").read_text())["inputs"]]
    rows[1] = replace(rows[1], run_error="impossible_outcome", oor_eq16=1)
    csv_path, json_path = cli.write_reports(rows, str(tmp_path / "report"))
    payload = {"columns": CSV_COLUMNS, "rows": [asdict(r) for r in rows]}
    assert Path(json_path).read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in asdict(row).values()))
    assert Path(csv_path).read_bytes() == ("\n".join(lines) + "\n").encode()


def test_row_violation_agrees_with_the_asdict_form():
    def asdict_form(row):
        numeric = [row.fid_scissors_numeric, row.fid_teleport_numeric, row.prob_scissors, row.prob_teleport]
        if row.run_error or any(not math.isfinite(v) for v in asdict(row).values() if isinstance(v, float)):
            return True
        return any(not 0.0 <= v <= 1.0 for v in numeric)

    clean = evaluate_point(0.7, 0.1, 1.0)
    cases = [clean, replace(clean, run_error="impossible_outcome"), replace(clean, prob_scissors=1.5)]
    for name, value in asdict(clean).items():
        if isinstance(value, float):
            cases += [replace(clean, **{name: bad}) for bad in (math.nan, math.inf, -math.inf)]
    assert [row.has_violation() for row in cases] == [asdict_form(row) for row in cases]
    assert [row.has_violation() for row in cases] == [False] + [True] * (len(cases) - 1)


def test_row_violation_logic():
    row = ReportRow(eta=1.0, gamma=0.0, ratio_R=1.0, drive_gamma=1.0)
    assert not row.has_violation()
    row.run_error = "impossible_outcome"
    assert row.has_violation()
    row2 = ReportRow(eta=1.0, gamma=0.0, ratio_R=1.0, drive_gamma=1.0)
    row2.fid_scissors_numeric = math.nan
    assert row2.has_violation()
    row3 = ReportRow(eta=1.0, gamma=0.0, ratio_R=1.0, drive_gamma=1.0)
    row3.prob_teleport = 1.5
    assert row3.has_violation()
