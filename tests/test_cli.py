import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict
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
    settings_from_config,
)
from qscissors.channels import BeamSplitterSpec


def test_cli_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, qscissors.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


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


def test_evaluate_point_lapack_budget(monkeypatch):
    # one point: 1 SVD for the shared lossy splitter spec, no LAPACK call for
    # the splitter blocks (a recurrence builds them), and one eigh per Gram
    # compression and teleport input factorization
    import numpy as np

    calls = []
    for name in ("eigh", "svd", "eig", "inv"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    evaluate_point(0.7, 0.1, 0.5)
    assert len(calls) <= 10, sorted(calls)


def test_evaluate_point_makes_no_eigh_call_inside_the_splitter_build(monkeypatch):
    import numpy as np

    callers = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        names, frame = set(), sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    evaluate_point(0.7, 0.1, 0.5)
    assert any("compressed" in names for names in callers)  # the counter sees the package's calls
    assert not [names for names in callers if "_blockwise_passive" in names]


# ---------------------------------------------------------------- config


def test_parse_empty_config_gives_ideal_defaults():
    cfg = parse_config({})
    settings = settings_from_config(cfg)
    assert settings.eta == 1.0
    assert settings.gamma_bs == 0.0
    assert settings.drive_gamma == 1.0
    assert settings.cutoff is None
    assert settings.tail_eps == 1e-12
    assert settings.clicks == (1, 0)


def test_parse_hardware_estimate_point():
    cfg = parse_config({"eta": 0.7, "gamma_bs": 0.02})
    settings = settings_from_config(cfg)
    assert settings.eta == 0.7
    assert settings.gamma_bs == 0.02


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
    assert settings_from_config(parse_config({"drive": 2.0})).drive_gamma == 2.0
    cfg = parse_config({"drive": {"gamma": [0.0, 1.0], "cutoff": 12, "tail_eps": 1e-9}})
    settings = settings_from_config(cfg)
    assert settings.drive_gamma == 1j
    assert settings.cutoff == 12
    assert settings.tail_eps == 1e-9
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
    [cli.DEFAULT_SWEEP, {"eta": [0.9, 0.3], "gamma_bs": [0.05, 0.0], "drive": [1.5, 0.4], "cutoff": 30}],
    ids=["default", "explicit_cutoff"],
)
def test_sweep_rows_equal_independent_points_exactly(axes):
    # the sweep shares one splitter spec per Gamma; every float must match a point built alone
    grid = SweepGrid(**axes)
    alone = [evaluate_point(*p, cutoff=grid.cutoff, tail_eps=grid.tail_eps) for p in grid.points()]
    assert [asdict(r) for r in run_sweep(grid)] == [asdict(r) for r in alone]


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_shared_spec_builds_nothing_after_its_largest_point(monkeypatch, gamma):
    from qscissors import channels

    counts = {"ladder steps": 0, "loss tables": 0}
    extend, build = channels._extend_ladder, channels._loss_table

    def counted_extend(v, ladder, low):
        size = len(ladder)
        extend(v, ladder, low)
        counts["ladder steps"] += len(ladder) - size

    def counted_build(*args):
        counts["loss tables"] += 1
        return build(*args)

    monkeypatch.setattr(channels, "_extend_ladder", counted_extend)
    monkeypatch.setattr(channels, "_loss_table", counted_build)
    spec = BeamSplitterSpec.lossy_5050(gamma)
    evaluate_point(0.7, gamma, 2.0, bs=spec)
    assert counts["ladder steps"] > 0 and (counts["loss tables"] > 0) == (gamma > 0)
    built = dict(counts)
    for eta, drive in ((0.7, 1.0), (0.7, 0.5), (0.5, 2.0), (1.0, 2.0), (0.5, 0.5)):
        evaluate_point(eta, gamma, drive, bs=spec)
    assert counts == built


def test_evaluate_point_refuses_a_spec_of_another_gamma():
    with pytest.raises(ValueError, match="lossy_5050"):
        evaluate_point(0.7, 0.1, 1.0, bs=BeamSplitterSpec.lossy_5050(0.02))
    with pytest.raises(ValueError, match="lossy_5050"):
        evaluate_point(0.7, 0.0, 1.0, bs=BeamSplitterSpec(0.6, 0.8j))


def test_sweep_peak_memory_is_that_of_its_largest_point(monkeypatch):
    # one spec is alive at a time and a ladder is shared, not copied per top, so
    # the blocks and tables a sweep keeps are those its largest point builds alone
    def store_bytes(spec):
        store = spec.store
        ladders = sum(block.nbytes for ladder in store.ladders for block in ladder)
        return ladders + sum(table.nbytes for table in store._tables.values())

    gammas, drives = (0.02, 0.1), (0.5, 2.0, 6.0)
    largest = []
    for g in gammas:
        spec = BeamSplitterSpec.lossy_5050(g)
        evaluate_point(0.7, g, max(drives), bs=spec)
        largest.append(store_bytes(spec))
    made = []
    lossy_5050 = BeamSplitterSpec.lossy_5050.__func__

    def recording(cls, gamma):
        made.append(lossy_5050(cls, gamma))
        return made[-1]

    monkeypatch.setattr(BeamSplitterSpec, "lossy_5050", classmethod(recording))
    run_sweep(SweepGrid(eta=[0.7], gamma_bs=list(gammas), drive=list(drives)))
    shared = [spec for spec in made if "store" in vars(spec)]
    assert [spec.gamma for spec in shared] == pytest.approx(list(gammas), abs=1e-15)
    assert [store_bytes(spec) for spec in shared] == largest
    assert min(largest) > 0


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
    pytest.param(
        ["pipeline", "--drive", "100"],
        2,
        r"config error: drive\.gamma: tail_eps=1e-12 unattainable .*\|gamma\|\^2=10000$",
        id="drive-100",
    ),
    pytest.param(["pipeline", "--drive", "1000"], 2, r"config error: drive\.gamma: .*unattainable", id="drive-1000"),
    pytest.param(["pipeline", "--drive", "1e-7"], 0, None, id="drive-1e-7"),
    pytest.param(
        ["sweep", "--config", '{"sweep": {"tail_eps": "x"}}'], 2, r"config error: sweep\.tail_eps", id="sweep-tail-eps-x"
    ),
    pytest.param(
        ["sweep", "--config", '{"sweep": {"cutoff": "x"}}'], 2, r"config error: sweep\.cutoff", id="sweep-cutoff-x"
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
    pytest.param(["scissors", "--config", '{"clicks": [50, 0]}'], 1, r"run error: clicks must lie in", id="clicks-50"),
    pytest.param(["pipeline", "--ratio", "0"], 2, r"config error: ratio", id="ratio-0"),
    pytest.param(["pipeline", "--drive", "1", "--ratio", "1"], 2, r"config error: give either", id="drive-and-ratio"),
    pytest.param(
        ["pipeline", "--cutoff", "3", "--drive", "2"],
        2,
        r"config error: drive\.gamma: cutoff 3 .*cutoff 25 is required$",
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
    pytest.param(
        ["pipeline", "--drive", "1", "--cutoff", "405"],
        2,
        r"config error: drive\.gamma: drive cutoff 405 needs an estimated \d+ bytes",
        id="cutoff-405-over-memory-limit",
    ),
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
    assert float(row["truncation_error"]) <= 1e-12


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
