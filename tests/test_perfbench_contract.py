"""The traced benchmark's contract with the package, checked in the tests.

``perfbench/tracer.py`` wraps the package's functions by name and binds
``apply_bs_channel``'s arguments by name, and a traced default sweep must
reproduce the call counts ``perfbench/run.py`` pins.  A change that would break
the traced benchmark run fails here first.  Both files are only read.
"""

import ast
import inspect
import types
from pathlib import Path

from qscissors import channels, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SWEEP_CALLS = {
    "cli.evaluate_point": 27,
    "apparatus.run_scissors": 27,
    "apparatus.run_teleport": 27,
    "channels.apply_bs_channel": 108,
    "channels.lift_pair_operator": 180,
    "channels.postselect": 54,
    "fock.partial_trace": 54,
    "channels.detector_povm": 108,
}


def _load_tracer():
    """Execute tracer.py as a fresh module without writing bytecode next to it."""
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_pinned_counts_are_the_benchmarks():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    pinned = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SWEEP_CALLS"]
    ]
    assert pinned == [SWEEP_CALLS]


def test_traced_default_sweep_reproduces_the_pinned_counts():
    tracer, original = _load_tracer().Tracer(), cli.run_sweep
    with tracer.recording("default-sweep"):
        rows = cli.run_sweep(cli.SweepGrid(**cli.DEFAULT_SWEEP))
    layers = tracer.layer_metrics()
    assert {name: layers[f"{name}.calls"] for name in SWEEP_CALLS} == SWEEP_CALLS
    assert layers["cli.run_sweep.calls"] == 1
    assert layers["channels.lift_pair_operator.nnz"] == 1_908
    assert not any(row.has_violation() for row in rows)
    assert cli.run_sweep is original  # the tracer restored the package on exit


def test_apply_bs_channel_keeps_the_parameter_names_the_tracer_binds():
    assert list(inspect.signature(channels.apply_bs_channel).parameters) == ["rho", "modes", "spec"]
