"""qscissors benchmark: one workload per process, end-to-end or traced.

Run from the root of a source checkout (the package is imported from
``src``; nothing needs installing):

    python3 perfbench/run.py --workload sweep_default --seed 0 --seconds 55 --trace 0

The body of the chosen workload is repeated while the next repetition still
fits in ``--seconds`` (at least once).  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` untraced and traced
repetitions alternate and it carries the per-layer metrics.  Every row of
every repetition passes the correctness gate (``gate.py``) or the run fails
and exits 1.  The full record (machine, versions, samples) and the spans go
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gate
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

# Call counts one traced default sweep must reproduce exactly.
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


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (package or oracle missing)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the package and make the workload's inputs: the timed set-up."""
    src = ROOT / "src"
    if not (src / "qscissors" / "__init__.py").is_file():
        raise SetupError(f"no qscissors package under {src}")
    sys.path.insert(0, str(src))
    from qscissors import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SetupError(f"imported qscissors from {cli.__file__}, not from {src}")
    return cli, workloads.make_inputs(workload, seed)


def load_closed_form():
    """The hand-derived scissors fidelity from the tests' independent oracle."""
    path = ROOT / "tests" / "reference.py"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    spec = importlib.util.spec_from_file_location("qscissors_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference.closed_form_scissors_fidelity


def probe_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter, as a user would pay it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def latency_probe(cli, samples: list):
    """Time every ``cli.evaluate_point`` call of an untraced repetition."""
    original = cli.evaluate_point

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    cli.evaluate_point = timed
    try:
        yield
    finally:
        cli.evaluate_point = original


class Run:
    def __init__(self, args, cli, closed_form, inputs, scratch: str):
        self.args = args
        self.cli = cli
        self.closed_form = closed_form
        self.inputs = inputs
        self.scratch = scratch
        self.golden = gate.load_golden(args.workload, inputs)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.untraced = []  # (wall_s, [point latencies])
        self.traced = []  # (wall_s, layer metrics)
        self.tracer = Tracer()
        self.rows = None

    def repetition(self, traced: bool):
        rep = len(self.untraced) + len(self.traced)
        stem = os.path.join(self.scratch, f"rep{rep}")
        latencies = []
        if traced:
            hook = self.tracer.recording(f"{self.args.workload}-seed{self.args.seed}-rep{rep}")
        else:
            hook = latency_probe(self.cli, latencies)
        with hook:
            start = time.perf_counter()
            try:
                code, report = workloads.run_body(self.cli, self.args.workload, self.inputs, stem)
            except Exception:  # a raising point fails the repetition, not the benchmark
                traceback.print_exc(file=sys.stderr)
                code, report = None, None
            wall = time.perf_counter() - start
        self.check(code, report, rep)
        if traced:
            layers = self.tracer.layer_metrics()
            self.traced.append((wall, layers))
            if self.args.workload == "sweep_default":
                self.check_sweep_calls(layers)
        else:
            self.untraced.append((wall, latencies))

    def check(self, code, report, rep):
        n = len(self.inputs)
        self.attempted += n
        if code != 0 or report is None:
            self.failed += n
            self.problems.append(f"rep {rep}: body failed (exit code {code})")
            return
        with open(report, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        if len(rows) != n:
            self.failed += n
            self.problems.append(f"rep {rep}: {len(rows)} rows for {n} points")
            return
        golden = self.golden or [None] * n
        for i, (row, want) in enumerate(zip(rows, golden)):
            errors = gate.row_failures(row, self.cli.ReportRow, self.closed_form, want)
            if errors:
                self.failed += 1
                self.problems.append(f"rep {rep} point {i}: " + "; ".join(errors))
        self.rows = rows

    def check_sweep_calls(self, layers):
        for layer, want in SWEEP_CALLS.items():
            got = layers[f"{layer}.calls"]
            if got != want:
                self.problems.append(f"tracer self-test: {layer} called {got} times, expected {want}")

    def gate_self_test(self):
        """The gate must flag a perturbed copy of a row that passed."""
        if not self.rows:
            return
        row = self.rows[0]
        if gate.row_failures(row, self.cli.ReportRow, self.closed_form, None):
            return  # already counted as a failed point
        bumped = dict(row, prob_scissors=row["prob_scissors"] * (1 + 1e-6))
        if not gate.identity_errors(bumped, self.closed_form):
            self.problems.append("gate self-test: a perturbed prob_scissors was not flagged")
        if self.golden is not None:
            nudged = dict(row, fid_teleport_numeric=row["fid_teleport_numeric"] + 1e-10)
            if not gate.golden_errors(nudged, self.golden[0]):
                self.problems.append("gate self-test: a golden mismatch was not flagged")

    def metrics(self, setup_samples) -> dict:
        walls = [w for w, _ in self.untraced]
        if self.args.trace:
            # counts repeat exactly, so median_low keeps them whole numbers
            layers = {
                name: (statistics.median if name.endswith("self_s") else statistics.median_low)(
                    [m[name] for _, m in self.traced]
                )
                for name in self.traced[0][1]
            }
            traced_wall = statistics.median(w for w, _ in self.traced)
            layers["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
            return {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
        # per-repetition percentiles, then the median over repetitions, so
        # the statistic does not depend on how many repetitions fit
        samples = [s for _, s in self.untraced if len(s) >= 2]
        p50 = _median([statistics.median(s) for s in samples])
        p90 = _median([statistics.quantiles(s, n=10, method="inclusive")[8] for s in samples])
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "point_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
            "point_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }


def _median(values) -> float:
    """Median, or 0.0 when a failed run left no samples."""
    return statistics.median(values) if values else 0.0


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".max_dim") or name.endswith(".nnz"):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def run_record(args, blas_threads_cap: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(numpy),
        "blas_threads_cap": blas_threads_cap,
        "blas_threads": blas_threads(numpy),
    }


def git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """Digest of the package sources: identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qscissors").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_name(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def blas_threads(numpy):
    """Threads OpenBLAS reports at run time, when its library can be found."""
    import ctypes

    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(threads)

    start = time.perf_counter()
    try:
        cli, inputs = setup(args.workload, args.seed)
        setup_samples = [time.perf_counter() - start]
        if args.setup_probe:
            print(setup_samples[0])
            return 0
        closed_form = load_closed_form()
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    setup_samples += [probe_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        run = Run(args, cli, closed_form, inputs, scratch)
        plan = (False, True) if args.trace else (False,)
        begin = time.perf_counter()
        longest = 0.0
        reps = 0
        while True:
            t0 = time.perf_counter()
            run.repetition(traced=plan[reps % len(plan)])
            if reps == 0:
                run.gate_self_test()
            longest = max(longest, time.perf_counter() - t0)
            reps += 1
            if reps >= len(plan) and time.perf_counter() - begin + longest > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = run.metrics(setup_samples)
    correct = run.failed == 0 and not run.problems
    record = run_record(args, threads)
    record.update(
        attempted=run.attempted,
        failed=run.failed,
        failed_frac=run.failed / run.attempted,
        problems=run.problems[:50],
        golden_checked=run.golden is not None,
        setup_samples_s=setup_samples,
        wall_samples_s=[w for w, _ in run.untraced],
        traced_wall_samples_s=[w for w, _ in run.traced],
        point_samples=[len(s) for _, s in run.untraced],
        metrics=metrics,
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        run.tracer.write_jsonl(OUT_DIR / f"spans-{tag}.jsonl")
    for problem in run.problems[:20]:
        print(problem, file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("git_sha", "src_sha256", "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed")}))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
