"""Span recorder that wraps the package's public functions from outside.

Each traced function is replaced, in every ``qscissors`` module that bound
the name at import, by a wrapper that records a span (name, start, end,
parent, run id).  Spans stay in memory; ``write_jsonl`` dumps them when the
run ends.  A few wrappers also record work counts computed from arguments
and return values (dimensions, bytes, non-zeros); those are derived from
array shapes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

# layer name -> (module, functions whose spans sum into the layer)
LAYERS = {
    "cli.run_sweep": ("cli", ("run_sweep",)),
    "cli.evaluate_point": ("cli", ("evaluate_point",)),
    "cli.write_reports": ("cli", ("write_reports",)),
    "analytic.oracles": (
        "analytic",
        ("truncation_norm", "truncation_fidelity", "teleport_norm", "teleport_fidelity"),
    ),
    "apparatus.full_pipeline": ("apparatus", ("full_pipeline",)),
    "apparatus.run_scissors": ("apparatus", ("run_scissors",)),
    "apparatus.run_teleport": ("apparatus", ("run_teleport",)),
    "channels.apply_bs_channel": ("channels", ("apply_bs_channel",)),
    "channels.lift_pair_operator": ("channels", ("lift_pair_operator",)),
    "channels.postselect": ("channels", ("postselect",)),
    "channels.detector_povm": ("channels", ("detector_povm",)),
    "fock.coherent_amplitudes": ("fock", ("coherent_amplitudes",)),
    "fock.tensor": ("fock", ("tensor",)),
    "fock.pad_cutoffs": ("fock", ("pad_cutoffs",)),
    "fock.partial_trace": ("fock", ("partial_trace",)),
    "fock.fidelity": ("fock", ("fidelity",)),
}

COMPLEX_BYTES = 16


class Tracer:
    """Records spans of the package's public functions, one run at a time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.run_id = ""
        self._first_span = 0
        self._stack = []
        self._patches = []
        self._counts = {}
        self._bs_keys = set()

    @contextlib.contextmanager
    def recording(self, run_id: str):
        """Trace one run: wrap on entry, restore the originals on exit."""
        self.run_id = run_id
        self._first_span = len(self.spans)
        self._counts = dict.fromkeys(("max_dim", "dense_bytes", "nnz", "out_bytes"), 0)
        self._bs_keys = set()
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        """Wrap every traced function wherever a package module bound it."""
        modules = [m for n, m in sys.modules.items() if n == "qscissors" or n.startswith("qscissors.")]
        for module_name, functions in LAYERS.values():
            home = sys.modules[f"qscissors.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def _uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        counter = self._counter_for(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return wrapper

    def _counter_for(self, name, fn):
        if name == "channels.apply_bs_channel":
            signature = inspect.signature(fn)

            def count(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                reg = bound["rho"].register
                spec = bound["spec"]
                c = self._counts
                c["max_dim"] = max(c["max_dim"], reg.dim)
                c["dense_bytes"] += COMPLEX_BYTES * reg.dim**2
                self._bs_keys.add((spec.t, spec.r, reg.labels, reg.cutoffs, tuple(bound["modes"])))

            return count
        if name == "channels.lift_pair_operator":

            def count(args, kwargs, result):
                self._counts["nnz"] += int(result.nnz)

            return count
        if name == "fock.tensor":

            def count(args, kwargs, result):
                data = getattr(result, "matrix", None)
                if data is None:
                    data = result.amplitudes
                self._counts["out_bytes"] += int(data.nbytes)

            return count
        return None

    def layer_metrics(self) -> dict:
        """Calls, self time and work counts of the last recorded run."""
        spans = self.spans[self._first_span :]
        offset = self._first_span
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= offset:
                child_time[parent - offset] += end - start
        layer_of = {
            f"{module}.{fn}": layer for layer, (module, fns) in LAYERS.items() for fn in fns
        }
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for (name, start, end, _, _), child in zip(spans, child_time):
            layer = layer_of[name]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child
        c = self._counts
        out["channels.apply_bs_channel.max_dim"] = c["max_dim"]
        out["channels.apply_bs_channel.dense_bytes"] = c["dense_bytes"]
        calls = out["channels.apply_bs_channel.calls"]
        out["channels.apply_bs_channel.distinct_frac"] = len(self._bs_keys) / calls if calls else 0.0
        out["channels.lift_pair_operator.nnz"] = c["nnz"]
        out["fock.tensor.out_bytes"] = c["out_bytes"]
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                fh.write(json.dumps(record) + "\n")
