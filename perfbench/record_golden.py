"""Record the golden rows the correctness gate compares against.

    python3 perfbench/record_golden.py

Runs each workload once at the default seed and stores its inputs and report
rows under ``perfbench/golden/``.  Re-record only from a commit whose results
are known to be right: a speed-up must reproduce these rows to 1e-12.
"""

from __future__ import annotations

import json
import sys
import tempfile

import gate
import run
import workloads

DEFAULT_SEED = 0


def main() -> int:
    gate.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        cli, inputs = run.setup(workload, DEFAULT_SEED)
        closed_form = run.load_closed_form()
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            code, report = workloads.run_body(cli, workload, inputs, f"{tmp}/golden")
            with open(report, encoding="utf-8") as fh:
                rows = json.load(fh)["rows"]
        if code != 0:
            print(f"{workload}: body exited {code}", file=sys.stderr)
            return 1
        for i, row in enumerate(rows):
            errors = gate.row_failures(row, cli.ReportRow, closed_form, None)
            if errors:
                print(f"{workload} point {i}: {'; '.join(errors)}", file=sys.stderr)
                return 1
        lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
        text = (
            f'{{"workload": "{workload}", "seed": {DEFAULT_SEED},\n'
            f'"inputs": {json.dumps([list(p) for p in inputs])},\n'
            f'"rows": [\n{lines}\n]}}\n'
        )
        (gate.GOLDEN_DIR / f"{workload}.json").write_text(text, encoding="utf-8")
        print(f"{workload}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
