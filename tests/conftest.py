"""Shared pytest configuration: a run that touched tests/test_acceptance.py ends
with one PASS/FAIL line per acceptance criterion."""

import re

CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\w+)")


def pytest_terminal_summary(terminalreporter):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call" and status != "error":
                continue
            match = CRITERION_PATTERN.search(report.nodeid)
            if match:
                tag = match.group(1)
                verdict = "PASS" if status == "passed" else "FAIL"
                if outcomes.get(tag) != "FAIL":
                    outcomes[tag] = verdict
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for tag in sorted(outcomes):
        terminalreporter.write_line(f"CRITERION {tag}: {outcomes[tag]}")
