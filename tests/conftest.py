"""Shared test configuration: per-criterion summary lines for the acceptance suite.

Each line gives the verdict and the wall time of the phase that decided it.
"""

import re

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for bucket, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(bucket, []):
            m = _CRITERION.search(getattr(rep, "nodeid", "") or "")
            if m is None:
                continue
            if bucket == "passed" and getattr(rep, "when", "call") != "call":
                continue
            num = int(m.group(1))
            # a failure in any phase beats an earlier PASS for the same item
            if label == "FAIL" or num not in results:
                results[num] = (m.group(2), label, getattr(rep, "duration", 0.0))
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        name, label, seconds = results[num]
        terminalreporter.write_line(
            f"criterion {num:02d} [{name.replace('_', ' ')}]: {label} ({seconds:.2f} s)")
