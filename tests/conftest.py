import os
import re

# One BLAS thread for the suite, as the benchmark runs (bench/run.py); this
# must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_CRITERIA = {
    1: "gradient check vs central differences",
    2: "numeric kernels vs high-precision oracles",
    3: "zero-weight alignment collapses to fine-tuning",
    4: "benchmark retention margins",
    5: "alignment-weight endpoints",
    6: "exemplar-budget flatness",
    7: "two-round anchor growth and retention",
    8: "protocol invariants",
    9: "pipeline byte-level reproducibility",
}

_NODE = re.compile(r"test_acceptance\.py::test_c(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion that actually ran."""
    outcome = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _NODE.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            verdict = "PASS" if status == "passed" else "FAIL"
            # a setup/teardown error trumps an earlier pass
            if outcome.get(num) != "FAIL":
                outcome[num] = verdict
    if not outcome:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcome):
        title = _CRITERIA.get(num, "?")
        terminalreporter.write_line(f"ACCEPTANCE {num} {title}: {outcome[num]}")
