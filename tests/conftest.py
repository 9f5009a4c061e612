import os

import numpy as np
import pytest
from hypothesis import settings

# CI runs draw the same examples every time and print a reproduction blob on
# failure, so a red CI run reproduces locally with CI=1; local runs stay random.
# Recent hypothesis releases load a "ci" profile like this one by themselves;
# this one keeps their other settings and holds on any release.
settings.register_profile("ci", derandomize=True, print_blob=True)
if "CI" in os.environ:
    settings.load_profile("ci")

# acceptance summary registry: test_acceptance fills this, the terminal
# summary hook prints one line per criterion at the end of the run
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
