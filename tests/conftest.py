"""Shared test fixtures and the acceptance-criteria summary block."""

import numpy as np
import pytest

from ellipoly import make_params

# test_acceptance.py registers one (passed, detail) entry per criterion here;
# the terminal-summary hook prints them as a block after the run so the
# pass/fail lines are visible without -s.
CRITERION_LINES = {}


def record_criterion(number, passed, detail):
    CRITERION_LINES[number] = (bool(passed), detail)


def pytest_configure(config):
    # The library reports overflow by a clear ValueError; a numpy
    # RuntimeWarning raised from its code fails the test that triggered it.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning:ellipoly")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for k in sorted(CRITERION_LINES):
        passed, detail = CRITERION_LINES[k]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {k:2d}: {status} -- {detail}")


@pytest.fixture(scope="session")
def p21():
    return make_params(2.0, 1.0)


@pytest.fixture(scope="session")
def complex_grid():
    """A small grid of interior points of p(2,1), off the axes."""
    x = np.linspace(-1.5, 1.5, 5)
    y = np.linspace(-0.7, 0.7, 4)
    return (x[:, None] + 1j * y[None, :]).ravel()
