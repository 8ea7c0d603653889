"""Shared fixtures and the acceptance summary printer."""

import numpy as np
import pytest

from flab.operators import DensityMatrix, QuditSystem, basis_pure_density, product_density
from flab.sampling import task_rng

# one line per acceptance criterion, printed after the run so the
# pass/fail verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def record_criterion():
    def _record(name, passed, detail=""):
        verdict = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        ACCEPTANCE_LINES.append(f"[{verdict}] {name}{suffix}")
        return passed

    return _record


@pytest.fixture
def rng():
    return task_rng(20260823)


@pytest.fixture
def qubit_pair():
    return QuditSystem(2, 2)


@pytest.fixture
def qubit_triple():
    return QuditSystem(2, 3)


@pytest.fixture
def pure_site():
    return basis_pure_density(2)


@pytest.fixture
def pure_triple(pure_site):
    return product_density(pure_site, 3)


def maximally_mixed_density(d):
    return DensityMatrix(np.eye(d) / d, check=False)


def assert_close(actual, expected, tol=1e-12, what=""):
    gap = np.max(np.abs(np.asarray(actual) - np.asarray(expected)))
    assert gap <= tol, f"{what or 'value'} off by {gap:.3e} (tol {tol:.1e})"
