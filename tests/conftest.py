"""Shared fixtures and the acceptance-summary terminal report."""

from __future__ import annotations

import numpy as np
import pytest

from lrdeconv.channels import BlurKernel
from testkit import ACCEPTANCE_RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}: {detail}")


@pytest.fixture
def boxcar_kernel():
    return BlurKernel("boxcar")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
