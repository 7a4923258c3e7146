"""Fixtures shared across test modules."""

import pytest

from canavbsim.config import ScenarioConfig
from canavbsim.scenario import run_experiment_suite


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    """The four-arm suite at seed 42, 1 s per arm, run once per session.

    Returns the SuiteResult and the directory holding its output files.
    """
    out = tmp_path_factory.mktemp("suite_run1")
    return run_experiment_suite(ScenarioConfig(seed=42, duration=1_000_000_000), out), out
