"""Fixtures shared across test modules."""

import pytest

from canavbsim.config import ScenarioConfig
from canavbsim.core import Simulator
from canavbsim.scenario import run_experiment_suite

# More events than this at one nanosecond is a run looping at one instant,
# which never reaches its horizon; the most any test here dispatches at one
# nanosecond is 28.
MAX_EVENTS_AT_ONE_NS = 10_000


def guard_one_instant(run_until):
    """Wrap a Simulator.run_until so that a run dispatching more than
    MAX_EVENTS_AT_ONE_NS events at one nanosecond fails with AssertionError
    instead of hanging.  Any trace already set still sees every event, and
    is restored when the call returns.  Plain, so that a fresh interpreter
    can install it too: put ``tests`` on sys.path and import conftest."""

    def guarded(sim, t_end):
        inner = sim.trace
        at, n = None, 0

        def trace(ev):
            nonlocal at, n
            if ev[0] != at:
                at, n = ev[0], 0
            n += 1
            if n > MAX_EVENTS_AT_ONE_NS:
                raise AssertionError(f"more than {MAX_EVENTS_AT_ONE_NS} events at {at} ns; the last: {ev}")
            if inner is not None:
                inner(ev)

        sim.trace = trace
        try:
            return run_until(sim, t_end)
        finally:
            sim.trace = inner

    return guarded


@pytest.fixture(scope="session", autouse=True)
def fail_runs_that_loop_at_one_instant():
    """Install guard_one_instant on Simulator for the whole session."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "run_until", guard_one_instant(Simulator.run_until))
        yield


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    """The four-arm suite at seed 42, 1 s per arm, run once per session.

    Returns the SuiteResult and the directory holding its output files.
    """
    out = tmp_path_factory.mktemp("suite_run1")
    return run_experiment_suite(ScenarioConfig(seed=42, duration=1_000_000_000), out), out
