"""Deterministic discrete-event simulator for mixed CAN / Ethernet-AVB networks."""

from .config import ARMS, ScenarioConfig, arm_config, load_config, parse_config

__all__ = [
    "ARMS",
    "ScenarioConfig",
    "arm_config",
    "build_network",
    "load_config",
    "parse_config",
    "run_experiment_suite",
    "run_scenario",
]


def __getattr__(name: str):
    # Only the model entry points get here: the model loads on first use, so
    # importing the config layer loads none of it.
    if name in __all__:
        from . import scenario

        return getattr(scenario, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
