"""Deterministic discrete-event simulator for mixed CAN / Ethernet-AVB networks."""

from .config import ARMS, ScenarioConfig, arm_config, load_config, parse_config
from .scenario import build_network, run_experiment_suite, run_scenario

__version__ = "0.1.0"

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
