"""Fuzz the config parser: any text yields a ScenarioConfig or a ConfigError."""

import dataclasses

from hypothesis import given, settings, strategies as st

from canavbsim.scenario import ConfigError, ScenarioConfig, parse_config

KEYS = [f.metadata["key"] for f in dataclasses.fields(ScenarioConfig)]

values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.sampled_from(
        ["none", "true", "off", "worst_case", "0x100", "0.5ms", "5µs", "100Mbps", "1e-100000000s",
         "36893488147419200000ns", "1/3", "", "nan", "-1us"]
    ),
    st.text(max_size=12),
)
key_lines = st.builds(lambda key, value: f"{key} = {value}", st.sampled_from(KEYS), values)
section_lines = st.builds(
    lambda key, value: f"[{key.rpartition('.')[0]}]\n{key.rpartition('.')[2]} = {value}",
    st.sampled_from(KEYS),
    values,
)
lines = st.one_of(key_lines, section_lines, st.text(max_size=30))


@settings(deadline=None)
@given(st.lists(lines, max_size=8))
def test_parse_config_returns_a_config_or_raises_config_error(config_lines):
    try:
        cfg = parse_config("\n".join(config_lines))
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
