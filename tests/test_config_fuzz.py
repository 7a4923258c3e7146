"""Fuzz the config parser and validator: any text yields a ScenarioConfig or a
ConfigError, and any config validate_config accepts builds and runs."""

from hypothesis import given, settings, strategies as st

from canavbsim.config import (
    CONFIG_KEYS,
    ConfigError,
    ScenarioConfig,
    ValidationError,
    parse_config,
    validate_config,
)
from canavbsim.scenario import build_network
from canavbsim.wire import STUFFING_MODELS

KEYS = [spec.key for spec in CONFIG_KEYS]

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


def near(*points):
    """Integers within 1 of any of points."""
    return st.sampled_from(points).flatmap(lambda p: st.integers(p - 1, p + 1))


# A float, a bool and a str: validate_config rejects each of them in a field
# that takes an int, and the first and last in jammer_enabled.
wrong_type = st.sampled_from([2.5, True, "8"])

# The fields the actors take, drawn around the bounds validate_config checks;
# actor_overrides also draws each of them of the wrong type.
ACTOR_FIELDS = {
    "can_bitrate": near(0, 1_000_000),
    "can_stuffing_model": st.sampled_from(STUFFING_MODELS + ("bogus",)),
    "eth_rate": near(0, 20_000_000, 100_000_000),
    "idle_slope": near(0, 20_000_000, 100_000_000),
    "gw_pack_period": near(0, 500_000),
    "gw_mtu_payload": near(15, 23, 1500),
    "gw_class_for_can": near(0, 7),
    "gw_queue_cap": st.none() | near(0),
    "sender_can_id": near(0, 0x7FF),
    "sender_dlc": near(0, 8),
    "sender_period": near(0, 3_000_000),
    "sender_start": near(0),
    "sender_count_limit": st.none() | near(0),
    "jammer_frame_total_bytes": near(64, 68, 1518, 1522),
    "jammer_period_lo": near(0, 1_000),
    "jammer_period_hi": near(0, 25_000),
    "jammer_pcp": near(0, 3, 7),
    "jammer_link_rate": st.none() | near(2, 100_000_000),
}
# At most four fields move at once, so most draws pass every other check.
actor_overrides = st.sets(st.sampled_from(sorted(ACTOR_FIELDS)), max_size=4).flatmap(
    lambda names: st.fixed_dictionaries({name: ACTOR_FIELDS[name] | wrong_type for name in names})
)


@settings(max_examples=100, deadline=None)
@given(st.booleans() | wrong_type, actor_overrides)
def test_validate_config_is_the_one_check_on_actor_values(jammer_enabled, overrides):
    cfg = ScenarioConfig()._replace(jammer_enabled=jammer_enabled, **overrides)
    try:
        validate_config(cfg)
    except ValidationError as exc:
        assert str(exc).split()[0] in KEYS, str(exc)
        return
    net = build_network(cfg)
    net.start()
    net.sim.run_until(min(cfg.duration, 20_000))
