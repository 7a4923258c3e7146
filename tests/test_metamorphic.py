"""Metamorphic relations: how a change to the config must move the outputs,
checked without a second model of the network."""

import pytest

from canavbsim.metrics import export_csv, read_csv
from canavbsim.config import ScenarioConfig, arm_config
from canavbsim.scenario import build_network, run_scenario

# Wire time at 100 Mbps of the one frame a nature arm sends per CAN message:
# a 46-byte payload with 14 header, 4 FCS, 8 preamble and 12 gap bytes is
# 672 bits, and the VLAN tag of the AVB class adds 32.
WIRE_NS = {"AVB_nature": 7_040, "Eth_nature": 6_720}


def latency_shifts(cfg: ScenarioConfig) -> tuple[set[int], int]:
    """The distinct changes of per-message latency when one switch is added
    to cfg's chain, and the number of messages compared."""

    def latencies(c: ScenarioConfig) -> dict[int, int]:
        return {r.seq: r.latency for r in run_scenario(c).records}

    before = latencies(cfg)
    after = latencies(cfg._replace(switch_count=cfg.switch_count + 1))
    assert after.keys() == before.keys()
    return {after[seq] - before[seq] for seq in before}, len(before)


@pytest.mark.parametrize("arm,shift", [("AVB_nature", 12_040), ("Eth_nature", 11_720)])
def test_one_more_switch_adds_one_hop_to_every_latency_hand_checked(arm, shift):
    # Seed 42, 300 ms, 2 -> 3 switches: 5 us of forwarding plus 704 (tagged)
    # or 672 (untagged) bits at 100 Mbps, for each of the 100 messages.
    cfg = arm_config(ScenarioConfig(seed=42, duration=300_000_000), arm)
    assert latency_shifts(cfg) == ({shift}, 100)


@pytest.mark.parametrize("forwarding_latency", [0, 1, 250_000])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("arm", sorted(WIRE_NS))
def test_one_more_switch_adds_forwarding_plus_one_frame_time(arm, seed, forwarding_latency):
    base = ScenarioConfig(seed=seed, duration=100_000_000, forwarding_latency=forwarding_latency)
    shifts, compared = latency_shifts(arm_config(base, arm))
    assert compared > 30
    assert shifts == {forwarding_latency + WIRE_NS[arm]}


# The closed form of a nature arm: 114 us of CAN frame, 386 us of wait for
# the next pack tick, three frames of WIRE_NS on the way to the listener and
# two 5 us forwardings.
NATURE_LATENCY_NS = {"AVB_nature": 531_120, "Eth_nature": 530_160}


@pytest.mark.parametrize("arm", sorted(WIRE_NS))
def test_nature_arm_ignores_the_seed(arm, tmp_path):
    # With the jammer off nothing draws from the seeded streams, so the
    # exported latency file is the same bytes at every seed.
    exported = {}
    for seed in (0, 7, 42):
        cfg = arm_config(ScenarioConfig(seed=seed, duration=100_000_000), arm)
        path = tmp_path / f"{seed}.csv"
        export_csv(run_scenario(cfg).records, path)
        exported[seed] = path.read_bytes()
    assert exported[0] == exported[7] == exported[42]
    # Hand-checked: a message every 3 ms from t = 0 gives 34 in 100 ms, each
    # at the closed-form latency.
    records = read_csv(tmp_path / "0.csv")
    assert [r.created_at for r in records] == [3_000_000 * i for i in range(34)]
    assert {r.latency for r in records} == {NATURE_LATENCY_NS[arm]}


def scaled_twice(cfg: ScenarioConfig) -> ScenarioConfig:
    """cfg with every duration doubled and every rate halved."""
    assert cfg.jammer_link_rate is None
    for rate in (cfg.can_bitrate, cfg.eth_rate, cfg.idle_slope):
        assert rate % 2 == 0
    return cfg._replace(
        duration=2 * cfg.duration,
        sender_period=2 * cfg.sender_period,
        sender_start=2 * cfg.sender_start,
        gw_pack_period=2 * cfg.gw_pack_period,
        forwarding_latency=2 * cfg.forwarding_latency,
        jammer_period_lo=2 * cfg.jammer_period_lo,
        jammer_period_hi=2 * cfg.jammer_period_hi,
        can_bitrate=cfg.can_bitrate // 2,
        eth_rate=cfg.eth_rate // 2,
        idle_slope=cfg.idle_slope // 2,
    )


def run_counting_wakeups(cfg: ScenarioConfig) -> tuple[dict[int, int], int]:
    """Each delivered message's latency by seq, and the credit_ready count."""
    net = build_network(cfg)
    kinds = []
    net.sim.trace = lambda ev: kinds.append(ev.kind)
    net.run()
    return {r.seq: r.latency for r in net.recorder}, kinds.count("credit_ready")


# A random jammer gap range does not scale draw for draw: a gap drawn from
# the doubled range is not twice the gap drawn from the original one.  The
# jam cases therefore use a constant gap, and random ranges are left out.
CONSTANT_GAP = {"jammer_period_lo": 20_000, "jammer_period_hi": 20_000}


@pytest.mark.parametrize(
    "arm,overrides,records,gated",
    [
        ("AVB_nature", {}, 34, False),
        ("Eth_nature", {}, 34, False),
        ("AVB_jam", CONSTANT_GAP, 34, False),
        ("Eth_jam", CONSTANT_GAP, 6, False),
        # A 120 us sender outruns a 1 Mbps idle slope: AVB frames wait for
        # credit_ready wakeups, whose times scale too.
        ("AVB_nature", {"sender_period": 120_000, "idle_slope": 1_000_000}, 395, True),
    ],
    ids=["AVB_nature", "Eth_nature", "AVB_jam", "Eth_jam", "AVB_nature-gated"],
)
def test_doubling_every_time_and_halving_every_rate_doubles_every_latency(
    arm, overrides, records, gated
):
    cfg = arm_config(ScenarioConfig(seed=42, duration=100_000_000, **overrides), arm)
    before, wakeups = run_counting_wakeups(cfg)
    after, scaled_wakeups = run_counting_wakeups(scaled_twice(cfg))
    assert len(before) == records
    assert (wakeups > 0) == gated
    assert scaled_wakeups == wakeups
    assert after == {seq: 2 * latency for seq, latency in before.items()}
