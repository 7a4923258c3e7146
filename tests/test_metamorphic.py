"""Metamorphic relations: how a change to the config must move the outputs,
checked without a second model of the network."""

import pytest

from canavbsim.metrics import export_csv, read_csv
from canavbsim.config import ScenarioConfig, arm_config
from canavbsim.scenario import run_scenario

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
