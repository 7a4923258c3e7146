"""Same-instant ties: does any output depend on the order in which events
scheduled for one nanosecond dispatch?

The simulator breaks ties by insertion sequence.  Each case reruns a config
with ``Simulator.schedule`` patched here, on the test side, so that ties
break by a seeded random key or in reverse insertion order (the event
scheduled last fires first), and compares every latency record, every
port's transmission log and the message accounting with the unperturbed
run.  Nothing but the order among equal fire times changes.

The saturated 2-switch ``AVB_jam`` arm fails: at seed 42 message 246's CAN
frame reaches ``port:sw1->sw2`` at the nanosecond that port completes a
filler (738 ms in), and which of the two events fires first decides
whether the frame waits behind the next filler.  Those cases are strict
xfails until the simulator has an order-free same-instant rule.
"""

from functools import lru_cache
from itertools import count
from random import Random

import pytest

from canavbsim.config import ScenarioConfig, arm_config
from canavbsim.core import Simulator
from canavbsim.scenario import build_network

MS = 1_000_000
SHORT = 100 * MS
SATURATED = "ROADMAP item 12: message 246 of the saturated AVB_jam arm depends on tie order"


def _cfg(arm: str, duration: int = SHORT, **changes) -> ScenarioConfig:
    return arm_config(ScenarioConfig(seed=42, duration=duration), arm)._replace(**changes)


CONFIGS = {
    "Eth_nature": _cfg("Eth_nature"),
    "AVB_nature": _cfg("AVB_nature"),
    "Eth_jam": _cfg("Eth_jam"),
    "AVB_nature_gated_1Mbps": _cfg("AVB_nature", sender_period=120_000, idle_slope=1_000_000),
    "AVB_nature_gated_2Mbps": _cfg("AVB_nature", sender_period=120_000, idle_slope=2_000_000),
    "AVB_jam_gap_100_200us": _cfg("AVB_jam", jammer_period_lo=100_000, jammer_period_hi=200_000),
    "Eth_jam_gap_100_200us": _cfg("Eth_jam", jammer_period_lo=100_000, jammer_period_hi=200_000),
    "AVB_jam_3_switches": _cfg("AVB_jam", switch_count=3),
    "AVB_jam_100Mbps_jammer_link": _cfg("AVB_jam", jammer_link_rate=100_000_000),
    "AVB_jam_pcp3_jammer": _cfg("AVB_jam", jammer_pcp=3),
    # 1 s: the tie falls at 738 ms.
    "AVB_jam": _cfg("AVB_jam", duration=1_000 * MS),
}
ORDERS = ("random", "reversed")


def _order_keys(order: str):
    """Map the n-th scheduled event to its tie-break key: a seeded random
    key (n keeps it unique) or -n."""
    if order == "reversed":
        return lambda n: -n
    rng = Random(0)
    return lambda n: rng.getrandbits(32) << 32 | n


def run(name: str, order: str | None = None):
    """Latency records, per-port tx logs and accounting of one run of
    CONFIGS[name], with ties broken in ``order`` (None: insertion order)."""
    with pytest.MonkeyPatch.context() as mp:
        if order is not None:
            schedule, key, counter = Simulator.schedule, _order_keys(order), count()

            def reordered(sim, target, kind, fire_at):
                sim._seq = key(next(counter))  # the seq that schedule stamps
                return schedule(sim, target, kind, fire_at)

            mp.setattr(Simulator, "schedule", reordered)
        net = build_network(CONFIGS[name])
        for port in net.ports:
            port.tx_log = []
        net.run()
    return (
        list(net.recorder),
        {port.name: port.tx_log for port in net.ports},
        net.account(),
        net.port_accounting(),
    )


@pytest.fixture(scope="module")
def outcome():
    """run, with each result kept until this module's tests are done: the
    unperturbed run serves both orders, and the reversed AVB_jam run serves
    the message-246 pin too."""
    return lru_cache(maxsize=None)(run)


def _cases():
    for name in CONFIGS:
        marks = [pytest.mark.xfail(strict=True, reason=SATURATED)] if name == "AVB_jam" else []
        for order in ORDERS:
            yield pytest.param(name, order, marks=marks, id=f"{name}-{order}")


@pytest.mark.parametrize("name,order", _cases())
def test_outputs_do_not_depend_on_tie_order(outcome, name, order):
    records, tx_logs, account, port_accounting = outcome(name)
    assert records, "the config must deliver messages"
    assert any(tx_logs.values())
    assert outcome(name, order) == (records, tx_logs, account, port_accounting)


def test_message_246_is_the_record_the_tie_moves(outcome):
    """The same-instant rule of README "Model notes": in insertion order
    message 246 waits behind the filler that starts at the tie; in the
    reversed order it is enqueued first and skips that wait."""

    def latencies(order):
        return {r.seq: r.latency for r in outcome("AVB_jam", order)[0]}

    normal, reversed_ = latencies(None), latencies("reversed")
    assert normal[246] == 762_480
    assert reversed_[246] == 643_280
    assert {seq for seq in normal if normal[seq] != reversed_[seq]} == {246}
