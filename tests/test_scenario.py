"""Scenario tests: config parsing, arm selection, topology runs, CLI surface."""

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from canavbsim import config, scenario
from canavbsim.cli import main as cli_main
from canavbsim.config import (
    ARMS,
    CONFIG_KEYS,
    ConfigReadError,
    ParseError,
    ScenarioConfig,
    ValidationError,
    arm_config,
    arm_name,
    load_config,
    parse_config,
    parse_duration,
    parse_rate,
    validate_config,
)
from canavbsim.ethernet import Switch
from canavbsim.metrics import read_csv
from canavbsim.scenario import build_network, run_experiment_suite, run_scenario


def test_parse_duration_units():
    assert parse_duration("123") == 123
    assert parse_duration("5us") == 5_000
    assert parse_duration("5\u00b5s") == 5_000  # micro sign
    assert parse_duration("5\u03bcs") == 5_000  # Greek small mu
    assert parse_duration("3ms") == 3_000_000
    assert parse_duration("1s") == 1_000_000_000
    assert parse_duration("0.5ms") == 500_000
    with pytest.raises(ValidationError):
        parse_duration("0.5ns")
    with pytest.raises(ValidationError):
        parse_duration("fast")


def test_huge_exponent_rejected_without_expanding_it():
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="exponent"):
        parse_config("sim.duration = 1e-100000000s\n")
    assert time.perf_counter() - t0 < 1.0
    assert parse_duration("2.5e3us") == 2_500_000


def test_parse_rate_units():
    assert parse_rate("1000000") == 1_000_000
    assert parse_rate("100Mbps") == 100_000_000
    assert parse_rate("20mbps") == 20_000_000
    assert parse_rate("1Gbps") == 1_000_000_000


# Every supported Python accepts the same numbers: underscores only between
# digits, no spaces around "/".
@pytest.mark.parametrize(
    "parse,text,expected",
    [
        (parse_duration, "1_000us", 1_000_000),
        (parse_duration, "1_0.5_0us", 10_500),
        (parse_duration, "1_0/2ns", 5),
        (parse_duration, "2.5e0_3us", 2_500_000),
        (parse_rate, "100_000_000", 100_000_000),
        (parse_rate, "1_0Mbps", 10_000_000),
        (parse_duration, "1/2us", 500),
        (parse_duration, "1__0us", None),
        (parse_duration, "_1us", None),
        (parse_duration, "1_us", None),
        (parse_duration, "1_.5us", None),
        (parse_duration, "1._5us", None),
        (parse_duration, "1e_3us", None),
        (parse_duration, "1/_2us", None),
        (parse_duration, "1 / 2us", None),
        (parse_rate, "100_Mbps", None),
    ],
)
def test_number_syntax_is_the_same_on_every_python(parse, text, expected):
    if expected is None:
        with pytest.raises(ValidationError, match="cannot parse"):
            parse(text)
    else:
        assert parse(text) == expected


def test_empty_config_is_the_reference_scenario():
    assert parse_config("") == ScenarioConfig()


def test_readme_ini_block_is_the_schema_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    assert parse_config(block) == ScenarioConfig(out_dir="results")


def test_sections_and_dotted_keys_equivalent():
    a = parse_config("[traffic.jammer]\nenabled = true\n")
    b = parse_config("traffic.jammer.enabled=true\n")
    assert a == b
    assert a.jammer_enabled


def test_eth_jam_arm_from_config_keys():
    cfg = parse_config("traffic.jammer.enabled=true\ngateway.class_for_can=0\n")
    assert arm_name(cfg) == "Eth_jam"


def test_jammer_period_inversion_rejected():
    with pytest.raises(ValidationError):
        parse_config("[traffic.jammer]\nperiod_lo = 30us\nperiod_hi = 25us\n")


def test_zero_jammer_periods_rejected():
    # All-zero gaps would tick forever at t = 0; parsing alone must refuse them.
    with pytest.raises(ValidationError, match="period_hi"):
        parse_config("[traffic.jammer]\nperiod_lo = 0\nperiod_hi = 0\n")
    assert parse_config("[traffic.jammer]\nperiod_lo = 0\nperiod_hi = 1ns\n").jammer_period_hi == 1


@pytest.mark.parametrize(
    "key", ["can.node_queue_cap", "switches.avb_queue_cap", "switches.be_queue_cap", "gateway.queue_cap"]
)
def test_negative_queue_cap_rejected(key):
    with pytest.raises(ValidationError, match=re.escape(key)):
        parse_config(f"{key} = -1\n")
    parse_config(f"{key} = 0\n")  # a cap of 0 stays valid


def test_mtu_that_cannot_hold_one_sender_record_rejected():
    # A dlc-8 record needs 2 + 13 + 8 = 23 payload bytes.
    with pytest.raises(ValidationError, match="gateway.mtu_payload.*traffic.sender.dlc"):
        parse_config("gateway.mtu_payload = 20\n")
    assert parse_config("gateway.mtu_payload = 23\n").gw_mtu_payload == 23
    assert parse_config("gateway.mtu_payload = 15\ntraffic.sender.dlc = 0\n").gw_mtu_payload == 15


@pytest.mark.parametrize(
    "key,value,other",
    [
        ("can.bitrate", "0", ""),
        ("can.stuffing_model", "bogus", ""),
        ("ethernet.rate", "0", ""),
        ("switches.idle_slope", "0", ""),
        ("switches.idle_slope", "100Mbps", ""),
        ("gateway.pack_period", "0", ""),
        ("gateway.pack_period", "-1", ""),
        ("gateway.mtu_payload", "14", ""),
        ("gateway.mtu_payload", "1501", ""),
        ("traffic.sender.period", "0", ""),
        ("traffic.sender.start", "-1", ""),
        ("traffic.sender.dlc", "9", ""),
        ("traffic.sender.dlc", "-1", ""),
        ("traffic.sender.dlc", "9", "gateway.mtu_payload = 5"),
        ("traffic.sender.count_limit", "-1", ""),
        ("traffic.jammer.period_lo", "-1", ""),
        ("traffic.jammer.period_lo", "30us", "traffic.jammer.period_hi = 25us"),
        ("traffic.jammer.period_hi", "0", "traffic.jammer.period_lo = 0"),
        ("traffic.jammer.frame_total_bytes", "60", ""),
        ("traffic.jammer.frame_total_bytes", "1523", ""),
        ("traffic.jammer.frame_total_bytes", "67", "traffic.jammer.pcp = 3"),
        ("traffic.jammer.link_rate", "1", ""),
    ],
)
def test_actor_value_rejected_naming_its_key(key, value, other):
    with pytest.raises(ValidationError, match=f"^{re.escape(key)} "):
        parse_config(f"{key} = {value}\n{other}\n")


@pytest.mark.parametrize(
    "key,value,other",
    [
        ("traffic.jammer.frame_total_bytes", "64", ""),
        ("traffic.jammer.frame_total_bytes", "1522", "traffic.jammer.pcp = 3"),
    ],
)
def test_actor_value_at_its_bound_accepted(key, value, other):
    # gateway.mtu_payload = 23 and period_hi = 1ns are checked above.
    parse_config(f"{key} = {value}\n{other}\n")


BOUNDED_KEYS = [spec for spec in CONFIG_KEYS if spec.lo is not None or spec.hi is not None]


@pytest.mark.parametrize("spec", BOUNDED_KEYS, ids=lambda spec: spec.key)
def test_every_bounded_value_is_checked_at_both_ends(spec):
    # The lowest idle slope and period_lo let ethernet.rate and period_hi sit
    # at their lower bounds; at every other single bound the rest of the
    # default config passes every check.
    base = ScenarioConfig(idle_slope=1, jammer_period_lo=0)
    key = spec.key
    for bound, outside, word in ((spec.lo, -1, "least"), (spec.hi, 1, "most")):
        if bound is None:
            continue
        validate_config(base._replace(**{spec.field: bound}))
        bad = bound + outside
        with pytest.raises(ValidationError, match=f"^{re.escape(key)} must be at {word} {bound}, got {bad}$"):
            validate_config(base._replace(**{spec.field: bad}))


def wrong_types(spec):
    """Values spec's row rejects: for jammer_enabled an int, a str and None;
    for every other row a float, a bool and a str (none of them a stuffing
    model name), and None too where the default is not None."""
    if spec.field == "jammer_enabled":
        return (0, "false", None)
    wrong = (2.5, True, "8")
    return wrong if spec.default is None else wrong + (None,)


@pytest.mark.parametrize("spec", CONFIG_KEYS, ids=lambda spec: spec.key)
def test_every_value_is_checked_for_its_type(spec):
    base = ScenarioConfig()
    if spec.field == "out_dir":  # any path
        for path in ("results", Path("results")):
            validate_config(base._replace(out_dir=path))
        return
    for value in wrong_types(spec):
        with pytest.raises(ValidationError, match=f"^{re.escape(spec.key)} must be "):
            validate_config(base._replace(**{spec.field: value}))


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ValidationError, match="line 2"):
        parse_config("sim.seed = 1\nsim.sed = 2\n")


def test_parse_error_on_bad_syntax():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("just words\n")
    with pytest.raises(ParseError):
        parse_config("[unterminated\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValidationError, match="already set"):
        parse_config("sim.seed = 1\nsim.seed = 2\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# comment\n\n[sim]\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_explicit_equal_pcp_rejected():
    with pytest.raises(ValidationError, match="unknown config key"):
        parse_config("gateway.class_for_can=0\ngateway.be_pcp=0\n")


def test_attach_switch_validated():
    with pytest.raises(ValidationError):
        parse_config("[traffic.jammer]\nattach_switch = 3\n")


def test_switch_count_capped_before_anything_is_built(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a network was built")

    monkeypatch.setattr(scenario, "Network", no_build)
    top = config.MAX_SWITCHES
    assert parse_config(f"switches.count = {top}\n").switch_count == top
    text = "[switches]\ncount = 1000000000\n"
    with pytest.raises(ValidationError, match="switches.count"):
        parse_config(text)
    code = cli_main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")


@pytest.mark.parametrize("limit", [0, 1, 2])
def test_count_limit_is_the_number_of_messages_sent(limit):
    cfg = parse_config(f"[sim]\nduration = 50ms\n[traffic.sender]\ncount_limit = {limit}\n")
    acct = run_scenario(cfg).network.account()
    assert acct["created"] == acct["delivered"] == limit


def test_negative_count_limit_rejected():
    with pytest.raises(ValidationError, match="count_limit"):
        parse_config("[traffic.sender]\ncount_limit = -3\n")


def test_arm_configs_differ_only_in_two_knobs():
    base = ScenarioConfig(seed=11)
    for arm in ARMS:
        cfg = arm_config(base, arm)
        assert arm_name(cfg) == arm
        neutral = cfg._replace(
            gw_class_for_can=base.gw_class_for_can,
            jammer_enabled=base.jammer_enabled,
        )
        assert neutral == base


def test_avb_nature_constant_latency_within_pack_jitter():
    cfg = ScenarioConfig(duration=300_000_000)
    result = run_scenario(cfg)
    assert result.arm == "AVB_nature"
    assert result.summary.count == 100
    assert result.summary.max - result.summary.min <= cfg.gw_pack_period


def test_end_to_end_fifo_and_completeness():
    result = run_scenario(ScenarioConfig(duration=200_000_000))
    seqs = [r.seq for r in result.records]
    assert seqs == list(range(len(seqs)))  # creation order, no loss
    acct = result.network.account()
    assert acct["created"] == acct["delivered"] + acct["in_flight"] + acct["dropped"]


def seq_runs(records):
    """Each can_id's delivered seqs, in creation order."""
    runs = {}
    for r in sorted(records, key=lambda r: r.created_at):
        runs.setdefault(r.can_id, []).append(r.seq)
    return runs


def test_seq_continuity_per_can_id_in_the_suite(suite):
    result, _ = suite
    for arm, run in result.results.items():
        wrap = 1 << (8 * run.network.sender.dlc)
        for can_id, seqs in seq_runs(run.records).items():
            assert seqs == [i % wrap for i in range(len(seqs))], (arm, can_id)


def test_seq_continuity_across_the_one_byte_wrap():
    result = run_scenario(parse_config("[sim]\nseed = 42\n[traffic.sender]\ndlc = 1\n"))
    (seqs,) = seq_runs(result.records).values()
    assert len(seqs) > 256
    assert seqs == [i % 256 for i in range(len(seqs))]


def test_seq_at_dlc_0_is_always_0():
    # A dlc-0 message carries no payload, so its seq is 0 modulo 2**0 = 1:
    # such a seq carries no information, and the listener cannot tell loss,
    # duplication or reordering from it.
    result = run_scenario(parse_config("[sim]\nseed = 42\n[traffic.sender]\ndlc = 0\n"))
    assert len(result.records) > 1
    assert {r.seq for r in result.records} == {0}


def test_eth_jam_latency_grows_after_warmup():
    cfg = arm_config(ScenarioConfig(duration=500_000_000), "Eth_jam")
    result = run_scenario(cfg)
    late = [r for r in result.records if r.delivered_at > 100_000_000]
    assert len(late) > 3
    lats = [r.latency for r in sorted(late, key=lambda r: r.seq)]
    assert all(b >= a for a, b in zip(lats, lats[1:]))


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("arm", ARMS)
def test_sliced_run_matches_one_run_until_to_the_horizon(arm, seed):
    # run_scenario goes through Network.run, in slices of simulated time.
    # No event may depend on where a slice ends.
    cfg = arm_config(ScenarioConfig(seed=seed, duration=200_000_000), arm)
    result = run_scenario(cfg)
    net = build_network(cfg)
    net.start()
    stats = net.sim.run_until(cfg.duration)
    assert result.stats == stats
    assert result.records.columns == net.recorder.columns
    assert len(net.recorder) > 0


# Figures of the credit-based shaper at a pinned seed: with a 120 us CAN
# period the gateway offers more AVB load than a 1 or 2 Mbps idle slope
# passes, so AVB frames wait for credit_ready wakeups.  No benchmark
# workload or golden reaches that path; these figures pin it end to end.
# tx_sha256 hashes every port's tx_log.
@pytest.mark.parametrize(
    "idle_slope,events,wakeups,max_latency,tx_sha256",
    [
        ("1Mbps", 8_514, 497, 104_848_080,
         "595adec6bb5dcdfe2779e786dd4b17e941bf83d1a9bf090d1c71371598f001ad"),
        ("2Mbps", 9_970, 1_003, 10_404_080,
         "564e9e5f1eedfc198c6767b068ba371e34c1490a49438a22fda3b3083e828ece"),
    ],
    ids=["1Mbps", "2Mbps"],
)
def test_gated_avb_nature_run_is_pinned(idle_slope, events, wakeups, max_latency, tx_sha256):
    cfg = arm_config(parse_config(
        "sim.seed = 42\nsim.duration = 200ms\ntraffic.sender.period = 120us\n"
        f"switches.idle_slope = {idle_slope}\n"
    ), "AVB_nature")
    net = build_network(cfg)
    kinds = []
    net.sim.trace = lambda ev: kinds.append(ev.kind)
    for port in net.ports:
        port.tx_log = []
    stats = net.run()
    tx_log = "".join("%d,%d,%d\n" % row for port in net.ports for row in port.tx_log)
    assert stats.events_dispatched == events
    assert kinds.count("credit_ready") == wakeups
    assert net.recorder.summarize().max == max_latency
    assert hashlib.sha256(tx_log.encode()).hexdigest() == tx_sha256


def test_suite_emits_exactly_the_four_arms(tmp_path):
    suite = run_experiment_suite(ScenarioConfig(duration=50_000_000), tmp_path)
    assert set(suite.results) == set(ARMS)
    for arm in ARMS:
        assert (tmp_path / f"fig3_{arm}.csv").exists()
        rows = read_csv(tmp_path / f"fig3_{arm}.csv")
        assert all(r.arm == arm for r in rows)
    assert "AVB_jam" in suite.table


CHAIN_PORTS = {
    1: ["port:gw->sw1", "port:sw1->listener"],
    2: ["port:gw->sw1", "port:sw1->sw2", "port:sw2->listener"],
    4: ["port:gw->sw1", "port:sw1->sw2", "port:sw2->sw3", "port:sw3->sw4", "port:sw4->listener"],
}


@pytest.mark.parametrize("count", sorted(CHAIN_PORTS))
def test_build_network_shape(count):
    net = build_network(ScenarioConfig(switch_count=count))
    assert [sw.name for sw in net.switches] == [f"sw{i}" for i in range(1, count + 1)]
    # One egress port per hop, listed left to right.
    assert [p.name for p in net.ports] == CHAIN_PORTS[count]
    assert net.talker is None


# Four switches with the talker behind a real 100 Mbps access link on sw3.
LINKED_JAMMER = dict(
    switch_count=4, jammer_enabled=True, jammer_attach_switch=3, jammer_link_rate=100_000_000
)


def test_every_port_carries_frames_with_a_linked_jammer():
    net = build_network(ScenarioConfig(duration=50_000_000, **LINKED_JAMMER))
    assert [p.name for p in net.ports] == CHAIN_PORTS[4] + ["port:talker->sw3"]
    net.run()
    for name, acct in net.port_accounting().items():
        assert acct["transmitted"] > 0, name
        assert acct["offered"] == (
            acct["transmitted"] + acct["queued"] + acct["in_service"] + acct["dropped"]
        ), name
    assert net.listener.jam_frames > 0


BENCH_SMOKE = """
import json, sys
from pathlib import Path
sys.path[:0] = ["bench", "src", "tests"]
import conftest, spans, workload
from canavbsim import core, scenario

core.Simulator.run_until = conftest.guard_one_instant(core.Simulator.run_until)

tracer = spans.Tracer()
spans.install(tracer)
cfg = scenario.parse_config(
    "[sim]\\nseed = 7\\nduration = 50ms\\n[traffic.jammer]\\nenabled = true\\n"
)
out = Path(sys.argv[1])
units = workload.run_jam_logged(cfg, out)
layers = workload.layer_report(tracer, units, out, 0.0, 0.0)
print(json.dumps({
    "conserved": [workload.conserved(result.network) for _, result, _ in units],
    "handler_events": sum(
        layers.get(f"{layer}.events", 0) for layer in set(spans.HANDLER_LAYERS.values())
    ),
    "core_events": layers["core.events"],
}))
"""


def test_bench_spans_and_workload_still_fit_the_simulator(tmp_path):
    # bench/ reaches into the simulator by name: spans.install rebinds
    # classes and functions, and workload.py reads results and network state.
    # Run its logged jam workload for 50 ms in a fresh interpreter, so the
    # rebinding stays out of this process, and without writing bytecode.
    # That interpreter installs conftest's same-instant guard itself, so a
    # run looping at one instant there fails at once; the 20 s timeout only
    # backs it up, for about a second of work.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", BENCH_SMOKE, str(tmp_path)],
        cwd=root, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["conserved"] == [True]
    assert report["core_events"] > 0
    assert report["handler_events"] == report["core_events"]


def test_build_network_more_switches():
    cfg = ScenarioConfig(switch_count=4, jammer_enabled=True, jammer_attach_switch=3)
    net = build_network(cfg)
    assert len(net.switches) == 4
    result_ports = {p.name for p in net.ports}
    assert "port:sw3->sw4" in result_ports
    # frames still reach the listener through the longer chain
    net.run()
    assert net.listener.records_received > 0


def test_queue_depth_trace_written(tmp_path):
    cfg = ScenarioConfig(duration=20_000_000)
    run_scenario(cfg, depth_trace_path=tmp_path / "q.csv")
    lines = (tmp_path / "q.csv").read_text().splitlines()
    assert lines[0] == "time_ns,port,avb_depth,be_depth,credit"
    assert len(lines) > 10


JAM_20MS = "[sim]\nseed = 7\nduration = 20ms\n[traffic.jammer]\nenabled = true\n"


def logged_run(tmp_path, name):
    """20 ms of AVB_jam through run_scenario with both traces; returns the
    bytes of trace.csv and queue_trace.csv."""
    out = tmp_path / name
    out.mkdir()
    paths = (out / "trace.csv", out / "queue_trace.csv")
    run_scenario(parse_config(JAM_20MS), trace_path=paths[0], depth_trace_path=paths[1])
    return tuple(path.read_bytes() for path in paths)


def test_trace_files_match_rows_formatted_one_at_a_time(tmp_path, monkeypatch):
    # Reference: every row formatted when it happens, as a plain observer of
    # a built network would.  The buffered writer must give the same bytes
    # with one-row slices and with the default budget.
    net = build_network(parse_config(JAM_20MS))
    events = ["time_ns,seq,target,kind\n"]
    depths = ["time_ns,port,avb_depth,be_depth,credit\n"]
    net.sim.trace = lambda ev: events.append(f"{ev.fire_at},{ev.seq},{ev.target},{ev.kind}\n")
    for port in net.ports:
        port.depth_trace = lambda row: depths.append(",".join(map(str, row)) + "\n")
    net.run()
    expected = ("".join(events).encode(), "".join(depths).encode())
    assert len(events) > 1_000 and len(depths) > 1_000
    assert logged_run(tmp_path, "default") == expected
    monkeypatch.setattr(scenario, "TRACE_ROW_BUDGET", 1)
    monkeypatch.setattr(scenario, "FIRST_SLICE_NS", 1)
    assert logged_run(tmp_path, "one_row") == expected


class HandlerFault(Exception):
    pass


def test_traced_run_that_raises_ends_with_the_raising_events_row(tmp_path, monkeypatch):
    full_trace, full_depths = logged_run(tmp_path, "full")
    forward = Switch._handle
    faults = []

    def failing_forward(switch, ev):
        if ev.fire_at >= 10_000_000:
            faults.append(HandlerFault(ev))
            raise faults[0]
        forward(switch, ev)

    monkeypatch.setattr(Switch, "_handle", failing_forward)
    with pytest.raises(HandlerFault) as raised:
        logged_run(tmp_path, "failed")
    assert raised.value is faults[0]  # propagated unchanged
    ev = raised.value.args[0]
    trace = (tmp_path / "failed" / "trace.csv").read_bytes()
    depths = (tmp_path / "failed" / "queue_trace.csv").read_bytes()
    assert trace.endswith(f"\n{ev.fire_at},{ev.seq},{ev.target},{ev.kind}\n".encode())
    # Everything before the fault is written, exactly as in a run without it.
    assert full_trace.startswith(trace)
    assert full_depths.startswith(depths)
    assert trace.count(b"\n") > 1_000 and depths.count(b"\n") > 1_000


def write_cfg(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run_writes_csv_and_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[sim]\nduration = 50ms\n")
    code = cli_main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "AVB_nature" in out
    assert (tmp_path / "out" / "latency_AVB_nature.csv").exists()


def test_cli_run_prints_dropped_can_messages_not_dropped_frames(tmp_path, capsys):
    # A best-effort cap of 4 frames drops thousands of jammer fillers at
    # port:sw1->sw2; the summary line counts only the CAN messages lost.
    text = (
        "[sim]\nseed = 42\nduration = 200ms\n[switches]\nbe_queue_cap = 4\n"
        "[gateway]\nclass_for_can = 0\n[traffic.jammer]\nenabled = true\n"
    )
    assert cli_main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    net = run_scenario(parse_config(text)).network
    dropped = net.account()["dropped"]
    assert dropped == 61
    assert sum(p["dropped"] for p in net.port_accounting().values()) > 10_000
    assert line.startswith("Eth_jam ")
    assert line.endswith(f" jam_frames={net.listener.jam_frames} dropped={dropped}")


def test_cli_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path, "[sim]\nduration = 1s\n")
    code = cli_main(
        ["run", cfg, "--duration", "10ms", "--seed", "7", "--out", str(tmp_path / "o2"), "--trace"]
    )
    assert code == 0
    trace = (tmp_path / "o2" / "trace.csv").read_text().splitlines()
    assert trace[0] == "time_ns,seq,target,kind"
    assert int(trace[-1].split(",")[0]) <= 10_000_000
    # --seed parses as sim.seed does, so 0x2a is seed 42: the jammer's gaps,
    # drawn from the seed, put the same events in the trace.
    jam = write_cfg(tmp_path, "[traffic.jammer]\nenabled = true\n")
    traces = {}
    for seed in ("0x2a", "42", "7"):
        out = tmp_path / f"seed{seed}"
        assert cli_main(["run", jam, "--duration", "10ms", "--seed", seed, "--out", str(out), "--trace"]) == 0
        traces[seed] = (out / "trace.csv").read_bytes()
    assert traces["0x2a"] == traces["42"] != traces["7"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nonsense.key = 1\n")
    code = cli_main(["run", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError:")


def test_cli_rejects_horizon_beyond_u64_timestamps(tmp_path, capsys):
    # A created_at of 2**64 ns would not fit the gateway's u64 field.
    cfg = write_cfg(
        tmp_path,
        "[sim]\nduration = 36893488147419200000ns\n"
        "[gateway]\npack_period = 18446744073709551616ns\n"
        "[traffic.sender]\nstart = 18446744073709551616ns\nperiod = 18446744073709551616ns\n",
    )
    code = cli_main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")


@pytest.mark.parametrize(
    "bad_text,bad_flags",
    [
        pytest.param("", ["--duration", "36893488147419200000ns"], id="duration_flag"),
        pytest.param("[traffic.sender]\nstart = -1ns\n", [], id="negative_sender_start"),
    ],
)
def test_cli_override_validated_before_outputs_are_touched(tmp_path, capsys, bad_text, bad_flags):
    cfg = write_cfg(tmp_path, "[sim]\nduration = 10ms\n")
    out = tmp_path / "v"
    assert cli_main(["run", cfg, "--trace", "--queue-trace", "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in ("trace.csv", "queue_trace.csv")}
    cfg = write_cfg(tmp_path, "[sim]\nduration = 10ms\n" + bad_text)
    code = cli_main(["run", cfg, *bad_flags, "--trace", "--queue-trace", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")
    assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("command", [["run", "scenario.cfg"], ["suite"]])
def test_cli_flag_value_error_names_the_flag(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_cfg(tmp_path, "")
    for flag, value, message in (
        ("--duration", "5parsecs", "cannot parse duration '5parsecs'"),
        ("--seed", "1e3", "cannot parse integer '1e3'"),
    ):
        assert cli_main([*command, flag, value, "--out", "out"]) == 2
        assert capsys.readouterr().err == f"error: ValidationError: {flag}: {message}\n"
        assert not (tmp_path / "out").exists()


def test_run_scenario_validates_before_traces_are_touched(tmp_path):
    paths = {"trace_path": tmp_path / "trace.csv", "depth_trace_path": tmp_path / "q.csv"}
    run_scenario(ScenarioConfig(duration=10_000_000), **paths)
    before = {path: path.read_bytes() for path in paths.values()}
    assert all(data.count(b"\n") > 1 for data in before.values())
    with pytest.raises(ValidationError):
        run_scenario(ScenarioConfig(sender_period=0), **paths)
    assert {path: path.read_bytes() for path in before} == before


def test_cli_suite_runs_four_arms(tmp_path, capsys):
    code = cli_main(["suite", "--duration", "20ms", "--out", str(tmp_path / "suite")])
    assert code == 0
    for arm in ARMS:
        assert (tmp_path / "suite" / f"fig3_{arm}.csv").exists()


def test_cli_missing_config_is_a_config_error(tmp_path, capsys):
    code = cli_main(["run", str(tmp_path / "absent.ini")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ConfigReadError:")


def test_cli_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "binary.ini"
    path.write_bytes(b"\xff\xfe")
    code = cli_main(["run", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ConfigReadError:")


def test_config_with_utf8_byte_order_mark_loads_like_one_without(tmp_path):
    text = "[sim]\nseed = 7\n[traffic.jammer]\nenabled = true\n"
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(marked) == load_config(plain) == parse_config(text)
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("output.dir = caf\xe9\n".encode("latin-1"))
    with pytest.raises(ConfigReadError):
        load_config(latin1)


def test_cli_out_naming_a_file_is_a_runtime_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[sim]\nduration = 10ms\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    code = cli_main(["run", cfg, "--out", str(taken)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: OutputDirError:")


def test_run_scenario_shares_the_recorder_records():
    result = run_scenario(ScenarioConfig(duration=10_000_000))
    assert result.records is result.network.recorder


@pytest.mark.parametrize(
    "command,flags,taken",
    [
        ("run", ["--trace"], "trace.csv"),
        ("run", [], "latency_AVB_nature.csv"),
        ("suite", [], "comparison.txt"),
    ],
)
def test_cli_output_file_error_is_a_runtime_error(tmp_path, capsys, command, flags, taken):
    # A directory already holds the output file's name.
    cfg = write_cfg(tmp_path, "[sim]\nduration = 10ms\n")
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    code = cli_main([command, cfg, *flags, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OutputFileError:")
    assert str(out / taken) in err
