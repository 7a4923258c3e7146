"""Scenario configuration, topology construction, and experiment arms.

Config files are sectioned key=value text.  A ``[section]`` header prefixes
the keys that follow; fully dotted keys work without a header, so
``traffic.jammer.enabled=true`` on its own line is equivalent to
``enabled=true`` under ``[traffic.jammer]``.  Unknown keys are errors.
Durations accept ns/us/ms/s suffixes, rates accept bps/kbps/Mbps/Gbps.

The default (empty) configuration is the reference scenario: a 1-Mbps CAN
bus with one periodic sender and the gateway, a two-switch 100-Mbps
backbone to the listener, and a disabled jamming talker on switch 1.
"""

from __future__ import annotations

import re
from collections import namedtuple
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

from .canbus import STUFFING_MODELS, STUFFING_NONE, CAN_MAX_DLC, CAN_MAX_ID, CanBus
from .core import NS_PER_SEC, RunStats, SimulationError, Simulator, stream_rng
from .ethernet import (
    AVB_PCP,
    ETHERTYPE_CAN_TUNNEL,
    MAX_PAYLOAD,
    MIN_PAYLOAD,
    EgressPort,
    EthFrame,
    Switch,
)
from .gateway import COUNT_SIZE, RECORD_OVERHEAD, Gateway, record_count
from .metrics import ROWS_PER_WRITE, LatencyRecorder, RunSummary, export_csv, write_rows
from .traffic import JammingTalker, Listener, PeriodicCanSender, filler_payload_len

ARMS = ("Eth_nature", "Eth_jam", "AVB_nature", "AVB_jam")

# Upper bound on switches.count: the whole chain is built before the first
# event, so an unbounded count would exhaust memory instead of failing.
MAX_SWITCHES = 1024


class ConfigError(SimulationError):
    pass


class ParseError(ConfigError):
    """Malformed config syntax; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(ConfigError):
    """A config value violates an invariant."""


class ConfigReadError(ConfigError):
    """The config file could not be read or is not UTF-8 text."""


_DURATION_UNITS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": NS_PER_SEC}
_RATE_UNITS = {"bps": 1, "kbps": 1_000, "mbps": 1_000_000, "gbps": 1_000_000_000}


# The number syntax of Fraction on Python 3.11, where underscores may only
# group digits.  3.10 rejects underscores and 3.12 allows spaces around "/",
# so numbers are matched here and reach Fraction without underscores.
_NUMBER = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d+(_\d+)*)?"
    r"(/\d+(_\d+)*|(\.(\d+(_\d+)*)?)?(e[-+]?\d+(_\d+)*)?)\s*"
)


def _scaled_int(text: str, units: dict[str, int], what: str) -> int:
    raw = text.strip().lower().replace("µs", "us")
    mult = 1
    for suffix in sorted(units, key=len, reverse=True):
        if raw.endswith(suffix):
            raw, mult = raw[: -len(suffix)].strip(), units[suffix]
            break
    if not _NUMBER.fullmatch(raw):
        raise ValidationError(f"cannot parse {what} {text!r}")
    raw = raw.replace("_", "")
    # Fraction builds 10**exponent, so a huge exponent would run for minutes.
    _, e, exponent = raw.partition("e")
    if e and len(exponent.lstrip("+-").lstrip("0")) > 2:
        raise ValidationError(f"{what} {text!r} has an exponent beyond ±99")
    try:
        value = Fraction(raw) * mult
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse {what} {text!r}") from None
    if value.denominator != 1:
        raise ValidationError(f"{what} {text!r} is not a whole number of base units")
    return int(value)


def parse_duration(text: str) -> int:
    """'3ms' -> 3_000_000 ns; bare integers are nanoseconds."""
    return _scaled_int(text, _DURATION_UNITS, "duration")


def parse_rate(text: str) -> int:
    """'100Mbps' -> 100_000_000 bits/s; bare integers are bits/s."""
    return _scaled_int(text, _RATE_UNITS, "rate")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip(), 0)
    except ValueError:
        raise ValidationError(f"cannot parse integer {text!r}") from None


def _parse_optional_int(text: str) -> int | None:
    if text.strip().lower() in ("none", "unbounded"):
        return None
    return _parse_int(text)


def _parse_optional_rate(text: str) -> int | None:
    if text.strip().lower() in ("none", "unlimited"):
        return None
    return parse_rate(text)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValidationError(f"cannot parse boolean {text!r}")


class ConfigKey(NamedTuple):
    """One INI key of ScenarioConfig: the field it sets, through ``convert``,
    and the field's default.  A value other than None must lie in
    ``lo..hi``; an omitted bound is open."""

    field: str
    key: str
    convert: Callable[[str], object]
    default: object
    lo: int | None = None
    hi: int | None = None


# The config schema: one row per INI key, in ScenarioConfig's field order.
CONFIG_KEYS = (
    ConfigKey("seed", "sim.seed", _parse_int, 42),
    # Every created_at is at most the horizon, and the gateway packs it as u64.
    ConfigKey("duration", "sim.duration", parse_duration, NS_PER_SEC, 1, 2**64 - 1),
    ConfigKey("can_bitrate", "can.bitrate", parse_rate, 1_000_000, 1),
    ConfigKey("can_stuffing_model", "can.stuffing_model", str.strip, STUFFING_NONE),
    ConfigKey("can_node_queue_cap", "can.node_queue_cap", _parse_optional_int, None, 0),
    # At least 2 bits/s, so that an idle slope of at least 1 fits below it.
    ConfigKey("eth_rate", "ethernet.rate", parse_rate, 100_000_000, 2),
    ConfigKey("switch_count", "switches.count", _parse_int, 2, 1, MAX_SWITCHES),
    ConfigKey("forwarding_latency", "switches.forwarding_latency", parse_duration, 5_000, 0),
    ConfigKey("idle_slope", "switches.idle_slope", parse_rate, 20_000_000, 1),
    ConfigKey("avb_queue_cap", "switches.avb_queue_cap", _parse_optional_int, None, 0),
    ConfigKey("be_queue_cap", "switches.be_queue_cap", _parse_optional_int, None, 0),
    ConfigKey("gw_pack_period", "gateway.pack_period", parse_duration, 500_000, 1),
    ConfigKey("gw_mtu_payload", "gateway.mtu_payload", _parse_int, 1500, None, MAX_PAYLOAD),
    ConfigKey("gw_class_for_can", "gateway.class_for_can", _parse_int, AVB_PCP, 0, 7),
    ConfigKey("gw_queue_cap", "gateway.queue_cap", _parse_optional_int, None, 0),
    ConfigKey("sender_can_id", "traffic.sender.can_id", _parse_int, 0x100, 0, CAN_MAX_ID),
    ConfigKey("sender_dlc", "traffic.sender.dlc", _parse_int, 8, 0, CAN_MAX_DLC),
    ConfigKey("sender_period", "traffic.sender.period", parse_duration, 3_000_000, 1),
    ConfigKey("sender_start", "traffic.sender.start", parse_duration, 0, 0),
    ConfigKey("sender_count_limit", "traffic.sender.count_limit", _parse_optional_int, None, 0),
    ConfigKey("jammer_enabled", "traffic.jammer.enabled", _parse_bool, False),
    ConfigKey("jammer_frame_total_bytes", "traffic.jammer.frame_total_bytes", _parse_int, 1470),
    ConfigKey("jammer_period_lo", "traffic.jammer.period_lo", parse_duration, 1_000, 0),
    # All-zero gaps would tick forever without the clock advancing.
    ConfigKey("jammer_period_hi", "traffic.jammer.period_hi", parse_duration, 25_000, 1),
    ConfigKey("jammer_pcp", "traffic.jammer.pcp", _parse_int, 0, 0, 7),
    ConfigKey("jammer_attach_switch", "traffic.jammer.attach_switch", _parse_int, 1, 1),
    ConfigKey("jammer_link_rate", "traffic.jammer.link_rate", _parse_optional_rate, None, 2),
    ConfigKey("out_dir", "output.dir", str.strip, None),
)

ScenarioConfig = namedtuple(
    "ScenarioConfig",
    [spec.field for spec in CONFIG_KEYS],
    defaults=[spec.default for spec in CONFIG_KEYS],
)
ScenarioConfig.__doc__ = """Flat, immutable scenario parameters, one field per
row of CONFIG_KEYS; the defaults reproduce the reference scenario.  Override
values with ``cfg._replace(...)`` and check the result with validate_config."""

# INI key -> its row; "unknown key" means absent here.
_ROWS_BY_KEY = {spec.key: spec for spec in CONFIG_KEYS}


def arm_name(cfg: ScenarioConfig) -> str:
    kind = "AVB" if cfg.gw_class_for_can == AVB_PCP else "Eth"
    return f"{kind}_{'jam' if cfg.jammer_enabled else 'nature'}"


def arm_config(base: ScenarioConfig, arm: str) -> ScenarioConfig:
    """The suite arm variant: only jammer-enabled and CAN classification differ."""
    if arm not in ARMS:
        raise ValidationError(f"unknown arm {arm!r}; expected one of {ARMS}")
    kind, load = arm.split("_")
    return base._replace(
        gw_class_for_can=AVB_PCP if kind == "AVB" else 0,
        jammer_enabled=(load == "jam"),
    )


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every value and cross-field invariant; returns cfg for chaining.

    This is the one check site: the actors take their values as given.  Each
    message starts with the INI key of the value it rejects.  Every value is
    checked against its row's bounds in CONFIG_KEYS first, so the checks
    that relate two values may rely on those bounds."""

    def need(cond: bool, message: str):
        if not cond:
            raise ValidationError(message)

    for spec, value in zip(CONFIG_KEYS, cfg):
        if value is None:
            continue
        if spec.lo is not None and value < spec.lo:
            raise ValidationError(f"{spec.key} must be at least {spec.lo}, got {value}")
        if spec.hi is not None and value > spec.hi:
            raise ValidationError(f"{spec.key} must be at most {spec.hi}, got {value}")
    need(
        cfg.can_stuffing_model in STUFFING_MODELS,
        f"can.stuffing_model must be one of {STUFFING_MODELS}, got {cfg.can_stuffing_model!r}",
    )
    need(
        cfg.idle_slope < cfg.eth_rate,
        f"switches.idle_slope must be below ethernet.rate {cfg.eth_rate}, got {cfg.idle_slope}",
    )
    record = COUNT_SIZE + RECORD_OVERHEAD + cfg.sender_dlc
    need(
        record <= cfg.gw_mtu_payload,
        f"gateway.mtu_payload must be at least {record}, got {cfg.gw_mtu_payload}: "
        f"one record of traffic.sender.dlc {cfg.sender_dlc} takes "
        f"{COUNT_SIZE} + {RECORD_OVERHEAD} + dlc bytes",
    )
    need(
        cfg.jammer_period_lo <= cfg.jammer_period_hi,
        f"traffic.jammer.period_lo {cfg.jammer_period_lo} exceeds "
        f"traffic.jammer.period_hi {cfg.jammer_period_hi}",
    )
    payload = filler_payload_len(cfg.jammer_frame_total_bytes, cfg.jammer_pcp)
    need(
        MIN_PAYLOAD <= payload <= MAX_PAYLOAD,
        f"traffic.jammer.frame_total_bytes {cfg.jammer_frame_total_bytes} implies payload "
        f"{payload} at pcp {cfg.jammer_pcp}, outside {MIN_PAYLOAD}..{MAX_PAYLOAD}",
    )
    need(
        cfg.jammer_attach_switch <= cfg.switch_count,
        f"traffic.jammer.attach_switch must be at most switches.count {cfg.switch_count}, "
        f"got {cfg.jammer_attach_switch}",
    )
    return cfg


def parse_config(text: str) -> ScenarioConfig:
    """Parse sectioned key=value text into a validated ScenarioConfig."""
    values: dict[str, object] = {}  # field -> converted value
    seen: dict[str, int] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"unterminated section header {line!r}")
            section = line[1:-1].strip()
            if not section:
                raise ParseError(lineno, "empty section name")
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(lineno, "missing key before '='")
        full_key = f"{section}.{key}" if section else key
        spec = _ROWS_BY_KEY.get(full_key)
        if spec is None:
            raise ValidationError(f"line {lineno}: unknown config key {full_key!r}")
        if full_key in seen:
            raise ValidationError(
                f"line {lineno}: {full_key!r} already set on line {seen[full_key]}"
            )
        seen[full_key] = lineno
        try:
            values[spec.field] = spec.convert(value)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {full_key}: {exc}") from None
    return validate_config(ScenarioConfig(**values))


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        # utf-8-sig drops the byte-order mark some editors put first.
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigReadError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigReadError(
            f"{str(path)!r} is not UTF-8 text: byte {exc.start}: {exc.reason}"
        ) from None
    return parse_config(text)


# Trace rows buffered between two writes, over both trace files.
TRACE_ROW_BUDGET = ROWS_PER_WRITE
FIRST_SLICE_NS = 1_000


class Network:
    """The one-way chain CAN bus -> gw -> sw1..swN -> listener, with the
    jamming talker hanging off its configured switch, wired and ready to
    run, with conservation accounting.  Every hop owns one egress port;
    ``ports`` lists them left to right, then the talker's access port."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.sim = sim = Simulator()
        self.records_in_dropped_frames = 0
        self.ports: list[EgressPort] = []
        self.recorder = LatencyRecorder(arm_name(cfg))
        self.listener = Listener("listener", self.recorder)
        self.bus = CanBus(
            sim,
            "canbus",
            bitrate=cfg.can_bitrate,
            stuffing_model=cfg.can_stuffing_model,
            node_queue_cap=cfg.can_node_queue_cap,
        )
        self.sender = PeriodicCanSender(
            sim, "sender", self.bus, cfg.sender_can_id, cfg.sender_dlc,
            cfg.sender_period, cfg.sender_start, cfg.sender_count_limit,
        )

        def backbone_port(name: str, peer) -> EgressPort:
            return self._track_port(EgressPort(
                sim,
                name,
                rate=cfg.eth_rate,
                idle_slope=cfg.idle_slope,
                peer=peer,
                avb_cap=cfg.avb_queue_cap,
                be_cap=cfg.be_queue_cap,
            ))

        # Built from the listener back, so each hop's port exists before
        # the hop that owns it; both lists are then put left to right.
        hop = self.listener
        switches: list[Switch] = []
        for i in range(cfg.switch_count, 0, -1):
            port = backbone_port(f"port:sw{i}->{hop.name}", hop)
            hop = Switch(sim, f"sw{i}", cfg.forwarding_latency, port)
            switches.append(hop)
        self.gw = Gateway(
            sim, "gw", backbone_port("port:gw->sw1", hop),
            cfg.gw_pack_period, cfg.gw_mtu_payload, cfg.gw_class_for_can, cfg.gw_queue_cap,
        )
        self.bus.attach("gw", self.gw.on_can_received)
        self.switches = switches[::-1]
        self.ports.reverse()

        self.talker: JammingTalker | None = None
        if cfg.jammer_enabled:
            attach = self.switches[cfg.jammer_attach_switch - 1]
            send = attach.on_frame_received
            if cfg.jammer_link_rate is not None:
                send = self._track_port(EgressPort(
                    sim,
                    f"port:talker->{attach.name}",
                    rate=cfg.jammer_link_rate,
                    # The idle slope must stay below this link's rate, or the
                    # send slope is not negative; link_rate is at least 2.
                    idle_slope=min(cfg.idle_slope, cfg.jammer_link_rate - 1),
                    peer=attach,
                )).enqueue
            filler = EthFrame(
                pcp=cfg.jammer_pcp,
                payload_len=filler_payload_len(cfg.jammer_frame_total_bytes, cfg.jammer_pcp),
            )
            self.talker = JammingTalker(
                sim, "talker", filler, cfg.jammer_period_lo, cfg.jammer_period_hi,
                stream_rng(cfg.seed, "talker"), send,
            )

    def _track_port(self, port: EgressPort) -> EgressPort:
        port.on_drop = self._count_dropped_records
        self.ports.append(port)
        return port

    def _count_dropped_records(self, frame: EthFrame) -> None:
        self.records_in_dropped_frames += self._records_in(frame)

    def start(self) -> None:
        self.gw.start()
        self.sender.start()
        if self.talker is not None:
            self.talker.start()

    def run(self, flush: Callable[[], int] = lambda: 0) -> RunStats:
        """Start the sources and run to cfg.duration in slices of simulated
        time, calling flush after each.  flush writes what the observers
        buffered and returns the number of rows it wrote.

        Each slice is sized from the row rate of the slice before, aiming at
        TRACE_ROW_BUDGET rows, and grows at most twofold.  The buffer
        therefore holds about TRACE_ROW_BUDGET rows whatever the horizon and
        the event rate, and at most twice that times the rise of the row rate
        from one slice to the next.  No event depends on where a slice ends."""
        sim, horizon = self.sim, self.cfg.duration
        self.start()
        t, span = 0, FIRST_SLICE_NS
        while True:
            t = min(t + span, horizon)
            stats = sim.run_until(t)
            written = flush()
            if t == horizon:
                return stats
            fitted = span * TRACE_ROW_BUDGET // written if written else 2 * span
            span = max(1, min(2 * span, fitted))

    @staticmethod
    def _records_in(frame: EthFrame | None) -> int:
        if frame is None or frame.ethertype != ETHERTYPE_CAN_TUNNEL:
            return 0
        return record_count(frame.payload)

    def messages_in_flight(self) -> int:
        """CAN messages created but not yet delivered, wherever they sit."""
        total = self.bus.queued_messages() + len(self.gw.fifo)
        for port in self.ports:
            for queue in (port.queues.avb_q, port.queues.be_q):
                for frame, count in queue.runs():
                    total += count * self._records_in(frame)
            total += self._records_in(port.in_service())
        for sw in self.switches:
            for frame in sw.pending:
                total += self._records_in(frame)
        return total

    def messages_dropped(self) -> int:
        return (
            self.gw.overflow_drops
            + sum(self.bus.overflows.values())
            + self.records_in_dropped_frames
        )

    def account(self) -> dict[str, int]:
        return {
            "created": self.sender.created,
            "delivered": len(self.recorder),
            "in_flight": self.messages_in_flight(),
            "dropped": self.messages_dropped(),
        }

    def port_accounting(self) -> dict[str, dict[str, int]]:
        return {port.name: port.accounting() for port in self.ports}


def build_network(cfg: ScenarioConfig) -> Network:
    """Validate cfg and wire its network."""
    return Network(validate_config(cfg))


class ScenarioResult(NamedTuple):
    arm: str
    records: LatencyRecorder
    summary: RunSummary
    stats: RunStats
    network: Network


def run_scenario(
    cfg: ScenarioConfig,
    trace_path: str | Path | None = None,
    depth_trace_path: str | Path | None = None,
) -> ScenarioResult:
    """Build, run to cfg.duration, and summarize one scenario.

    The config is validated before any trace file is opened, so an invalid
    config leaves earlier traces as they were.  Each file's buffered rows
    are written with one format call after every slice of the run.  If a
    handler raises, the rows buffered so far, the raising event's included,
    are written before the exception propagates."""
    net = build_network(cfg)
    with ExitStack() as files:
        # (file, row format, buffered rows) per trace file.
        sinks: list[tuple[TextIO, str, list[tuple]]] = []

        def sink(path: str | Path, header: str, row_format: str) -> list[tuple]:
            file = files.enter_context(open(path, "w"))
            file.write(header)
            rows: list[tuple] = []
            sinks.append((file, row_format, rows))
            return rows

        if trace_path:
            # An Event is the row: (fire_at, seq, target, kind).
            net.sim.trace = sink(trace_path, "time_ns,seq,target,kind\n", "%d,%d,%s,%s\n").append
        if depth_trace_path:
            rows = sink(depth_trace_path, "time_ns,port,avb_depth,be_depth,credit\n", "%d,%s,%d,%d,%d\n")
            for port in net.ports:
                port.depth_trace = rows.append

        def flush() -> int:
            written = 0
            for file, row_format, rows in sinks:
                if rows:
                    write_rows(file, row_format, rows)
                    written += len(rows)
                    rows.clear()
            return written

        try:
            stats = net.run(flush)
        finally:
            flush()
    return ScenarioResult(net.recorder.arm, net.recorder, net.recorder.summarize(), stats, net)


class SuiteResult(NamedTuple):
    results: dict[str, ScenarioResult]
    csv_paths: dict[str, Path]
    table: str


def comparison_table(results: dict[str, ScenarioResult]) -> str:
    lines = [f"{'arm':<12} {'count':>6} {'max_ms':>10} {'p99_ms':>10} {'jam_frames':>10}"]
    for arm in ARMS:
        s = results[arm].summary
        jam_frames = results[arm].network.listener.jam_frames
        max_ms = f"{s.max / 1e6:.3f}" if s.count else "-"
        p99_ms = f"{s.p99 / 1e6:.3f}" if s.count else "-"
        lines.append(f"{arm:<12} {s.count:>6} {max_ms:>10} {p99_ms:>10} {jam_frames:>10}")
    return "\n".join(lines)


def run_experiment_suite(
    base: ScenarioConfig,
    out_dir: str | Path,
) -> SuiteResult:
    """Run the four arms with one shared seed and export fig3_<arm>.csv each.

    Arms differ only in jammer-enabled and CAN-frame classification.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, ScenarioResult] = {}
    csv_paths: dict[str, Path] = {}
    for arm in ARMS:
        result = run_scenario(arm_config(base, arm))
        path = out / f"fig3_{arm}.csv"
        export_csv(result.records, path)
        results[arm] = result
        csv_paths[arm] = path
    table = comparison_table(results)
    (out / "comparison.txt").write_text(table + "\n")
    return SuiteResult(results, csv_paths, table)
