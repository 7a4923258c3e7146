"""Topology construction, the run loop, trace files and the experiment suite."""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

from .canbus import CanBus
# parse_config is re-exported: bench/workload.py calls scenario.parse_config and
# bench/spans.py rebinds it, as it rebinds export_csv and build_network here.
from .config import ARMS, ScenarioConfig, arm_config, arm_name, parse_config, validate_config
from .core import RunStats, Simulator, stream_rng
from .ethernet import EgressPort, EthFrame, Switch
from .gateway import Gateway, record_count
from .metrics import ROWS_PER_WRITE, LatencyRecorder, RunSummary, export_csv, write_rows
from .traffic import JammingTalker, Listener, PeriodicCanSender
from .wire import filler_payload_len

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
        if frame is None or not frame.payload:
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
