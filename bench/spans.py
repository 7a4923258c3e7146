"""Per-layer spans for the benchmark's traced run.

The simulator's source is never edited: ``install`` rebinds the public entry
points of each canavbsim module (and wraps every handler passed to
``Simulator.register``) with a span that adds its self time to a per-layer
metric and bumps a call count.  Self time is a span's duration minus the time of the spans
it encloses, so the self times of all spans add up to the duration of the
outermost ones.  Everything stays in memory in one ``Tracer``.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Entity class -> layer name for event handlers registered with the core.
HANDLER_LAYERS = {
    "CanBus": "canbus",
    "PeriodicCanSender": "sender",
    "JammingTalker": "jammer",
    "Gateway": "gateway",
    "EgressPort": "port",
    "Switch": "switch",
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0  # summed duration of outermost spans
        self._open: list[float] = []  # child time accrued under each open span

    def span(self, self_key: str, fn, count: str | None = None):
        """Wrap fn so each call is a span whose self time adds to ``self_key``;
        bump ``count`` per call."""
        open_spans = self._open
        self_s = self.self_s
        counts = self.counts

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[self_key] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.root_s += dt

        return traced


def install(tracer: Tracer) -> None:
    """Rebind canavbsim's entry points to traced versions.  Call before the
    config is parsed and before any network is built."""
    from canavbsim import canbus, core, ethernet, gateway, metrics, scenario, traffic

    span, counts = tracer.span, tracer.counts
    sim_cls = core.Simulator

    sim_cls.run_until = span("core.loop_self_s", sim_cls.run_until)
    sim_cls.schedule = span("core.schedule_s", sim_cls.schedule, count="core.scheduled")
    cancel = sim_cls.cancel

    def counted_cancel(sim, ev):
        counts["core.cancelled"] += 1
        cancel(sim, ev)

    sim_cls.cancel = counted_cancel

    register = sim_cls.register

    def traced_register(sim, name, handler):
        owner = type(getattr(handler, "__self__", None)).__name__
        layer = HANDLER_LAYERS.get(owner, "other")
        if layer == "canbus":
            handler = _arbitration_counter(handler.__self__, handler, counts)
        register(sim, name, span(f"{layer}.self_s", handler, count=f"{layer}.events"))

    sim_cls.register = traced_register

    bus_cls = canbus.CanBus
    bus_cls.transmit_request = span("canbus.self_s", bus_cls.transmit_request)

    gw_cls = gateway.Gateway
    gw_cls.on_can_received = span("gateway.self_s", gw_cls.on_can_received)
    gateway.pack = span("gateway.pack_s", gateway.pack)

    traffic.Listener.on_frame_received = span(
        "listener.self_s", traffic.Listener.on_frame_received, count="listener.frames"
    )

    port_cls = ethernet.EgressPort
    enqueue = port_cls.enqueue

    def enqueue_with_depth(port, frame, now):
        accepted = enqueue(port, frame, now)
        depth = len(port.queues.be_q)
        if depth > counts["port.be_peak_depth"]:
            counts["port.be_peak_depth"] = depth
        return accepted

    port_cls.enqueue = span("port.self_s", enqueue_with_depth, count="port.enqueues")
    port_cls.kick = span("port.self_s", port_cls.kick)
    sw_cls = ethernet.Switch
    sw_cls.on_frame_received = span("switch.self_s", sw_cls.on_frame_received)

    rec_cls = metrics.LatencyRecorder
    rec_cls.summarize = span("metrics.summarize_s", rec_cls.summarize)
    traced_export = span("metrics.export_s", metrics.export_csv)
    metrics.export_csv = traced_export
    scenario.export_csv = traced_export

    scenario.parse_config = span("scenario.parse_s", scenario.parse_config)
    scenario.build_network = span("scenario.build_s", scenario.build_network)


def _arbitration_counter(bus, handle, counts):
    """Count arbitrate events, and those that start a frame.  An arbitration
    fires no earlier than busy_until, so it started a frame exactly when the
    bus is busy past the event's time afterwards."""

    def counted(ev):
        handle(ev)
        if ev.kind == "arbitrate":
            counts["canbus.arbitrations"] += 1
            if bus.busy_until > ev.fire_at:
                counts["canbus.arb_started"] += 1

    return counted
