"""The observability facade a server carries when telemetry is enabled.

One :class:`Observability` object bundles the bus, the registry, the span
builder and — when :class:`ObservabilityConfig` asks for them — the
windowed :class:`~repro.obs.telemetry.TimeSeriesStore` and the
:class:`~repro.obs.slo.SloEngine`, and owns the exports: Prometheus text,
the merged Perfetto timeline, windowed series, and the critical-path
report.  Construct one and hand it to the serving entry point::

    from repro.obs import Observability, ObservabilityConfig, SloPolicy
    obs = Observability(ObservabilityConfig(
        telemetry=True,
        slo_policies=(SloPolicy("availability", target=0.95),),
    ))
    result = serve(model, node, observability=obs, record_trace=True, ...)
    obs.save_prometheus("metrics.prom")
    obs.save_series("series.json")
    print(obs.critical_path(trace=result.trace).describe())

Zero-overhead when absent: a server constructed without an
``Observability`` holds no bus, publishes nothing, arms no sampling
heartbeat, and its timeline is bit-identical to a build without this
subsystem (the test suite asserts it).  When present, the only engine
interaction is a read-only sampling heartbeat on ``Engine.heartbeat`` —
gauge snapshots, store pumping and SLO evaluation all ride it and never
reschedule device work, so enabling telemetry does not move a single
kernel.  Burn-rate alerts are events on the bus: nothing in the serving
path reads them, so no decision depends on whether a run is observed.

Request outcomes have one tally, the session's
:class:`~repro.serving.metrics.ServingMetrics`, handed over once with
:meth:`Observability.attach_metrics`; the registry reads it and counts
nothing beside it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.analysis import CriticalPathReport, analyze_critical_path
from repro.obs.events import BatchCompleted, BatchDispatched, EventBus
from repro.obs.export import merged_chrome_trace, validate_merged_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine, SloPolicy
from repro.obs.spans import RequestSpan, SpanBuilder
from repro.obs.telemetry import TimeSeriesStore

if TYPE_CHECKING:  # the serving layer imports this module
    from repro.serving.metrics import ServingMetrics

__all__ = ["Observability", "ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to arm on one :class:`Observability`.

    ``telemetry`` turns on the windowed time-series store; configuring any
    ``slo_policies`` implies it (burn rates need windows).  Everything
    defaults off so a bare ``Observability()`` keeps the established
    obs-on bit-identity contract.
    """

    sample_period_us: float = 10_000.0
    #: Arm the windowed TimeSeriesStore (implied by ``slo_policies``).
    telemetry: bool = False
    #: Telemetry window width (µs); also the SLO burn-rate quantum.
    window_us: float = 50_000.0
    #: Ring capacity of the store.
    max_windows: int = 512
    slo_policies: Tuple[SloPolicy, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("sample_period_us", "window_us"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        object.__setattr__(self, "slo_policies", tuple(self.slo_policies))

    @property
    def wants_telemetry(self) -> bool:
        return self.telemetry or bool(self.slo_policies)


class Observability:
    """Bus + registry + spans (+ store + SLO engine) for one serving run."""

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        if config is None:
            config = ObservabilityConfig()
        self.config = config
        self.sample_period_us = config.sample_period_us
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.registry.bind(self.bus)
        self._metrics: Optional["ServingMetrics"] = None
        self.spans_builder = SpanBuilder(self.bus)
        self.telemetry: Optional[TimeSeriesStore] = None
        self.slo: Optional[SloEngine] = None
        if config.wants_telemetry:
            self.telemetry = TimeSeriesStore(
                window_us=config.window_us, max_windows=config.max_windows
            )
            self.bus.subscribe(
                self._observe_latencies, types=[BatchCompleted, BatchDispatched]
            )
            if config.slo_policies:
                self.slo = SloEngine(
                    config.slo_policies, bus=self.bus, store=self.telemetry
                )
        self._fault_windows: List[Tuple[str, float, float]] = []
        self._armed = False

    # ------------------------------------------------------------------
    # The tally
    # ------------------------------------------------------------------
    def attach_metrics(self, metrics: "ServingMetrics") -> None:
        """Export request outcomes from ``metrics``, the session's tally.

        One Observability observes one session.  The families registered
        here read the tally whenever sampled or exported.  A series exists
        once what it counts can have happened: a terminal state once a
        request reached it, the SLO series once a request completed (any
        terminal state, for the tracked count), retries and preemptions
        once one occurred.
        """
        if self._metrics is not None:
            raise ConfigError(
                "this Observability already reads another session's metrics"
            )
        self._metrics = m = metrics

        def terminal() -> Dict[tuple, float]:
            counts = (
                ("completed", m.num_completed),
                ("shed", m.shed_requests),
                ("timed_out", m.timed_out_requests),
            )
            return {(("state", state),): float(n) for state, n in counts if n}

        def once(attr: str, since: str) -> Callable[[], Dict[tuple, float]]:
            return lambda: {(): float(getattr(m, attr))} if getattr(m, since) else {}

        reg = self.registry
        reg.counter(
            "repro_requests_terminal_total",
            "Requests reaching a terminal state, by state.",
            fn=terminal,
        )
        for name, attr, since, help_text in (
            ("repro_deadline_misses_total", "deadline_misses", "num_completed",
             "Completed requests that finished after their deadline."),
            ("repro_slo_tracked_total", "slo_tracked", "num_terminal",
             "Deadline-carrying requests that reached a terminal state."),
            ("repro_slo_met_total", "slo_met", "num_completed",
             "Deadline-carrying requests that completed on time."),
            ("repro_retries_total", "retries", "retries", "Launch retries scheduled."),
            ("repro_batches_preempted_total", "preemptions", "preemptions",
             "Lifecycle chats evicted under KV pressure and requeued to "
             "recompute their context."),
        ):
            reg.counter(name, help_text, fn=once(attr, since))
        reg.histogram(
            "repro_request_latency_ms",
            "Arrival-to-completion latency of completed requests (ms).",
            # Only the completions since the last read, in completion order.
            fn=lambda n: [r.latency / 1e3 for r in m.completed[n:]],
        )

    # ------------------------------------------------------------------
    # Server wiring
    # ------------------------------------------------------------------
    def register_gauge(
        self, name: str, help: str, fn: Callable[[], float]
    ) -> None:
        """Expose a live reading (queue depth, KV bytes, ...) as a gauge."""
        self.registry.gauge(name, help, fn)

    def note_fault_plan(self, plan) -> None:
        """Record the armed fault windows for the merged timeline."""
        for fault in getattr(plan, "faults", ()):
            end = fault.end
            if end == float("inf"):
                continue  # open-ended window: nothing sensible to draw
            self._fault_windows.append((fault.describe(), fault.start, end))

    def _observe_latencies(self, event) -> None:
        """Stream raw latency/queue-wait observations into the store."""
        store = self.telemetry
        if store is None:
            return
        if isinstance(event, BatchCompleted):
            for lat in event.latencies_us:
                store.observe("repro_request_latency_ms", event.time_us, lat / 1e3)
        elif isinstance(event, BatchDispatched):
            for wait in event.first_queue_waits_us():
                store.observe("repro_request_queue_wait_ms", event.time_us, wait / 1e3)

    def arm(self, engine) -> None:
        """Start the sampling heartbeat (idempotent).

        Sampling rides :meth:`~repro.sim.engine.Engine.heartbeat`, so it
        quiesces with the run and never keeps an idle engine alive.  The
        heartbeat is read-only: gauge snapshots, store pumping and SLO
        evaluation never touch the schedule.
        """
        if self._armed:
            return
        self._armed = True
        self.registry.sample_gauges(engine.now)

        def _sample() -> None:
            self.registry.sample_gauges(engine.now)
            if self.telemetry is not None:
                self.telemetry.pump(self.registry, engine.now)
            if self.slo is not None:
                self.slo.evaluate(engine.now)

        engine.heartbeat(self.sample_period_us, _sample, priority=9)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def events(self):
        """All retained events, in publish order."""
        return self.bus.events

    def spans(self) -> List[RequestSpan]:
        """Per-request spans reconstructed so far."""
        return self.spans_builder.spans()

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        return self.registry.to_prometheus()

    def save_prometheus(self, path: str) -> None:
        """Write the Prometheus text exposition to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_prometheus())

    def save_series(self, path: str) -> None:
        """Write the windowed series (``.prom`` or JSON by extension)."""
        if self.telemetry is None:
            raise ConfigError("telemetry store not armed (set telemetry=True)")
        self.telemetry.save_series(path)

    def critical_path(self, trace=None) -> CriticalPathReport:
        """Makespan attribution + critical-path walk over the timeline."""
        return analyze_critical_path(trace, spans=self.spans())

    def json_snapshot(self) -> dict:
        """Counters, gauges, histograms, heartbeat samples, span summary."""
        snap = self.registry.snapshot()
        snap["spans"] = [
            {
                "rid": s.rid,
                "state": s.state,
                "arrival_us": s.arrival_us,
                "end_us": s.end_us,
                "queue_wait_us": s.queue_wait_us,
                "segments": [
                    [seg.name, seg.start_us, seg.end_us] for seg in s.segments
                ],
            }
            for s in self.spans()
        ]
        snap["num_events"] = len(self.bus.events)
        return snap

    def save_snapshot(self, path: str) -> None:
        """Write :meth:`json_snapshot` as indented JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.json_snapshot(), fh, indent=2)

    def merged_chrome_trace(self, trace=None) -> dict:
        """The merged timeline: request spans + kernel slices + instants."""
        return merged_chrome_trace(
            spans=self.spans(),
            events=self.bus.events,
            trace=trace,
            fault_windows=self._fault_windows,
        )

    def save_merged_trace(self, path: str, trace=None) -> dict:
        """Write the merged trace JSON; returns the per-class event counts."""
        obj = self.merged_chrome_trace(trace=trace)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return validate_merged_trace(obj)
