"""repro.obs — the unified observability layer.

Five pieces, derived from one structured event stream plus the run's
:class:`~repro.serving.metrics.ServingMetrics` tally of request outcomes:

* :mod:`repro.obs.events` — typed events with sim-timestamps for every
  serving-layer decision (admission, dispatch, shed, preemption, retry,
  breaker, strategy change, Principle-1 violation, SLO alerts) on a synchronous :class:`~repro.obs.events.EventBus`;
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  that counts what only the bus knows, reads request outcomes from the
  ``ServingMetrics`` through callbacks, and exports Prometheus text plus
  JSON snapshots;
* :mod:`repro.obs.telemetry` — a ring of sim-timestamped windows every
  registry metric samples into on the heartbeat, with labelled series and
  windowed rate/percentile queries;
* :mod:`repro.obs.slo` — declarative :class:`~repro.obs.slo.SloPolicy`
  objectives evaluated per window into multi-window burn-rate alerts,
  surfaced as typed events, counters and timeline instants;
* :mod:`repro.obs.spans` / :mod:`repro.obs.export` /
  :mod:`repro.obs.analysis` — per-request spans, the merged
  Chrome/Perfetto timeline, and the critical-path analyzer that
  attributes the makespan to compute/comm/idle/contention per GPU.

The front door is :class:`~repro.obs.observability.Observability`,
configured by :class:`~repro.obs.observability.ObservabilityConfig`; pass
one to ``serve(..., observability=obs)`` or a ``Server``/``LifecycleServer``.
A server without one publishes nothing and behaves bit-identically to a
build without this subsystem; a server with one behaves identically too,
because no serving decision reads the bus, the store or the SLO engine.
"""

from repro.obs.analysis import (
    CriticalPathReport,
    GpuAttribution,
    PathSegment,
    analyze_critical_path,
    gpu_attribution,
)
from repro.obs.events import (
    BatchCompleted,
    BatchDispatched,
    BatchPreempted,
    BatchStaged,
    BreakerClosed,
    BreakerOpened,
    Event,
    EventBus,
    Principle1Violation,
    RequestsAdmitted,
    RequestsShed,
    RequestsTimedOut,
    RetryScheduled,
    SloAlertResolved,
    SloBurnRateAlert,
    StrategyDowngraded,
    StrategyUpgraded,
)
from repro.obs.export import merged_chrome_trace, validate_merged_trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observability import Observability, ObservabilityConfig
from repro.obs.slo import BurnRule, SloEngine, SloPolicy
from repro.obs.spans import RequestSpan, SpanBuilder, SpanSegment
from repro.obs.telemetry import TimeSeriesStore

__all__ = [
    "Event",
    "EventBus",
    "RequestsAdmitted",
    "RequestsShed",
    "RequestsTimedOut",
    "BatchStaged",
    "BatchDispatched",
    "BatchPreempted",
    "BatchCompleted",
    "RetryScheduled",
    "BreakerOpened",
    "BreakerClosed",
    "StrategyDowngraded",
    "StrategyUpgraded",
    "Principle1Violation",
    "SloBurnRateAlert",
    "SloAlertResolved",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeriesStore",
    "BurnRule",
    "SloPolicy",
    "SloEngine",
    "SpanSegment",
    "RequestSpan",
    "SpanBuilder",
    "merged_chrome_trace",
    "validate_merged_trace",
    "CriticalPathReport",
    "GpuAttribution",
    "PathSegment",
    "analyze_critical_path",
    "gpu_attribution",
    "Observability",
    "ObservabilityConfig",
]
