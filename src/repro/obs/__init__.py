"""repro.obs — the unified observability layer.

Five pieces, derived from one structured event stream plus the run's
:class:`~repro.serving.metrics.ServingMetrics` tally of request outcomes:

* :mod:`repro.obs.events` — typed events with sim-timestamps for every
  serving-layer decision (admission, dispatch, shed, preemption, retry,
  strategy change, Principle-1 violation, SLO alerts) on a synchronous :class:`~repro.obs.events.EventBus`;
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

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "Event": "events",
    "EventBus": "events",
    "RequestsAdmitted": "events",
    "RequestsShed": "events",
    "RequestsTimedOut": "events",
    "BatchDispatched": "events",
    "BatchPreempted": "events",
    "BatchCompleted": "events",
    "RetryScheduled": "events",
    "Principle1Violation": "events",
    "SloBurnRateAlert": "events",
    "SloAlertResolved": "events",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "TimeSeriesStore": "telemetry",
    "BurnRule": "slo",
    "SloPolicy": "slo",
    "SloEngine": "slo",
    "SpanSegment": "spans",
    "RequestSpan": "spans",
    "SpanBuilder": "spans",
    "merged_chrome_trace": "export",
    "validate_merged_trace": "export",
    "CriticalPathReport": "analysis",
    "GpuAttribution": "analysis",
    "PathSegment": "analysis",
    "analyze_critical_path": "analysis",
    "gpu_attribution": "analysis",
    "Observability": "observability",
    "ObservabilityConfig": "observability",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
