"""Metrics registry: counters, gauges, histograms, and their exporters.

The registry is the numeric face of the event bus: it subscribes to the
typed events of :mod:`repro.obs.events` and re-derives every aggregate the
serving layer used to keep by hand — terminal request counts by state,
retries, preemptions, SLO tracking, breaker and strategy transitions — plus
latency and queue-wait histograms.  A run's Prometheus exposition therefore
*must* agree with its :class:`~repro.serving.metrics.ServingMetrics`; the
test suite asserts exactly that.

Exports:

* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition 0.0.4
  (``# HELP`` / ``# TYPE`` / samples), suitable for a textfile collector.
* :meth:`MetricsRegistry.snapshot` — one JSON-friendly dict of everything,
  including the gauge samples collected on ``Engine.heartbeat``.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
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
    SloBurnRateAlert,
    StrategyDowngraded,
    StrategyUpgraded,
)

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency-style bucket upper bounds (milliseconds).
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0,
)


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Order matters: backslashes first, or the escapes themselves would be
    re-escaped.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonic counter, optionally labelled."""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the labelled series."""
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current count for one label combination (0.0 if never touched)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def expose(self) -> List[str]:
        """Prometheus text-exposition lines for this counter."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} {_fmt(self._values[key])}"
            )
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly mapping of rendered label set -> count."""
        if not self._values:
            return {"": 0.0}
        return {
            ",".join(f"{k}={v}" for k, v in key) or "": val
            for key, val in self._values.items()
        }


class Gauge:
    """Point-in-time value: set directly or backed by a callback."""

    def __init__(
        self, name: str, help: str, fn: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.help = help
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge directly (ignored on callback-backed gauges)."""
        self._value = float(value)

    def value(self) -> float:
        """Current reading (live callback when one is registered)."""
        return float(self._fn()) if self._fn is not None else self._value

    def expose(self) -> List[str]:
        """Prometheus text-exposition lines for this gauge."""
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} gauge",
            f"{self.name} {_fmt(self.value())}",
        ]

    def snapshot(self) -> float:
        """The current reading, for the JSON snapshot."""
        return self.value()


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    Raw observations are also retained so :meth:`percentile` can answer
    exact quantile queries (the bucket bounds are too coarse for p99
    judgements).  The sorted buffer is cached behind a dirty flag: repeated
    queries between observations reuse one sort (``sort_count`` counts the
    sorts actually performed, and the unit tests pin query-after-query
    identity on it).
    """

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> None:
        if not buckets or sorted(buckets) != list(buckets):
            raise ConfigError(f"histogram {name}: buckets must be sorted")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0
        self._raw: List[float] = []
        self._sorted: List[float] = []
        self._dirty = False
        #: Number of full sorts performed (observability for the cache).
        self.sort_count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        self.sum += value
        self.count += 1
        self._raw.append(value)
        self._dirty = True
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def percentile(self, q: float) -> Optional[float]:
        """Exact ``q``-quantile (0 <= q <= 1) of the raw observations.

        Returns ``None`` when nothing has been observed.  Uses the
        nearest-rank method on the cached sorted buffer; only re-sorts
        after a new observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"histogram {self.name}: quantile {q} not in [0, 1]")
        if not self._raw:
            return None
        if self._dirty:
            self._sorted = sorted(self._raw)
            self._dirty = False
            self.sort_count += 1
        rank = min(len(self._sorted) - 1, max(0, math.ceil(q * len(self._sorted)) - 1))
        return self._sorted[rank]

    def expose(self) -> List[str]:
        """Prometheus text-exposition lines (cumulative ``_bucket`` series)."""
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} histogram",
        ]
        cumulative = 0
        for bound, n in zip(self.buckets, self.counts):
            cumulative += n
            lines.append(
                f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            )
        cumulative += self.counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {_fmt(round(self.sum, 6))}")
        lines.append(f"{self.name}_count {self.count}")
        return lines

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly buckets / counts / sum / count."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Holds the run's metrics and derives the standard set from the bus."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Time-stamped gauge samples appended by the observability
        #: heartbeat (:meth:`repro.obs.observability.Observability.arm`).
        self.samples: List[Dict[str, float]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str) -> Counter:
        """Get or create the counter ``name`` (idempotent)."""
        if name not in self._counters:
            self._require_fresh(name)
            self._counters[name] = Counter(name, help)
        return self._counters[name]

    def gauge(
        self, name: str, help: str, fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        """Get or create the gauge ``name``; a new ``fn`` rebinds it."""
        if name in self._gauges:
            if fn is not None:
                self._gauges[name]._fn = fn
            return self._gauges[name]
        self._require_fresh(name)
        self._gauges[name] = Gauge(name, help, fn)
        return self._gauges[name]

    def histogram(
        self, name: str, help: str, buckets: Sequence[float] = DEFAULT_BUCKETS_MS
    ) -> Histogram:
        """Get or create the histogram ``name`` (idempotent)."""
        if name not in self._histograms:
            self._require_fresh(name)
            self._histograms[name] = Histogram(name, help, buckets)
        return self._histograms[name]

    def _require_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ConfigError(f"metric {name!r} already registered with another type")

    # ------------------------------------------------------------------
    # The standard event-derived set
    # ------------------------------------------------------------------
    def bind(self, bus: EventBus) -> None:
        """Register the standard metrics and subscribe their derivations."""
        self.counter(
            "repro_requests_admitted_total",
            "Requests accepted into the serving pipeline.",
        )
        self.counter(
            "repro_requests_terminal_total",
            "Requests reaching a terminal state, by state.",
        )
        self.counter(
            "repro_requests_shed_total",
            "Requests dropped without service, by mechanism.",
        )
        self.counter(
            "repro_batches_dispatched_total",
            "Batches handed to the strategy, by phase.",
        )
        self.counter(
            "repro_batches_staged_total",
            "Batches KV-charged onto the staged runway.",
        )
        self.counter(
            "repro_batches_preempted_total",
            "Staged batches preempted-and-requeued under KV pressure.",
        )
        self.counter("repro_retries_total", "Launch retries scheduled.")
        self.counter(
            "repro_deadline_misses_total",
            "Completed requests that finished after their deadline.",
        )
        self.counter(
            "repro_slo_tracked_total",
            "Deadline-carrying requests that reached a terminal state.",
        )
        self.counter(
            "repro_slo_met_total",
            "Deadline-carrying requests that completed on time.",
        )
        self.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker transitions, by resulting state.",
        )
        self.counter(
            "repro_strategy_changes_total",
            "Recovery-layer strategy transitions, by kind.",
        )
        self.counter(
            "repro_principle1_violations_total",
            "Executed rounds whose secondary subset outlived its window.",
        )
        self.counter(
            "repro_slo_alerts_total",
            "Burn-rate alerts fired, by policy and severity.",
        )
        self.histogram(
            "repro_request_latency_ms",
            "Arrival-to-completion latency of completed requests (ms).",
        )
        self.histogram(
            "repro_request_queue_wait_ms",
            "Arrival-to-dispatch wait of dispatched requests (ms).",
        )
        bus.subscribe(self._on_event)

    def _on_event(self, event: Event) -> None:
        c = self._counters
        if isinstance(event, RequestsAdmitted):
            c["repro_requests_admitted_total"].inc(len(event.rids))
        elif isinstance(event, RequestsShed):
            c["repro_requests_terminal_total"].inc(len(event.rids), state="shed")
            c["repro_requests_shed_total"].inc(len(event.rids), where=event.where)
            c["repro_slo_tracked_total"].inc(event.slo_tracked)
        elif isinstance(event, RequestsTimedOut):
            c["repro_requests_terminal_total"].inc(
                len(event.rids), state="timed_out"
            )
            c["repro_slo_tracked_total"].inc(event.slo_tracked)
        elif isinstance(event, BatchDispatched):
            c["repro_batches_dispatched_total"].inc(1, phase=event.phase)
            if event.first:
                hist = self._histograms["repro_request_queue_wait_ms"]
                for wait in event.queue_waits_us:
                    hist.observe(wait / 1e3)
        elif isinstance(event, BatchStaged):
            c["repro_batches_staged_total"].inc(1)
        elif isinstance(event, BatchPreempted):
            c["repro_batches_preempted_total"].inc(1)
        elif isinstance(event, BatchCompleted):
            c["repro_requests_terminal_total"].inc(
                len(event.completed_rids), state="completed"
            )
            c["repro_deadline_misses_total"].inc(event.deadline_misses)
            c["repro_slo_tracked_total"].inc(event.slo_tracked)
            c["repro_slo_met_total"].inc(event.slo_met)
            hist = self._histograms["repro_request_latency_ms"]
            for lat in event.latencies_us:
                hist.observe(lat / 1e3)
        elif isinstance(event, RetryScheduled):
            c["repro_retries_total"].inc(1)
        elif isinstance(event, BreakerOpened):
            c["repro_breaker_transitions_total"].inc(1, state="open")
        elif isinstance(event, BreakerClosed):
            c["repro_breaker_transitions_total"].inc(1, state="closed")
        elif isinstance(event, StrategyDowngraded):
            c["repro_strategy_changes_total"].inc(
                1, kind="overload-downgrade" if event.overload else "downgrade"
            )
        elif isinstance(event, StrategyUpgraded):
            c["repro_strategy_changes_total"].inc(1, kind="upgrade")
        elif isinstance(event, Principle1Violation):
            c["repro_principle1_violations_total"].inc(1)
        elif isinstance(event, SloBurnRateAlert):
            c["repro_slo_alerts_total"].inc(
                1, policy=event.policy, severity=event.severity
            )

    # ------------------------------------------------------------------
    # Sampling (driven by the observability heartbeat)
    # ------------------------------------------------------------------
    def sample_gauges(self, time_us: float) -> None:
        """Append one time-stamped reading of every registered gauge."""
        row: Dict[str, float] = {"time_us": time_us}
        for name, gauge in self._gauges.items():
            row[name] = gauge.value()
        self.samples.append(row)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.extend(self._counters[name].expose())
        for name in sorted(self._gauges):
            lines.extend(self._gauges[name].expose())
        for name in sorted(self._histograms):
            lines.extend(self._histograms[name].expose())
        return "\n".join(lines) + "\n"

    def save_prometheus(self, path: str) -> None:
        """Write :meth:`to_prometheus` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_prometheus())

    def snapshot(self) -> Dict[str, object]:
        """Everything, JSON-friendly: counters, gauges, histograms, samples."""
        return {
            "counters": {
                name: c.snapshot() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.snapshot() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
            "samples": self.samples,
        }

    def save_snapshot(self, path: str) -> None:
        """Write :meth:`snapshot` as indented JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2)
