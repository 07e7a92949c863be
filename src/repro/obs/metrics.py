"""Metrics registry: counters, gauges, histograms, and their exporters.

The registry counts only what the typed events of :mod:`repro.obs.events`
alone know — admissions, sheds by mechanism, dispatches by phase, queue
waits, Principle-1 violations and SLO alerts.  Request outcomes are not
counted here: a counter or histogram built with ``fn=`` reads its series
from a callback when it is sampled or exported, the way a callback-backed
:class:`Gauge` does, and
:class:`~repro.obs.observability.Observability` points those callbacks at
the run's :class:`~repro.serving.metrics.ServingMetrics`, the one tally.

Exports:

* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition 0.0.4
  (``# HELP`` / ``# TYPE`` / samples), suitable for a textfile collector.
* :meth:`MetricsRegistry.snapshot` — one JSON-friendly dict of everything,
  including the gauge samples collected on ``Engine.heartbeat``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.events import (
    BatchDispatched,
    Event,
    EventBus,
    Principle1Violation,
    RequestsAdmitted,
    RequestsShed,
    SloBurnRateAlert,
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
    """Monotonic counter, optionally labelled.

    With ``fn`` the counter is read-only and pulls its series — a mapping
    of label key to cumulative count, holding only the series that exist
    yet — from the callback on every read.
    """

    def __init__(
        self,
        name: str,
        help: str,
        fn: Optional[Callable[[], Dict[_LabelKey, float]]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._fn = fn
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the labelled series."""
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def series(self) -> Dict[_LabelKey, float]:
        """Label key -> count for every series that exists so far."""
        return self._fn() if self._fn is not None else self._values

    def value(self, **labels: str) -> float:
        """Current count for one label combination (0.0 if never touched)."""
        return self.series().get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self.series().values())

    def expose(self) -> List[str]:
        """Prometheus text-exposition lines for this counter."""
        values = self.series()
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        for key in sorted(values):
            lines.append(f"{self.name}{_render_labels(key)} {_fmt(values[key])}")
        if not values:
            lines.append(f"{self.name} 0")
        return lines

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly mapping of rendered label set -> count."""
        values = self.series()
        if not values:
            return {"": 0.0}
        return {
            ",".join(f"{k}={v}" for k, v in key) or "": val
            for key, val in values.items()
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

    With ``fn`` the histogram is fed by a callback instead: every read
    first observes ``fn(n)``, the observations after the first ``n`` it
    has already taken, so a read costs O(new observations).
    """

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
        fn: Optional[Callable[[int], Iterable[float]]] = None,
    ) -> None:
        if not buckets or sorted(buckets) != list(buckets):
            raise ConfigError(f"histogram {name}: buckets must be sorted")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._fn = fn
        self._counts: List[int] = [0] * (len(self.buckets) + 1)  # +Inf last
        self._sum = 0.0
        self._raw: List[float] = []
        self._sorted: List[float] = []
        self._dirty = False
        #: Number of full sorts performed (observability for the cache).
        self.sort_count = 0

    def _pull(self) -> None:
        if self._fn is not None:
            for value in self._fn(len(self._raw)):
                self.observe(value)

    @property
    def sum(self) -> float:
        self._pull()
        return self._sum

    @property
    def count(self) -> int:
        self._pull()
        return len(self._raw)

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        self._sum += value
        self._raw.append(value)
        self._dirty = True
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def percentile(self, q: float) -> Optional[float]:
        """Exact ``q``-quantile (0 <= q <= 1) of the raw observations.

        Returns ``None`` when nothing has been observed.  Uses the
        nearest-rank method on the cached sorted buffer; only re-sorts
        after a new observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"histogram {self.name}: quantile {q} not in [0, 1]")
        self._pull()
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
        self._pull()
        cumulative = 0
        for bound, n in zip(self.buckets, self._counts):
            cumulative += n
            lines.append(
                f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            )
        cumulative += self._counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {_fmt(round(self.sum, 6))}")
        lines.append(f"{self.name}_count {self.count}")
        return lines

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly buckets / counts / sum / count."""
        self._pull()
        return {
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Holds the run's metrics and counts the event-only set from the bus."""

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
    def counter(
        self,
        name: str,
        help: str,
        fn: Optional[Callable[[], Dict[_LabelKey, float]]] = None,
    ) -> Counter:
        """Get or create the counter ``name`` (idempotent)."""
        if name not in self._counters:
            self._require_fresh(name)
            self._counters[name] = Counter(name, help, fn)
        return self._counters[name]

    def gauge(
        self, name: str, help: str, fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        """Get or create the gauge ``name``; a new ``fn`` replaces its
        callback."""
        if name in self._gauges:
            if fn is not None:
                self._gauges[name]._fn = fn
            return self._gauges[name]
        self._require_fresh(name)
        self._gauges[name] = Gauge(name, help, fn)
        return self._gauges[name]

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
        fn: Optional[Callable[[int], Iterable[float]]] = None,
    ) -> Histogram:
        """Get or create the histogram ``name`` (idempotent)."""
        if name not in self._histograms:
            self._require_fresh(name)
            self._histograms[name] = Histogram(name, help, buckets, fn)
        return self._histograms[name]

    def _require_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ConfigError(f"metric {name!r} already registered with another type")

    # ------------------------------------------------------------------
    # The event-derived set
    # ------------------------------------------------------------------
    def bind(self, bus: EventBus) -> None:
        """Register the event-only metrics and subscribe their derivations."""
        self.counter(
            "repro_requests_admitted_total",
            "Requests accepted into the serving pipeline.",
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
            "repro_principle1_violations_total",
            "Executed rounds whose secondary subset outlived its window.",
        )
        self.counter(
            "repro_slo_alerts_total",
            "Burn-rate alerts fired, by policy and severity.",
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
            c["repro_requests_shed_total"].inc(len(event.rids), where=event.where)
        elif isinstance(event, BatchDispatched):
            c["repro_batches_dispatched_total"].inc(1, phase=event.phase)
            hist = self._histograms["repro_request_queue_wait_ms"]
            for wait in event.first_queue_waits_us():
                hist.observe(wait / 1e3)
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
