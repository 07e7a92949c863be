"""Windowed time-series store fed by the observability heartbeat.

The :class:`MetricsRegistry` answers "what are the totals now"; this module
answers "when did it happen".  A :class:`TimeSeriesStore` keeps a ring of
fixed-width, sim-timestamped windows.  On every ``Engine.heartbeat`` tick
the observability facade pumps the registry into the store:

* every **gauge** is sampled into the current window (last-write-wins
  within a window);
* every **counter** label-series records its cumulative value, so windowed
  rates fall out as deltas between windows;
* raw **observations** (latencies, queue waits) stream in from the event
  bus so the store can answer windowed percentile queries exactly.

Series are keyed by name plus labels: the SLO engine's
``repro_slo_burn_rate`` gauge carries ``policy`` and ``severity`` labels,
and ``series(name, policy=..., severity=...)`` reads one rule's history.

Everything here is read-only with respect to the simulation: sampling
happens on the same heartbeat the gauge snapshots already ride, so turning
the store on moves no kernel.

Exports: :meth:`TimeSeriesStore.to_prometheus` renders every windowed
sample with an explicit millisecond timestamp (valid exposition 0.0.4 —
one ``TYPE`` header per family, samples in time order), and
:meth:`TimeSeriesStore.snapshot` is the JSON-friendly dump the
``--series-out`` CLI flag writes.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry, _fmt, _label_key, _render_labels

__all__ = ["TimeSeriesStore"]

_LabelKey = Tuple[Tuple[str, str], ...]
_SeriesKey = Tuple[str, _LabelKey]


class _Window:
    """One fixed-width slice of sim time and everything sampled inside it."""

    __slots__ = ("index", "start_us", "gauges", "counters", "observations")

    def __init__(self, index: int, start_us: float) -> None:
        self.index = index
        self.start_us = start_us
        self.gauges: Dict[_SeriesKey, float] = {}
        self.counters: Dict[_SeriesKey, float] = {}
        self.observations: Dict[_SeriesKey, List[float]] = {}


class TimeSeriesStore:
    """Ring buffer of sim-timestamped metric windows.

    Parameters
    ----------
    window_us:
        Width of one window in simulation microseconds (default 50 ms).
        This is also the quantum of the SLO engine's burn-rate windows.
    max_windows:
        Ring capacity; the oldest window is evicted (and counted in
        :attr:`evicted_windows`) once exceeded.
    """

    def __init__(self, *, window_us: float = 50_000.0, max_windows: int = 512) -> None:
        if window_us <= 0:
            raise ConfigError("window_us must be positive")
        if max_windows < 2:
            raise ConfigError("max_windows must be at least 2")
        self.window_us = float(window_us)
        self.max_windows = int(max_windows)
        self.windows: Deque[_Window] = deque()
        self.evicted_windows = 0
        #: Metric name -> declared type ("gauge"/"counter"/"observations"),
        #: pinned on first write so the exporter can emit one TYPE header.
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _window_for(self, time_us: float) -> _Window:
        index = int(time_us // self.window_us)
        if self.windows and index <= self.windows[-1].index:
            # Clock is monotone in practice; clamp stragglers (events
            # published mid-heartbeat) into the newest window.
            for w in reversed(self.windows):
                if w.index <= index:
                    return w
            return self.windows[0]
        window = _Window(index, index * self.window_us)
        self.windows.append(window)
        while len(self.windows) > self.max_windows:
            self.windows.popleft()
            self.evicted_windows += 1
        return window

    def _declare(self, name: str, kind: str) -> None:
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise ConfigError(
                f"series {name!r} already recorded as {seen}, not {kind}"
            )

    def record_gauge(self, name: str, time_us: float, value: float, **labels: str) -> None:
        """Sample a point-in-time value into the window of ``time_us``."""
        self._declare(name, "gauge")
        key = (name, _label_key(labels))
        self._window_for(time_us).gauges[key] = float(value)

    def record_counter(
        self, name: str, time_us: float, cumulative: float, **labels: str
    ) -> None:
        """Record a counter's *cumulative* value; rates are window deltas."""
        self._declare(name, "counter")
        key = (name, _label_key(labels))
        self._window_for(time_us).counters[key] = float(cumulative)

    def observe(self, name: str, time_us: float, value: float, **labels: str) -> None:
        """Append one raw observation (for windowed percentile queries)."""
        self._declare(name, "observations")
        key = (name, _label_key(labels))
        self._window_for(time_us).observations.setdefault(key, []).append(float(value))

    def pump(self, registry: MetricsRegistry, time_us: float) -> None:
        """Sample the registry at ``time_us``.

        Called from the observability heartbeat.  Counters record their
        cumulative per-label values; gauges record last-value.
        Histograms are covered by the bus-fed observation streams plus the
        ``_count``/``_sum`` cumulative series recorded here.
        """
        window = self._window_for(time_us)
        for cname, counter in registry._counters.items():
            self._declare(cname, "counter")
            for lkey, val in counter.series().items():
                window.counters[(cname, lkey)] = val
        for gname, gauge in registry._gauges.items():
            self._declare(gname, "gauge")
            window.gauges[(gname, ())] = gauge.value()
        for hname, hist in registry._histograms.items():
            self._declare(hname + "_count", "counter")
            self._declare(hname + "_sum", "counter")
            window.counters[(hname + "_count", ())] = float(hist.count)
            window.counters[(hname + "_sum", ())] = float(hist.sum)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def series(self, name: str, **labels: str) -> List[Tuple[float, float]]:
        """``(window_start_us, value)`` pairs for one gauge/counter series."""
        key = (name, _label_key(labels))
        out: List[Tuple[float, float]] = []
        for w in self.windows:
            if key in w.gauges:
                out.append((w.start_us, w.gauges[key]))
            elif key in w.counters:
                out.append((w.start_us, w.counters[key]))
        return out

    def latest(self, name: str, **labels: str) -> Optional[float]:
        """Most recent sampled value of one series (None if never seen)."""
        key = (name, _label_key(labels))
        for w in reversed(self.windows):
            if key in w.gauges:
                return w.gauges[key]
            if key in w.counters:
                return w.counters[key]
        return None

    def label_sets(self, name: str) -> List[Dict[str, str]]:
        """Every label combination ever recorded under ``name``."""
        seen: List[_LabelKey] = []
        for w in self.windows:
            for source in (w.gauges, w.counters, w.observations):
                for sname, lkey in source:
                    if sname == name and lkey not in seen:
                        seen.append(lkey)
        return [dict(lkey) for lkey in sorted(seen)]

    def rate(self, name: str, *, windows: Optional[int] = None, **labels: str) -> float:
        """Per-second rate of a counter over the last ``windows`` windows.

        Computed as (last cumulative - first cumulative) / elapsed span.
        ``windows=None`` uses the whole retained history.  Returns 0.0 when
        fewer than two samples exist.
        """
        pts = self.series(name, **labels)
        if windows is not None:
            pts = pts[-windows:]
        if len(pts) < 2:
            return 0.0
        span_us = pts[-1][0] - pts[0][0]
        if span_us <= 0:
            return 0.0
        return (pts[-1][1] - pts[0][1]) / (span_us / 1e6)

    def window_rates(self, name: str, **labels: str) -> List[Tuple[float, float]]:
        """Per-window rate series of a counter (delta vs. previous window)."""
        pts = self.series(name, **labels)
        out: List[Tuple[float, float]] = []
        for prev, cur in zip(pts, pts[1:]):
            span_us = cur[0] - prev[0]
            if span_us > 0:
                out.append((cur[0], (cur[1] - prev[1]) / (span_us / 1e6)))
        return out

    def percentile(
        self, name: str, q: float, *, windows: Optional[int] = None, **labels: str
    ) -> Optional[float]:
        """Nearest-rank ``q``-quantile of observations in the last windows."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile {q} not in [0, 1]")
        key = (name, _label_key(labels))
        recent = list(self.windows)
        if windows is not None:
            recent = recent[-windows:]
        values: List[float] = []
        for w in recent:
            values.extend(w.observations.get(key, ()))
        if not values:
            return None
        values.sort()
        rank = min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))
        return values[rank]

    def observation_count(self, name: str, **labels: str) -> int:
        """Total observations retained for one series."""
        key = (name, _label_key(labels))
        return sum(len(w.observations.get(key, ())) for w in self.windows)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Exposition 0.0.4 with per-window millisecond timestamps.

        Unlike the registry's snapshot exposition this renders the full
        history: one sample line per (series, window), timestamped with the
        window start so a Prometheus backfill ingests the whole run.
        """
        families: Dict[str, List[str]] = {}
        for w in self.windows:
            ts_ms = int(w.start_us / 1e3)
            for source in (w.gauges, w.counters):
                for (name, lkey), val in sorted(source.items()):
                    families.setdefault(name, []).append(
                        f"{name}{_render_labels(lkey)} {_fmt(val)} {ts_ms}"
                    )
        lines: List[str] = []
        for name in sorted(families):
            kind = self._kinds.get(name, "gauge")
            kind = "counter" if kind == "counter" else "gauge"
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(families[name])
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly dump of every window (the ``--series-out`` body)."""

        def render(key: _SeriesKey) -> str:
            name, lkey = key
            return name + _render_labels(lkey)

        return {
            "window_us": self.window_us,
            "max_windows": self.max_windows,
            "evicted_windows": self.evicted_windows,
            "windows": [
                {
                    "start_us": w.start_us,
                    "gauges": {render(k): v for k, v in sorted(w.gauges.items())},
                    "counters": {render(k): v for k, v in sorted(w.counters.items())},
                    "observations": {
                        render(k): list(v) for k, v in sorted(w.observations.items())
                    },
                }
                for w in self.windows
            ],
        }

    def save_series(self, path: str) -> None:
        """Write the series to ``path``: ``.prom`` → exposition, else JSON."""
        if path.endswith(".prom"):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.to_prometheus())
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.snapshot(), fh, indent=2)
