"""Declarative SLOs evaluated into multi-window burn-rate alerts.

A :class:`SloPolicy` names an objective over the request stream:

* ``availability`` — fraction of terminal requests that completed (shed
  and timed-out requests are the errors);
* ``latency`` — fraction of completed requests under
  ``latency_threshold_ms``;
* ``deadline`` — fraction of deadline-carrying requests that met it.

The :class:`SloEngine` folds bus events into per-window good/bad tallies
(the window quantum is the telemetry store's ``window_us``) and, on every
heartbeat, evaluates each policy's **burn rate** — ``error_rate / (1 -
target)`` — over two spans per rule, Google-SRE style: the alert fires only
when both the *long* window (sustained) and the *short* window (still
happening) exceed the threshold.  A ``fast`` rule (short spans, high
threshold, ~10x) is the page; a ``slow`` rule (long spans, low threshold,
~2x) is the ticket.

Alerts are typed events, not logs: each fire publishes a
:class:`~repro.obs.events.SloBurnRateAlert` on the bus, so it lands in the
Prometheus export via ``repro_slo_alerts_total`` and on the merged
Perfetto timeline as an instant.  They are read-only: no serving decision
consults them, so arming SLO policies never changes a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.events import (
    BatchCompleted,
    EventBus,
    RequestsShed,
    RequestsTimedOut,
    SloAlertResolved,
    SloBurnRateAlert,
)

if TYPE_CHECKING:
    from repro.obs.telemetry import TimeSeriesStore

__all__ = ["BurnRule", "SloPolicy", "SloEngine"]

_OBJECTIVES = ("availability", "latency", "deadline")


@dataclass(frozen=True)
class BurnRule:
    """One multi-window burn-rate alerting rule.

    ``long_windows``/``short_windows`` are span lengths in telemetry
    windows; ``threshold`` is the burn-rate multiple both spans must
    exceed for the alert to fire.
    """

    severity: str = "fast"
    long_windows: int = 6
    short_windows: int = 2
    threshold: float = 10.0

    def __post_init__(self) -> None:
        if self.long_windows < 1 or self.short_windows < 1:
            raise ConfigError("burn-rule windows must be >= 1")
        if self.short_windows > self.long_windows:
            raise ConfigError("short window cannot exceed the long window")
        if self.threshold <= 0:
            raise ConfigError("burn threshold must be positive")


@dataclass(frozen=True)
class SloPolicy:
    """A declarative service-level objective with its alerting rules."""

    name: str
    objective: str = "availability"
    #: Target good fraction, e.g. 0.95 = at most 5% error budget.
    target: float = 0.95
    #: Required for ``objective="latency"``: the good/bad cut (ms).
    latency_threshold_ms: Optional[float] = None
    fast: BurnRule = field(default_factory=lambda: BurnRule("fast", 6, 2, 10.0))
    slow: BurnRule = field(default_factory=lambda: BurnRule("slow", 24, 6, 2.0))

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise ConfigError(
                f"objective must be one of {_OBJECTIVES}, got {self.objective!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigError("target must be in (0, 1)")
        cut = self.latency_threshold_ms
        if self.objective == "latency" and cut is None:
            raise ConfigError("latency objective requires latency_threshold_ms")
        if cut is not None and not (math.isfinite(cut) and cut > 0):
            raise ConfigError(
                f"latency_threshold_ms must be finite and positive, got {cut}"
            )

    @property
    def rules(self) -> Tuple[BurnRule, ...]:
        return (self.fast, self.slow)


class _Tally:
    """Good/bad counts for one policy in one window."""

    __slots__ = ("good", "bad")

    def __init__(self) -> None:
        self.good = 0
        self.bad = 0


class SloEngine:
    """Folds bus events into windowed tallies and evaluates burn rates."""

    def __init__(
        self,
        policies: Sequence[SloPolicy],
        *,
        bus: EventBus,
        store: "TimeSeriesStore",
    ) -> None:
        names = [p.name for p in policies]
        if len(set(names)) != len(names):
            raise ConfigError("SLO policy names must be unique")
        self.policies: Tuple[SloPolicy, ...] = tuple(policies)
        self.store = store
        self.bus = bus
        self.window_us = store.window_us
        #: policy name -> window index -> tally (bounded by the ring size).
        self._tallies: Dict[str, Dict[int, _Tally]] = {p.name: {} for p in policies}
        self._max_windows = store.max_windows
        #: (policy, severity) -> the alert currently firing.
        self._active: Dict[Tuple[str, str], SloBurnRateAlert] = {}
        #: Every alert ever fired, in order.
        self.alerts: List[SloBurnRateAlert] = []
        self._last_evaluated = -1
        bus.subscribe(
            self._on_event, types=[BatchCompleted, RequestsShed, RequestsTimedOut]
        )

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def _tally(self, policy: SloPolicy, index: int) -> _Tally:
        per_window = self._tallies[policy.name]
        tally = per_window.get(index)
        if tally is None:
            tally = per_window[index] = _Tally()
            if len(per_window) > self._max_windows:
                del per_window[min(per_window)]
        return tally

    def _on_event(self, event) -> None:
        index = int(event.time_us // self.window_us)
        for policy in self.policies:
            good, bad = self._classify(policy, event)
            if good or bad:
                tally = self._tally(policy, index)
                tally.good += good
                tally.bad += bad

    @staticmethod
    def _classify(policy: SloPolicy, event) -> Tuple[int, int]:
        """(good, bad) contribution of one event under one policy."""
        if policy.objective == "availability":
            if isinstance(event, BatchCompleted):
                return len(event.completed_rids), 0
            if isinstance(event, (RequestsShed, RequestsTimedOut)):
                return 0, len(event.rids)
        elif policy.objective == "latency":
            if isinstance(event, BatchCompleted):
                cut = policy.latency_threshold_ms * 1e3  # ms -> µs
                good = sum(1 for lat in event.latencies_us if lat <= cut)
                return good, len(event.latencies_us) - good
        elif policy.objective == "deadline":
            if isinstance(event, BatchCompleted):
                return event.slo_met, event.deadline_misses
            if isinstance(event, (RequestsShed, RequestsTimedOut)):
                return 0, event.slo_tracked
        return 0, 0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _burn(self, policy: SloPolicy, last_index: int, span: int) -> float:
        """Burn rate over the ``span`` windows ending at ``last_index``."""
        good = bad = 0
        per_window = self._tallies[policy.name]
        for index in range(last_index - span + 1, last_index + 1):
            tally = per_window.get(index)
            if tally is not None:
                good += tally.good
                bad += tally.bad
        total = good + bad
        if total == 0:
            return 0.0
        error_rate = bad / total
        return error_rate / (1.0 - policy.target)

    def evaluate(self, now_us: float) -> List[SloBurnRateAlert]:
        """Evaluate every policy at ``now_us``; returns alerts fired now.

        Called from the observability heartbeat.  Idempotent within a
        window: each window index is judged once, on the first heartbeat
        at or after its close.
        """
        index = int(now_us // self.window_us)
        if index <= self._last_evaluated:
            return []
        self._last_evaluated = index
        fired: List[SloBurnRateAlert] = []
        for policy in self.policies:
            for rule in policy.rules:
                burn_long = self._burn(policy, index, rule.long_windows)
                burn_short = self._burn(policy, index, rule.short_windows)
                self.store.record_gauge(
                    "repro_slo_burn_rate",
                    now_us,
                    burn_long,
                    policy=policy.name,
                    severity=rule.severity,
                )
                key = (policy.name, rule.severity)
                firing = burn_long >= rule.threshold and burn_short >= rule.threshold
                if firing and key not in self._active:
                    alert = SloBurnRateAlert(
                        time_us=now_us,
                        policy=policy.name,
                        objective=policy.objective,
                        severity=rule.severity,
                        burn_long=burn_long,
                        burn_short=burn_short,
                        threshold=rule.threshold,
                        window_us=self.window_us,
                    )
                    self._active[key] = alert
                    self.alerts.append(alert)
                    fired.append(alert)
                    self.bus.publish(alert)
                elif not firing and key in self._active and burn_short < rule.threshold:
                    del self._active[key]
                    self.bus.publish(
                        SloAlertResolved(
                            time_us=now_us,
                            policy=policy.name,
                            severity=rule.severity,
                            burn_short=burn_short,
                        )
                    )
        return fired

    def active_alerts(self) -> List[SloBurnRateAlert]:
        """Alerts currently firing (not yet resolved)."""
        return list(self._active.values())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def alert_table(self) -> str:
        """Human-readable table of every alert fired during the run."""
        if not self.alerts:
            return "no SLO alerts fired\n"
        header = (
            f"{'t(ms)':>9}  {'policy':<16} {'objective':<12} {'sev':<5} "
            f"{'burn(long)':>10} {'burn(short)':>11} {'thresh':>7}"
        )
        rows = [header, "-" * len(header)]
        for a in self.alerts:
            rows.append(
                f"{a.time_us / 1e3:>9.1f}  {a.policy:<16} {a.objective:<12} "
                f"{a.severity:<5} {a.burn_long:>9.1f}x {a.burn_short:>10.1f}x "
                f"{a.threshold:>6.1f}x"
            )
        return "\n".join(rows) + "\n"
