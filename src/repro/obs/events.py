"""Typed serving events and the bus that carries them.

Every layer that makes a decision the final counters used to swallow —
admission, staging, dispatch, preemption, shedding, deadline expiry, retry,
strategy downgrade/upgrade, breaker transitions, Principle-1 violations —
publishes a typed event here instead of (only) bumping an aggregate.  The
subscribers are the metrics registry (:mod:`repro.obs.metrics`), which
re-derives the aggregate counters, and the span builder
(:mod:`repro.obs.spans`), which reconstructs per-request timelines.

Zero-overhead contract: no layer constructs an event unless a bus is
attached (`if self.bus is not None`), and a server built without
observability carries no bus — the publish sites compile down to one
attribute check on paths that already branch.

All timestamps are simulation microseconds (`Engine.now`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Event",
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
    "NodeHealthChanged",
    "RequestsFailedOver",
    "NodeCrashed",
    "NodeRecovered",
    "SloBurnRateAlert",
    "SloAlertResolved",
    "EventBus",
]


@dataclass(frozen=True)
class Event:
    """Base event: a simulation timestamp plus a stable ``kind`` string."""

    time_us: float

    #: Stable machine-readable discriminator (also the Chrome-trace name).
    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly rendering (kind + every field)."""
        out: Dict[str, object] = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


# ----------------------------------------------------------------------
# Request lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestsAdmitted(Event):
    """Requests accepted into the serving pipeline at their arrival."""

    kind: ClassVar[str] = "admitted"
    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    #: Each member's own arrival time (its span starts here, not at the
    #: batch's formation instant).
    arrivals_us: Tuple[float, ...] = ()

    @staticmethod
    def from_batch(batch, time_us: float) -> "RequestsAdmitted":
        return RequestsAdmitted(
            time_us=time_us,
            batch_id=batch.batch_id,
            rids=tuple(r.rid for r in batch.requests),
            arrivals_us=tuple(r.arrival for r in batch.requests),
        )


@dataclass(frozen=True)
class RequestsShed(Event):
    """Requests dropped without service (terminal ``SHED``)."""

    kind: ClassVar[str] = "shed"
    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    #: Which mechanism dropped them: ``"admission"`` (bounded queue),
    #: ``"breaker"`` (fail-fast while open), ``"collateral"`` (batchmates of
    #: an expired request), or ``"retry-exhausted"`` (recovery layer).
    where: str = "admission"
    #: How many of them carried a deadline (they count against SLO).
    slo_tracked: int = 0

    @staticmethod
    def from_requests(
        requests: Sequence, time_us: float, *, batch_id: int, where: str
    ) -> "RequestsShed":
        return RequestsShed(
            time_us=time_us,
            batch_id=batch_id,
            rids=tuple(r.rid for r in requests),
            where=where,
            slo_tracked=sum(1 for r in requests if r.deadline is not None),
        )


@dataclass(frozen=True)
class RequestsTimedOut(Event):
    """Requests whose deadline expired before service (terminal ``TIMED_OUT``)."""

    kind: ClassVar[str] = "timed-out"
    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    #: Where the expiry was observed (``"pending"``, ``"staged"``, ...).
    where: str = "pending"
    slo_tracked: int = 0

    @staticmethod
    def from_requests(
        requests: Sequence, time_us: float, *, batch_id: int, where: str
    ) -> "RequestsTimedOut":
        return RequestsTimedOut(
            time_us=time_us,
            batch_id=batch_id,
            rids=tuple(r.rid for r in requests),
            where=where,
            slo_tracked=sum(1 for r in requests if r.deadline is not None),
        )


# ----------------------------------------------------------------------
# Batch pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchStaged(Event):
    """A batch KV-charged and parked on the staged runway."""

    kind: ClassVar[str] = "staged"
    batch_id: int = -1
    size: int = 0


@dataclass(frozen=True)
class BatchDispatched(Event):
    """A batch handed to the (recovery-wrapped) strategy."""

    kind: ClassVar[str] = "dispatched"
    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    phase: str = "prefill"
    #: Exact per-member queue wait: own arrival → this dispatch (µs).
    queue_waits_us: Tuple[float, ...] = ()
    #: False for a re-dispatch of already-served requests (lifecycle decode
    #: iterations) — queue-wait derivations skip those.
    first: bool = True

    @staticmethod
    def from_batch(batch, time_us: float, *, first: bool = True) -> "BatchDispatched":
        return BatchDispatched(
            time_us=time_us,
            batch_id=batch.batch_id,
            rids=tuple(r.rid for r in batch.requests),
            phase=batch.phase.value,
            queue_waits_us=tuple(time_us - r.arrival for r in batch.requests),
            first=first,
        )


@dataclass(frozen=True)
class BatchPreempted(Event):
    """A staged batch evicted (KV released, requeued) under pressure."""

    kind: ClassVar[str] = "preempted"
    batch_id: int = -1
    size: int = 0


@dataclass(frozen=True)
class BatchCompleted(Event):
    """A batch retired by the strategy.

    ``completed_rids`` are the members that reached the terminal
    ``COMPLETED`` state at this instant; the job servers publish
    intermediate prefill/decode completions with members still mid-flight
    (``completed_rids`` ⊂ ``rids``).
    """

    kind: ClassVar[str] = "completed"
    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    completed_rids: Tuple[int, ...] = ()
    #: Arrival→completion latency per completed member (µs).
    latencies_us: Tuple[float, ...] = ()
    #: Of the completed members with a deadline: tracked / met / missed.
    slo_tracked: int = 0
    slo_met: int = 0
    deadline_misses: int = 0

    @staticmethod
    def from_batch(batch, time_us: float, completed=None) -> "BatchCompleted":
        """``completed`` (jobs with ``rid``/``arrival``/``deadline``) are the
        members finishing now; by default every member of ``batch``."""
        done = batch.requests if completed is None else completed
        tracked = [r for r in done if r.deadline is not None]
        met = sum(1 for r in tracked if time_us <= r.deadline)
        return BatchCompleted(
            time_us=time_us,
            batch_id=batch.batch_id,
            rids=tuple(r.rid for r in batch.requests),
            completed_rids=tuple(r.rid for r in done),
            latencies_us=tuple(time_us - r.arrival for r in done),
            slo_tracked=len(tracked),
            slo_met=met,
            deadline_misses=len(tracked) - met,
        )


# ----------------------------------------------------------------------
# Faults, recovery, and backpressure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryScheduled(Event):
    """A launch-failed batch backing off before its next attempt."""

    kind: ClassVar[str] = "retry"
    batch_id: int = -1
    attempt: int = 0
    delay_us: float = 0.0


@dataclass(frozen=True)
class BreakerOpened(Event):
    """The backpressure circuit breaker tripped open."""

    kind: ClassVar[str] = "breaker-open"
    reason: str = ""


@dataclass(frozen=True)
class BreakerClosed(Event):
    """The backpressure circuit breaker closed (queue drained)."""

    kind: ClassVar[str] = "breaker-closed"
    reason: str = ""


@dataclass(frozen=True)
class StrategyDowngraded(Event):
    """The recovery layer routed the run onto its fallback strategy."""

    kind: ClassVar[str] = "downgrade"
    strategy: str = ""
    reason: str = ""
    #: True when the trigger was overload backpressure, not Principle-1.
    overload: bool = False


@dataclass(frozen=True)
class StrategyUpgraded(Event):
    """The recovery probe restored the primary strategy."""

    kind: ClassVar[str] = "upgrade"
    strategy: str = ""
    reason: str = ""


@dataclass(frozen=True)
class Principle1Violation(Event):
    """An executed round whose secondary subset outlived its window (§3.5)."""

    kind: ClassVar[str] = "principle1-violation"
    round_index: int = -1
    overshoot_us: float = 0.0


# ----------------------------------------------------------------------
# Cluster: replica health and failover
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeHealthChanged(Event):
    """The router flipped a replica's health state."""

    kind: ClassVar[str] = "node-health"
    node: int = -1
    healthy: bool = True
    #: What the probe saw: ``"crashed"``, ``"partitioned"``, ``"probe ok"``.
    reason: str = ""


@dataclass(frozen=True)
class RequestsFailedOver(Event):
    """In-flight requests re-dispatched from a failed replica to another."""

    kind: ClassVar[str] = "failover"
    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    from_node: int = -1
    to_node: int = -1
    #: Which re-dispatch this is for the batch (1 = first failover).
    attempt: int = 0


@dataclass(frozen=True)
class NodeCrashed(Event):
    """A replica process died (fault injection or chaos plan)."""

    kind: ClassVar[str] = "node-crash"
    node: int = -1
    #: Monotonic restart count for the replica (0 = first life).
    incarnation: int = 0
    inflight: int = 0


@dataclass(frozen=True)
class NodeRecovered(Event):
    """A crashed replica came back with a fresh incarnation."""

    kind: ClassVar[str] = "node-recover"
    node: int = -1
    incarnation: int = 0
    down_us: float = 0.0


# ----------------------------------------------------------------------
# SLO burn-rate alerting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloBurnRateAlert(Event):
    """A multi-window burn-rate alert fired for one policy/severity.

    Burn rate is ``error_rate / (1 - target)``: 1.0 means the error budget
    is being spent exactly at the rate that exhausts it at the SLO horizon;
    the fast-window threshold (~10x) means the budget is gone within hours
    of sim time, which is the page-now signal.
    """

    kind: ClassVar[str] = "slo-burn-alert"
    policy: str = ""
    objective: str = ""
    severity: str = "fast"
    burn_long: float = 0.0
    burn_short: float = 0.0
    threshold: float = 0.0
    window_us: float = 0.0

    def describe(self) -> str:
        """One-line human-readable summary for alert tables and logs."""
        return (
            f"{self.policy} {self.severity}-burn: long={self.burn_long:.1f}x "
            f"short={self.burn_short:.1f}x (threshold {self.threshold:.1f}x)"
        )


@dataclass(frozen=True)
class SloAlertResolved(Event):
    """A previously firing burn-rate alert dropped back under threshold."""

    kind: ClassVar[str] = "slo-alert-resolved"
    policy: str = ""
    severity: str = "fast"
    burn_short: float = 0.0


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
class EventBus:
    """Synchronous publish/subscribe fan-out for :class:`Event` instances.

    Publishing is a plain loop over subscribers on the simulation's control
    path — no queueing, no threads — so event order equals decision order
    and the bus adds no events to the engine.  With ``retain=True`` (the
    default, and what the exporters need) every published event is also
    appended to :attr:`events`.
    """

    def __init__(self, *, retain: bool = True) -> None:
        self.events: List[Event] = []
        self._retain = retain
        self._all: List[Callable[[Event], None]] = []
        self._by_type: Dict[Type[Event], List[Callable[[Event], None]]] = {}

    def subscribe(
        self,
        fn: Callable[[Event], None],
        *,
        types: Optional[Sequence[Type[Event]]] = None,
    ) -> None:
        """Register ``fn``; with ``types`` it only sees those event classes."""
        if types is None:
            self._all.append(fn)
        else:
            for t in types:
                self._by_type.setdefault(t, []).append(fn)

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to every matching subscriber, in order."""
        if self._retain:
            self.events.append(event)
        for fn in self._all:
            fn(event)
        for fn in self._by_type.get(type(event), ()):
            fn(event)

    def of_kind(self, kind: str) -> List[Event]:
        """Retained events whose ``kind`` matches (requires ``retain=True``)."""
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)
