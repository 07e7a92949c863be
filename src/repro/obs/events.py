"""Typed serving events and the bus that carries them.

Every layer that makes a decision the final counters used to swallow —
admission, dispatch, preemption, shedding, deadline expiry, retry,
Principle-1 violations — publishes a typed event here.  The subscribers
are the span builder (:mod:`repro.obs.spans`), which reconstructs
per-request timelines, the
SLO engine and telemetry store, which window outcomes in sim time, and the
metrics registry (:mod:`repro.obs.metrics`), which counts what only events
know (sheds by mechanism, dispatches by phase, violations).  Totals of
request outcomes are not re-derived here: they are read from the run's
:class:`~repro.serving.metrics.ServingMetrics`.

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
    "BatchDispatched",
    "BatchPreempted",
    "BatchCompleted",
    "RetryScheduled",
    "Principle1Violation",
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
class _RequestsDropped(Event):
    """Requests that reached a terminal state without being served."""

    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    where: str = ""
    #: How many of them carried a deadline (they count against SLO).
    slo_tracked: int = 0

    @classmethod
    def from_requests(
        cls, requests: Sequence, time_us: float, *, batch_id: int, where: str
    ):
        return cls(
            time_us=time_us,
            batch_id=batch_id,
            rids=tuple(r.rid for r in requests),
            where=where,
            slo_tracked=sum(1 for r in requests if r.deadline is not None),
        )


@dataclass(frozen=True)
class RequestsShed(_RequestsDropped):
    """Requests dropped without service (terminal ``SHED``)."""

    kind: ClassVar[str] = "shed"
    #: Which mechanism dropped them: ``"admission"`` (bounded queue),
    #: ``"collateral"`` (batchmates of an expired request), or
    #: ``"retry-exhausted"`` (recovery layer).
    where: str = "admission"


@dataclass(frozen=True)
class RequestsTimedOut(_RequestsDropped):
    """Requests whose deadline expired before service (terminal ``TIMED_OUT``)."""

    kind: ClassVar[str] = "timed-out"
    #: Where the expiry was observed (``"pending"``, ``"queue"``, ...).
    where: str = "pending"


# ----------------------------------------------------------------------
# Batch pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchDispatched(Event):
    """A batch handed to the (recovery-wrapped) strategy."""

    kind: ClassVar[str] = "dispatched"
    batch_id: int = -1
    rids: Tuple[int, ...] = ()
    phase: str = "prefill"
    #: Exact per-member queue wait: own arrival → this dispatch (µs).
    queue_waits_us: Tuple[float, ...] = ()
    #: Members handed off before (a job server's later decode iterations);
    #: queue-wait derivations skip those.
    redispatched: Tuple[int, ...] = ()

    @staticmethod
    def from_batch(
        batch, time_us: float, *, redispatched: Tuple[int, ...] = ()
    ) -> "BatchDispatched":
        return BatchDispatched(
            time_us=time_us,
            batch_id=batch.batch_id,
            rids=tuple(r.rid for r in batch.requests),
            phase=batch.phase.value,
            queue_waits_us=tuple(time_us - r.arrival for r in batch.requests),
            redispatched=redispatched,
        )

    def first_queue_waits_us(self) -> Tuple[float, ...]:
        """Queue waits of the members on their first hand-off (µs)."""
        if not self.redispatched:
            return self.queue_waits_us
        again = set(self.redispatched)
        return tuple(
            wait
            for rid, wait in zip(self.rids, self.queue_waits_us)
            if rid not in again
        )


@dataclass(frozen=True)
class BatchPreempted(Event):
    """Work evicted (KV released, requeued for recompute) under pressure."""

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
    #: Of the completed members with a deadline: met / missed.
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
            slo_met=met,
            deadline_misses=len(tracked) - met,
        )


# ----------------------------------------------------------------------
# Faults and recovery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryScheduled(Event):
    """A launch-failed batch backing off before its next attempt."""

    kind: ClassVar[str] = "retry"
    batch_id: int = -1
    attempt: int = 0
    delay_us: float = 0.0


@dataclass(frozen=True)
class Principle1Violation(Event):
    """An executed round whose secondary subset outlived its window (§3.5)."""

    kind: ClassVar[str] = "principle1-violation"
    round_index: int = -1
    overshoot_us: float = 0.0


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
    and the bus adds no events to the engine.  Every published event is
    also appended to :attr:`events`, which the exporters read.
    """

    def __init__(self) -> None:
        self.events: List[Event] = []
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
        self.events.append(event)
        for fn in self._all:
            fn(event)
        for fn in self._by_type.get(type(event), ()):
            fn(event)

    def of_kind(self, kind: str) -> List[Event]:
        """Retained events whose ``kind`` matches."""
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)
