"""Per-request spans reconstructed from the event bus.

A span is one request's life on the serving timeline:

```
arrival ──▶ admitted ──▶ [queued] ──▶ [prefill] ──▶ [decode]* ──▶ terminal
```

The builder subscribes to the bus and folds the lifecycle events into
:class:`RequestSpan` records: a ``queued`` segment from the request's own
arrival to its first dispatch (covering both queueing and batching delay —
the paper's *pending time*), then one execution segment per dispatched
batch (several for lifecycle decode iterations), then a terminal state.
Requests shed or expired while still queued get only their ``queued``
segment, closed at the drop instant.

Purely derived state: the builder never publishes or schedules anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.events import (
    BatchCompleted,
    BatchDispatched,
    Event,
    EventBus,
    RequestsAdmitted,
    RequestsShed,
    RequestsTimedOut,
)

__all__ = ["SpanSegment", "RequestSpan", "SpanBuilder"]


@dataclass(frozen=True)
class SpanSegment:
    """One closed interval of a request's life (times in µs)."""

    name: str  #: ``"queued"``, ``"prefill"``, or ``"decode"``
    start_us: float
    end_us: float

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class RequestSpan:
    """One request's reconstructed timeline."""

    rid: int
    arrival_us: float
    admitted_us: Optional[float] = None
    segments: List[SpanSegment] = field(default_factory=list)
    #: Terminal state (``completed`` / ``shed`` / ``timed_out``) or
    #: ``"pending"`` if the run ended with the request unresolved.
    state: str = "pending"
    end_us: Optional[float] = None
    #: Batch ids the request rode in, in dispatch order.
    batch_ids: List[int] = field(default_factory=list)
    # Open execution segment: (phase, start) until its batch completes.
    _open: Optional[tuple] = None
    _dispatched_once: bool = False

    @property
    def queue_wait_us(self) -> Optional[float]:
        """Own arrival → first dispatch; ``None`` if never dispatched."""
        for seg in self.segments:
            if seg.name == "queued":
                return seg.duration_us
        return None

    @property
    def latency_us(self) -> Optional[float]:
        if self.state != "completed" or self.end_us is None:
            return None
        return self.end_us - self.arrival_us


class SpanBuilder:
    """Folds bus events into per-request spans."""

    def __init__(self, bus: EventBus) -> None:
        self._spans: Dict[int, RequestSpan] = {}
        bus.subscribe(self._on_event)

    # ------------------------------------------------------------------
    def spans(self) -> List[RequestSpan]:
        """All reconstructed spans, ordered by request id."""
        return [self._spans[rid] for rid in sorted(self._spans)]

    def get(self, rid: int) -> Optional[RequestSpan]:
        """The span for one request id, or ``None`` if never seen."""
        return self._spans.get(rid)

    def __len__(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------
    def _span(self, rid: int, arrival_us: float) -> RequestSpan:
        span = self._spans.get(rid)
        if span is None:
            span = RequestSpan(rid=rid, arrival_us=arrival_us)
            self._spans[rid] = span
        return span

    def _on_event(self, event: Event) -> None:
        if isinstance(event, RequestsAdmitted):
            for rid, arrival in zip(event.rids, event.arrivals_us):
                span = self._span(rid, arrival)
                if span.admitted_us is None:
                    span.admitted_us = event.time_us
        elif isinstance(event, BatchDispatched):
            for rid, wait in zip(event.rids, event.queue_waits_us):
                arrival = event.time_us - wait
                span = self._span(rid, arrival)
                if not span._dispatched_once:
                    span._dispatched_once = True
                    span.segments.append(
                        SpanSegment("queued", span.arrival_us, event.time_us)
                    )
                span.batch_ids.append(event.batch_id)
                span._open = (event.phase, event.time_us)
        elif isinstance(event, BatchCompleted):
            completed = set(event.completed_rids)
            for rid in event.rids:
                span = self._spans.get(rid)
                if span is None:
                    continue
                if span._open is not None:
                    phase, start = span._open
                    span.segments.append(
                        SpanSegment(phase, start, event.time_us)
                    )
                    span._open = None
                if rid in completed:
                    span.state = "completed"
                    span.end_us = event.time_us
        elif isinstance(event, (RequestsShed, RequestsTimedOut)):
            terminal = (
                "shed" if isinstance(event, RequestsShed) else "timed_out"
            )
            for rid in event.rids:
                span = self._span(rid, event.time_us)
                if span._open is not None:
                    phase, start = span._open
                    span.segments.append(
                        SpanSegment(phase, start, event.time_us)
                    )
                    span._open = None
                elif not span._dispatched_once:
                    span.segments.append(
                        SpanSegment("queued", span.arrival_us, event.time_us)
                    )
                    span._dispatched_once = True
                span.state = terminal
                span.end_us = event.time_us
