"""Discrete-event simulation engine.

A deliberately small, deterministic event loop: a binary heap of
``(time, priority, sequence, handle)`` tuples.  Determinism matters more
than generality here — the Liger scheduler's behaviour depends on exact
kernel orderings, and the test suite asserts reproducible timelines — so ties
are broken first by an explicit priority and then by insertion order, and the
engine contains no randomness and no wall-clock access.

Events can be cancelled (kernel-completion events are rescheduled every time
the running set on a GPU changes); cancellation is O(1) by tombstoning the
handle rather than re-heapifying.  Tombstones are normally swallowed lazily
at pop time, but a workload that cancels much more than it fires (the single
completion timer under heavy churn) would otherwise grow the heap without
bound — so once cancelled entries outnumber live ones the heap is compacted
in one O(n) filter-and-heapify pass.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Engine", "EventHandle"]

#: Lazy tombstone swallowing keeps small heaps cheap; compaction only kicks
#: in past this floor (and only when tombstones outnumber live entries).
_COMPACT_MIN_TOMBSTONES = 64


class EventHandle:
    """A scheduled callback; call :meth:`cancel` to prevent it from firing."""

    __slots__ = ("time", "callback", "cancelled", "_engine")

    def __init__(
        self, time: float, callback: Callable[[], None], engine: "Engine"
    ) -> None:
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self._engine._note_cancel()


class Engine:
    """The event loop.

    Attributes
    ----------
    now:
        Current simulation time in microseconds.  Monotonically non-decreasing.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        # Live heap entries that are not liveness: heartbeat beats and
        # background events (see schedule_background_at).
        self._background = 0
        # O(1) liveness bookkeeping: live entries still on the heap, and
        # cancelled entries (tombstones) not yet swallowed by a pop.
        self._live = 0
        self._tombstones = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` µs from now.

        ``priority`` breaks ties among events at the same timestamp (lower
        fires first); insertion order breaks remaining ties.
        """
        if not math.isfinite(delay):
            raise SimulationError(
                f"cannot schedule event with non-finite delay {delay} us"
            )
        if delay < 0:
            # Same skew tolerance as schedule_at: float-accumulated round
            # boundaries can land an epsilon short of "now", and rejecting
            # those while schedule_at(now - 1e-9) accepts them made the two
            # entry points disagree about the same instant.
            if delay < -1e-9:
                raise SimulationError(
                    f"cannot schedule event {delay} us in the past"
                )
            delay = 0.0
        # Inlined schedule_at: with delay >= 0 finite, now + delay is finite
        # and never below now, so its checks and clamp would all be no-ops.
        handle = EventHandle(self.now + delay, callback, self)
        heapq.heappush(
            self._heap, (handle.time, priority, next(self._seq), handle)
        )
        self._live += 1
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time`` (µs)."""
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time: {time}")
        if time < self.now - 1e-9:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        handle = EventHandle(max(time, self.now), callback, self)
        heapq.heappush(self._heap, (handle.time, priority, next(self._seq), handle))
        self._live += 1
        return handle

    def schedule_background_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback`` at ``time`` as a background event.

        It fires like any other event, but, like a heartbeat beat, it never
        counts as liveness for :meth:`heartbeat`: a background event pending
        far in the future cannot keep the beats of a finished run going.
        Background events cannot be cancelled.
        """

        def _fire() -> None:
            self._background -= 1
            callback()

        self._background += 1
        self.schedule_at(time, _fire, priority=priority)

    def heartbeat(
        self,
        interval: float,
        fn: Callable[[], Optional[bool]],
        *,
        priority: int = 9,
    ) -> None:
        """Invoke ``fn`` every ``interval`` µs while other live events remain.

        The periodic hook observability sampling builds on.  ``fn``
        returning ``False`` stops the beat; any other return value
        continues it.  A beat never keeps an otherwise idle engine alive:
        when the queue holds no live event besides heartbeats and
        background events (:meth:`schedule_background_at`), no beat is
        rescheduled and the run quiesces — beats do not count *each other*
        as liveness, so any number of concurrent heartbeats can never turn
        a finite simulation into an infinite one.
        """
        if not math.isfinite(interval) or interval <= 0:
            raise SimulationError(f"heartbeat interval must be positive, got {interval}")

        def _beat() -> None:
            self._background -= 1
            if fn() is False:
                return
            if self.pending > self._background:
                self._background += 1
                self.schedule(interval, _beat, priority=priority)

        self._background += 1
        self.schedule(interval, _beat, priority=priority)

    # ------------------------------------------------------------------
    # Tombstone bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A live heap entry became a tombstone; compact when they dominate."""
        self._live -= 1
        self._tombstones += 1
        if (
            self._tombstones > _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap)
        ):
            self._heap = [e for e in self._heap if not e[3].cancelled]
            heapq.heapify(self._heap)
            self._tombstones = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 200_000_000) -> float:
        """Drain the event queue; return the final simulation time.

        Parameters
        ----------
        until:
            Stop (without executing) at the first event strictly after this
            time.  ``None`` runs to quiescence.
        max_events:
            Safety valve against runaway feedback loops in user callbacks.
        """
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        try:
            processed = 0
            heap = self._heap
            while heap:
                entry = heap[0]
                handle = entry[3]
                if handle.cancelled:
                    heapq.heappop(heap)
                    self._tombstones -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                heapq.heappop(heap)
                self.now = entry[0]
                # Consume the entry: it is already off the heap, so marking
                # it cancelled must not count as a tombstone, and a late
                # cancel becomes a no-op.
                self._live -= 1
                callback = handle.callback
                handle.cancelled = True
                handle.callback = None
                if callback is not None:
                    callback()
                processed += 1
                self._events_processed += 1
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a feedback loop in a callback"
                    )
                heap = self._heap  # compaction may have replaced the list
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    @property
    def events_processed(self) -> int:
        """Total events executed since construction."""
        return self._events_processed
