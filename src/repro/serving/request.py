"""Requests and batches — the serving system's unit of work.

The paper's serving front-end "receives requests and packs them as a batch"
before handing the batch to the runtime (Fig. 5).  A :class:`Request` is one
user job; a :class:`Batch` is the runtime's scheduling unit.  Latency is
measured per *request*, from its own arrival (not the batch's) to batch
completion, so batching delay is charged as pending time exactly as the
paper defines latency ("the pending time and the cuda execution time").

Under overload (:mod:`repro.serving.overload`) not every request completes:
a request carries an explicit :class:`RequestState` and every request ends
in exactly one terminal state — ``COMPLETED``, ``SHED`` (dropped by
admission control or the recovery layer), or ``TIMED_OUT`` (its deadline
passed before it could finish).  Nothing is ever silently dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError, IncompleteRequestError

__all__ = ["Phase", "RequestState", "Request", "Batch"]


class Phase(enum.Enum):
    """Which execution phase of a generative model a batch exercises (§4.3)."""

    PREFILL = "prefill"    # initial conditioning: full-sequence forward
    DECODE = "decode"      # incremental sampling: one token per request


class RequestState(enum.Enum):
    """Lifecycle state of a request; the last three are terminal."""

    PENDING = "pending"        # arrived, not yet finished either way
    COMPLETED = "completed"    # served to completion (has a latency)
    SHED = "shed"              # dropped: admission control or recovery layer
    TIMED_OUT = "timed_out"    # its deadline expired before completion

    @property
    def terminal(self) -> bool:
        return self is not RequestState.PENDING


@dataclass
class Request:
    """One inference job."""

    rid: int
    arrival: float           # µs
    seq_len: int
    phase: Phase = Phase.PREFILL
    context_len: int = 0     # KV context for DECODE requests
    completion: Optional[float] = None
    #: Absolute deadline (µs); ``None`` means no SLO attached.  A request
    #: whose deadline passes while pending is shed cheaply; one that expires
    #: mid-execution still completes but counts as a deadline miss.
    deadline: Optional[float] = None
    state: RequestState = RequestState.PENDING
    #: The id of the batch that carries this request, stamped by
    #: :meth:`Batch.number`; −1 until the serving server numbers that
    #: batch.  Lets post-run analysis join request metrics with trace rows.
    batch_id: int = -1
    #: Simulated time (µs) of the request's *first* hand-off to a strategy;
    #: ``None`` while still queued (or if it never dispatched).  Pending
    #: time is exactly ``dispatched_at - arrival``.
    dispatched_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.seq_len < 1:
            raise ConfigError(f"request {self.rid}: seq_len must be >= 1")
        if self.arrival < 0:
            raise ConfigError(f"request {self.rid}: negative arrival time")
        if self.deadline is not None and self.deadline < self.arrival:
            raise ConfigError(
                f"request {self.rid}: deadline {self.deadline} precedes "
                f"arrival {self.arrival}"
            )

    @property
    def latency(self) -> float:
        """Arrival→completion (µs); raises if not completed."""
        if self.state is not RequestState.COMPLETED or self.completion is None:
            raise IncompleteRequestError(
                f"request {self.rid} has no latency (state: {self.state.value})"
            )
        return self.completion - self.arrival

    # ------------------------------------------------------------------
    # Terminal transitions — each request takes exactly one.
    # ------------------------------------------------------------------
    def _require_pending(self, action: str) -> None:
        if self.state.terminal:
            raise ConfigError(
                f"request {self.rid} already terminal "
                f"({self.state.value}); cannot {action}"
            )

    def mark_completed(self, time: float) -> None:
        """Terminal: the request was served; ``time`` is its completion."""
        self._require_pending("complete")
        self.completion = time
        self.state = RequestState.COMPLETED

    def mark_shed(self) -> None:
        """Terminal: dropped by admission control or the recovery layer."""
        self._require_pending("shed")
        self.state = RequestState.SHED

    def mark_timed_out(self) -> None:
        """Terminal: the deadline expired before the request could finish."""
        self._require_pending("time out")
        self.state = RequestState.TIMED_OUT

    def deadline_passed(self, now: float) -> bool:
        """Whether the deadline (if any) has expired at simulated ``now``."""
        return self.deadline is not None and now > self.deadline


@dataclass
class Batch:
    """A group of requests processed together by the runtime.

    ``seq_len`` is the padded sequence length (max over members), which is
    what every kernel in the batch actually runs at.

    Batch ids are local to a run: the server that serves the run numbers
    its batches from 0 (:meth:`number`).  ``Server`` numbers a pre-packed
    batch when it arrives; the job servers number each batch they build.
    ``batch_id`` −1 means "not numbered yet", and a strategy refuses such a
    batch.
    """

    requests: List[Request]
    batch_id: int = -1

    def __post_init__(self) -> None:
        if not self.requests:
            raise ConfigError("a batch needs at least one request")
        phases = {r.phase for r in self.requests}
        if len(phases) != 1:
            raise ConfigError("a batch cannot mix prefill and decode requests")
        self.number(self.batch_id)

    def number(self, batch_id: int) -> None:
        """Give the batch ``batch_id`` and stamp it on every member."""
        self.batch_id = batch_id
        for r in self.requests:
            r.batch_id = batch_id

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def phase(self) -> Phase:
        return self.requests[0].phase

    @property
    def seq_len(self) -> int:
        """Padded sequence length."""
        return max(r.seq_len for r in self.requests)

    @property
    def context_len(self) -> int:
        """Padded KV context (DECODE batches)."""
        return max(r.context_len for r in self.requests)

    @property
    def arrival(self) -> float:
        """The batch is formed when its last member arrives."""
        return max(r.arrival for r in self.requests)

    @property
    def deadline(self) -> Optional[float]:
        """Tightest member deadline, or ``None`` if no member carries one."""
        deadlines = [r.deadline for r in self.requests if r.deadline is not None]
        return min(deadlines) if deadlines else None

    def mark_dispatched(self, time: float) -> None:
        """Stamp each member's first strategy hand-off (idempotent, so a
        retry or preemption re-dispatch never moves the original stamp)."""
        for r in self.requests:
            if r.dispatched_at is None:
                r.dispatched_at = time

    def complete(self, time: float) -> None:
        """Stamp every member request complete at ``time``."""
        for r in self.requests:
            r.mark_completed(time)

    def shed(self) -> None:
        """Stamp every member request with the terminal SHED state."""
        for r in self.requests:
            r.mark_shed()

    def time_out(self) -> None:
        """Stamp every member request with the terminal TIMED_OUT state."""
        for r in self.requests:
            r.mark_timed_out()
