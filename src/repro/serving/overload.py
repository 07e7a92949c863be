"""Overload-safe serving: admission control, deadlines, KV pressure.

A server built without an :class:`OverloadConfig` admits every arrival
unconditionally, so a burst (or a decode-heavy mix whose KV context grows
steadily) lets pending work and KV bytes grow without bound until latency
collapses.  With one, every server degrades gracefully through the same
admission rule, which lives on the serving chassis
(:class:`~repro.serving.session.JobServer`):

1. **Admission control** — a bound on pending requests with pluggable
   policies (:class:`AdmissionPolicy`): ``reject`` new arrivals when full,
   ``shed-oldest`` (drop the head of the queue, which has already burned the
   most slack), or ``shed-by-deadline`` (drop the queued entry most likely to
   miss its deadline anyway), all picked by :func:`shed_victim`.  Every
   rejected request is stamped with the terminal ``SHED`` state — nothing is
   silently dropped.
2. **Deadlines** — requests carry absolute deadlines
   (:attr:`~repro.serving.request.Request.deadline`), stamped from
   :attr:`OverloadConfig.default_deadline_us` at arrival when they have none.
   A request whose deadline passes while queued is dropped *cheaply*
   (terminal ``TIMED_OUT``, no kernels launched); one that expires
   mid-execution completes and is recorded as a deadline miss.  SLO
   attainment lands in :class:`~repro.serving.metrics.ServingMetrics`.
3. **KV pressure** — each server reserves device memory for what it admits
   to execution and holds work back while the reservation does not fit.  The
   batch :class:`~repro.serving.server.Server` reserves each batch's KV
   against ``kv_capacity_frac`` of the memory left after weights; the job
   servers reserve whole sequences, and the lifecycle server preempts young
   decode chats (recompute) so older work is never starved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional, Sequence, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")

__all__ = [
    "AdmissionPolicy",
    "shed_victim",
    "OverloadConfig",
    "OverloadReport",
]


class AdmissionPolicy(enum.Enum):
    """What to do when an arrival finds the pending queue full."""

    #: Shed the arriving batch (classic bounded queue).
    REJECT = "reject"
    #: Shed the oldest queued entry to make room (its slack is most burned).
    SHED_OLDEST = "shed-oldest"
    #: Shed the queued entry with the earliest deadline — it is the least
    #: likely to be served in time, so dropping it wastes the least work.
    #: Falls back to rejecting the arrival when nothing queued has a deadline.
    SHED_BY_DEADLINE = "shed-by-deadline"


@dataclass(frozen=True)
class OverloadConfig:
    """Tunable knobs of the overload layer (times in µs)."""

    #: Bound on queued-but-not-yet-admitted requests (the pending queue).
    max_pending_requests: int = 64
    #: Admission policy applied when the queue is full.
    policy: AdmissionPolicy = AdmissionPolicy.REJECT
    #: Deadline stamped on deadline-less requests at arrival, relative to
    #: their own arrival time; ``None`` leaves them SLO-free.
    default_deadline_us: Optional[float] = None
    #: Fraction of the per-GPU capacity left after weights that the batch
    #: server's in-flight KV may occupy.
    kv_capacity_frac: float = 0.9
    #: Switch for the batch server's KV reservation.
    enable_kv_accounting: bool = True

    def __post_init__(self) -> None:
        if self.max_pending_requests < 1:
            raise ConfigError("max_pending_requests must be >= 1")
        if not isinstance(self.policy, AdmissionPolicy):
            try:
                coerced = AdmissionPolicy(self.policy)
            except ValueError:
                valid = ", ".join(p.value for p in AdmissionPolicy)
                raise ConfigError(
                    f"unknown admission policy {self.policy!r}; "
                    f"choose from {valid}"
                ) from None
            object.__setattr__(self, "policy", coerced)
        deadline = self.default_deadline_us
        if deadline is not None and not (math.isfinite(deadline) and deadline > 0):
            raise ConfigError(
                f"default_deadline_us must be finite and positive, got {deadline}"
            )
        if not 0.0 < self.kv_capacity_frac <= 1.0:
            raise ConfigError("kv_capacity_frac must be in (0, 1]")


def shed_victim(
    policy: AdmissionPolicy,
    queued: Sequence[T],
    deadline_of: Callable[[T], Optional[float]] = attrgetter("deadline"),
) -> Optional[int]:
    """The admission victim rule, shared by every server.

    Returns the index of the queued entry (oldest first) to shed so an
    arrival fits, or ``None`` when the arrival itself must be shed:
    ``shed-oldest`` picks the head, ``shed-by-deadline`` the first entry
    with the earliest deadline (entries without one are never picked), and
    ``reject`` picks nothing.
    """
    if policy is AdmissionPolicy.SHED_OLDEST:
        return 0 if queued else None
    if policy is AdmissionPolicy.SHED_BY_DEADLINE:
        best: Optional[int] = None
        best_deadline = 0.0
        for i, entry in enumerate(queued):
            d = deadline_of(entry)
            if d is not None and (best is None or d < best_deadline):
                best, best_deadline = i, d
        return best
    return None


@dataclass
class OverloadReport:
    """What the overload layer did during one serving run."""

    policy: str = "reject"
    admitted_requests: int = 0
    shed_requests: int = 0
    timed_out_requests: int = 0
    preempted_batches: int = 0
    peak_pending_requests: int = 0
    peak_kv_bytes: float = 0.0
    kv_capacity_bytes: float = 0.0

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            "overload report:",
            f"  policy: {self.policy}",
            f"  admitted {self.admitted_requests}, shed {self.shed_requests}, "
            f"timed out {self.timed_out_requests} request(s); "
            f"{self.preempted_batches} batch(es) preempted",
            f"  peak pending queue: {self.peak_pending_requests} request(s)",
        ]
        if self.kv_capacity_bytes > 0:
            lines.append(
                f"  peak KV: {self.peak_kv_bytes / 1e9:.3f} GB of "
                f"{self.kv_capacity_bytes / 1e9:.3f} GB budget"
            )
        return "\n".join(lines)
