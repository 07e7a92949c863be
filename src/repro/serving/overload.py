"""Overload-safe serving: admission control, deadlines, KV pressure, backpressure.

The plain :class:`~repro.serving.server.Server` admits every arrival
unconditionally, so a burst (or a decode-heavy mix whose KV context grows
steadily — the dominant steady-state pressure per the communication
characterization literature) lets pending batches and KV bytes grow without
bound until latency collapses.  This module makes the serving path *degrade
gracefully* instead:

1. **Admission control** — a bounded pending queue with pluggable policies
   (:class:`AdmissionPolicy`): ``reject`` new arrivals when full,
   ``shed-oldest`` (drop the head of the queue, which has already burned the
   most slack), or ``shed-by-deadline`` (drop the queued batch most likely to
   miss its deadline anyway).  Every rejected request is stamped with the
   terminal ``SHED`` state — nothing is silently dropped.
2. **Deadlines** — requests carry absolute deadlines
   (:attr:`~repro.serving.request.Request.deadline`).  A request whose
   deadline passes while pending is shed *cheaply* (terminal ``TIMED_OUT``,
   no kernels launched); one that expires mid-execution completes and is
   recorded as a deadline miss.  SLO attainment lands in
   :class:`~repro.serving.metrics.ServingMetrics`.
3. **KV-cache accounting** — the :class:`KVCacheAccountant` tracks the
   per-GPU KV bytes of every in-flight batch
   (:func:`repro.models.kvcache.batch_kv_bytes` against the capacity left
   after weights, :mod:`repro.sim.memory`), refuses admission when a batch
   would exceed capacity, and under pressure preempts-and-requeues the
   *youngest* KV-admitted decode batch so older (or deadline-critical) work
   is never blocked behind it.
4. **Backpressure / circuit breaker** — a heartbeat samples queue depth and
   SLO attainment.  Sustained overload *opens* the breaker: arrivals are
   shed immediately (fail fast) and, when a
   :class:`~repro.faults.resilience.RecoveryManager` is armed, the run is
   downgraded liger → intra (interleaving buys latency, not saturation
   throughput).  When the queue drains below the low watermark the breaker
   closes and the recovery manager's probe upgrades back.

The whole layer is zero-cost when disabled: a server constructed without an
:class:`OverloadConfig` takes exactly the pre-existing code path.
"""

from __future__ import annotations

import enum
import logging
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError, OutOfMemoryError
from repro.hw.devices import NodeSpec
from repro.models.kvcache import batch_kv_bytes
from repro.models.specs import ModelSpec
from repro.obs.events import (
    BatchPreempted,
    BatchStaged,
    BreakerClosed,
    BreakerOpened,
    EventBus,
    RequestsAdmitted,
    RequestsShed,
    RequestsTimedOut,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.request import Batch, Phase, Request
from repro.sim.engine import Engine

logger = logging.getLogger("repro.serving.overload")

T = TypeVar("T")

__all__ = [
    "AdmissionPolicy",
    "shed_victim",
    "OverloadConfig",
    "KVCacheAccountant",
    "BreakerEvent",
    "OverloadReport",
    "OverloadController",
]


class AdmissionPolicy(enum.Enum):
    """What to do when an arrival finds the pending queue full."""

    #: Shed the arriving batch (classic bounded queue).
    REJECT = "reject"
    #: Shed the oldest queued batch to make room (its slack is most burned).
    SHED_OLDEST = "shed-oldest"
    #: Shed the queued batch with the earliest deadline — it is the least
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
    #: Batches handed to the strategy concurrently (the dispatch window).
    max_inflight_batches: int = 4
    #: KV-admitted batches allowed to wait for a dispatch slot (the runway
    #: preemption operates on).
    max_staged_batches: int = 2
    #: Fraction of the per-GPU capacity left after weights that serving KV
    #: (plus activation workspaces) may occupy.
    kv_capacity_frac: float = 0.9
    #: Master switch for the KV accountant.
    enable_kv_accounting: bool = True
    #: Allow preempting-and-requeueing young staged decode batches.
    enable_preemption: bool = True
    #: Master switch for the backpressure circuit breaker.
    breaker_enabled: bool = True
    breaker_check_period_us: float = 5_000.0
    #: Queue depth (requests) that counts as overload / as drained, as
    #: fractions of ``max_pending_requests``.
    breaker_high_frac: float = 0.75
    breaker_low_frac: float = 0.25
    #: SLO attainment below this (with the queue non-empty) also counts as
    #: an overload signal.
    breaker_min_attainment: float = 0.5
    #: Consecutive overloaded checks before the breaker opens.
    breaker_trip_checks: int = 2

    def __post_init__(self) -> None:
        if self.max_pending_requests < 1:
            raise ConfigError("max_pending_requests must be >= 1")
        if self.max_inflight_batches < 1:
            raise ConfigError("max_inflight_batches must be >= 1")
        if self.max_staged_batches < 0:
            raise ConfigError("max_staged_batches must be >= 0")
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
        if self.default_deadline_us is not None and self.default_deadline_us <= 0:
            raise ConfigError("default_deadline_us must be positive")
        if not 0.0 < self.kv_capacity_frac <= 1.0:
            raise ConfigError("kv_capacity_frac must be in (0, 1]")
        if self.breaker_check_period_us <= 0:
            raise ConfigError("breaker_check_period_us must be positive")
        if not 0.0 <= self.breaker_low_frac <= self.breaker_high_frac <= 1.0:
            raise ConfigError("need 0 <= low_frac <= high_frac <= 1")
        if self.breaker_trip_checks < 1:
            raise ConfigError("breaker_trip_checks must be >= 1")


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


class KVCacheAccountant:
    """Per-GPU KV-byte ledger across in-flight serving batches.

    Capacity is what one GPU has left after its weight shard, scaled by
    ``capacity_frac`` (the complement is activation/workspace headroom).
    Charging is all-or-nothing: :meth:`charge` raises
    :class:`~repro.errors.OutOfMemoryError` rather than oversubscribe, so
    ``used <= capacity`` is an invariant, not a hope.
    """

    def __init__(
        self, model: ModelSpec, node: NodeSpec, *, capacity_frac: float = 0.9
    ) -> None:
        if not 0.0 < capacity_frac <= 1.0:
            raise ConfigError("capacity_frac must be in (0, 1]")
        self.model = model
        self.tp = node.num_gpus
        free = node.gpu.memory_capacity - model.weight_bytes_per_device(self.tp)
        if free <= 0:
            raise ConfigError(
                f"{model.name} weights alone exceed {node.name} GPU memory"
            )
        self.capacity = free * capacity_frac
        self._charged: Dict[int, float] = {}
        self.used = 0.0
        self.peak = 0.0

    def bytes_for(self, batch: Batch) -> float:
        """Per-GPU KV bytes ``batch`` will hold while in flight."""
        return batch_kv_bytes(self.model, batch, self.tp)

    def would_fit(self, nbytes: float) -> bool:
        """Whether charging ``nbytes`` more would stay within the budget."""
        return self.used + nbytes <= self.capacity

    def charge(self, batch: Batch) -> float:
        """Charge the batch's KV footprint; raises rather than oversubscribe."""
        if batch.batch_id in self._charged:
            raise ConfigError(f"batch {batch.batch_id} already KV-charged")
        nbytes = self.bytes_for(batch)
        if not self.would_fit(nbytes):
            raise OutOfMemoryError(
                f"KV admission of batch {batch.batch_id} "
                f"({nbytes / 1e9:.3f} GB) would exceed capacity "
                f"({(self.capacity - self.used) / 1e9:.3f} GB free)"
            )
        self._charged[batch.batch_id] = nbytes
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        return nbytes

    def release(self, batch_id: int) -> float:
        """Release a charge (idempotent); returns the freed byte count."""
        nbytes = self._charged.pop(batch_id, 0.0)
        self.used -= nbytes
        return nbytes

    @property
    def inflight(self) -> int:
        return len(self._charged)


@dataclass(frozen=True)
class BreakerEvent:
    """One circuit-breaker transition."""

    time_us: float
    state: str  #: ``"open"`` or ``"closed"``
    reason: str

    def describe(self) -> str:
        """One-line human-readable rendering of the transition."""
        return f"t={self.time_us:.0f}us breaker {self.state}: {self.reason}"


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
    breaker_trips: int = 0
    events: List[BreakerEvent] = field(default_factory=list)

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
        lines.append(f"  breaker: {self.breaker_trips} trip(s)")
        shown = self.events[:8]
        for ev in shown:
            lines.append(f"    {ev.describe()}")
        if len(self.events) > len(shown):
            lines.append(
                f"    ... {len(self.events) - len(shown)} more transition(s)"
            )
        return "\n".join(lines)


class OverloadController:
    """Admission → deadline → KV pressure → backpressure pipeline.

    Sits between the server's arrival loop and the (recovery-wrapped)
    strategy.  Batches flow ``pending → staged → dispatched``: *pending* is
    the bounded admission queue, *staged* batches hold a KV charge while
    waiting for one of ``max_inflight_batches`` dispatch slots, and
    *dispatched* batches are executing downstream.  Preemption acts on the
    staged runway — the youngest staged decode batch is evicted (KV
    released, requeued at the back) whenever it blocks older work, so
    head-of-line requests are never starved by late-arriving KV hogs.
    """

    def __init__(
        self,
        config: OverloadConfig,
        model: ModelSpec,
        node: NodeSpec,
        engine: Engine,
        metrics: ServingMetrics,
        downstream: Callable[[Batch], None],
        *,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config
        self.engine = engine
        self.metrics = metrics
        self.downstream = downstream
        self.bus = bus
        self.accountant: Optional[KVCacheAccountant] = None
        if config.enable_kv_accounting:
            self.accountant = KVCacheAccountant(
                model, node, capacity_frac=config.kv_capacity_frac
            )
        self.report = OverloadReport(
            policy=config.policy.value,
            kv_capacity_bytes=(
                self.accountant.capacity if self.accountant else 0.0
            ),
        )
        self._pending: Deque[Batch] = deque()
        self._staged: "OrderedDict[int, Batch]" = OrderedDict()
        self._dispatched: Dict[int, Batch] = {}
        self.breaker_open = False
        self._over_checks = 0
        self._slo_tracked_at_check = 0
        self._slo_met_at_check = 0
        self.recovery = None  # optional RecoveryManager, wired by the server
        #: Optional SLO-burn advisory (wired by the session when burn-rate
        #: policies are configured): while it returns True the breaker
        #: treats the *low* watermark as the trip threshold.
        self.advisor: Optional[Callable[[], bool]] = None
        #: Breaker trips in which the advisory lowered the threshold.
        self.advisory_trips = 0
        self._high = max(
            1, int(config.breaker_high_frac * config.max_pending_requests)
        )
        self._low = int(config.breaker_low_frac * config.max_pending_requests)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_recovery(self, recovery) -> None:
        """Let breaker trips downgrade the strategy via ``recovery``.

        Also holds the recovery manager's upgrade probe back until the
        queue has drained below the low watermark — recovering into a still
        full queue would immediately re-trip.
        """
        self.recovery = recovery
        recovery.hold_upgrade = lambda: (
            self.breaker_open or self.queue_depth > self._low
        )

    def attach_advisor(self, advisor: Callable[[], bool]) -> None:
        """Wire the SLO fast-burn advisory into the breaker's trip logic."""
        self.advisor = advisor

    def arm(self) -> None:
        """Start the backpressure heartbeat (call once work is scheduled)."""
        if self.config.breaker_enabled:
            self.engine.heartbeat(
                self.config.breaker_check_period_us,
                self._breaker_check,
                priority=9,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests waiting in the pending queue."""
        return sum(b.size for b in self._pending)

    @property
    def inflight_batches(self) -> int:
        return len(self._staged) + len(self._dispatched)

    def idle(self) -> bool:
        """True when no batch is pending, staged, or dispatched."""
        return not (self._pending or self._staged or self._dispatched)

    # ------------------------------------------------------------------
    # Arrival path
    # ------------------------------------------------------------------
    def on_arrival(self, batch: Batch) -> None:
        """Admit, queue, or shed one arriving batch."""
        now = self.engine.now
        cfg = self.config
        if cfg.default_deadline_us is not None:
            for r in batch.requests:
                if r.deadline is None:
                    r.deadline = r.arrival + cfg.default_deadline_us
        if self.breaker_open:
            self._shed_batch(batch, where="breaker")  # fail fast: saturated
            return
        if self._expire_if_due(batch, now):
            return
        if not self._make_room(batch):
            return  # policy shed the arrival itself
        self.report.admitted_requests += batch.size
        if self.bus is not None:
            self.bus.publish(RequestsAdmitted.from_batch(batch, now))
        self._pending.append(batch)
        self.report.peak_pending_requests = max(
            self.report.peak_pending_requests, self.queue_depth
        )
        self._pump()

    def _make_room(self, batch: Batch) -> bool:
        """Enforce the queue bound; returns False if the arrival was shed."""
        cfg = self.config
        while self.queue_depth + batch.size > cfg.max_pending_requests:
            i = shed_victim(cfg.policy, self._pending)
            if i is None:
                self._shed_batch(batch)
                return False
            victim = self._pending[i]
            del self._pending[i]
            self._shed_batch(victim)
        return True

    # ------------------------------------------------------------------
    # Dispatch pipeline
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Move work pending → staged → dispatched as far as bounds allow."""
        now = self.engine.now
        cfg = self.config
        # Dispatch the staged runway first (it is older than any pending).
        while self._staged and len(self._dispatched) < cfg.max_inflight_batches:
            bid, batch = next(iter(self._staged.items()))
            del self._staged[bid]
            if batch.deadline is not None and now > batch.deadline:
                self._release_kv(bid)
                self._expire_batch(batch, now)
                continue
            self._dispatch(batch)
        # Admit from the pending queue.
        while self._pending:
            free_slot = len(self._dispatched) < cfg.max_inflight_batches
            if not free_slot and len(self._staged) >= cfg.max_staged_batches:
                return
            head = self._pending[0]
            if head.deadline is not None and now > head.deadline:
                self._pending.popleft()
                self._expire_batch(head, now)  # shed cheaply: nothing launched
                continue
            if not self._admit_kv(head):
                return  # wait for a completion to free capacity
            self._pending.popleft()
            if free_slot:
                self._dispatch(head)
            else:
                self._staged[head.batch_id] = head
                if self.bus is not None:
                    self.bus.publish(
                        BatchStaged(
                            time_us=now,
                            batch_id=head.batch_id,
                            size=head.size,
                        )
                    )

    def _admit_kv(self, batch: Batch) -> bool:
        """Charge ``batch``'s KV, preempting young staged decodes if needed."""
        if self.accountant is None:
            return True
        nbytes = self.accountant.bytes_for(batch)
        while not self.accountant.would_fit(nbytes):
            victim = self._preemption_victim(batch)
            if victim is None:
                if not self._dispatched and not self._staged:
                    # Nothing in flight will ever free this much KV.
                    raise OutOfMemoryError(
                        f"batch {batch.batch_id} needs "
                        f"{nbytes / 1e9:.3f} GB of KV but the budget is "
                        f"{self.accountant.capacity / 1e9:.3f} GB"
                    )
                return False
            self._preempt(victim)
        self.accountant.charge(batch)
        self.report.peak_kv_bytes = self.accountant.peak
        return True

    def _preemption_victim(self, head: Batch) -> Optional[Batch]:
        """Youngest staged decode batch that arrived after ``head``."""
        if not self.config.enable_preemption:
            return None
        candidates = [
            b
            for b in self._staged.values()
            if b.phase is Phase.DECODE and b.arrival > head.arrival
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda b: b.arrival)

    def _preempt(self, batch: Batch) -> None:
        """Evict a staged decode batch: release KV, requeue at the back."""
        del self._staged[batch.batch_id]
        self._release_kv(batch.batch_id)
        self._pending.append(batch)
        self.metrics.preemptions += 1
        self.report.preempted_batches += 1
        self.report.peak_pending_requests = max(
            self.report.peak_pending_requests, self.queue_depth
        )
        logger.info(
            "t=%.0fus preempted staged decode batch %d (%d request(s)) "
            "under KV pressure",
            self.engine.now,
            batch.batch_id,
            batch.size,
        )
        if self.bus is not None:
            self.bus.publish(
                BatchPreempted(
                    time_us=self.engine.now,
                    batch_id=batch.batch_id,
                    size=batch.size,
                )
            )

    def _dispatch(self, batch: Batch) -> None:
        self._dispatched[batch.batch_id] = batch
        self.downstream(batch)

    # ------------------------------------------------------------------
    # Completion / downstream-shed path
    # ------------------------------------------------------------------
    def on_complete(self, batch: Batch, time: float) -> None:
        """Release the batch's slot and KV charge, then refill the window."""
        self._dispatched.pop(batch.batch_id, None)
        self._release_kv(batch.batch_id)
        self._pump()

    def on_downstream_shed(self, batch: Batch) -> None:
        """The recovery layer dropped a dispatched batch (retry exhaustion)."""
        self._dispatched.pop(batch.batch_id, None)
        self._release_kv(batch.batch_id)
        self.report.shed_requests += batch.size
        self._pump()

    def _release_kv(self, batch_id: int) -> None:
        if self.accountant is not None:
            self.accountant.release(batch_id)
            self.report.peak_kv_bytes = self.accountant.peak

    # ------------------------------------------------------------------
    # Terminal bookkeeping
    # ------------------------------------------------------------------
    def _shed_batch(self, batch: Batch, *, where: str = "admission") -> None:
        batch.shed()
        self.metrics.note_shed(batch.requests)
        self.report.shed_requests += batch.size
        if self.bus is not None:
            self.bus.publish(
                RequestsShed.from_requests(
                    batch.requests,
                    self.engine.now,
                    batch_id=batch.batch_id,
                    where=where,
                )
            )

    def _expire_if_due(self, batch: Batch, now: float) -> bool:
        if batch.deadline is not None and now > batch.deadline:
            self._expire_batch(batch, now)
            return True
        return False

    def _expire_batch(self, batch: Batch, now: float) -> None:
        """Terminal split: expired members time out, the rest are collateral."""
        expired: List[Request] = []
        collateral: List[Request] = []
        for r in batch.requests:
            if r.deadline_passed(now):
                r.mark_timed_out()
                expired.append(r)
            else:
                r.mark_shed()
                collateral.append(r)
        self.metrics.note_timed_out(expired)
        self.report.timed_out_requests += len(expired)
        if self.bus is not None and expired:
            self.bus.publish(
                RequestsTimedOut.from_requests(
                    expired, now, batch_id=batch.batch_id, where="pending"
                )
            )
        if collateral:
            self.metrics.note_shed(collateral)
            self.report.shed_requests += len(collateral)
            if self.bus is not None:
                self.bus.publish(
                    RequestsShed.from_requests(
                        collateral,
                        now,
                        batch_id=batch.batch_id,
                        where="collateral",
                    )
                )

    # ------------------------------------------------------------------
    # Backpressure circuit breaker
    # ------------------------------------------------------------------
    def _breaker_check(self) -> Optional[bool]:
        depth = self.queue_depth
        # SLO attainment over this check window only: the cumulative ratio
        # can never recover after one bad burst, which would flap the
        # breaker open on every check for the rest of the run.
        tracked = self.metrics.slo_tracked - self._slo_tracked_at_check
        met = self.metrics.slo_met - self._slo_met_at_check
        if tracked > 0:
            # Advance the baseline only when the window saw outcomes, so
            # sparse completions accumulate instead of yielding a stream of
            # empty (hence uninformative) windows.
            self._slo_tracked_at_check = self.metrics.slo_tracked
            self._slo_met_at_check = self.metrics.slo_met
        attainment = (met / tracked) if tracked > 0 else None
        # Under an active SLO fast-burn advisory the budget is already
        # being spent at page-rate, so the breaker trips at the low
        # watermark instead of waiting for the queue to reach the high one.
        advisory = self.advisor is not None and self.advisor()
        high = self._low if advisory else self._high
        too_deep = depth > high
        slo_collapsed = (
            depth > 0
            and attainment is not None
            and attainment < self.config.breaker_min_attainment
        )
        if self.breaker_open:
            if depth <= self._low:
                self._close_breaker(depth)
            return None
        if too_deep or slo_collapsed:
            self._over_checks += 1
            if self._over_checks >= self.config.breaker_trip_checks:
                self._open_breaker(
                    depth, attainment, too_deep, slo_collapsed, advisory, high
                )
        else:
            self._over_checks = 0
        return None

    def _open_breaker(
        self,
        depth: int,
        attainment: Optional[float],
        too_deep: bool,
        slo_collapsed: bool,
        advisory: bool = False,
        high: Optional[int] = None,
    ) -> None:
        self.breaker_open = True
        self._over_checks = 0
        self.report.breaker_trips += 1
        if advisory:
            self.advisory_trips += 1
        parts = []
        if too_deep:
            threshold = self._high if high is None else high
            parts.append(f"queue depth {depth} > {threshold}")
            if advisory:
                parts.append("slo-burn advisory lowered watermark")
        if slo_collapsed:
            parts.append(
                f"window SLO attainment {attainment:.2f} < "
                f"{self.config.breaker_min_attainment:.2f}"
            )
        reason = ", ".join(parts) or f"queue depth {depth}"
        self.report.events.append(
            BreakerEvent(self.engine.now, "open", reason)
        )
        logger.warning(
            "t=%.0fus backpressure breaker OPEN: %s", self.engine.now, reason
        )
        if self.bus is not None:
            self.bus.publish(
                BreakerOpened(time_us=self.engine.now, reason=reason)
            )
        if self.recovery is not None:
            self.recovery.overload_downgrade(f"backpressure: {reason}")

    def _close_breaker(self, depth: int) -> None:
        self.breaker_open = False
        reason = f"queue drained to {depth} <= {self._low}"
        self.report.events.append(
            BreakerEvent(self.engine.now, "closed", reason)
        )
        logger.info(
            "t=%.0fus backpressure breaker closed: %s", self.engine.now, reason
        )
        if self.bus is not None:
            self.bus.publish(
                BreakerClosed(time_us=self.engine.now, reason=reason)
            )
