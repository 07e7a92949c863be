"""The serving loop: arrivals → strategy → metrics.

The :class:`Server` owns the simulation clock.  It schedules one engine
callback per batch at that batch's arrival time (the moment the serving
front-end hands the packed batch to the runtime, Fig. 5), lets the bound
strategy turn it into kernels, and records request completions as batches
drain.  The result bundles the paper's two metrics plus the execution trace
for overlap analysis.

The server is a :class:`~repro.serving.session.JobServer` whose job is one
pre-packed batch.  The chassis builds the simulation and its subsystems,
admits, submits and checks the drain; this module adds only the
batch-granularity policy: number each batch when it arrives (the run's
ids start at 0), then dispatch it at once, or, with an
:class:`~repro.serving.overload.OverloadConfig`, dispatch from a bounded
queue while fewer than :data:`MAX_INFLIGHT_BATCHES` batches are open and
their KV fits the budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Set

from repro.errors import OutOfMemoryError
from repro.hw.devices import NodeSpec
from repro.models.kvcache import batch_kv_bytes
from repro.models.specs import ModelSpec
from repro.serving.request import Batch, Request
from repro.serving.session import JobServer, ServingResult
from repro.sim.memory import NodeMemoryModel

if TYPE_CHECKING:  # the chassis imports each subsystem only when armed
    from repro.parallel.base import ParallelStrategy
    from repro.serving.overload import OverloadReport

__all__ = ["Server", "ServingResult", "MAX_INFLIGHT_BATCHES"]

#: Batches an overload-armed server keeps open at once: the dispatch window
#: in front of the strategy's own processing list.
MAX_INFLIGHT_BATCHES = 4


class Server(JobServer):
    """Drives one strategy over one workload on a simulated node.

    Without an ``overload`` config every batch is dispatched on arrival.
    With one, arrivals pass the chassis admission rule into a queue, queued
    batches whose deadline passed are dropped before launch, and the head is
    dispatched while fewer than :data:`MAX_INFLIGHT_BATCHES` batches are
    open and — with ``enable_kv_accounting`` — its KV fits
    ``kv_capacity_frac`` of the memory left after weights.
    """

    discipline = ""
    #: The strategy keeps its own per-batch workspace reservations.
    _bind_track_memory = True

    def __init__(
        self, model: ModelSpec, node: NodeSpec, strategy: ParallelStrategy,
        *, record_trace: bool = True, **kw,
    ) -> None:
        super().__init__(model, node, strategy, record_trace=record_trace, **kw)
        #: Admitted batches waiting for a dispatch slot (overload armed).
        self._queue: List[Batch] = []
        #: Ids of the batches dispatched and not yet retired (overload armed).
        self._open: Set[int] = set()
        if self.overload is None:
            return
        self.add_gauge(
            "repro_pending_queue_requests",
            "Requests waiting in the bounded pending queue.",
            lambda: float(self._num_requests(self._queue)),
        )
        self.add_gauge(
            "repro_inflight_batches",
            "Batches dispatched and not yet retired.",
            lambda: float(len(self._open)),
        )
        if self.memory is not None:
            self.add_gauge(
                "repro_kv_used_bytes",
                "Per-GPU KV bytes reserved by in-flight batches.",
                lambda: float(self.memory.devices[0].used - self._kv_floor),
            )

    def _memory_model(self) -> Optional[NodeMemoryModel]:
        """A KV ledger capped at ``kv_capacity_frac`` of the memory left
        after weights, or ``None`` without KV accounting."""
        cfg = self.overload
        if cfg is None or not cfg.enable_kv_accounting:
            return None
        memory = NodeMemoryModel(self.model, self.node)
        free = memory.min_available()
        memory.reserve("headroom", free * (1.0 - cfg.kv_capacity_frac))
        #: What the ledger holds with no batch in flight, and the KV budget.
        self._kv_floor = memory.devices[0].used
        self._kv_budget = memory.min_available()
        return memory

    def _requests_of(self, batch: Batch) -> List[Request]:
        return batch.requests

    def _waiting(self) -> List[Batch]:
        return self._queue

    def _requests_in(self, batches: Sequence[Batch]) -> List[Request]:
        return [r for batch in batches for r in batch.requests]

    # ------------------------------------------------------------------
    # Arrival and dispatch
    # ------------------------------------------------------------------
    def _on_arrival(self, batch: Batch) -> None:
        batch.number(next(self._batch_ids))
        if not self._admit(batch):
            return
        if self.overload is None:
            self.submit(batch)
            return
        self._queue.append(batch)
        self._pump()

    def _announce(self, batch: Batch) -> None:
        from repro.obs.events import RequestsAdmitted

        self.bus.publish(RequestsAdmitted.from_batch(batch, self.engine.now))

    def _pump(self) -> None:
        """Drop expired queued batches, then dispatch from the head while
        the window has a slot and the head's KV fits."""
        now = self.engine.now
        for batch in list(self._queue):
            deadline = batch.deadline
            if deadline is not None and now > deadline:
                self._queue.remove(batch)
                self._expire(batch, now)
        while self._queue and len(self._open) < MAX_INFLIGHT_BATCHES:
            head = self._queue[0]
            if not self._reserve_kv(head):
                return  # a retiring batch frees KV and pumps again
            self._queue.pop(0)
            self._open.add(head.batch_id)
            self.submit(head)

    def _reserve_kv(self, batch: Batch) -> bool:
        """Reserve ``batch``'s KV; False while in-flight batches hold it."""
        if self.memory is None:
            return True
        nbytes = batch_kv_bytes(self.model, batch, self.node.num_gpus)
        try:
            self.memory.reserve(f"kv{batch.batch_id}", nbytes)
        except OutOfMemoryError:
            if self._open:
                return False
            # Nothing in flight will ever free this much KV.
            raise OutOfMemoryError(
                f"batch {batch.batch_id} needs {nbytes / 1e9:.3f} GB of KV "
                f"but the budget is {self._kv_budget / 1e9:.3f} GB"
            ) from None
        return True

    def _close(self, batch: Batch) -> None:
        """Free a retired or shed batch's slot and KV, then refill."""
        if self.overload is None:
            return
        self._open.discard(batch.batch_id)
        if self.memory is not None:
            self.memory.release(f"kv{batch.batch_id}")
        self._pump()

    # ------------------------------------------------------------------
    # Terminal bookkeeping
    # ------------------------------------------------------------------
    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        batch.complete(time)
        self.metrics.record(batch.requests)
        if self.bus is not None:
            from repro.obs.events import BatchCompleted

            self.bus.publish(BatchCompleted.from_batch(batch, time))
        self._close(batch)

    def _on_shed(self, batch: Batch) -> None:
        """The recovery layer dropped ``batch`` after exhausting retries."""
        self._shed(batch, where="retry-exhausted")
        self._close(batch)

    def _shed(self, batch: Batch, *, where: str = "admission") -> None:
        batch.shed()
        self.metrics.note_shed(batch.requests)
        if self.bus is not None:
            from repro.obs.events import RequestsShed

            self.bus.publish(
                RequestsShed.from_requests(
                    batch.requests,
                    self.engine.now,
                    batch_id=batch.batch_id,
                    where=where,
                )
            )

    def _expire(self, batch: Batch, now: float) -> None:
        """Drop a queued batch past its deadline before launch: expired
        members time out, the rest are shed as collateral."""
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
        if collateral:
            self.metrics.note_shed(collateral)
        if self.bus is not None:
            from repro.obs.events import RequestsShed, RequestsTimedOut

            self.bus.publish(
                RequestsTimedOut.from_requests(
                    expired, now, batch_id=batch.batch_id, where="pending"
                )
            )
            if collateral:
                self.bus.publish(
                    RequestsShed.from_requests(
                        collateral, now, batch_id=batch.batch_id,
                        where="collateral",
                    )
                )

    def _overload_report(self) -> Optional["OverloadReport"]:
        report = super()._overload_report()
        if report is not None and self.memory is not None:
            report.kv_capacity_bytes = self._kv_budget
            report.peak_kv_bytes = self.memory.peak_used - self._kv_floor
        return report
