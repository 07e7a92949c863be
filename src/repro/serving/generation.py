"""Multi-token generation serving: static vs continuous batching.

The paper's §4.3 evaluates a *single* decode iteration per request.  Real
generative serving runs many iterations per request, and the dominant
batching disciplines differ:

* **Static batching** (FasterTransformer-style): requests are grouped once;
  the whole batch runs ``max(gen_tokens)`` decode iterations and every
  member is released only when the batch finishes.  Short requests pay for
  long ones, and arrivals wait for a full batch slot.
* **Continuous batching** (Orca-style iteration-level scheduling, which the
  paper lists as orthogonal related work): the running batch is re-formed
  at every iteration boundary — finished sequences leave immediately and
  queued arrivals join immediately.

Both servers drive any :class:`~repro.parallel.base.ParallelStrategy`
(including Liger) by submitting one decode-step :class:`Batch` per
iteration, so interleaved parallelism composes with either discipline: with
several iteration batches in flight Liger overlaps one iteration's
all-reduces with another's GEMMs.

Both ride the :class:`~repro.serving.session.ServingSession` chassis, so
the cross-cutting subsystems compose here exactly as on the other servers:
pass a :class:`~repro.serving.session.ServingConfig` (or the individual
``fault_plan``/``resilience``/``overload``/``observability`` kwargs) and a
generation run gains fault injection with retry/degradation, bounded
admission with deadlines, and the event bus/metrics/span exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.obs.events import (
    BatchCompleted,
    RequestsAdmitted,
    RequestsShed,
    RequestsTimedOut,
)
from repro.obs.observability import Observability
from repro.serving.arrival import ArrivalProcess, ConstantRate
from repro.serving.overload import OverloadConfig, OverloadReport, shed_victim
from repro.serving.request import Batch, Phase, Request, RequestState
from repro.serving.server import ServingResult
from repro.serving.session import RunResult, ServingConfig, ServingSession
from repro.sim.contention import ContentionModel
from repro.sim.memory import NodeMemoryModel, activation_bytes

__all__ = [
    "GenRequest",
    "generation_workload",
    "StaticBatchingServer",
    "ContinuousBatchingServer",
]


@dataclass
class GenRequest:
    """One generation job: decode ``gen_tokens`` tokens over a KV context."""

    rid: int
    arrival: float
    context_len: int
    gen_tokens: int
    tokens_done: int = 0
    completion: Optional[float] = None
    #: Absolute deadline (µs); ``None`` means no SLO attached.
    deadline: Optional[float] = None
    state: RequestState = RequestState.PENDING

    def __post_init__(self) -> None:
        if self.gen_tokens < 1 or self.context_len < 1:
            raise ConfigError(f"request {self.rid}: invalid generation job")
        if self.deadline is not None and self.deadline < self.arrival:
            raise ConfigError(f"request {self.rid}: deadline precedes arrival")

    @property
    def finished(self) -> bool:
        return self.tokens_done >= self.gen_tokens

    @property
    def current_context(self) -> int:
        """KV length at the next iteration."""
        return self.context_len + self.tokens_done

    def deadline_passed(self, now: float) -> bool:
        """Whether the deadline (if any) has expired at simulated ``now``."""
        return self.deadline is not None and now > self.deadline

    def as_request(self) -> Request:
        """The single-iteration view used to build a decode Batch."""
        return Request(
            rid=self.rid,
            arrival=self.arrival,
            seq_len=1,
            phase=Phase.DECODE,
            context_len=self.current_context,
            deadline=self.deadline,
        )


def generation_workload(
    num_requests: int,
    rate: float,
    *,
    context_len: int = 16,
    gen_tokens: tuple = (4, 16),
    seed: int = 0,
    arrival: Optional[ArrivalProcess] = None,
    deadline_us: Optional[float] = None,
) -> List[GenRequest]:
    """Random generation jobs: uniform output lengths at a constant rate.

    ``deadline_us`` attaches a full-latency SLO to every job, relative to
    its own arrival.
    """
    if num_requests < 1:
        raise ConfigError("num_requests must be >= 1")
    lo, hi = gen_tokens
    if not 1 <= lo <= hi:
        raise ConfigError(f"invalid gen_tokens range {gen_tokens}")
    if deadline_us is not None and deadline_us <= 0:
        raise ConfigError("deadline_us must be positive")
    proc = arrival or ConstantRate(rate)
    times = proc.arrivals(num_requests)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(lo, hi + 1, size=num_requests)
    return [
        GenRequest(
            rid=i, arrival=times[i], context_len=context_len,
            gen_tokens=int(lengths[i]),
            deadline=(times[i] + deadline_us) if deadline_us is not None else None,
        )
        for i in range(num_requests)
    ]


class JobServer:
    """The core the three job servers share.

    Static, continuous and lifecycle serving all run long-lived jobs as a
    sequence of iteration (and prefill) batches, so admission, memory and
    terminal bookkeeping live here at job granularity instead of in the
    session's batch-level overload controller.  Every terminal outcome
    lands in the session's :class:`~repro.serving.metrics.ServingMetrics`,
    the one serving-side tally, with the matching bus event when observed.

    Subclasses keep their queue of waiting jobs in ``_queue`` and implement
    ``_waiting`` (the jobs the admission bound counts, oldest first),
    ``_on_batch_complete`` and ``_on_shed``.
    """

    discipline = "generation"

    def __init__(
        self,
        model,
        node,
        strategy,
        *,
        config: Optional[ServingConfig] = None,
        contention: Optional[ContentionModel] = None,
        record_trace: bool = False,
        check_memory: bool = True,
        fault_plan=None,
        resilience=None,
        overload: Optional[OverloadConfig] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        config = ServingConfig.resolve(
            config,
            contention=contention,
            record_trace=record_trace,
            fault_plan=fault_plan,
            resilience=resilience,
            overload=overload,
            observability=observability,
        )
        self.session = ServingSession(
            model,
            node,
            strategy,
            config=config,
            check_memory=check_memory,
            complete_callback=self._on_batch_complete,
            shed_callback=self._on_shed,
            per_job=True,
        )
        s = self.session
        self.model = model
        self.node = node
        self.strategy = strategy
        self.engine = s.engine
        self.trace = s.trace
        self.machine = s.machine
        self.host = s.host
        self.metrics = s.metrics
        self.obs = s.obs
        self.bus = s.bus
        self.recovery = s.recovery
        self.memory = NodeMemoryModel(model, node)
        self.overload = config.overload
        #: Iteration tokens put through the strategy.
        self.total_tokens = 0
        self._busy: set = set()  # rids in an in-flight decode iteration
        self._admitted = 0
        self._peak_pending = 0

    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        raise NotImplementedError

    def _on_shed(self, batch: Batch) -> None:
        """The recovery layer dropped ``batch`` (faults/resilience armed)."""
        raise NotImplementedError

    def _waiting(self) -> list:
        raise NotImplementedError

    def _submit(self, batch: Batch) -> None:
        """Feed one batch into the session's submission pipeline."""
        self.session.submit(batch)

    def run(self, requests: Sequence) -> RunResult:
        """Serve the jobs to completion and return the run's result."""
        ordered = sorted(requests, key=lambda r: r.arrival)
        if not ordered:
            raise ConfigError("no requests to serve")
        self._schedule_arrivals(ordered)
        self.session.run_machine()
        m = self.metrics
        self.session.check_drained(
            expected=len(ordered),
            completed=m.num_completed,
            shed=m.shed_requests,
            timed_out=m.timed_out_requests,
        )
        return self._result(ordered)

    def _schedule_arrivals(self, ordered: Sequence) -> None:
        """One ``_on_arrival(job)`` callback per job at its arrival time."""
        for job in ordered:
            self.engine.schedule_at(
                job.arrival, lambda j=job: self._on_arrival(j), priority=10
            )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, jobs: Sequence) -> bool:
        """Admit an arrival of ``jobs``; False = the arrival was shed.

        Stamps the default deadline, enforces the pending bound, counts the
        admission and publishes ``RequestsAdmitted``; the caller enqueues.
        """
        cfg = self.overload
        if cfg is not None:
            if cfg.default_deadline_us is not None:
                for job in jobs:
                    if job.deadline is None:
                        job.deadline = job.arrival + cfg.default_deadline_us
            while len(self._waiting()) + len(jobs) > cfg.max_pending_requests:
                if not self._evict_victim():
                    for job in jobs:
                        self._shed_job(job)
                    return False
        self._admitted += len(jobs)
        self._peak_pending = max(
            self._peak_pending, len(self._waiting()) + len(jobs)
        )
        if self.bus is not None:
            for job in jobs:
                self.bus.publish(
                    RequestsAdmitted(
                        time_us=self.engine.now,
                        batch_id=-1,
                        rids=(job.rid,),
                        arrivals_us=(job.arrival,),
                    )
                )
        return True

    def _evict_victim(self) -> bool:
        """Shed one waiting job per the admission policy; False if none."""
        waiting = self._waiting()
        i = shed_victim(self.overload.policy, waiting)
        if i is None:
            return False
        victim = waiting[i]
        self._queue.remove(victim)
        self._shed_job(victim)
        return True

    def _overload_report(self) -> Optional[OverloadReport]:
        """Summarise this server's job-granularity admission layer."""
        if self.overload is None:
            return None
        m = self.metrics
        return OverloadReport(
            policy=self.overload.policy.value,
            admitted_requests=self._admitted,
            shed_requests=m.shed_requests,
            timed_out_requests=m.timed_out_requests,
            preempted_batches=m.preemptions,
            peak_pending_requests=self._peak_pending,
        )

    # ------------------------------------------------------------------
    # Terminal bookkeeping (every job ends in exactly one terminal state)
    # ------------------------------------------------------------------
    def _retire(self, batch: Batch, time: float, finished: Sequence) -> None:
        """Publish ``batch``'s retirement; complete its ``finished`` jobs."""
        if self.bus is not None:
            self.bus.publish(BatchCompleted.from_batch(batch, time, finished))
        for job in finished:
            job.completion = time
            job.state = RequestState.COMPLETED
            record = Request(
                rid=job.rid, arrival=job.arrival, seq_len=job.gen_tokens,
                phase=Phase.DECODE, deadline=job.deadline,
            )
            record.mark_completed(time)
            self.metrics.record([record])

    def _shed_job(self, job, *, where: str = "admission") -> None:
        job.state = RequestState.SHED
        self.metrics.note_shed([job])
        if self.bus is not None:
            self.bus.publish(
                RequestsShed.from_requests(
                    [job], self.engine.now, batch_id=-1, where=where
                )
            )

    def _time_out_job(self, job, *, where: str = "pending") -> None:
        job.state = RequestState.TIMED_OUT
        self.metrics.note_timed_out([job])
        if self.bus is not None:
            self.bus.publish(
                RequestsTimedOut.from_requests(
                    [job], self.engine.now, batch_id=-1, where=where
                )
            )

    def _requeue_after_backoff(self, members: Sequence, relaunch) -> None:
        """Return a retry-exhausted decode iteration's members to scheduling.

        The members keep their KV reservations (the retry re-decodes the
        same context) but stay busy for one recovery backoff, so the launch
        loop cannot instantly rebuild and re-shed the same batch without
        simulated time advancing.
        """
        assert self.recovery is not None

        def _requeue() -> None:
            for job in members:
                self._busy.discard(job.rid)
            relaunch()

        self.engine.schedule(
            self.recovery.config.retry_backoff_us, _requeue, priority=10
        )

    # ------------------------------------------------------------------
    def _result_fields(self) -> dict:
        """The result fields every job server reports the same way."""
        return dict(
            strategy=f"{self.strategy.name}+{self.discipline}",
            model=self.model.name,
            node=self.node.name,
            wall_events=self.engine.events_processed,
            resilience=self.session.finalize_resilience(),
            overload=self._overload_report(),
            observability=self.obs,
        )

    def _result(self, ordered: Sequence) -> ServingResult:
        return ServingResult(
            num_requests=len(ordered),
            metrics=self.metrics,
            trace=self.trace,
            **self._result_fields(),
        )


class StaticBatchingServer(JobServer):
    """FasterTransformer-style static batches of generation jobs.

    Requests are grouped in arrival order into fixed-size batches; each
    batch runs ``max(gen_tokens)`` iterations (every member pays the padded
    length) and all members are released at the batch's last iteration.
    Iterations of one batch are submitted back-to-back; batches of the queue
    are submitted as they form, so the underlying strategy may still overlap
    *across* batches (Liger benefits; intra-op simply queues).

    Overload semantics are group-granular — a static group is atomic, so
    admission sheds whole groups and a retry-exhausted iteration sheds its
    entire group (the remaining members cannot finish without it).
    """

    discipline = "static"

    def __init__(self, model, node, strategy, *, batch_size: int = 32, **kw) -> None:
        super().__init__(model, node, strategy, **kw)
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._groups: Dict[int, dict] = {}
        self._pending_groups: List[List[GenRequest]] = []
        #: Every iteration batch id → the group key (its last batch id is
        #: assigned at submit; until then iterations map to the group's gid).
        self._batch_group: Dict[int, int] = {}
        self._group_by_gid: Dict[int, dict] = {}
        self.session.add_gauge(
            "repro_pending_queue_requests",
            "Generation jobs waiting in queued static groups.",
            lambda: float(len(self._waiting())),
        )
        self.session.add_gauge(
            "repro_inflight_batches",
            "Static groups currently executing.",
            lambda: float(len(self._groups)),
        )

    def _schedule_arrivals(self, ordered: Sequence[GenRequest]) -> None:
        for i in range(0, len(ordered), self.batch_size):
            group = list(ordered[i : i + self.batch_size])
            arrival = max(r.arrival for r in group)
            self.engine.schedule_at(
                arrival, lambda g=group: self._enqueue_group(g), priority=10
            )

    # ------------------------------------------------------------------
    # Admission (group-granular)
    # ------------------------------------------------------------------
    def _waiting(self) -> List[GenRequest]:
        return [gen for group in self._pending_groups for gen in group]

    def _evict_victim(self) -> bool:
        """Shed one whole queued group per the admission policy."""
        i = shed_victim(
            self.overload.policy,
            self._pending_groups,
            lambda group: min(
                (g.deadline for g in group if g.deadline is not None),
                default=None,
            ),
        )
        if i is None:
            return False
        for gen in self._pending_groups.pop(i):
            self._shed_job(gen)
        return True

    def _expire_pending(self) -> None:
        """Time out queued jobs whose deadline passed — cheaply, pre-launch.

        Expired members leave their group (the launch batch simply shrinks);
        a fully-expired group is dropped.
        """
        now = self.engine.now
        kept: List[List[GenRequest]] = []
        for group in self._pending_groups:
            alive = []
            for gen in group:
                if gen.deadline_passed(now):
                    self._time_out_job(gen)
                else:
                    alive.append(gen)
            if alive:
                kept.append(alive)
        self._pending_groups = kept

    def _enqueue_group(self, group: List[GenRequest]) -> None:
        if self._admit(group):
            self._pending_groups.append(group)
            self._drain_pending_groups()

    def _drain_pending_groups(self) -> None:
        """Admit queued groups while their KV/workspace fits free HBM.

        Queued generation jobs wait in host memory; a group's device
        reservation happens only when it is admitted for execution, so a
        deep backlog cannot fictitiously exhaust HBM.
        """
        from repro.errors import OutOfMemoryError

        if self.overload is not None:
            self._expire_pending()
        while self._pending_groups:
            group = self._pending_groups[0]
            try:
                self._reserve_group(group)
            except OutOfMemoryError:
                if self._groups:  # something running will free memory
                    return
                raise  # nothing can ever free: genuinely does not fit
            self._pending_groups.pop(0)
            self._submit_group(group)

    def _reserve_group(self, group: List[GenRequest]) -> None:
        tp = self.node.num_gpus
        iterations = max(r.gen_tokens for r in group)
        ctx_final = max(r.context_len for r in group) + iterations
        self.memory.reserve(
            f"group{group[0].rid}",
            self.model.kv_cache_bytes(len(group), ctx_final, tp=tp)
            + activation_bytes(self.model, len(group), 1, tp),
        )

    def _submit_group(self, group: List[GenRequest]) -> None:
        iterations = max(r.gen_tokens for r in group)
        gid = group[0].rid
        info = {"members": group, "gid": gid, "last_bid": None}
        self._group_by_gid[gid] = info
        last_bid = None
        for it in range(iterations):
            batch = Batch(
                requests=[
                    Request(
                        rid=r.rid, arrival=r.arrival, seq_len=1,
                        phase=Phase.DECODE, context_len=r.context_len + it,
                        deadline=r.deadline,
                    )
                    for r in group
                ]
            )
            last_bid = batch.batch_id
            self._batch_group[batch.batch_id] = gid
            self._submit(batch)
            self.total_tokens += len(group)
        info["last_bid"] = last_bid
        self._groups[last_bid] = info

    # ------------------------------------------------------------------
    def _on_shed(self, batch: Batch) -> None:
        """A retry-exhausted iteration sheds its whole group (atomic)."""
        gid = self._batch_group.get(batch.batch_id)
        if gid is None:
            return
        info = self._group_by_gid.pop(gid, None)
        if info is None:
            return  # group already resolved by an earlier shed
        self._groups.pop(info["last_bid"], None)
        self.memory.release(f"group{gid}")
        for gen in info["members"]:
            self._shed_job(gen, where="retry-exhausted")
        self._drain_pending_groups()

    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        info = self._groups.pop(batch.batch_id, None)
        if info is None:
            return  # an intermediate iteration, or a shed group's straggler
        self._group_by_gid.pop(info["gid"], None)
        self.memory.release(f"group{info['gid']}")
        for gen in info["members"]:
            gen.tokens_done = gen.gen_tokens
        self._retire(batch, time, info["members"])
        self._drain_pending_groups()


class ContinuousBatchingServer(JobServer):
    """Orca-style iteration-level scheduling.

    The running batch is re-formed every iteration from (a) unfinished
    sequences and (b) queued arrivals, up to ``max_batch`` sequences.  A
    finished sequence's slot frees immediately.  ``pipeline_depth``
    iterations may be in flight at once (submitted before the previous
    completes) so Liger has concurrent batches to interleave; sequence
    state advances only on completion, keeping iterations of one sequence
    strictly ordered by construction (an in-flight sequence is not
    re-batched until its current iteration retires).

    Overload semantics are job-granular, like the lifecycle server's:
    admission bounds the *waiting* jobs (queued, not yet holding KV),
    deadlines expire idle jobs cheaply between iterations, and a
    retry-exhausted iteration returns its members to the queue after the
    recovery backoff instead of abandoning them.
    """

    discipline = "continuous"

    def __init__(
        self, model, node, strategy, *, max_batch: int = 32,
        pipeline_depth: int = 2, **kw,
    ) -> None:
        super().__init__(model, node, strategy, **kw)
        if max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        self.max_batch = max_batch
        self.pipeline_depth = pipeline_depth
        self._queue: List[GenRequest] = []
        self._reserved: set = set()
        self._inflight: Dict[int, List[GenRequest]] = {}
        self.iterations_run = 0
        self.session.add_gauge(
            "repro_pending_queue_requests",
            "Generation jobs waiting for their first KV reservation.",
            lambda: float(len(self._waiting())),
        )
        self.session.add_gauge(
            "repro_inflight_batches",
            "Iteration batches currently at the strategy.",
            lambda: float(len(self._inflight)),
        )

    # ------------------------------------------------------------------
    # Admission (job-granular)
    # ------------------------------------------------------------------
    def _waiting(self) -> List[GenRequest]:
        """Queued jobs not yet holding a KV reservation."""
        return [r for r in self._queue if r.rid not in self._reserved]

    def _expire_idle(self) -> None:
        """Time out idle jobs whose deadline passed (KV released if held)."""
        now = self.engine.now
        expired = [
            r
            for r in self._queue
            if r.rid not in self._busy and r.deadline_passed(now)
        ]
        for req in expired:
            self._queue.remove(req)
            if req.rid in self._reserved:
                self.memory.release(f"seq{req.rid}")
                self._reserved.discard(req.rid)
            self._time_out_job(req, where="queue")

    def _on_arrival(self, req: GenRequest) -> None:
        if self._admit([req]):
            self._queue.append(req)
            self._maybe_launch_iteration()

    def _try_reserve_seq(self, req: GenRequest) -> bool:
        """Reserve a sequence's lifetime KV on first scheduling; False on OOM.

        Queued sequences wait in host memory; the KV reservation happens when
        the sequence first joins an iteration and lives until its last token.
        """
        from repro.errors import OutOfMemoryError

        if req.rid in self._reserved:
            return True
        tp = self.node.num_gpus
        try:
            self.memory.reserve(
                f"seq{req.rid}",
                self.model.kv_cache_bytes(1, req.context_len + req.gen_tokens, tp=tp)
                + activation_bytes(self.model, 1, 1, tp),
            )
        except OutOfMemoryError:
            if self._reserved:
                return False  # running sequences will free memory
            raise  # a single sequence that can never fit
        self._reserved.add(req.rid)
        return True

    def _maybe_launch_iteration(self) -> None:
        if self.overload is not None:
            self._expire_idle()
        while len(self._inflight) < self.pipeline_depth:
            members: List[GenRequest] = []
            for r in self._queue:
                if len(members) >= self.max_batch:
                    break
                if r.rid not in self._busy and self._try_reserve_seq(r):
                    members.append(r)
            if not members:
                return
            batch = Batch(requests=[r.as_request() for r in members])
            self._inflight[batch.batch_id] = members
            self._busy.update(r.rid for r in members)
            self.iterations_run += 1
            self.total_tokens += len(members)
            self._submit(batch)

    # ------------------------------------------------------------------
    def _on_shed(self, batch: Batch) -> None:
        """Return a retry-exhausted iteration's members to the queue."""
        members = self._inflight.pop(batch.batch_id, [])
        self.total_tokens -= len(members)
        self._requeue_after_backoff(members, self._maybe_launch_iteration)

    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        members = self._inflight.pop(batch.batch_id)
        finished = []
        for gen in members:
            gen.tokens_done += 1
            self._busy.discard(gen.rid)
            if gen.finished:
                self._queue.remove(gen)
                self.memory.release(f"seq{gen.rid}")
                self._reserved.discard(gen.rid)
                finished.append(gen)
        self._retire(batch, time, finished)
        self._maybe_launch_iteration()
