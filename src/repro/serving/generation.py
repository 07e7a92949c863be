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

Both are :class:`~repro.serving.session.JobServer` subclasses, so the
cross-cutting subsystems compose here exactly as on the other servers:
pass ``fault_plan``/``resilience``/``overload``/``observability`` and a
generation run gains fault injection with retry and shedding, bounded
admission with deadlines, and the event bus/metrics/span exports.

:class:`~repro.serving.lifecycle.LifecycleServer` decodes on the same
continuous-batching loop: it is a :class:`ContinuousBatchingServer` with a
prefill stage in front, and its :class:`~repro.serving.lifecycle.ChatRequest`
is a :class:`GenRequest` whose KV context is its prompt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.serving.arrival import ArrivalProcess, ConstantRate
from repro.serving.request import Batch, Phase, Request, RequestState
from repro.serving.session import JobServer
from repro.sim.memory import activation_bytes

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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
        #: Admitted groups waiting for their device reservation.
        self._queue: List[List[GenRequest]] = []
        #: Every iteration batch id → the group key (its last batch id is
        #: assigned at submit; until then iterations map to the group's gid).
        self._batch_group: Dict[int, int] = {}
        self._group_by_gid: Dict[int, dict] = {}
        self.add_gauge(
            "repro_pending_queue_requests",
            "Generation jobs waiting in queued static groups.",
            lambda: float(self._num_requests(self._queue)),
        )
        self.add_gauge(
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
    def _waiting(self) -> List[List[GenRequest]]:
        return self._queue

    def _requests_of(self, group: List[GenRequest]) -> List[GenRequest]:
        return group

    def _expire_pending(self) -> None:
        """Time out queued jobs whose deadline passed — cheaply, pre-launch.

        Expired members leave their group (the launch batch simply shrinks);
        a fully-expired group is dropped.
        """
        now = self.engine.now
        kept: List[List[GenRequest]] = []
        for group in self._queue:
            alive = []
            for gen in group:
                if gen.deadline_passed(now):
                    self._time_out_job(gen)
                else:
                    alive.append(gen)
            if alive:
                kept.append(alive)
        self._queue = kept

    def _enqueue_group(self, group: List[GenRequest]) -> None:
        if self._admit(group):
            self._queue.append(group)
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
        while self._queue:
            group = self._queue[0]
            try:
                self._reserve_group(group)
            except OutOfMemoryError:
                if self._groups:  # something running will free memory
                    return
                raise  # nothing can ever free: genuinely does not fit
            self._queue.pop(0)
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
                ],
                batch_id=next(self._batch_ids),
            )
            last_bid = batch.batch_id
            self._batch_group[batch.batch_id] = gid
            self.submit(batch)
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

    Overload semantics are job-granular: admission bounds the *waiting*
    jobs (queued, not yet holding KV), deadlines expire idle jobs cheaply
    between iterations, and a retry-exhausted iteration returns its members
    to the pool after the recovery backoff instead of abandoning them,
    until a job's iterations were shed ``max_retries + 1`` times in a row.

    This is the one continuous-batching loop:
    :class:`~repro.serving.lifecycle.LifecycleServer` puts a prefill stage
    in front of it and hands it prefilled chats.
    """

    discipline = "continuous"
    #: The ``where`` label of an idle job timed out in the pool.
    _idle_where = "queue"
    #: Prefix of a job's KV reservation tag in :attr:`memory`.
    _kv_tag = "seq"

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
        #: The jobs the loop serves, in the order they joined it.  Its jobs
        #: without a KV reservation are the waiting ones admission bounds,
        #: so it is also the queue admission evicts from.
        self._pool: List[GenRequest] = []
        self._queue = self._pool
        self._reserved: set = set()  # rids holding a KV reservation
        self._inflight: Dict[int, List[GenRequest]] = {}
        self._busy: set = set()  # rids in an in-flight iteration
        #: rid → iterations of the job shed in a row (see :meth:`_on_shed`).
        self._shed_streak: Dict[int, int] = {}
        self.iterations_run = 0
        self._register_gauges()

    def _register_gauges(self) -> None:
        self.add_gauge(
            "repro_pending_queue_requests",
            "Generation jobs waiting for their first KV reservation.",
            lambda: float(len(self._waiting())),
        )
        self.add_gauge(
            "repro_inflight_batches",
            "Iteration batches currently at the strategy.",
            lambda: float(len(self._inflight)),
        )

    # ------------------------------------------------------------------
    # Admission (job-granular)
    # ------------------------------------------------------------------
    def _waiting(self) -> List[GenRequest]:
        """Pooled jobs not yet holding a KV reservation."""
        return [r for r in self._pool if r.rid not in self._reserved]

    def _on_arrival(self, req: GenRequest) -> None:
        if self._admit(req):
            self._pool.append(req)
            self._maybe_launch_iteration()

    # ------------------------------------------------------------------
    # KV reservations
    # ------------------------------------------------------------------
    def _seq_bytes(self, req: GenRequest) -> float:
        """Per-device footprint of one resident job: lifetime KV + workspace."""
        tp = self.node.num_gpus
        return self.model.kv_cache_bytes(
            1, req.context_len + req.gen_tokens, tp=tp
        ) + activation_bytes(self.model, 1, 1, tp)

    def _try_reserve_seq(self, req: GenRequest) -> bool:
        """Reserve a job's lifetime KV unless it holds it; False on OOM.

        Queued jobs wait in host memory; the reservation lives until the
        job's last token.
        """
        from repro.errors import OutOfMemoryError

        if req.rid in self._reserved:
            return True
        try:
            self.memory.reserve(f"{self._kv_tag}{req.rid}", self._seq_bytes(req))
        except OutOfMemoryError:
            if self._reserved:
                return False  # jobs holding KV will free it
            raise  # a single job that can never fit
        self._reserved.add(req.rid)
        return True

    def _release(self, req: GenRequest) -> None:
        """Free ``req``'s KV reservation, if it holds one."""
        if req.rid in self._reserved:
            self._reserved.discard(req.rid)
            self.memory.release(f"{self._kv_tag}{req.rid}")

    def _drop(self, req: GenRequest) -> None:
        """Take ``req`` out of the pool and free its KV reservation."""
        self._pool.remove(req)
        self._release(req)

    # ------------------------------------------------------------------
    # The iteration loop
    # ------------------------------------------------------------------
    def _expire_idle(self) -> None:
        """Time out idle jobs whose deadline passed (KV released if held)."""
        now = self.engine.now
        expired = [
            r
            for r in self._pool
            if r.rid not in self._busy and r.deadline_passed(now)
        ]
        for req in expired:
            self._drop(req)
            self._time_out_job(req, where=self._idle_where)

    def _maybe_launch_iteration(self) -> None:
        if self.overload is not None:
            self._expire_idle()
        while len(self._inflight) < self.pipeline_depth:
            members: List[GenRequest] = []
            for r in self._pool:
                if len(members) >= self.max_batch:
                    break
                if r.rid not in self._busy and self._try_reserve_seq(r):
                    members.append(r)
            if not members:
                return
            batch = Batch(
                requests=[r.as_request() for r in members],
                batch_id=next(self._batch_ids),
            )
            self._inflight[batch.batch_id] = members
            self._busy.update(r.rid for r in members)
            self.iterations_run += 1
            self.total_tokens += len(members)
            self.submit(batch)

    def _relaunch(self) -> None:
        """Launch what a retired iteration's freed slots and KV allow."""
        self._maybe_launch_iteration()

    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        finished = []
        for job in self._inflight.pop(batch.batch_id):
            job.tokens_done += 1
            self._busy.discard(job.rid)
            self._shed_streak.pop(job.rid, None)
            if job.finished:
                # Mid-execution expiry still completes; it is recorded as a
                # deadline miss rather than wasted work.
                self._drop(job)
                finished.append(job)
        self._retire(batch, time, finished)
        self._relaunch()

    def _on_shed(self, batch: Batch) -> None:
        """Return a retry-exhausted iteration's members to the pool.

        The members keep their KV reservations (the retry re-decodes the
        same context) but stay busy for one recovery backoff, so the launch
        loop cannot instantly rebuild and re-shed the same batch without
        simulated time advancing.

        A job whose iterations were shed ``max_retries + 1`` times in a row
        is shed itself and leaves the pool with its KV.  Otherwise a
        launch-failure window that never closes would requeue it forever
        while the machine idles between attempts.
        """
        from repro.faults.resilience import RETRY_BACKOFF_US

        members = self._inflight.pop(batch.batch_id, [])
        self.total_tokens -= len(members)
        limit = self.recovery.config.max_retries
        streak = self._shed_streak
        retried = []
        for job in members:
            shed = streak.get(job.rid, 0) + 1
            if shed > limit:
                streak.pop(job.rid, None)
                self._busy.discard(job.rid)
                self._drop(job)
                self._shed_job(job, where="retry-exhausted")
            else:
                streak[job.rid] = shed
                retried.append(job)

        def _requeue() -> None:
            for job in retried:
                self._busy.discard(job.rid)
            self._maybe_launch_iteration()

        self.engine.schedule(RETRY_BACKOFF_US, _requeue, priority=10)
