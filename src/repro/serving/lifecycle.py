"""Full request lifecycle: prefill, then token-by-token decode.

The paper evaluates the two generative phases separately (general tasks
≈ prefill, §4.2; incremental sampling, §4.3).  A production chat backend
runs both for every request: the prompt is prefilled once (producing the KV
cache and the first token), then the response is decoded one token per
iteration.  This server composes the two through one parallel strategy:

* arriving prompts are grouped into **prefill batches** (up to
  ``prefill_batch`` prompts, padded to the longest);
* prefilled requests join the **decode pool**, scheduled with Orca-style
  continuous batching (finished responses leave their slot immediately);
* prefill batches and decode iterations are all just batches to the
  underlying strategy — under Liger, one request's prefill GEMMs overlap
  other requests' decode all-reduces and vice versa, which neither §4.2 nor
  §4.3 alone can show.

Metrics: per-request **TTFT** (arrival → prefill complete, the user-visible
first-token latency) and full completion latency; both are returned in the
:class:`LifecycleResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, IncompleteRequestError
from repro.serving.arrival import ArrivalProcess, ConstantRate
from repro.serving.metrics import LatencyStats
from repro.serving.request import Batch, Phase, Request, RequestState
from repro.serving.session import JobServer, RunResult
from repro.sim.memory import activation_bytes
from repro.units import us_to_s

__all__ = ["ChatRequest", "chat_workload", "LifecycleResult", "LifecycleServer"]


@dataclass
class ChatRequest:
    """One end-to-end request: a prompt plus a generated response."""

    rid: int
    arrival: float
    prompt_len: int
    gen_tokens: int
    prefill_done: Optional[float] = None
    completion: Optional[float] = None
    tokens_done: int = 0
    #: Absolute deadline (µs); ``None`` means no SLO attached.
    deadline: Optional[float] = None
    state: RequestState = RequestState.PENDING

    def __post_init__(self) -> None:
        if self.prompt_len < 1 or self.gen_tokens < 1:
            raise ConfigError(f"request {self.rid}: invalid chat job")
        if self.deadline is not None and self.deadline < self.arrival:
            raise ConfigError(
                f"request {self.rid}: deadline precedes arrival"
            )

    @property
    def ttft(self) -> float:
        """Time to first token (µs): arrival → prefill completion."""
        if self.prefill_done is None:
            raise IncompleteRequestError(f"request {self.rid} has not prefilled")
        return self.prefill_done - self.arrival

    @property
    def latency(self) -> float:
        """Full latency (µs): arrival → last token."""
        if self.completion is None:
            raise IncompleteRequestError(f"request {self.rid} has not completed")
        return self.completion - self.arrival

    @property
    def current_context(self) -> int:
        return self.prompt_len + self.tokens_done

    @property
    def finished(self) -> bool:
        return self.tokens_done >= self.gen_tokens

    def deadline_passed(self, now: float) -> bool:
        """Whether the deadline (if any) has expired at simulated ``now``."""
        return self.deadline is not None and now > self.deadline


def chat_workload(
    num_requests: int,
    rate: float,
    *,
    prompt_range: tuple = (16, 128),
    gen_tokens: tuple = (4, 16),
    seed: int = 0,
    arrival: Optional[ArrivalProcess] = None,
    deadline_us: Optional[float] = None,
) -> List[ChatRequest]:
    """Random chat jobs: uniform prompt and response lengths.

    ``deadline_us`` attaches a full-latency SLO to every chat, relative to
    its own arrival.
    """
    if num_requests < 1:
        raise ConfigError("num_requests must be >= 1")
    p_lo, p_hi = prompt_range
    g_lo, g_hi = gen_tokens
    if not (1 <= p_lo <= p_hi and 1 <= g_lo <= g_hi):
        raise ConfigError("invalid prompt/gen ranges")
    if deadline_us is not None and deadline_us <= 0:
        raise ConfigError("deadline_us must be positive")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    proc = arrival or ConstantRate(rate)
    times = proc.arrivals(num_requests)
    rng = np.random.default_rng(seed)
    prompts = rng.integers(p_lo, p_hi + 1, size=num_requests)
    gens = rng.integers(g_lo, g_hi + 1, size=num_requests)
    return [
        ChatRequest(
            rid=i, arrival=times[i],
            prompt_len=int(prompts[i]), gen_tokens=int(gens[i]),
            deadline=(times[i] + deadline_us) if deadline_us is not None else None,
        )
        for i in range(num_requests)
    ]


@dataclass
class LifecycleResult(RunResult):
    """Metrics of one lifecycle serving run.

    ``num_requests`` counts *completed* chats; shed and timed-out chats are
    reported separately (every chat ends in exactly one of the three).
    """

    ttft: LatencyStats = field(default=None)  # type: ignore[assignment]
    latency: LatencyStats = field(default=None)  # type: ignore[assignment]
    tokens_generated: int = 0
    tokens_per_second: float = 0.0
    #: Chats dropped by admission control or the recovery layer.
    shed_requests: int = 0
    #: Chats whose deadline expired before completion.
    timed_out_requests: int = 0
    #: Decode chats preempted-and-requeued (recompute) under KV pressure.
    preemptions: int = 0
    #: Completed chats that finished after their deadline.
    deadline_misses: int = 0
    #: Fraction of deadline-carrying chats that completed on time;
    #: ``None`` when no chat carried a deadline.
    slo_attainment: Optional[float] = None

    def summary(self) -> str:
        """One-line human summary."""
        line = (
            f"{self.strategy:>8s} | {self.model} on {self.node}: "
            f"{self.num_requests} chats, TTFT {self.ttft.mean:.1f} ms, "
            f"full latency {self.latency.mean:.1f} ms, "
            f"{self.tokens_per_second:,.0f} tok/s"
        )
        if self.slo_attainment is not None:
            line += f", SLO {self.slo_attainment:.0%}"
        return line


class LifecycleServer(JobServer):
    """Serves full chat requests (prefill + decode) through one strategy."""

    discipline = "lifecycle"

    def __init__(
        self,
        model,
        node,
        strategy,
        *,
        prefill_batch: int = 4,
        max_decode_batch: int = 32,
        decode_pipeline_depth: int = 2,
        **kw,
    ) -> None:
        if prefill_batch < 1 or max_decode_batch < 1 or decode_pipeline_depth < 1:
            raise ConfigError("batching parameters must be >= 1")
        super().__init__(model, node, strategy, **kw)
        self.prefill_batch = prefill_batch
        self.max_decode_batch = max_decode_batch
        self.decode_pipeline_depth = decode_pipeline_depth

        #: The prefill admission queue: chats waiting for their prefill.
        self._queue: List[ChatRequest] = []
        self._prefill_inflight: Dict[int, List[ChatRequest]] = {}
        self._decode_pool: List[ChatRequest] = []
        self._decode_inflight: Dict[int, List[ChatRequest]] = {}

        self.add_gauge(
            "repro_pending_queue_requests",
            "Chats waiting in the prefill admission queue.",
            lambda: float(len(self._queue)),
        )
        self.add_gauge(
            "repro_decode_pool_chats",
            "Chats resident in the continuous-batching decode pool.",
            lambda: float(len(self._decode_pool)),
        )
        self.add_gauge(
            "repro_inflight_batches",
            "Prefill and decode batches currently at the strategy.",
            lambda: float(
                len(self._prefill_inflight) + len(self._decode_inflight)
            ),
        )

    # ------------------------------------------------------------------
    def _on_shed(self, batch: Batch) -> None:
        """Clean up lifecycle state for a batch the recovery layer dropped.

        A shed *prefill* abandons its chats (their KV reservations are
        released and they count as shed requests); a shed *decode* iteration
        returns its chats to the pool — continuous batching retries them on
        the next round, by which time the fault window may have passed.  A
        chat whose decode iterations were shed ``max_retries + 1`` times in
        a row is shed itself.
        """
        group = self._prefill_inflight.pop(batch.batch_id, None)
        if group is not None:
            for req in group:
                self.memory.release(f"chat{req.rid}")
                self._shed_job(req, where="retry-exhausted")
            self._maybe_submit_prefill()
            return
        members = self._decode_inflight.pop(batch.batch_id, [])
        self._requeue_after_backoff(members, self._maybe_submit_decode, self._drop)

    def _drop(self, req: ChatRequest) -> None:
        """Take a shed chat out of the decode pool and free its KV."""
        self._decode_pool.remove(req)
        self.memory.release(f"chat{req.rid}")

    # ------------------------------------------------------------------
    def _result(self, requests: Sequence[ChatRequest]) -> LifecycleResult:
        m = self.metrics
        by_rid = {r.rid: r for r in requests}
        done = [by_rid[r.rid] for r in m.completed]  # completion order
        # A run where every chat was shed or timed out is a legitimate
        # outcome under admission control, not a simulation failure: it
        # reports zero throughput and empty-safe latency stats.
        tok_per_s = 0.0
        if done:
            first = min(r.arrival for r in done)
            last = max(r.completion for r in done)  # type: ignore[type-var]
            span_s = us_to_s(last - first)
            tok_per_s = self.total_tokens / span_s if span_s > 0 else 0.0
        return LifecycleResult(
            num_requests=m.num_completed,
            ttft=LatencyStats.from_latencies_us([r.ttft for r in done]),
            latency=m.latency_stats(),
            tokens_generated=self.total_tokens,
            tokens_per_second=tok_per_s,
            shed_requests=m.shed_requests,
            timed_out_requests=m.timed_out_requests,
            preemptions=m.preemptions,
            deadline_misses=m.deadline_misses,
            slo_attainment=m.slo_attainment(),
            **self._result_fields(),
        )

    # ------------------------------------------------------------------
    # Prefill path
    # ------------------------------------------------------------------
    def _waiting(self) -> List[ChatRequest]:
        return self._queue

    def _on_arrival(self, req: ChatRequest) -> None:
        if self._admit(req):
            self._queue.append(req)
            self._maybe_submit_prefill()

    def _expire_queued(self) -> None:
        """Shed queued chats whose deadline passed — cheaply, pre-launch."""
        now = self.engine.now
        expired = [r for r in self._queue if r.deadline_passed(now)]
        for req in expired:
            self._queue.remove(req)
            self._time_out_job(req)

    def _chat_reserve_bytes(self, req: ChatRequest) -> float:
        """Per-device footprint of one resident chat: full KV + workspace."""
        tp = self.node.num_gpus
        return self.model.kv_cache_bytes(
            1, req.prompt_len + req.gen_tokens, tp=tp
        ) + activation_bytes(self.model, 1, 1, tp)

    def _try_reserve_chat(self, req: ChatRequest) -> bool:
        """Reserve KV for prompt + full response when prefill is admitted.

        Queued prompts wait in host memory; on OOM the request stays queued
        until an in-flight chat releases its reservation.
        """
        from repro.errors import OutOfMemoryError

        try:
            self.memory.reserve(f"chat{req.rid}", self._chat_reserve_bytes(req))
            return True
        except OutOfMemoryError:
            if self._prefill_inflight or self._decode_pool:
                return False  # running chats will free memory
            raise  # a single chat that can never fit

    def _reserve_with_preemption(self, req: ChatRequest) -> bool:
        """Reserve KV for ``req``, evicting young decode chats if allowed.

        Preemption is recompute-style (vLLM's fallback): the youngest idle
        decode chat that arrived after ``req`` releases its KV reservation
        and re-queues for a fresh prefill of its full accumulated context.
        Older work is therefore never starved by late-arriving KV holders.
        Eviction is attempted only when the eligible victims together free
        enough memory — a futile preemption would throw away decode progress
        without unblocking anything.
        """
        if self._try_reserve_chat(req):
            return True
        if self.overload is None:
            return False
        candidates = [
            c
            for c in self._decode_pool
            if c.rid not in self._busy and c.arrival > req.arrival
        ]
        releasable = sum(self._chat_reserve_bytes(c) for c in candidates)
        needed = self._chat_reserve_bytes(req)
        if self.memory.min_available() + releasable < needed:
            return False  # evicting everyone eligible still would not fit
        for victim in sorted(candidates, key=lambda c: -c.arrival):
            self._decode_pool.remove(victim)
            self.memory.release(f"chat{victim.rid}")
            self._queue.append(victim)
            self.metrics.preemptions += 1
            if self.bus is not None:
                from repro.obs.events import BatchPreempted

                self.bus.publish(
                    BatchPreempted(
                        time_us=self.engine.now, batch_id=-1, size=1
                    )
                )
            if self._try_reserve_chat(req):
                return True
        return False  # unreachable given the precheck; kept defensive

    def _queue_order(self) -> List[ChatRequest]:
        """Prefill admission order: FIFO, or EDF under shed-by-deadline.

        With the deadline-aware policy the queue serves earliest-deadline
        first, so an urgent late arrival can pass an older, looser chat —
        which is also what makes recompute preemption reachable: the passed
        chat may later find younger chats holding its KV budget.
        """
        if self.overload is None:
            return self._queue
        from repro.serving.overload import AdmissionPolicy

        if self.overload.policy is AdmissionPolicy.SHED_BY_DEADLINE:
            return sorted(
                self._queue,
                key=lambda c: (
                    c.deadline if c.deadline is not None else math.inf,
                    c.arrival,
                ),
            )
        return self._queue

    def _maybe_submit_prefill(self) -> None:
        if self.overload is not None:
            self._expire_queued()
        while self._queue:
            group: List[ChatRequest] = []
            for req in list(self._queue_order()[: self.prefill_batch]):
                if not self._reserve_with_preemption(req):
                    break
                group.append(req)
            if not group:
                return  # memory-blocked: retried on chat completion
            for req in group:
                self._queue.remove(req)
            batch = Batch(
                requests=[
                    Request(
                        rid=r.rid, arrival=r.arrival,
                        # A preempted chat re-prefills its full accumulated
                        # context; a fresh chat's context is its prompt.
                        seq_len=r.current_context, phase=Phase.PREFILL,
                    )
                    for r in group
                ]
            )
            self._prefill_inflight[batch.batch_id] = group
            self.submit(batch)

    # ------------------------------------------------------------------
    # Decode path (continuous batching)
    # ------------------------------------------------------------------
    def _expire_decode_pool(self) -> None:
        """Time out idle decode chats whose deadline passed (KV released)."""
        now = self.engine.now
        expired = [
            r
            for r in self._decode_pool
            if r.rid not in self._busy and r.deadline_passed(now)
        ]
        for req in expired:
            self._decode_pool.remove(req)
            self.memory.release(f"chat{req.rid}")
            self._time_out_job(req, where="decode-pool")

    def _maybe_submit_decode(self) -> None:
        if self.overload is not None:
            self._expire_decode_pool()
        while len(self._decode_inflight) < self.decode_pipeline_depth:
            ready = [r for r in self._decode_pool if r.rid not in self._busy]
            if not ready:
                return
            members = ready[: self.max_decode_batch]
            batch = Batch(
                requests=[
                    Request(
                        rid=r.rid, arrival=r.arrival, seq_len=1,
                        phase=Phase.DECODE, context_len=r.current_context,
                    )
                    for r in members
                ]
            )
            self._decode_inflight[batch.batch_id] = members
            self._busy.update(r.rid for r in members)
            self.submit(batch)

    # ------------------------------------------------------------------
    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        if batch.batch_id in self._prefill_inflight:
            group = self._prefill_inflight.pop(batch.batch_id)
            # Intermediate completion: the batch retired but no chat is
            # terminal yet.
            self._retire(batch, time, ())
            freed = False
            for req in group:
                if req.prefill_done is None:  # a re-prefill keeps its TTFT
                    req.prefill_done = time
                if self.overload is not None and req.deadline_passed(time):
                    # Expired while prefilling: record the miss, free the KV.
                    self.memory.release(f"chat{req.rid}")
                    self._time_out_job(req, where="prefill")
                    freed = True
                    continue
                self._decode_pool.append(req)
            self._maybe_submit_decode()
            if freed:
                # The freed KV may unblock a queued prompt, and nothing else
                # would retry or expire it if no chat is left running.
                self._maybe_submit_prefill()
            return
        finished = []
        for req in self._decode_inflight.pop(batch.batch_id):
            req.tokens_done += 1
            self.total_tokens += 1
            self._iteration_done(req)
            if req.finished:
                # Mid-execution expiry still completes; it is recorded as a
                # deadline miss rather than wasted work.
                self._decode_pool.remove(req)
                self.memory.release(f"chat{req.rid}")
                finished.append(req)
        self._retire(batch, time, finished)
        if self.overload is not None:
            # Under admission control, blocked head-of-line prompts get
            # first claim on just-freed memory — the decode pool is briefly
            # idle here, which is the only moment recompute preemption can
            # see it.  Without overload the original order is kept so the
            # timeline is bit-identical to builds without this subsystem.
            self._maybe_submit_prefill()
            self._maybe_submit_decode()
        else:
            self._maybe_submit_decode()
            self._maybe_submit_prefill()  # freed memory may unblock prompts
