"""Full request lifecycle: prefill, then token-by-token decode.

The paper evaluates the two generative phases separately (general tasks
≈ prefill, §4.2; incremental sampling, §4.3).  A production chat backend
runs both for every request: the prompt is prefilled once (producing the KV
cache and the first token), then the response is decoded one token per
iteration.  This server composes the two through one parallel strategy:

* arriving prompts are grouped into **prefill batches** (up to
  ``prefill_batch`` prompts, padded to the longest);
* prefilled requests join the **decode pool**, scheduled with Orca-style
  continuous batching (finished responses leave their slot immediately).
  :class:`LifecycleServer` is a
  :class:`~repro.serving.generation.ContinuousBatchingServer` with the
  prefill stage in front, so the decode pool is that server's job pool and
  one copy of the iteration loop serves both;
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
from repro.serving.generation import ContinuousBatchingServer, GenRequest
from repro.serving.metrics import LatencyStats
from repro.serving.request import Batch, Phase, Request
from repro.serving.session import RunResult
from repro.units import us_to_s

__all__ = ["ChatRequest", "chat_workload", "LifecycleResult", "LifecycleServer"]


@dataclass(init=False)
class ChatRequest(GenRequest):
    """One end-to-end request: a prompt plus a generated response.

    A :class:`~repro.serving.generation.GenRequest` whose KV context is its
    prompt, plus the time its prefill completed.
    """

    prefill_done: Optional[float] = None

    def __init__(
        self,
        rid: int,
        arrival: float,
        prompt_len: int,
        gen_tokens: int,
        prefill_done: Optional[float] = None,
        **kw,
    ) -> None:
        super().__init__(rid, arrival, prompt_len, gen_tokens, **kw)
        self.prefill_done = prefill_done

    @property
    def prompt_len(self) -> int:
        return self.context_len

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


class LifecycleServer(ContinuousBatchingServer):
    """Serves full chat requests (prefill + decode) through one strategy.

    The prefill stage sits in front of the inherited continuous-batching
    loop: prefilled chats join its pool, which is this server's decode
    pool, and it decodes them ``max_decode_batch`` at a time with
    ``decode_pipeline_depth`` iterations in flight.
    """

    discipline = "lifecycle"
    _idle_where = "decode-pool"
    _kv_tag = "chat"

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
        super().__init__(
            model, node, strategy, max_batch=max_decode_batch,
            pipeline_depth=decode_pipeline_depth, **kw,
        )
        self.prefill_batch = prefill_batch
        #: The prefill admission queue: chats waiting for their prefill.
        self._queue: List[ChatRequest] = []
        self._prefill_inflight: Dict[int, List[ChatRequest]] = {}

    def _register_gauges(self) -> None:
        self.add_gauge(
            "repro_pending_queue_requests",
            "Chats waiting in the prefill admission queue.",
            lambda: float(len(self._queue)),
        )
        self.add_gauge(
            "repro_decode_pool_chats",
            "Chats resident in the continuous-batching decode pool.",
            lambda: float(len(self._pool)),
        )
        self.add_gauge(
            "repro_inflight_batches",
            "Prefill and decode batches currently at the strategy.",
            lambda: float(len(self._prefill_inflight) + len(self._inflight)),
        )

    # ------------------------------------------------------------------
    def _on_shed(self, batch: Batch) -> None:
        """A shed *prefill* abandons its chats: their KV reservations are
        released and they count as shed requests.  A shed decode iteration
        is the continuous loop's to requeue."""
        group = self._prefill_inflight.pop(batch.batch_id, None)
        if group is None:
            super()._on_shed(batch)
            return
        for req in group:
            self._release(req)
            self._shed_job(req, where="retry-exhausted")
        self._maybe_submit_prefill()

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
        if self._try_reserve_seq(req):
            return True
        if self.overload is None:
            return False
        candidates = [
            c
            for c in self._pool
            if c.rid not in self._busy and c.arrival > req.arrival
        ]
        releasable = sum(self._seq_bytes(c) for c in candidates)
        needed = self._seq_bytes(req)
        if self.memory.min_available() + releasable < needed:
            return False  # evicting everyone eligible still would not fit
        for victim in sorted(candidates, key=lambda c: -c.arrival):
            self._drop(victim)
            self._queue.append(victim)
            self.metrics.preemptions += 1
            if self.bus is not None:
                from repro.obs.events import BatchPreempted

                self.bus.publish(
                    BatchPreempted(
                        time_us=self.engine.now, batch_id=-1, size=1
                    )
                )
            if self._try_reserve_seq(req):
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
                ],
                batch_id=next(self._batch_ids),
            )
            self._prefill_inflight[batch.batch_id] = group
            self.submit(batch)

    # ------------------------------------------------------------------
    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        group = self._prefill_inflight.pop(batch.batch_id, None)
        if group is None:
            super()._on_batch_complete(batch, time)
            return
        # Intermediate completion: the batch retired but no chat is
        # terminal yet.
        self._retire(batch, time, ())
        freed = False
        for req in group:
            if req.prefill_done is None:  # a re-prefill keeps its TTFT
                req.prefill_done = time
            if self.overload is not None and req.deadline_passed(time):
                # Expired while prefilling: record the miss, free the KV.
                self._release(req)
                self._time_out_job(req, where="prefill")
                freed = True
                continue
            self._pool.append(req)
        self._maybe_launch_iteration()
        if freed:
            # The freed KV may unblock a queued prompt, and nothing else
            # would retry or expire it if no chat is left running.
            self._maybe_submit_prefill()

    def _relaunch(self) -> None:
        if self.overload is not None:
            # Under admission control, blocked head-of-line prompts get
            # first claim on just-freed memory — the decode pool is briefly
            # idle here, which is the only moment recompute preemption can
            # see it.  Without overload the original order is kept so the
            # timeline is bit-identical to builds without this subsystem.
            self._maybe_submit_prefill()
            self._maybe_launch_iteration()
        else:
            self._maybe_launch_iteration()
            self._maybe_submit_prefill()  # freed memory may unblock prompts
