"""Interleaved parallelism (§3.1) — Liger as a serving strategy.

Keeps the intra-operator partitioning of every operator (so a lone batch
executes exactly like the Intra-Op baseline and enjoys its latency), but
overlaps the communication of each batch with the computation of *other*
in-flight batches via the Liger runtime: function assembly → Algorithm 1 →
two streams per GPU with hybrid synchronization.

At a low arrival rate the runtime degenerates to intra-op; as the rate
rises, batches start overlapping and throughput grows past the intra-op
ceiling — the paper's central claim.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.core.assembly import FunctionAssembler
from repro.core.config import LigerConfig
from repro.core.contention import AdaptiveAnticipator, ContentionAnticipator
from repro.core.runtime import LigerRuntime
from repro.models.ops import OpDesc
from repro.parallel.base import ParallelStrategy
from repro.profiling.contention_profiler import ContentionProfiler
from repro.profiling.profiler import OpProfiler
from repro.serving.request import Batch
from repro.sim.interconnect import NcclConfig

__all__ = ["InterleavedStrategy"]


class InterleavedStrategy(ParallelStrategy):
    """Liger's interleaved parallelism over all GPUs of the node."""

    name = "liger"

    def __init__(
        self,
        model,
        node,
        *,
        profiler: Optional[OpProfiler] = None,
        config: Optional[LigerConfig] = None,
    ) -> None:
        self.config = config or LigerConfig()
        if profiler is None:
            nccl = (
                NcclConfig().reduced()
                if self.config.reduce_nccl_channels
                else NcclConfig()
            )
            profiler = OpProfiler(
                node, nccl=nccl, memoize=self.config.enable_sim_memos
            )
        super().__init__(model, node, profiler=profiler)
        self.runtime: Optional[LigerRuntime] = None

    # ------------------------------------------------------------------
    def _batch_ops(self, batch: Batch) -> List[OpDesc]:
        # Interleaved parallelism partitions exactly like intra-op (§3.1).
        return self.ops_for_batch(batch, tp=self.node.num_gpus)

    def bind(self, machine, host, *, track_memory=None) -> None:
        super().bind(machine, host, track_memory=track_memory)
        if not self.config.enable_sim_memos:
            machine.slowdown_memo = False
        if self.config.adaptive_anticipation:
            # Extension: no offline pass — learn factors while serving.
            anticipator = AdaptiveAnticipator()

            def _feed(kernel, end_time):
                started = kernel.meta.get("_started_at")
                if started is not None and kernel.batch_id >= 0:
                    anticipator.observe(
                        kernel.kind, kernel.duration, end_time - started
                    )

            machine.on_kernel_complete(_feed)
        else:
            factors = self.config.contention_factors
            if factors is None:
                # The offline procedure (Fig. 5): profile contention factors
                # on the deployment hardware before serving.
                factors = ContentionProfiler(
                    self.node, self.profiler, contention=machine.contention
                ).profile(self.model)
            anticipator = ContentionAnticipator(factors)
        self.anticipator = anticipator
        assembler = FunctionAssembler(
            self._batch_ops,
            self.profiler,
            # _batch_ops is pure in (phase, size, seq_len, context_len) —
            # the assembly-cache contract — because model and TP degree are
            # fixed for the strategy's lifetime.
            cache_size=128 if self.config.enable_assembly_cache else 0,
        )
        self.runtime = LigerRuntime(
            machine,
            host,
            self.profiler,
            assembler,
            anticipator,
            self.config,
            on_batch_launched=self.add_pending,
            on_batch_drained=self._on_drained,
        )
        # Memory-aware admission (extension): a batch moves from the waiting
        # queue to the processing list only if its KV/workspace reservation
        # fits the free HBM; otherwise it waits for an in-flight batch to
        # release.  Bounds interleaving depth by memory, not just config.
        self.runtime.scheduler.admission_check = self._admit_memory

    def _admit_memory(self, funcvec) -> bool:
        if self.memory is None:
            return True
        from repro.errors import OutOfMemoryError

        batch = funcvec.batch
        if batch.batch_id in self._memory_reserved:
            return True
        try:
            self._reserve_batch_memory(batch)
            return True
        except OutOfMemoryError:
            return False

    def _finish_batch(self, batch, time) -> None:
        super()._finish_batch(batch, time)
        # A completed batch released its reservation: memory-blocked work
        # in the waiting queue may now be admittable.
        if self.runtime is not None:
            self.runtime.maybe_kick()

    def _on_drained(self, batch_id: int) -> None:
        machine = self._require_bound()
        self.close_batch(batch_id, machine.engine.now)

    # ------------------------------------------------------------------
    def submit_batch(self, batch: Batch) -> None:
        self._require_bound()
        assert self.runtime is not None
        self.register_batch(batch)
        self.runtime.enqueue(batch)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Execution counters (rounds, overlap fill, decompositions)."""
        if self.runtime is None:
            return None
        return self.runtime.stats

    def perf_counters(self) -> dict:
        """Hot-path cache statistics (plan cache + assembly cache).

        The serving session exports these as ``repro_perf_*`` gauges when
        observability is attached; the perf harness reads them directly.
        """
        if self.runtime is None:
            return {}
        assembler = self.runtime.assembler
        out = {
            "assembly_cache_hits": assembler.cache_hits,
            "assembly_cache_misses": assembler.cache_misses,
            "assembly_cache_evictions": assembler.cache_evictions,
            "assembly_build_seconds": assembler.build_seconds,
        }
        # Fan-out workers: set by repro.perf.fanout in worker processes so
        # merged BENCH cells record which parallelism produced them (0 =
        # in-process sequential run).
        out["fanout_workers"] = int(os.environ.get("LIGER_FANOUT_WORKERS", 0))
        cache = self.runtime.plan_cache
        if cache is not None:
            out.update(
                plan_cache_hits=cache.hits,
                plan_cache_misses=cache.misses,
                plan_cache_evictions=cache.evictions,
                plan_cache_uncacheable=cache.uncacheable,
                plan_cache_entries=len(cache),
                plan_build_seconds=cache.build_seconds,
            )
            # Per-policy split: the policy id is a cache-key dimension, so
            # aggregate counters alone can't attribute misses to a policy.
            for pid in sorted(set(cache.per_policy) | {cache.policy_id}):
                row = cache.per_policy.get(pid, {})
                for counter in ("hits", "misses", "evictions", "uncacheable"):
                    out[f"plan_cache_{pid}_{counter}"] = row.get(counter, 0)
        return out

    def perf_gauge_help(self) -> dict:
        """Help text for the strategy-specific (per-policy) perf gauges.

        The serving session merges these with its static gauge table — the
        keys are dynamic (they embed the policy id) so they can't live in a
        class-level constant there.
        """
        if self.runtime is None or self.runtime.plan_cache is None:
            return {}
        cache = self.runtime.plan_cache
        out = {}
        for pid in sorted(set(cache.per_policy) | {cache.policy_id}):
            out[f"plan_cache_{pid}_hits"] = (
                f"Schedule-plan cache hits under the {pid} policy."
            )
            out[f"plan_cache_{pid}_misses"] = (
                f"Schedule-plan cache misses under the {pid} policy."
            )
            out[f"plan_cache_{pid}_evictions"] = (
                f"Schedule-plan cache evictions under the {pid} policy."
            )
            out[f"plan_cache_{pid}_uncacheable"] = (
                f"Unfingerprintable planning calls under the {pid} policy."
            )
        return out