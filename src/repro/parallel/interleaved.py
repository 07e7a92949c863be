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

from typing import Optional, Sequence

from repro.core.config import LigerConfig
from repro.core.runtime import LigerRuntime
from repro.parallel.base import KernelFunc, ParallelStrategy
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
            profiler = OpProfiler(node, nccl=nccl)
        super().__init__(model, node, profiler=profiler)
        self.runtime: Optional[LigerRuntime] = None

    # ------------------------------------------------------------------
    def _batch_funcs(self, batch: Batch) -> Sequence[KernelFunc]:
        # Interleaved parallelism partitions exactly like intra-op (§3.1).
        return self.launch_list(batch, tp=self.node.num_gpus)

    def bind(self, machine, host, *, track_memory=True) -> None:
        super().bind(machine, host, track_memory=track_memory)
        factors = self.config.contention_factors
        if factors is None:
            # The offline procedure (Fig. 5): profile contention factors
            # on the deployment hardware before serving.
            factors = ContentionProfiler(
                self.node, self.profiler, contention=machine.contention
            ).profile(self.model)
        self.runtime = LigerRuntime(
            machine,
            host,
            self.profiler,
            self._batch_funcs,
            factors,
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
        """Hot-path cache statistics (the launch-list cache, which serves
        function assembly).

        The server exports these as ``repro_perf_*`` gauges when
        observability is attached; the benchmark's ``bench/child.py`` reads
        them directly.
        """
        if self.runtime is None:
            return {}
        return {
            "assembly_cache_hits": self.cache_hits,
            "assembly_cache_misses": self.cache_misses,
            "assembly_cache_evictions": self.cache_evictions,
            "assembly_build_seconds": self.build_seconds,
        }
