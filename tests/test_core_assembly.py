"""Tests for function assembly (§3.2): KernelFunc, FuncVec, FunctionAssembler."""

from __future__ import annotations

import pytest

from repro.core.assembly import FuncVec, FunctionAssembler, KernelFunc
from repro.core.policy import LigerDichotomyPolicy
from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.models.ops import allreduce_op, gemm_op
from repro.models.transformer import prefill_ops
from repro.profiling import OpProfiler
from repro.serving.request import Batch, Phase, Request
from repro.sim.kernel import KernelKind


def make_batch(size=2, seq=64, arrival=0.0, phase=Phase.PREFILL):
    return Batch(
        requests=[
            Request(rid=i, arrival=arrival, seq_len=seq, phase=phase)
            for i in range(size)
        ]
    )


def kf(op, duration, batch_id=0):
    return KernelFunc(
        op=op,
        duration=duration,
        kind=op.kind,
        batch_id=batch_id,
        batch_size=2,
        seq_len=64,
        decomposable=op.decomposable,
    )


class TestKernelFunc:
    def test_metadata_carried(self):
        op = gemm_op("g", 0, 128, 512, 512)
        f = kf(op, 42.0)
        assert f.duration == 42.0
        assert not f.is_comm
        assert f.batch_size == 2 and f.seq_len == 64

    def test_same_type_granularity(self):
        """The scheduler's type is comm vs not: MEMORY schedules like
        computation."""
        op = gemm_op("g", 0, 8, 8, 8)
        assert kf(allreduce_op("ar", 0, 1e6), 10.0).is_comm
        assert not kf(op, 10.0).is_comm
        memory = KernelFunc(
            op=op, duration=10.0, kind=KernelKind.MEMORY, batch_id=0,
            batch_size=2, seq_len=64, decomposable=False,
        )
        assert not memory.is_comm

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            kf(gemm_op("g", 0, 8, 8, 8), -1.0)


class TestFuncVec:
    def _vec(self):
        funcs = [
            kf(gemm_op("g1", 0, 128, 512, 512), 10.0),
            kf(gemm_op("g2", 0, 128, 512, 512), 10.0),
            kf(allreduce_op("ar", 0, 1e6), 5.0),
            kf(gemm_op("g3", 1, 128, 512, 512), 10.0),
        ]
        return FuncVec(make_batch(), funcs)

    def test_fifo_order(self):
        v = self._vec()
        names = [v.pop().op.name for _ in range(4)]
        assert names == ["g1", "g2", "ar", "g3"]
        assert v.empty

    def test_collect_primary_stops_at_type_boundary(self):
        v = self._vec()
        policy = LigerDichotomyPolicy()
        runs = []
        while not v.empty:
            subset0, window = policy.collect_primary(v)
            runs.append(([f.op.name for f in subset0], window))
        # g1 → g2 is the same type; ar and g3 each end at a switch or the
        # end of the list.
        assert runs == [(["g1", "g2"], 20.0), (["ar"], 5.0), (["g3"], 10.0)]

    def test_push_front(self):
        v = self._vec()
        first = v.pop()
        v.push_front(first)
        assert v.peek().op.name == "g1"
        assert len(v) == 4

    def test_empty_vec_rejected(self):
        with pytest.raises(ConfigError):
            FuncVec(make_batch(), [])

    def test_empty_operations_rejected(self):
        v = self._vec()
        for _ in range(4):
            v.pop()
        with pytest.raises(ConfigError):
            v.pop()
        with pytest.raises(ConfigError):
            v.peek()


class TestFunctionAssembler:
    def test_assembles_full_prefill(self):
        node = v100_nvlink_node(4)
        profiler = OpProfiler(node)
        assembler = FunctionAssembler(
            lambda b: prefill_ops(OPT_30B, b.size, b.seq_len, 4), profiler
        )
        batch = make_batch(size=2, seq=64)
        vec = assembler.assemble(batch)
        ops = prefill_ops(OPT_30B, 2, 64, 4)
        assert len(vec) == len(ops)
        assert vec.batch is batch
        # Durations come from the profiler.
        head = vec.peek()
        assert head.duration == profiler.duration(ops[0])
        assert assembler.batches_assembled == 1

    def test_durations_positive_and_types_alternate_sanely(self):
        node = v100_nvlink_node(4)
        assembler = FunctionAssembler(
            lambda b: prefill_ops(OPT_30B, b.size, b.seq_len, 4), OpProfiler(node)
        )
        vec = assembler.assemble(make_batch())
        comm = comp = 0
        while not vec.empty:
            f = vec.pop()
            assert f.duration > 0
            if f.is_comm:
                comm += 1
            else:
                comp += 1
        assert comm == 2 * OPT_30B.num_layers + 1
        assert comp > comm


class TestAssemblyCache:
    """A cache hit must equal a cold build, rebound to the new batch."""

    SLOTS = ("op", "duration", "kind", "batch_id", "batch_size", "seq_len", "decomposable")

    @staticmethod
    def _assembler(model=OPT_30B):
        return FunctionAssembler(
            lambda b: prefill_ops(model, b.size, b.seq_len, 4),
            OpProfiler(v100_nvlink_node(4)),
        )

    def test_hit_equals_cold_build(self):
        warm = self._assembler()
        first = warm.assemble(make_batch(size=2, seq=64))
        batch = make_batch(size=2, seq=64)
        hit = warm.assemble(batch)
        cold = self._assembler().assemble(batch)
        assert (warm.cache_hits, warm.cache_misses) == (1, 1)
        assert hit.batch is batch
        assert len(hit) == len(cold) == len(first)
        while not cold.empty:
            got, want = hit.pop(), cold.pop()
            assert got is not want
            for slot in self.SLOTS:
                assert getattr(got, slot) == getattr(want, slot), slot
            assert got.batch_id == batch.batch_id
            assert got.batch_size == batch.size
            assert got.seq_len == batch.seq_len

    def test_each_shape_misses_once_and_the_oldest_is_evicted(self):
        from repro.parallel.base import CACHE_SIZE

        warm = self._assembler(OPT_30B.scaled_layers(1))
        for seq in range(1, CACHE_SIZE + 2):
            warm.assemble(make_batch(size=1, seq=seq))
        assert warm.cache_misses == CACHE_SIZE + 1
        assert warm.cache_evictions == 1
        warm.assemble(make_batch(size=1, seq=CACHE_SIZE + 1))
        assert warm.cache_hits == 1
        warm.assemble(make_batch(size=1, seq=1))  # evicted: a miss again
        assert warm.cache_misses == CACHE_SIZE + 2
