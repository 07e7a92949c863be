"""Tests for function assembly (§3.2): KernelFunc, FuncVec, and a batch's
FuncVec built from its strategy's shared launch list."""

from __future__ import annotations

import pytest

from repro.core.assembly import FuncVec, KernelFunc
from repro.core.decomposition import DecompositionPlanner
from repro.core.policy import LigerDichotomyPolicy
from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.models.ops import allreduce_op, gemm_op
from repro.models.transformer import prefill_ops
from repro.parallel import InterleavedStrategy
from repro.serving.request import Batch, Phase, Request
from repro.sim.kernel import KernelKind


def make_batch(size=2, seq=64, arrival=0.0, phase=Phase.PREFILL):
    return Batch(
        requests=[
            Request(rid=i, arrival=arrival, seq_len=seq, phase=phase)
            for i in range(size)
        ]
    )


def kf(op, duration):
    return KernelFunc(
        op=op,
        duration=duration,
        kind=op.kind,
        decomposable=op.decomposable,
        occupancy=0.5,
        memory_intensity=0.1,
    )


class TestKernelFunc:
    def test_metadata_carried(self):
        op = gemm_op("g", 0, 128, 512, 512)
        f = kf(op, 42.0)
        assert f.duration == 42.0
        assert not f.is_comm
        assert (f.occupancy, f.memory_intensity) == (0.5, 0.1)
        # A record serves every batch of its shape: no batch identity.
        for field in ("batch_id", "batch_size", "seq_len"):
            assert not hasattr(f, field)

    def test_same_type_granularity(self):
        """The scheduler's type is comm vs not: MEMORY schedules like
        computation."""
        op = gemm_op("g", 0, 8, 8, 8)
        assert kf(allreduce_op("ar", 0, 1e6), 10.0).is_comm
        assert not kf(op, 10.0).is_comm
        memory = KernelFunc(
            op=op, duration=10.0, kind=KernelKind.MEMORY, decomposable=False,
            occupancy=0.5, memory_intensity=0.1,
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
    """A batch's FuncVec reads its strategy's launch list (§3.2)."""

    @staticmethod
    def _strategy():
        return InterleavedStrategy(OPT_30B, v100_nvlink_node(4))

    def test_assembles_full_prefill(self):
        strat = self._strategy()
        batch = make_batch(size=2, seq=64)
        vec = FuncVec(batch, strat._batch_funcs(batch))
        ops = prefill_ops(OPT_30B, 2, 64, 4)
        assert len(vec) == len(ops)
        assert vec.batch is batch and vec.batch_id == batch.batch_id
        # Durations come from the profiler.
        head = vec.peek()
        assert head.duration == strat.profiler.duration(ops[0])
        assert strat.cache_misses == 1

    def test_durations_positive_and_types_alternate_sanely(self):
        strat = self._strategy()
        batch = make_batch()
        vec = FuncVec(batch, strat._batch_funcs(batch))
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
    """Liger's assembly reads the strategy's one shape-keyed LRU cache."""

    def test_each_shape_misses_once_and_the_oldest_is_evicted(self):
        from repro.parallel.base import CACHE_SIZE

        strat = InterleavedStrategy(OPT_30B.scaled_layers(1), v100_nvlink_node(4))
        for seq in range(1, CACHE_SIZE + 2):
            strat._batch_funcs(make_batch(size=1, seq=seq))
        assert strat.cache_misses == CACHE_SIZE + 1
        assert strat.cache_evictions == 1
        strat._batch_funcs(make_batch(size=1, seq=CACHE_SIZE + 1))
        assert strat.cache_hits == 1
        strat._batch_funcs(make_batch(size=1, seq=1))  # evicted: a miss again
        assert strat.cache_misses == CACHE_SIZE + 2


class TestSharedLaunchList:
    """Every FuncVec of a shape reads one tuple; none may change it."""

    def test_popping_and_decomposing_one_vec_leaves_the_other_unchanged(self):
        strat = InterleavedStrategy(OPT_30B.scaled_layers(2), v100_nvlink_node(4))
        first, second = make_batch(), make_batch()
        a = FuncVec(first, strat._batch_funcs(first))
        b = FuncVec(second, strat._batch_funcs(second))
        shared = strat._batch_funcs(make_batch())
        assert a._funcs is b._funcs is shared
        before = list(shared)

        # Pop up to the first decomposable GEMM, then split it as §3.6 does.
        while not (a.peek().decomposable and a.peek().op.op == "gemm"):
            a.pop()
        whole = a.peek()
        planner = DecompositionPlanner(strat.profiler, 8)
        piece, rest = planner.split_to_fit(whole, whole.duration / 2)
        a.pop()
        a.push_front(rest)
        assert a.peek() is rest
        assert len(a) == len(shared) - before.index(whole)

        assert len(b) == len(shared)
        drained = []
        while not b.empty:
            drained.append(b.pop())
        assert all(got is want for got, want in zip(drained, before))
        assert len(drained) == len(before)
        assert list(shared) == before and whole in shared
        assert piece not in shared and rest not in shared

    def test_front_stack_is_last_in_first_out(self):
        vec = FuncVec(make_batch(), [kf(gemm_op("g", 0, 8, 8, 8), 1.0)])
        x = kf(gemm_op("x", 0, 8, 8, 8), 2.0)
        y = kf(gemm_op("y", 0, 8, 8, 8), 3.0)
        vec.push_front(x)
        vec.push_front(y)
        assert len(vec) == 3
        assert [vec.pop().op.name for _ in range(3)] == ["y", "x", "g"]
        assert vec.empty
