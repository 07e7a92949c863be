"""Tests for Algorithm 1: the Liger scheduler's round planning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import FuncVec, KernelFunc
from repro.core.config import NO_ANTICIPATION
from repro.core.decomposition import DecompositionPlanner
from repro.core.scheduler import LigerScheduler, Round
from repro.errors import ConfigError, SchedulingError
from repro.hw import v100_nvlink_node
from repro.models.ops import allreduce_op, gemm_op
from repro.profiling import OpProfiler
from repro.profiling.contention_profiler import ContentionFactors
from repro.serving.request import Batch, Phase, Request
from repro.sim.kernel import KernelKind


def make_batch(bid_seed=0):
    return Batch(
        requests=[Request(rid=bid_seed, arrival=0.0, seq_len=64, phase=Phase.PREFILL)]
    )


def comp(name, dur, decomposable=False):
    return KernelFunc(
        op=gemm_op(name, 0, 128, 1024, 1024, decomposable=decomposable),
        duration=dur,
        kind=KernelKind.COMPUTE,
        decomposable=decomposable,
        occupancy=0.5,
        memory_intensity=0.1,
    )


def comm(name, dur, decomposable=False):
    return KernelFunc(
        op=allreduce_op(name, 0, 1e6, decomposable=decomposable),
        duration=dur,
        kind=KernelKind.COMM,
        decomposable=decomposable,
        occupancy=0.5,
        memory_intensity=0.1,
    )


def scheduler(factors=NO_ANTICIPATION, decomposer=None, max_inflight=4):
    return LigerScheduler(
        factors=factors, decomposer=decomposer, max_inflight=max_inflight
    )


class TestPrimarySubset:
    def test_collects_maximal_same_type_run(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(), [comp("a", 10), comp("b", 20), comm("c", 5)]))
        r = s.plan_round()
        assert [f.op.name for f in r.subset0] == ["a", "b"]
        assert r.primary_kind is KernelKind.COMPUTE
        assert r.window == 30

    def test_switch_kernel_included_in_run(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(), [comm("ar", 5), comp("g", 10)]))
        r = s.plan_round()
        assert [f.op.name for f in r.subset0] == ["ar"]
        assert r.primary_kind is KernelKind.COMM

    def test_consecutive_rounds_alternate_types(self):
        s = scheduler()
        s.enqueue(
            FuncVec(
                make_batch(),
                [comp("a", 10), comm("b", 5), comp("c", 10), comm("d", 5)],
            )
        )
        kinds = []
        while (r := s.plan_round()) is not None:
            kinds.append(r.primary_kind)
        assert kinds == [
            KernelKind.COMPUTE,
            KernelKind.COMM,
            KernelKind.COMPUTE,
            KernelKind.COMM,
        ]

    def test_no_work_returns_none(self):
        assert scheduler().plan_round() is None


class TestSecondarySubset:
    def test_fills_window_with_opposite_type(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(0), [comp("p1", 30), comm("p2", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("s1", 10), comm("s2", 10), comp("s3", 10)]))
        r = s.plan_round()
        assert [f.op.name for f in r.subset1] == ["s1", "s2"]
        assert r.secondary_fill == 20

    def test_stops_at_same_type_kernel(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(0), [comp("p1", 100), comm("p2", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("s1", 10), comp("s2", 10), comm("s3", 10)]))
        r = s.plan_round()
        # s2 is compute (same as primary): stop after s1; s3 unreachable.
        assert [f.op.name for f in r.subset1] == ["s1"]

    def test_skips_over_multiple_subsequent_batches(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(0), [comp("p", 50), comm("pc", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("b1", 20), comp("x", 1)]))
        s.enqueue(FuncVec(make_batch(2), [comm("b2", 20), comp("y", 1)]))
        r = s.plan_round()
        assert [f.op.name for f in r.subset1] == ["b1", "b2"]

    def test_first_fit_takes_arrival_order(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(0), [comp("p", 25), comm("pc", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("small", 10), comp("x", 1)]))
        s.enqueue(FuncVec(make_batch(2), [comm("big", 20), comp("y", 1)]))
        r = s.plan_round()
        # first-fit takes small (batch 1 first), then big no longer fits
        assert [f.op.name for f in r.subset1] == ["small"]

    def test_oversize_kernel_not_packed_without_decomposition(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(0), [comp("p", 10), comm("pc", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("big", 50), comp("x", 1)]))
        r = s.plan_round()
        assert r.subset1 == []

    def test_anticipation_scales_fit_test(self):
        # comm factor 2.0: a 6us comm kernel needs 12us of window.
        factors = ContentionFactors(compute=1.0, comm=2.0)
        s = scheduler(factors=factors)
        s.enqueue(FuncVec(make_batch(0), [comp("p", 10), comm("pc", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("c6", 6), comp("x", 1)]))
        r = s.plan_round()
        assert r.subset1 == []  # 6 * 2.0 > 10

        s2 = scheduler(factors=factors)
        s2.enqueue(FuncVec(make_batch(0), [comp("p", 13), comm("pc", 5)]))
        s2.enqueue(FuncVec(make_batch(1), [comm("c6", 6), comp("x", 1)]))
        r2 = s2.plan_round()
        assert [f.op.name for f in r2.subset1] == ["c6"]
        assert r2.secondary_fill == pytest.approx(12.0)

    def test_principle1_invariant_enforced(self):
        s = scheduler()
        s.enqueue(FuncVec(make_batch(0), [comp("p", 40), comm("pc", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("a", 15), comm("b", 15), comp("x", 1)]))
        r = s.plan_round()
        r.validate_principle1()
        assert r.secondary_fill <= r.window


class TestQueueManagement:
    def test_processing_list_bounded(self):
        s = scheduler(max_inflight=2)
        for i in range(5):
            s.enqueue(FuncVec(make_batch(i), [comp(f"p{i}", 10), comm(f"c{i}", 5)]))
        assert len(s.processing) == 2
        assert len(s.waiting) == 3

    def test_drained_batches_replaced_from_waiting(self):
        s = scheduler(max_inflight=1)
        s.enqueue(FuncVec(make_batch(0), [comp("a", 10)]))
        s.enqueue(FuncVec(make_batch(1), [comp("b", 10)]))
        r1 = s.plan_round()
        assert r1.subset0[0].op.name == "a"
        drained = s.take_drained()
        assert len(drained) == 1
        r2 = s.plan_round()
        assert r2.subset0[0].op.name == "b"

    def test_primary_rotation_on_drain(self):
        """When the primary batch drains, the next batch becomes primary and
        its remaining kernels continue — the interleaving handoff."""
        s = scheduler()
        s.enqueue(FuncVec(make_batch(0), [comp("p", 20), comm("pc", 5)]))
        s.enqueue(FuncVec(make_batch(1), [comm("s1", 10), comp("s2", 30), comm("s3", 5)]))
        r1 = s.plan_round()  # p | s1
        assert [f.op.name for f in r1.subset1] == ["s1"]
        r2 = s.plan_round()  # pc | (batch1 head is now compute s2, too big? window 5)
        assert r2.subset0[0].op.name == "pc"
        r3 = s.plan_round()  # batch 0 drained; batch 1 is primary now
        assert r3.subset0[0].op.name == "s2"

    def test_invalid_max_inflight(self):
        with pytest.raises(ConfigError):
            scheduler(max_inflight=0)


class TestDecompositionIntegration:
    def _decomposer(self, d=8):
        return DecompositionPlanner(OpProfiler(v100_nvlink_node(4)), d)

    def test_oversize_decomposable_comm_is_split(self):
        node = v100_nvlink_node(4)
        prof = OpProfiler(node)
        s = scheduler(decomposer=DecompositionPlanner(prof, 8))
        big_ar = allreduce_op("bigar", 0, 8e6)
        dur = prof.duration(big_ar)
        f = KernelFunc(
            op=big_ar, duration=dur, kind=KernelKind.COMM, decomposable=True,
            occupancy=0.5, memory_intensity=0.1,
        )
        # window = half the big collective: must split.
        s.enqueue(FuncVec(make_batch(0), [comp("p", dur * 0.5), comm("pc", 5)]))
        s.enqueue(FuncVec(make_batch(1), [f, comp("x", 1)]))
        r = s.plan_round()
        assert len(r.subset1) == 1
        assert ".c" in r.subset1[0].op.name
        # remainder back at the head of batch 1
        assert ".rest" in s.processing[1].peek().op.name
        r.validate_principle1()

    def test_round_rejects_empty_primary(self):
        # An empty primary subset is a broken scheduling invariant, not a
        # user-config mistake.
        with pytest.raises(SchedulingError):
            Round(index=0, primary_kind=KernelKind.COMPUTE, subset0=[], subset1=[],
                  window=0.0, secondary_fill=0.0)

    def test_principle1_violation_detected(self):
        r = Round(
            index=0,
            primary_kind=KernelKind.COMPUTE,
            subset0=[comp("p", 10)],
            subset1=[],
            window=10.0,
            secondary_fill=15.0,
        )
        with pytest.raises(SchedulingError):
            r.validate_principle1()


# ----------------------------------------------------------------------
# Property tests: Algorithm 1 invariants over random workloads
# ----------------------------------------------------------------------
@st.composite
def random_funcvec(draw, batch_seed):
    n = draw(st.integers(min_value=1, max_value=12))
    funcs = []
    for i in range(n):
        is_comm = draw(st.booleans())
        dur = draw(st.floats(min_value=1.0, max_value=200.0))
        funcs.append(comm(f"c{batch_seed}_{i}", dur) if is_comm else comp(f"g{batch_seed}_{i}", dur))
    return FuncVec(make_batch(batch_seed), funcs)


@given(
    data=st.data(),
    num_batches=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_algorithm1_invariants(data, num_batches):
    s = LigerScheduler(
        factors=ContentionFactors(compute=1.1, comm=1.2),
    )
    vecs = [data.draw(random_funcvec(i)) for i in range(num_batches)]
    totals = {i: len(v) for i, v in enumerate(vecs)}
    for v in vecs:
        s.enqueue(v)
    popped = 0
    rounds = 0
    while (r := s.plan_round()) is not None:
        rounds += 1
        assert rounds < 200, "scheduler failed to make progress"
        # Invariant 1: primary subset is a uniform-type run.
        kinds = {f.is_comm for f in r.subset0}
        assert len(kinds) == 1
        # Invariant 2: secondary subset is entirely the opposite type.
        for f in r.subset1:
            assert f.is_comm != r.subset0[0].is_comm
        # Invariant 3 (Principle 1): anticipated fill within the window.
        r.validate_principle1()
        popped += len(r.subset0) + len(r.subset1)
    # Every kernel is scheduled exactly once; nothing lost or duplicated.
    assert popped == sum(totals.values())
    assert not s.has_work
