"""The strategies' launch-list cache against its cold computation.

``ParallelStrategy.launch_list`` caches each batch shape's tuple of
profiled :class:`~repro.parallel.base.KernelFunc` records
(``parallel/base.py``, LRU-bounded at ``CACHE_SIZE``).  It is the one
shape-keyed cache on the launch path: Intra-Op, the Inter-Op and Inter-Th
stage ranges, and Liger's function assembly all read it, and every record
must equal a fresh enumeration of the model profiled by a fresh profiler.
"""

from __future__ import annotations

import pytest

from repro.core.assembly import FuncVec
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.models.kvcache import decode_step_ops
from repro.models.transformer import prefill_ops
from repro.parallel import (
    InterleavedStrategy,
    InterOpStrategy,
    InterTheoreticalStrategy,
    IntraOpStrategy,
)
from repro.parallel.base import CACHE_SIZE, KernelFunc
from repro.parallel.inter_theoretical import partition_op_for_theoretical
from repro.profiling import OpProfiler
from repro.serving import Server
from repro.serving.request import Batch, Phase, Request
from repro.serving.workload import general_trace

MODEL = OPT_30B.scaled_layers(8)
NODE = v100_nvlink_node(4)
TP = NODE.num_gpus


def batch(phase=Phase.PREFILL, size=2, seq=64, context=0):
    return Batch(
        requests=[
            Request(rid=i, arrival=0.0, seq_len=seq, phase=phase, context_len=context)
            for i in range(size)
        ]
    )


def fresh(b, tp, layers=None, model=MODEL):
    """The cold enumeration the cache must reproduce."""
    if b.phase is Phase.PREFILL:
        return tuple(prefill_ops(model, b.size, b.seq_len, tp, layers=layers))
    return tuple(decode_step_ops(model, b.size, b.context_len, tp, layers=layers))


def cold_records(strat, ops):
    """Each op's record as a profiler that never saw it measures it."""
    cold = OpProfiler(NODE, nccl=strat.profiler.nccl)
    return tuple(
        KernelFunc(
            op, cold.duration(op), op.kind, op.decomposable,
            *cold.kernel_profile(op)[1:],
        )
        for op in ops
    )


SHAPES = [
    pytest.param(dict(phase=Phase.PREFILL, size=2, seq=64), id="prefill"),
    pytest.param(dict(phase=Phase.DECODE, size=4, seq=1, context=96), id="decode"),
]


@pytest.mark.parametrize("shape", SHAPES)
def test_intra_op_memo_equals_a_fresh_enumeration(shape):
    strat = IntraOpStrategy(MODEL, NODE)
    first = strat.launch_list(batch(**shape), tp=TP)
    hit = strat.launch_list(batch(**shape), tp=TP)
    assert isinstance(first, tuple)
    assert hit is first
    assert first == cold_records(strat, fresh(batch(**shape), TP))
    assert (strat.cache_hits, strat.cache_misses) == (1, 1)


@pytest.mark.parametrize("shape", SHAPES)
def test_inter_op_stage_ranges_equal_a_fresh_enumeration(shape):
    strat = InterOpStrategy(MODEL, NODE)
    b = batch(**shape)
    for stage in strat.stages:
        funcs = strat.stage_funcs(b, stage)
        assert funcs == cold_records(strat, fresh(b, 1, layers=stage.layers))
        assert strat.stage_funcs(batch(**shape), stage) is funcs
    # One entry per stage: the layer range is part of the key.
    assert len(strat._launch_lists) == len(strat.stages)


@pytest.mark.parametrize("shape", SHAPES)
def test_inter_th_shards_the_memoized_stage_ops(shape):
    strat = InterTheoreticalStrategy(MODEL, NODE)
    b = batch(**shape)
    for stage in strat.stages:
        shards = [
            shard
            for op in fresh(b, 1, layers=stage.layers)
            for shard in partition_op_for_theoretical(op, strat.tp)
        ]
        want = cold_records(strat, shards)
        assert strat.stage_funcs(b, stage) == want
        assert strat.stage_funcs(b, stage) == want  # warm
    assert strat.cache_misses == len(strat.stages)


@pytest.mark.parametrize("shape", SHAPES)
def test_liger_assembler_miss_path_reads_a_fresh_enumeration(shape):
    strat = InterleavedStrategy(MODEL, NODE)
    b = batch(**shape)
    vec = FuncVec(b, strat._batch_funcs(b))
    assert strat.cache_misses == 1
    funcs = []
    while not vec.empty:
        funcs.append(vec.pop())
    assert tuple(funcs) == cold_records(strat, fresh(b, TP))
    # Liger's reduced NCCL config reaches the collectives' records.
    assert strat.profiler.nccl != OpProfiler(NODE).nccl
    (cached,) = strat._launch_lists.values()
    assert all(got is want for got, want in zip(funcs, cached))


def test_hit_equals_cold_build():
    """A hit hands the next batch of the shape the same tuple, whose
    records equal a cold build's field for field."""
    warm = InterleavedStrategy(MODEL, NODE)
    first = warm._batch_funcs(batch())
    hit = warm._batch_funcs(batch())
    cold = InterleavedStrategy(MODEL, NODE)._batch_funcs(batch())
    assert (warm.cache_hits, warm.cache_misses) == (1, 1)
    assert hit is first and cold is not first
    assert hit == cold


def test_tp_and_layers_are_part_of_the_key():
    strat = IntraOpStrategy(MODEL, NODE)
    b = batch()
    whole = strat.launch_list(b, tp=TP)
    assert strat.launch_list(b, tp=1) == cold_records(strat, fresh(b, 1))
    sliced = strat.launch_list(b, tp=TP, layers=range(2, 4))
    assert sliced == cold_records(strat, fresh(b, TP, layers=range(2, 4)))
    # A list and a range over the same layers share one entry.
    assert strat.launch_list(b, tp=TP, layers=[2, 3]) is sliced
    assert strat.launch_list(b, tp=TP) is whole
    assert len(strat._launch_lists) == 3
    assert (strat.cache_hits, strat.cache_misses) == (2, 3)


def test_least_recently_used_shape_is_evicted_past_the_bound():
    model = OPT_30B.scaled_layers(1)
    strat = IntraOpStrategy(model, NODE)
    first = {
        seq: strat.launch_list(batch(size=1, seq=seq), tp=TP)
        for seq in range(1, CACHE_SIZE + 1)
    }
    assert len(strat._launch_lists) == CACHE_SIZE
    assert strat.cache_evictions == 0
    strat.launch_list(batch(size=1, seq=1), tp=TP)  # a hit refreshes seq 1
    strat.launch_list(batch(size=1, seq=CACHE_SIZE + 1), tp=TP)  # evicts seq 2
    assert len(strat._launch_lists) == CACHE_SIZE
    assert strat.cache_evictions == 1
    assert strat.launch_list(batch(size=1, seq=1), tp=TP) is first[1]
    again = strat.launch_list(batch(size=1, seq=2), tp=TP)  # a miss again
    assert again is not first[2]
    assert again == first[2]
    assert again == cold_records(strat, fresh(batch(size=1, seq=2), TP, model=model))
    assert strat.cache_misses == CACHE_SIZE + 2
    assert strat.cache_evictions == 2


@pytest.mark.parametrize("strategy", ["liger", "intra"])
def test_one_lookup_per_assembled_batch(strategy):
    """Each batch costs exactly one cache lookup, hit or miss."""
    cls = InterleavedStrategy if strategy == "liger" else IntraOpStrategy
    model = OPT_30B.scaled_layers(2)
    strat = cls(model, NODE)
    batches = general_trace(24, 400.0, 2, seq_range=(32, 40), seed=3)
    lookups = []
    real = strat.launch_list

    def counted(b, tp, layers=None):
        lookups.append(b.batch_id)
        return real(b, tp, layers)

    strat.launch_list = counted
    result = Server(model, NODE, strat, check_memory=False).run(batches)
    assert result.metrics.num_completed == 24
    assert sorted(lookups) == sorted(b.batch_id for b in batches)
    assert strat.cache_hits + strat.cache_misses == len(batches)
    assert strat.cache_hits > 0


def cold_launch_list(strat, key):
    """The records a cache key stands for, enumerated and profiled cold."""
    phase, size, seq_len, context_len, tp, layers = key
    if phase is Phase.PREFILL:
        ops = prefill_ops(strat.model, size, seq_len, tp, layers=layers)
    else:
        ops = decode_step_ops(strat.model, size, context_len, tp, layers=layers)
    return cold_records(strat, ops)


@pytest.mark.parametrize("strategy", ["liger", "intra"])
def test_served_records_still_equal_a_cold_enumeration(strategy):
    """Records and their ops are shared read-only and not frozen: after a
    run that splits kernels (§3.6) and instantiates every record, each
    cached record still equals a cold enumeration profiled by a fresh
    profiler, field for field."""
    cls = InterleavedStrategy if strategy == "liger" else IntraOpStrategy
    model = OPT_30B.scaled_layers(4)
    strat = cls(model, NODE)
    batches = general_trace(24, 1000.0, 2, seq_range=(16, 96), seed=3)
    result = Server(model, NODE, strat, check_memory=False).run(batches)
    assert result.metrics.num_completed == 24
    if strategy == "liger":
        assert strat.runtime.stats.decomposed_pieces > 0
    assert len(strat._launch_lists) > 1
    for key, funcs in strat._launch_lists.items():
        assert funcs == cold_launch_list(strat, key), key
