"""The strategies' op memo against its cold computation.

``ParallelStrategy.ops_for_batch`` memoizes each batch shape's op tuple
(``parallel/base.py``, LRU-bounded at ``CACHE_SIZE``).  Every path that
reads it — Intra-Op, the Inter-Op and Inter-Th stage ranges, and the Liger
assembler's miss path — must see exactly the ops a fresh enumeration of
the model yields.
"""

from __future__ import annotations

import pytest

from repro.core.assembly import FunctionAssembler
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
from repro.parallel.base import CACHE_SIZE
from repro.parallel.inter_theoretical import partition_op_for_theoretical
from repro.serving.request import Batch, Phase, Request

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
    """The cold enumeration the memo must reproduce."""
    if b.phase is Phase.PREFILL:
        return tuple(prefill_ops(model, b.size, b.seq_len, tp, layers=layers))
    return tuple(decode_step_ops(model, b.size, b.context_len, tp, layers=layers))


SHAPES = [
    pytest.param(dict(phase=Phase.PREFILL, size=2, seq=64), id="prefill"),
    pytest.param(dict(phase=Phase.DECODE, size=4, seq=1, context=96), id="decode"),
]


@pytest.mark.parametrize("shape", SHAPES)
def test_intra_op_memo_equals_a_fresh_enumeration(shape):
    strat = IntraOpStrategy(MODEL, NODE)
    first = strat.ops_for_batch(batch(**shape), tp=TP)
    hit = strat.ops_for_batch(batch(**shape), tp=TP)
    assert isinstance(first, tuple)
    assert hit is first
    assert first == fresh(batch(**shape), TP)


@pytest.mark.parametrize("shape", SHAPES)
def test_inter_op_stage_ranges_equal_a_fresh_enumeration(shape):
    strat = InterOpStrategy(MODEL, NODE)
    b = batch(**shape)
    for stage in strat.stages:
        ops = strat.stage_ops(b, stage)
        assert ops == fresh(b, 1, layers=stage.layers)
        assert strat.stage_ops(batch(**shape), stage) is ops
    # One entry per stage: the layer range is part of the key.
    assert len(strat._ops_memo) == len(strat.stages)


@pytest.mark.parametrize("shape", SHAPES)
def test_inter_th_shards_the_memoized_stage_ops(shape):
    strat = InterTheoreticalStrategy(MODEL, NODE)
    b = batch(**shape)
    for stage in strat.stages:
        want = [
            shard
            for op in fresh(b, 1, layers=stage.layers)
            for shard in partition_op_for_theoretical(op, strat.tp)
        ]
        assert strat.stage_ops(b, stage) == want
        assert strat.stage_ops(b, stage) == want  # warm


@pytest.mark.parametrize("shape", SHAPES)
def test_liger_assembler_miss_path_reads_a_fresh_enumeration(shape):
    strat = InterleavedStrategy(MODEL, NODE)
    assembler = FunctionAssembler(strat._batch_ops, strat.profiler)
    b = batch(**shape)
    vec = assembler.assemble(b)
    assert assembler.cache_misses == 1
    ops = []
    while not vec.empty:
        ops.append(vec.pop().op)
    assert tuple(ops) == fresh(b, TP)
    (memoized,) = strat._ops_memo.values()
    assert all(got is want for got, want in zip(ops, memoized))


def test_tp_and_layers_are_part_of_the_key():
    strat = IntraOpStrategy(MODEL, NODE)
    b = batch()
    whole = strat.ops_for_batch(b, tp=TP)
    assert strat.ops_for_batch(b, tp=1) == fresh(b, 1)
    sliced = strat.ops_for_batch(b, tp=TP, layers=range(2, 4))
    assert sliced == fresh(b, TP, layers=range(2, 4))
    # A list and a range over the same layers share one entry.
    assert strat.ops_for_batch(b, tp=TP, layers=[2, 3]) is sliced
    assert strat.ops_for_batch(b, tp=TP) is whole
    assert len(strat._ops_memo) == 3


def test_least_recently_used_shape_is_evicted_past_the_bound():
    model = OPT_30B.scaled_layers(1)
    strat = IntraOpStrategy(model, NODE)
    first = {
        seq: strat.ops_for_batch(batch(size=1, seq=seq), tp=TP)
        for seq in range(1, CACHE_SIZE + 1)
    }
    assert len(strat._ops_memo) == CACHE_SIZE
    strat.ops_for_batch(batch(size=1, seq=1), tp=TP)  # a hit refreshes seq 1
    strat.ops_for_batch(batch(size=1, seq=CACHE_SIZE + 1), tp=TP)  # evicts seq 2
    assert len(strat._ops_memo) == CACHE_SIZE
    assert strat.ops_for_batch(batch(size=1, seq=1), tp=TP) is first[1]
    again = strat.ops_for_batch(batch(size=1, seq=2), tp=TP)
    assert again is not first[2]
    assert again == first[2] == fresh(batch(size=1, seq=2), TP, model=model)
