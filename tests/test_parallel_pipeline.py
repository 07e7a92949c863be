"""Pipeline-specific behaviour of the Inter-Op / Inter-Th strategies."""

from __future__ import annotations

import itertools

import pytest

from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.models.ops import attention_op, elementwise_op, gemm_op
from repro.parallel import InterOpStrategy, InterTheoreticalStrategy
from repro.parallel.inter_theoretical import partition_op_for_theoretical
from repro.serving import Server
from repro.serving.request import Batch, Phase, Request
from repro.serving.workload import general_trace
from repro.sim.kernel import KernelKind

MODEL = OPT_30B.scaled_layers(8)
NODE = v100_nvlink_node(4)


#: Request ids unique across batches: a server rejects a repeated rid.
_rids = itertools.count()


def fixed_batch(arrival, size=2, seq=64):
    return Batch(
        requests=[
            Request(
                rid=next(_rids), arrival=arrival, seq_len=seq,
                phase=Phase.PREFILL,
            )
            for _ in range(size)
        ]
    )


class TestPipelineStructure:
    def test_stages_execute_in_order_on_their_devices(self):
        strat = InterOpStrategy(MODEL, NODE)
        server = Server(MODEL, NODE, strat, record_trace=True, check_memory=False)
        server.run([fixed_batch(1.0)])
        trace = server.trace
        # Every device ran compute; stage s starts after stage s-1 finishes.
        stage_spans = {}
        for g in range(4):
            rows = [
                r for r in trace.rows
                if r.gpu == g and r.kind is not KernelKind.COMM
            ]
            assert rows, f"stage {g} ran nothing"
            stage_spans[g] = (min(r.start for r in rows), max(r.end for r in rows))
        for g in range(1, 4):
            assert stage_spans[g][0] >= stage_spans[g - 1][1] - 1e-6

    def test_pipeline_overlaps_consecutive_batches(self):
        strat = InterOpStrategy(MODEL, NODE)
        server = Server(MODEL, NODE, strat, record_trace=True, check_memory=False)
        b0, b1 = fixed_batch(1.0), fixed_batch(2.0)
        server.run([b0, b1])
        trace = server.trace
        # While stage 1 runs the first batch, stage 0 must already run the
        # second — that concurrency is the whole point of pipelining.
        g0_b1 = [r for r in trace.rows if r.gpu == 0 and r.batch_id == b1.batch_id
                 and r.kind is not KernelKind.COMM]
        g1_b0 = [r for r in trace.rows if r.gpu == 1 and r.batch_id == b0.batch_id
                 and r.kind is not KernelKind.COMM]
        assert g0_b1 and g1_b0
        assert min(r.start for r in g0_b1) < max(r.end for r in g1_b0)

    def test_latency_roughly_single_device_traversal(self):
        """Inter-op latency ≈ whole-model time on one device + transfers;
        it must exceed 0.9× the intra-op 4-GPU latency × ~3 (the paper's
        'cannot improve latency' claim, loosely bounded)."""
        from repro.parallel import IntraOpStrategy

        inter = Server(
            MODEL, NODE, InterOpStrategy(MODEL, NODE), check_memory=False
        ).run([fixed_batch(1.0)])
        intra = Server(
            MODEL, NODE, IntraOpStrategy(MODEL, NODE), check_memory=False
        ).run([fixed_batch(1.0)])
        assert inter.avg_latency_ms > 1.5 * intra.avg_latency_ms


class TestInterTheoreticalPartitioning:
    def test_gemm_column_split(self):
        op = gemm_op("qkv", 0, 128, 1024, 3072, split_dim="n")
        shards = partition_op_for_theoretical(op, 4)
        assert len(shards) == 4
        assert all(s.gemm_shape == (128, 1024, 768) for s in shards)

    def test_gemm_row_split(self):
        op = gemm_op("proj", 0, 128, 4096, 1024, split_dim="k")
        shards = partition_op_for_theoretical(op, 4)
        assert all(s.gemm_shape == (128, 1024, 1024) for s in shards)

    def test_attention_head_split(self):
        op = attention_op("a", 0, batch=2, q_len=8, ctx_len=8, heads=8, head_dim=64)
        shards = partition_op_for_theoretical(op, 4)
        assert len(shards) == 4
        assert all(s.attn_heads == 2 for s in shards)

    def test_replicated_ops_unchanged(self):
        op = elementwise_op("ln", 0, 1e5)
        assert partition_op_for_theoretical(op, 4) == [op]

    def test_tp1_identity(self):
        op = gemm_op("g", 0, 8, 16, 16, split_dim="n")
        assert partition_op_for_theoretical(op, 1) == [op]

    def test_indivisible_rejected(self):
        from repro.errors import ConfigError

        op = gemm_op("g", 0, 8, 16, 30, split_dim="n")
        with pytest.raises(ConfigError):
            partition_op_for_theoretical(op, 4)

    def test_inter_th_runs_more_kernels_than_inter_op(self):
        th = InterTheoreticalStrategy(MODEL, NODE)
        op = InterOpStrategy(MODEL, NODE)
        batches = general_trace(4, 20.0, 2, seed=0)
        s1 = Server(MODEL, NODE, th, record_trace=True, check_memory=False)
        r1 = s1.run(batches)
        batches2 = general_trace(4, 20.0, 2, seed=0)
        s2 = Server(MODEL, NODE, op, record_trace=True, check_memory=False)
        r2 = s2.run(batches2)
        assert len(r1.trace.rows) > len(r2.trace.rows)
