"""Integration tests: all four strategies serving real workloads.

Uses a layer-reduced OPT-30B (the paper's own trick for feasibility studies,
§2.2: "reducing layer number will not impact the computational and
communication features") so each serving run stays fast, and asserts the
*shapes* the paper reports rather than absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.core import LigerConfig, SyncMode
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.obs import gpu_attribution
from repro.parallel import (
    InterleavedStrategy,
    InterOpStrategy,
    InterTheoreticalStrategy,
    IntraOpStrategy,
)
from repro.profiling.contention_profiler import ContentionFactors
from repro.serving import Server
from repro.serving.workload import general_trace, generative_trace

MODEL = OPT_30B.scaled_layers(8)
NODE = v100_nvlink_node(4)

#: Pinned factors so tests skip the (slower) offline profiling pass.
FACTORS = ContentionFactors(compute=1.05, comm=1.12)


def run(strategy_cls, rate, n=24, batch=2, *, workload="general", **kwargs):
    if strategy_cls is InterleavedStrategy:
        kwargs.setdefault("config", LigerConfig(contention_factors=FACTORS))
    strat = strategy_cls(MODEL, NODE, **kwargs)
    if workload == "general":
        batches = general_trace(n, rate, batch, seed=11)
    else:
        batches = generative_trace(n, rate, batch_size=batch, context_len=16)
    server = Server(MODEL, NODE, strat, check_memory=False)
    return server.run(batches)


class TestEachStrategyServes:
    @pytest.mark.parametrize(
        "cls",
        [IntraOpStrategy, InterOpStrategy, InterTheoreticalStrategy, InterleavedStrategy],
    )
    def test_all_requests_complete(self, cls):
        result = run(cls, rate=20)
        assert result.num_requests == 24
        assert result.metrics.num_completed == 24
        assert result.avg_latency_ms > 0
        assert result.throughput > 0

    @pytest.mark.parametrize(
        "cls",
        [IntraOpStrategy, InterOpStrategy, InterleavedStrategy],
    )
    def test_generative_workload_serves(self, cls):
        result = run(cls, rate=200, n=128, batch=32, workload="generative")
        assert result.metrics.num_completed == 128

    def test_deterministic_replay(self):
        a = run(IntraOpStrategy, rate=30)
        b = run(IntraOpStrategy, rate=30)
        assert a.avg_latency_ms == b.avg_latency_ms
        assert a.throughput == b.throughput


class TestPaperShapes:
    """The qualitative relationships every figure depends on."""

    def test_intra_latency_beats_inter_at_low_rate(self):
        intra = run(IntraOpStrategy, rate=5)
        inter = run(InterOpStrategy, rate=5)
        assert intra.avg_latency_ms < inter.avg_latency_ms

    def test_inter_throughput_beats_intra_at_saturation(self):
        intra = run(IntraOpStrategy, rate=400, n=40)
        inter = run(InterOpStrategy, rate=400, n=40)
        assert inter.throughput > intra.throughput

    def test_liger_matches_intra_latency_at_low_rate(self):
        liger = run(InterleavedStrategy, rate=5)
        intra = run(IntraOpStrategy, rate=5)
        assert liger.avg_latency_ms <= intra.avg_latency_ms * 1.10

    def test_liger_throughput_beats_intra_at_saturation(self):
        liger = run(InterleavedStrategy, rate=400, n=40)
        intra = run(IntraOpStrategy, rate=400, n=40)
        assert liger.throughput > intra.throughput * 1.05

    def test_liger_latency_beats_inter_before_saturation(self):
        liger = run(InterleavedStrategy, rate=100, n=40)
        inter = run(InterOpStrategy, rate=100, n=40)
        assert liger.avg_latency_ms < inter.avg_latency_ms


class TestLigerInternals:
    def test_overlap_actually_happens(self):
        strat = InterleavedStrategy(
            MODEL, NODE, config=LigerConfig(contention_factors=FACTORS)
        )
        server = Server(MODEL, NODE, strat, check_memory=False)
        server.run(general_trace(32, 300, 2, seed=4))
        assert strat.stats.rounds_launched > 0
        assert strat.stats.mean_fill_fraction > 0.1
        # trace-level evidence: comm overlapped with compute on GPU 0
        assert gpu_attribution(server.trace)[0].overlap_us > 0

    def test_lone_batch_has_no_secondary_fill(self):
        strat = InterleavedStrategy(
            MODEL, NODE, config=LigerConfig(contention_factors=FACTORS)
        )
        server = Server(MODEL, NODE, strat, check_memory=False)
        server.run(general_trace(2, 1.0, 2, seed=4))  # one batch total
        assert strat.stats.total_fill == 0.0

    def test_decomposition_used_under_pressure(self):
        strat = InterleavedStrategy(
            MODEL,
            NODE,
            config=LigerConfig(contention_factors=FACTORS, division_factor=8),
        )
        server = Server(MODEL, NODE, strat, check_memory=False)
        server.run(general_trace(48, 400, 2, seed=4))
        assert strat.stats.decomposed_pieces > 0

    @pytest.mark.parametrize("mode", list(SyncMode))
    def test_all_sync_modes_complete(self, mode):
        result = run(
            InterleavedStrategy,
            rate=100,
            config=LigerConfig(sync_mode=mode, contention_factors=FACTORS),
        )
        assert result.metrics.num_completed == 24

    def test_hybrid_beats_cpu_gpu_sync(self):
        """Fig. 13's shape."""
        hybrid = run(
            InterleavedStrategy,
            rate=150,
            n=40,
            config=LigerConfig(sync_mode=SyncMode.HYBRID, contention_factors=FACTORS),
        )
        cpu = run(
            InterleavedStrategy,
            rate=150,
            n=40,
            config=LigerConfig(sync_mode=SyncMode.CPU_GPU, contention_factors=FACTORS),
        )
        assert hybrid.avg_latency_ms < cpu.avg_latency_ms
        assert hybrid.throughput >= cpu.throughput * 0.98

    def test_inter_th_differs_from_inter_op(self):
        """Inter-Th reprices stage kernels; results must differ measurably."""
        th = run(InterTheoreticalStrategy, rate=100, n=40)
        op = run(InterOpStrategy, rate=100, n=40)
        assert th.avg_latency_ms != op.avg_latency_ms
