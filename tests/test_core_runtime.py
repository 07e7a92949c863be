"""Direct tests of the Liger runtime: round chaining, sync modes, stats."""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

import pytest

from repro.core import LigerConfig, SyncMode
from repro.core.scheduler import Round
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.parallel import InterleavedStrategy
from repro.profiling.contention_profiler import ContentionFactors
from repro.serving import Server
from repro.serving.request import Batch, Phase, Request
from repro.serving.workload import general_trace
from repro.sim.kernel import KernelKind

MODEL = OPT_30B.scaled_layers(4)
NODE = v100_nvlink_node(4)
FACTORS = ContentionFactors(compute=1.05, comm=1.10)


def make_strategy(**cfg_kwargs):
    cfg_kwargs.setdefault("contention_factors", FACTORS)
    return InterleavedStrategy(MODEL, NODE, config=LigerConfig(**cfg_kwargs))


def run(strategy, batches):
    server = Server(MODEL, NODE, strategy, check_memory=False)
    return server.run(batches), server


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


class TestRoundChain:
    def test_chain_restarts_after_idle(self):
        """Two batches separated by a long idle gap: the round chain must
        stop at quiescence and restart at the second arrival."""
        strat = make_strategy()
        b1 = fixed_batch(arrival=1.0)
        b2 = fixed_batch(arrival=5e6)  # 5 seconds later
        result, _ = run(strat, [b1, b2])
        assert result.metrics.num_completed == 4
        # Both batches executed alone: latencies nearly identical.
        lats = sorted(r.latency for r in result.metrics.completed)
        assert lats[0] == pytest.approx(lats[-1], rel=0.01)

    def test_rounds_alternate_primary_kind(self):
        strat = make_strategy()
        run(strat, [fixed_batch(1.0)])
        stats = strat.stats
        # A 4-layer model has ~9 type switches per layer pass; at least a
        # handful of rounds must have been planned.
        assert stats.rounds_launched >= 2 * MODEL.num_layers

    def test_kernels_launched_counts_all_gpu_instances(self):
        """Every KernelFunc becomes num_gpus simulator kernels: the runtime,
        the host and the machine count each rank's copy once, all-reduces
        included."""
        for mode in (SyncMode.HYBRID, SyncMode.CPU_GPU):
            strat = make_strategy(sync_mode=mode)
            _, server = run(strat, [fixed_batch(1.0), fixed_batch(2.0)])
            launched = strat.stats.kernels_launched
            assert launched > 0 and launched % NODE.num_gpus == 0
            assert server.host.launches_issued == launched
            assert server.machine.kernels_completed == launched

    def test_intra_op_launches_equal_completions(self):
        from repro.parallel import IntraOpStrategy

        strat = IntraOpStrategy(MODEL, NODE)
        _, server = run(strat, [fixed_batch(1.0), fixed_batch(2.0)])
        launched = server.host.launches_issued
        assert launched > 0 and launched % NODE.num_gpus == 0
        assert server.machine.kernels_completed == launched

    def test_single_batch_rounds_have_empty_secondary(self):
        strat = make_strategy()
        run(strat, [fixed_batch(1.0)])
        assert strat.stats.total_fill == 0.0
        assert strat.stats.mean_fill_fraction == 0.0

    def test_overlapping_batches_fill_windows(self):
        strat = make_strategy()
        batches = [fixed_batch(1.0), fixed_batch(2.0), fixed_batch(3.0)]
        run(strat, batches)
        assert strat.stats.total_fill > 0.0


class TestSyncModes:
    @pytest.mark.parametrize("mode", list(SyncMode))
    def test_results_complete_under_all_modes(self, mode):
        strat = make_strategy(sync_mode=mode)
        result, _ = run(strat, general_trace(12, 200.0, 2, seed=3))
        assert result.metrics.num_completed == 12

    def test_hybrid_faster_than_cpu_gpu_under_load(self):
        res = {}
        for mode in (SyncMode.HYBRID, SyncMode.CPU_GPU):
            strat = make_strategy(sync_mode=mode)
            result, _ = run(strat, general_trace(16, 500.0, 2, seed=3))
            res[mode] = result.avg_latency_ms
        assert res[SyncMode.HYBRID] < res[SyncMode.CPU_GPU]


class TestPrinciple1Runtime:
    def test_primary_latency_insensitive_to_subsequent_batches(self):
        """Principle 1 end-to-end: the first batch's latency must hardly
        change when later batches are interleaved under it."""
        alone = make_strategy()
        r1, _ = run(alone, [fixed_batch(1.0)])
        lat_alone = max(r.latency for r in r1.metrics.completed)

        crowded = make_strategy()
        batches = [fixed_batch(1.0)] + [fixed_batch(2.0 + i) for i in range(3)]
        r2, _ = run(crowded, batches)
        first_batch_lat = min(
            (max(req.latency for req in b.requests), b)
            for b in batches
        )[0]
        # Contention stretches the primary a little; bound it tightly.
        assert first_batch_lat <= lat_alone * 1.12

    def test_anticipation_reduces_round_overrun(self):
        """With factors, the secondary's *anticipated* fill is conservative;
        runtime stats must respect the window bound."""
        strat = make_strategy()
        run(strat, [fixed_batch(1.0), fixed_batch(2.0), fixed_batch(3.0)])
        assert strat.stats.total_fill <= strat.stats.total_window + 1e-6

    def test_every_launched_round_is_validated(self, monkeypatch):
        """Steady decode repeats the same round shapes; each one must still
        pass the Principle-1 check before it launches."""
        from repro.models import MODELS
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy as make_serving_strategy

        model = MODELS["OPT-13B"].scaled_layers(2)
        node = v100_nvlink_node(2)
        strat = make_serving_strategy("liger", model, node, config=LigerConfig())
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2,
            record_trace=False, check_memory=False,
        )
        validate = Round.validate_principle1
        validated = []

        def counting(round_):
            validated.append(round_.index)
            validate(round_)

        monkeypatch.setattr(Round, "validate_principle1", counting)
        srv.run(
            generation_workload(
                24, 1200.0, context_len=16, gen_tokens=(1, 1), seed=0
            )
        )
        assert validated
        assert len(validated) == strat.stats.rounds_launched

    @pytest.mark.parametrize("straggler", [False, True], ids=["empty-plan", "straggler"])
    def test_monitor_judges_every_launched_round_once(self, straggler, monkeypatch):
        """A round is judged when its last end event records: after a
        drained run every launched round has been judged exactly once."""
        from repro.core.runtime import PrincipleMonitor
        from repro.faults.plan import FaultPlan, GpuStraggler

        judge = PrincipleMonitor._judge
        judged = []

        def counting(self, index, window, end_events):
            judged.append(index)
            judge(self, index, window, end_events)

        monkeypatch.setattr(PrincipleMonitor, "_judge", counting)
        faults = [GpuStraggler(start=0, end=20_000, gpu=1, factor=2.0)]
        strat = make_strategy()
        server = Server(
            MODEL, NODE, strat, check_memory=False,
            fault_plan=FaultPlan(faults if straggler else []),
        )
        result = server.run(general_trace(16, 2000.0, 2, seed=0))
        assert result.metrics.num_completed == 16
        launched = strat.stats.rounds_launched
        assert result.resilience.rounds_observed == launched
        assert sorted(judged) == sorted(set(judged)) and len(judged) == launched
        if straggler:
            assert result.resilience.violations > 0


class TestMemoryAwareAdmission:
    def test_interleaving_depth_bounded_by_hbm(self):
        """The fig11-full regression: batch-32 decode on the V100 node has
        ~1 GB of free HBM after weights — 4-deep interleaving plus boundary
        overlap used to OOM.  Admission control must throttle instead."""
        from repro.experiments.harness import ExperimentRunner
        from repro.hw import v100_nvlink_node

        node = v100_nvlink_node(4)
        runner = ExperimentRunner(
            OPT_30B, node, figure="t", contention_factors=FACTORS
        )
        cap = runner.saturation_rate(32, workload="generative")
        record, _ = runner.run_point(
            "liger", cap * 1.3, num_requests=8 * 32, batch_size=32,
            workload="generative",
        )
        assert record.throughput > 0  # completed without OutOfMemoryError

    def test_admission_check_reserves_or_declines_cleanly(self):
        from repro.core.assembly import FuncVec, KernelFunc
        from repro.models.ops import gemm_op
        from repro.serving import Server
        from repro.sim.kernel import KernelKind

        strat = make_strategy()
        Server(MODEL, NODE, strat, check_memory=False)
        batch = fixed_batch(1.0)
        batch.number(0)
        fv = FuncVec(
            batch,
            [
                KernelFunc(
                    op=gemm_op("g", 0, 128, 512, 512), duration=10.0,
                    kind=KernelKind.COMPUTE, decomposable=False,
                    occupancy=0.5, memory_intensity=0.1,
                )
            ],
        )
        strat.register_batch(batch)
        assert strat._admit_memory(fv) is True
        assert batch.batch_id in strat._memory_reserved
        # Second call is idempotent (already reserved).
        assert strat._admit_memory(fv) is True

        # Exhaust memory: the check declines without leaking a reservation.
        strat.memory.reserve("hog", strat.memory.devices[0].available * 0.999)
        batch2 = fixed_batch(2.0, size=8, seq=128)
        batch2.number(1)
        fv2 = FuncVec(
            batch2,
            [
                KernelFunc(
                    op=gemm_op("g2", 0, 1024, 512, 512), duration=10.0,
                    kind=KernelKind.COMPUTE, decomposable=False,
                    occupancy=0.5, memory_intensity=0.1,
                )
            ],
        )
        strat.register_batch(batch2)
        assert strat._admit_memory(fv2) is False
        assert batch2.batch_id not in strat._memory_reserved
        assert not any(
            d.holds(f"batch{batch2.batch_id}") for d in strat.memory.devices
        )

    def test_blocked_batch_admitted_after_release(self):
        """A batch parked by the memory gate must run once memory frees."""
        strat = make_strategy()
        result, server = run(
            strat,
            [fixed_batch(1.0, size=8, seq=128) for _ in range(6)],
        )
        assert result.metrics.num_completed == 6 * 8


class TestDecomposedPieces:
    """``RuntimeStats.decomposed_pieces`` counts the splits themselves,
    not op names that look like pieces."""

    @staticmethod
    def _rename(strat):
        """Rename every op with a ``.cproj`` suffix, as a model whose op
        names contain the collective-piece marker ``.c`` would."""
        ops_for = strat._enumerate_ops
        strat._enumerate_ops = lambda b, tp, layers: tuple(
            replace(op, name=f"{op.name}.cproj") for op in ops_for(b, tp, layers)
        )

    def test_whole_kernels_named_like_pieces_are_not_counted(self):
        strat = make_strategy(enable_decomposition=False)
        self._rename(strat)
        run(strat, general_trace(12, 400.0, 2, seed=1))
        assert strat.stats.total_fill > 0.0  # whole kernels filled windows
        assert strat.stats.decomposed_pieces == 0

    def test_every_split_piece_is_counted_once(self):
        strat = make_strategy()
        self._rename(strat)
        _, server = run(strat, general_trace(48, 400.0, 2, seed=4))
        pieces = [
            row for row in server.trace.rows
            if row.gpu == 0 and re.search(r"\.[vc]\d+/\d+_b", row.name)
        ]
        assert strat.stats.decomposed_pieces == len(pieces) > 0


class TestConfigSurface:
    def test_division_factor_one_disables_decomposition(self):
        strat = make_strategy(division_factor=1)
        run(strat, general_trace(12, 400.0, 2, seed=1))
        assert strat.stats.decomposed_pieces == 0

    def test_decomposition_disabled_flag(self):
        strat = make_strategy(enable_decomposition=False)
        run(strat, general_trace(12, 400.0, 2, seed=1))
        assert strat.stats.decomposed_pieces == 0

    def test_invalid_config_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LigerConfig(max_inflight=0)
        with pytest.raises(ConfigError):
            LigerConfig(division_factor=0)
        with pytest.raises(ConfigError):
            LigerConfig(sync_mode="hybrid")  # must be the enum

    def test_max_inflight_bounds_processing_list(self):
        strat = make_strategy(max_inflight=2)
        result, _ = run(strat, general_trace(16, 2000.0, 2, seed=1))
        assert result.metrics.num_completed == 16
        # The scheduler never held more than 2 batches in processing.
        assert strat.runtime.scheduler.max_inflight == 2

    def test_anticipator_scaling(self):
        """The configured factors reach the scheduler, which scales each
        secondary kernel by its class's factor."""
        factors = ContentionFactors(compute=1.2, comm=1.5)
        assert 10.0 * factors.for_kind(KernelKind.COMM) == pytest.approx(15.0)
        assert 10.0 * factors.for_kind(KernelKind.COMPUTE) == pytest.approx(12.0)
        strat = make_strategy(contention_factors=factors)
        run(strat, [fixed_batch(0.0)])
        assert strat.runtime.scheduler.factors is factors
