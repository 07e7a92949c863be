"""Unit tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the declarative plan (validation, window queries, determinism), the
injector's hook-site semantics (piecewise rate inflation, link degradation,
launch failures, host jitter), the engine heartbeat, the livelock watchdog,
the recovery configuration, and the CLI spec parser.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, DeadlockError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    GpuStraggler,
    HostJitter,
    LaunchFailure,
    LinkDegradation,
    plan_from_specs,
)
from repro.faults.resilience import ResilienceConfig
from repro.faults.watchdog import STALL_TIMEOUT_US, Watchdog
from repro.hw import v100_nvlink_node
from repro.sim.engine import Engine
from repro.sim.gpu import Machine
from repro.sim.kernel import Kernel, KernelKind


def _machine(num_gpus=4):
    return Machine(v100_nvlink_node(num_gpus), Engine())


def k(name, dur=100.0, kind=KernelKind.COMPUTE, occ=0.5, batch_id=0):
    return Kernel(
        name=name, kind=kind, duration=dur, occupancy=occ, batch_id=batch_id
    )


class TestPlanValidation:
    def test_empty_or_inverted_window_rejected(self):
        with pytest.raises(ConfigError):
            GpuStraggler(start=10.0, end=10.0)
        with pytest.raises(ConfigError):
            LinkDegradation(start=10.0, end=5.0)
        with pytest.raises(ConfigError):
            LaunchFailure(start=-1.0, end=5.0)

    def test_parameter_ranges_enforced(self):
        with pytest.raises(ConfigError):
            GpuStraggler(start=0.0, end=1.0, factor=0.5)  # a speed-up
        with pytest.raises(ConfigError):
            LinkDegradation(start=0.0, end=1.0, fraction=0.0)
        with pytest.raises(ConfigError):
            LinkDegradation(start=0.0, end=1.0, fraction=1.5)
        with pytest.raises(ConfigError):
            HostJitter(start=0.0, end=1.0, amplitude=-1.0)

    def test_non_fault_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(["not a fault"])

    def test_overlapping_same_target_windows_rejected(self):
        # Two straggler windows on the same GPU may not overlap; the error
        # names both offending windows.
        with pytest.raises(ConfigError, match=r"overlap.*gpu=1.*gpu=1"):
            FaultPlan(
                [
                    GpuStraggler(start=0.0, end=100.0, gpu=1, factor=2.0),
                    GpuStraggler(start=50.0, end=150.0, gpu=1, factor=3.0),
                ]
            )
        # The single shared link is one target.
        with pytest.raises(ConfigError, match="overlap"):
            FaultPlan(
                [
                    LinkDegradation(start=0.0, end=100.0, fraction=0.5),
                    LinkDegradation(start=50.0, end=100.0, fraction=0.5),
                ]
            )
        with pytest.raises(ConfigError, match="overlap"):
            FaultPlan(
                [
                    LaunchFailure(start=0.0, end=100.0),
                    LaunchFailure(start=99.0, end=200.0),
                ]
            )

    def test_disjoint_or_distinct_target_windows_accepted(self):
        # Half-open windows: [0, 100) then [100, 200) on one target is fine,
        # and different targets may overlap freely.
        FaultPlan(
            [
                GpuStraggler(start=0.0, end=100.0, gpu=1, factor=2.0),
                GpuStraggler(start=100.0, end=200.0, gpu=1, factor=3.0),
                GpuStraggler(start=0.0, end=200.0, gpu=2, factor=5.0),
                LinkDegradation(start=0.0, end=200.0, fraction=0.5),
            ]
        )


class TestPlanQueries:
    def test_windows_are_half_open(self):
        f = GpuStraggler(start=10.0, end=20.0)
        assert not f.active(9.999)
        assert f.active(10.0)
        assert f.active(19.999)
        assert not f.active(20.0)

    def test_straggler_factors_resolve_per_gpu(self):
        # Same-GPU windows must be disjoint (overlap is a ConfigError);
        # concurrent windows on *different* GPUs stay independent.
        plan = FaultPlan(
            [
                GpuStraggler(start=0.0, end=100.0, gpu=1, factor=2.0),
                GpuStraggler(start=100.0, end=150.0, gpu=1, factor=3.0),
                GpuStraggler(start=0.0, end=100.0, gpu=2, factor=5.0),
            ]
        )
        assert plan.compute_inflation(1, 25.0) == 2.0
        assert plan.compute_inflation(1, 125.0) == 3.0
        assert plan.compute_inflation(2, 25.0) == 5.0
        assert plan.compute_inflation(0, 25.0) == 1.0

    def test_bandwidth_fraction_tracks_active_window(self):
        plan = FaultPlan(
            [
                LinkDegradation(start=0.0, end=50.0, fraction=0.5),
                LinkDegradation(start=50.0, end=100.0, fraction=0.25),
            ]
        )
        assert plan.bandwidth_fraction(25.0) == 0.5
        assert plan.bandwidth_fraction(75.0) == 0.25
        assert plan.bandwidth_fraction(200.0) == 1.0

    def test_boundaries_sorted_unique(self):
        plan = FaultPlan(
            [
                GpuStraggler(start=10.0, end=50.0),
                LinkDegradation(start=10.0, end=80.0),
            ]
        )
        assert plan.boundaries() == [10.0, 50.0, 80.0]

    def test_host_jitter_is_deterministic(self):
        j = HostJitter(start=0.0, end=100.0, amplitude=10.0)
        seq = [j.jitter(i) for i in range(16)]
        assert seq == [j.jitter(i) for i in range(16)]
        assert all(0.0 <= v <= 10.0 for v in seq)

    def test_plan_from_specs_round_trip(self):
        plan = plan_from_specs(
            stragglers=[(1, 2.0, 0.0, 50.0)],
            links=[(0.5, 10.0, 60.0)],
            launch_windows=[(20.0, 30.0)],
            jitters=[(5.0, 0.0, 100.0)],
        )
        assert len(plan.faults) == 4
        assert plan.compute_inflation(1, 25.0) == 2.0
        assert plan.bandwidth_fraction(25.0) == 0.5
        assert plan.launch_failing(25.0)
        assert plan.host_jitter(25.0, 0) > 0.0


class TestInjectorHooks:
    def test_straggler_inflates_compute_piecewise(self):
        m = _machine()
        inj = FaultInjector(
            FaultPlan([GpuStraggler(start=0.0, end=50.0, gpu=1, factor=4.0)])
        )
        inj.arm(m)
        done = []
        m.on_kernel_complete(lambda kern, t, ranks: done.append(t))
        m.launch(m.gpu(1).stream("s"), k("x", 100.0), available_at=0.0)
        m.run()
        # 50 µs at rate 1/4 banks 12.5 µs of work; the remaining 87.5 µs run
        # at full rate after the boundary refresh → completion at 137.5 µs.
        assert done == [pytest.approx(137.5)]

    def test_straggler_leaves_other_gpus_alone(self):
        m = _machine()
        inj = FaultInjector(
            FaultPlan([GpuStraggler(start=0.0, end=1e6, gpu=1, factor=4.0)])
        )
        inj.arm(m)
        done = []
        m.on_kernel_complete(lambda kern, t, ranks: done.append((kern.name, t)))
        m.launch(m.gpu(0).stream("s"), k("clean", 100.0), available_at=0.0)
        m.run()
        assert ("clean", pytest.approx(100.0)) in [
            (n, pytest.approx(t)) for n, t in done
        ]

    def test_straggler_spares_comm_kernels(self):
        inj = FaultInjector(
            FaultPlan([GpuStraggler(start=0.0, end=1e6, gpu=1, factor=4.0)])
        )
        inj.arm(_machine())
        comm = k("ar", kind=KernelKind.COMM)
        compute = k("mm", kind=KernelKind.COMPUTE)
        assert inj.kernel_inflation(comm, 1) == 1.0
        assert inj.kernel_inflation(compute, 1) == 4.0

    def test_link_degradation_scales_collective_cost(self):
        from repro.sim.interconnect import CollectiveCostModel

        node = v100_nvlink_node(4)
        clean = CollectiveCostModel(node.topology)
        degraded = CollectiveCostModel(node.topology)
        degraded.bandwidth_scale = lambda: 0.5
        nbytes = 64 * 1024 * 1024
        d0 = clean.allreduce_duration(nbytes, [0, 1, 2, 3])
        d1 = degraded.allreduce_duration(nbytes, [0, 1, 2, 3])
        assert d1 > d0  # half the bandwidth → strictly slower

    def test_profile_is_priced_at_full_link_health(self):
        """A launch-list miss or §3.6 division entry made inside a link
        window caches the no-load duration, not a degraded one, so it is
        still right once the window closes; each launch inside the window
        is still priced at the degraded bandwidth."""
        from repro.core.decomposition import DecompositionPlanner
        from repro.models.ops import allreduce_op
        from repro.parallel.base import KernelFunc, instantiate_op
        from repro.profiling import OpProfiler

        node = v100_nvlink_node(4)
        healthy, profiler = OpProfiler(node), OpProfiler(node)
        m = _machine()
        FaultInjector(
            FaultPlan([LinkDegradation(start=0.0, end=100.0, fraction=0.5)])
        ).arm(m, [profiler.collectives])
        op = allreduce_op("ar", 0, 4e6)
        func = KernelFunc.profiled(op, profiler)  # inside the window
        assert func.duration == healthy.duration(op)
        divisions = DecompositionPlanner(profiler, 4).profile_divisions(func)
        assert divisions == DecompositionPlanner(healthy, 4).profile_divisions(
            KernelFunc.profiled(op, healthy)
        )
        launched = instantiate_op(func, m.groups, 0, profiler)[0].duration
        assert launched > 1.5 * func.duration
        m.engine.run(until=200.0)  # the window closes
        assert profiler.duration(op) == func.duration
        assert instantiate_op(func, m.groups, 1, profiler)[0].duration == func.duration

    def test_bandwidth_scale_out_of_range_rejected(self):
        from repro.sim.interconnect import CollectiveCostModel

        node = v100_nvlink_node(4)
        ccm = CollectiveCostModel(node.topology)
        ccm.bandwidth_scale = lambda: 0.0
        with pytest.raises(ConfigError):
            ccm.allreduce_duration(1e6, [0, 1, 2, 3])

    def test_check_launch_raises_inside_window(self):
        m = _machine()
        inj = FaultInjector(FaultPlan([LaunchFailure(start=0.0, end=10.0)]))
        inj.arm(m)
        with pytest.raises(FaultError):
            inj.check_launch(0)
        assert inj.launch_attempts == 1
        assert inj.launch_failures == 1

    def test_double_arm_rejected(self):
        inj = FaultInjector(FaultPlan())
        inj.arm(_machine())
        with pytest.raises(ConfigError):
            inj.arm(_machine())

    def test_straggler_gpu_out_of_range_rejected_at_arm(self):
        inj = FaultInjector(
            FaultPlan([GpuStraggler(start=0.0, end=1e6, gpu=9, factor=4.0)])
        )
        with pytest.raises(ConfigError, match="GPU 9"):
            inj.arm(_machine())


class TestEngineHeartbeat:
    def test_heartbeat_fires_while_events_remain_then_stops(self):
        eng = Engine()
        beats = []
        eng.schedule_at(100.0, lambda: None)
        eng.heartbeat(10.0, lambda: beats.append(eng.now))
        eng.run()
        # Beats at 10..100; after the last live event drains, no more beats.
        assert beats[0] == pytest.approx(10.0)
        assert len(beats) == 10
        assert eng.now == pytest.approx(100.0)

    def test_heartbeat_stops_when_fn_returns_false(self):
        eng = Engine()
        beats = []
        eng.schedule_at(100.0, lambda: None)
        eng.heartbeat(10.0, lambda: beats.append(eng.now) or len(beats) < 3)
        eng.run()
        assert len(beats) == 3

    def test_invalid_interval_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Engine().heartbeat(0.0, lambda: None)


class TestWatchdog:
    def test_trips_on_stalled_busy_machine(self):
        m = _machine(1)
        # One enormous kernel: busy for 10^9 µs with no completions.
        m.launch(m.gpu(0).stream("s"), k("forever", 1e9), available_at=0.0)
        wd = Watchdog(m)
        wd.arm()
        with pytest.raises(DeadlockError, match="watchdog"):
            m.run()
        assert wd.tripped
        assert m.engine.now == STALL_TIMEOUT_US

    def test_quiet_on_healthy_run(self):
        m = _machine(1)
        # Each kernel retires well inside the stall timeout; the run spans
        # several heartbeats.
        for i in range(5):
            m.launch(
                m.gpu(0).stream("s"), k(f"k{i}", STALL_TIMEOUT_US / 2),
                available_at=0.0,
            )
        wd = Watchdog(m)
        wd.arm()
        m.run()
        assert not wd.tripped
        assert wd.checks >= 5


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(max_retries=-1)


class TestFaultsCli:
    def test_build_plan_parses_all_kinds(self):
        from repro.faults.plan import build_plan

        plan = build_plan(
            ["1:4.0:0:400"], ["0.5:0:300"], ["50:53"], ["5.0:0:100"]
        )
        assert len(plan.faults) == 4
        # CLI windows are in ms → stored in µs.
        assert plan.compute_inflation(1, 200_000.0) == 4.0
        assert plan.bandwidth_fraction(200_000.0) == 0.5
        assert plan.launch_failing(51_000.0)

    def test_malformed_spec_rejected(self):
        from repro.faults.plan import build_plan

        with pytest.raises(ConfigError):
            build_plan(["1:4.0:0"], [], [], [])  # missing a field
        with pytest.raises(ConfigError):
            build_plan([], [], ["abc:def"], [])  # non-numeric


class TestLifecycleUnderFaults:
    def test_lifecycle_counts_violations_and_serves_every_chat(self):
        """A straggler's violations are counted and every chat is served."""
        from repro.faults.plan import GpuStraggler
        from repro.models.specs import OPT_13B
        from repro.serving.api import make_strategy
        from repro.serving.lifecycle import LifecycleServer, chat_workload

        node = v100_nvlink_node(4)
        strat = make_strategy("liger", OPT_13B, node)
        plan = FaultPlan(
            [GpuStraggler(start=0.0, end=300_000.0, gpu=2, factor=4.0)]
        )
        server = LifecycleServer(OPT_13B, node, strat, fault_plan=plan)
        result = server.run(chat_workload(12, 30.0, seed=2))
        report = result.resilience
        assert result.num_requests == 12
        assert result.shed_requests == 0
        assert report.violations >= 1
        assert not report.watchdog_tripped


class TestLinkFaultEquivalence:
    """A link fault reaches every collective launched inside its window."""

    @staticmethod
    def _decode_trace(*, link_fault: bool):
        from repro.core import LigerConfig
        from repro.models import OPT_30B
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy
        from serving_goldens import fingerprint, reset_batch_ids

        reset_batch_ids()
        model = OPT_30B.scaled_layers(2)
        node = v100_nvlink_node(4)
        strat = make_strategy(
            "liger", model, node,
            config=LigerConfig(max_inflight=6, division_factor=16),
        )
        plan = (
            FaultPlan([LinkDegradation(start=5_000.0, end=20_000.0, fraction=0.3)])
            if link_fault
            else None
        )
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=8, pipeline_depth=2,
            fault_plan=plan, record_trace=True,
        )
        jobs = generation_workload(
            120, 3770.0, context_len=16, gen_tokens=(1, 1), seed=0
        )
        return fingerprint(srv.run(jobs).trace)

    def test_link_degradation_is_deterministic_and_visible(self):
        faulted = self._decode_trace(link_fault=True)
        assert faulted == self._decode_trace(link_fault=True)
        assert faulted != self._decode_trace(link_fault=False)


class TestTopLevelExports:
    def test_fault_api_importable_from_repro(self):
        import repro

        for name in (
            "FaultPlan",
            "GpuStraggler",
            "LinkDegradation",
            "LaunchFailure",
            "HostJitter",
            "ResilienceConfig",
            "ResilienceReport",
            "FaultError",
        ):
            assert getattr(repro, name) is not None
