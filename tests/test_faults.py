"""Unit tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the declarative plan (validation, window queries), the injector's
hook-site semantics (piecewise rate inflation, launch failures), the engine
heartbeat, the recovery configuration, and the CLI spec parser.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, GpuStraggler, LaunchFailure
from repro.faults.resilience import ResilienceConfig
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
            LaunchFailure(start=10.0, end=5.0)
        with pytest.raises(ConfigError):
            LaunchFailure(start=-1.0, end=5.0)

    def test_parameter_ranges_enforced(self):
        with pytest.raises(ConfigError):
            GpuStraggler(start=0.0, end=1.0, factor=0.5)  # a speed-up
        # A GPU id that matches no device would slow nothing.
        for gpu in (1.5, 1.0, True):
            with pytest.raises(ConfigError, match="must be an int"):
                GpuStraggler(start=0.0, end=1.0, gpu=gpu)

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
                LaunchFailure(start=0.0, end=200.0),
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

    def test_boundaries_sorted_unique(self):
        plan = FaultPlan(
            [
                GpuStraggler(start=10.0, end=50.0),
                LaunchFailure(start=10.0, end=80.0),
            ]
        )
        assert plan.boundaries() == [10.0, 50.0, 80.0]

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

    def test_background_event_is_not_liveness(self):
        """A background event far in the future stops no beat early and
        keeps none going after the last live event, and still fires."""
        eng = Engine()
        beats, fired = [], []
        eng.heartbeat(10.0, lambda: beats.append(eng.now))
        eng.schedule_at(100.0, lambda: None)
        eng.schedule_background_at(1e12, lambda: fired.append(eng.now))
        eng.run()
        assert beats == pytest.approx([10.0 * (i + 1) for i in range(10)])
        assert fired == [1e12]


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(max_retries=-1)


class TestFaultsCli:
    def test_build_plan_parses_all_kinds(self):
        from repro.faults.plan import build_plan

        plan = build_plan(["1:4.0:0:400"], ["50:53"])
        assert len(plan.faults) == 2
        # CLI windows are in ms → stored in µs.
        assert plan.compute_inflation(1, 200_000.0) == 4.0
        assert plan.launch_failing(51_000.0)

    def test_malformed_spec_rejected(self):
        from repro.faults.plan import build_plan

        with pytest.raises(ConfigError):
            build_plan(["1:4.0:0"], [])  # missing a field
        with pytest.raises(ConfigError):
            build_plan([], ["abc:def"])  # non-numeric


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


class TestTopLevelExports:
    def test_fault_api_importable_from_repro(self):
        import repro

        for name in (
            "FaultPlan",
            "GpuStraggler",
            "LaunchFailure",
            "ResilienceConfig",
            "ResilienceReport",
            "FaultError",
        ):
            assert getattr(repro, name) is not None
