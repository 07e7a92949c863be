"""Failure-injection tests: the simulator must fail loudly, never wedge.

Injects the classes of faults a scheduling runtime meets in practice —
mis-specified contention models, dependency cycles, ranks that never show
up, double submissions, memory exhaustion — and checks each is either
contained (clamped / rolled back) or raised as the specific typed error.

The second half exercises the declarative fault-injection subsystem
(:mod:`repro.faults`): randomized fault plans must always terminate, and a
straggler that breaks Principle 1 must have its violations counted and
published while every request is still served.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    DeadlockError,
    OutOfMemoryError,
    StreamProtocolError,
)
from repro.hw import v100_nvlink_node
from repro.sim import (
    ContentionModel,
    CudaEvent,
    Engine,
    Kernel,
    KernelKind,
    Machine,
    Trace,
)


def k(name, dur=10.0, kind=KernelKind.COMPUTE, occ=0.4):
    return Kernel(name=name, kind=kind, duration=dur, occupancy=occ)


class AcceleratingContention(ContentionModel):
    """A buggy model claiming overlapped kernels run FASTER than solo."""

    def slowdowns(self, resident):
        return [0.25] * len(resident)


class TestRogueContentionModel:
    def test_sub_unity_slowdowns_clamped(self):
        m = Machine(
            v100_nvlink_node(1), Engine(),
            contention=AcceleratingContention(), trace=Trace(),
        )
        m.launch(m.gpu(0).stream("a"), k("x", 100.0), available_at=0.0)
        m.launch(m.gpu(0).stream("b"), k("y", 100.0), available_at=0.0)
        m.run()
        # Kernels may never finish faster than their no-load duration.
        for r in m.trace.rows:
            assert r.duration >= 100.0 - 1e-6


class TestDependencyFaults:
    def test_event_wait_cycle_detected_as_deadlock(self):
        m = Machine(v100_nvlink_node(1), Engine(), trace=Trace())
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        e0, e1 = CudaEvent("e0"), CudaEvent("e1")
        # s0 waits e1 before recording e0; s1 waits e0 before recording e1.
        m.wait_event(s0, e1, available_at=0.0)
        m.record_event(s0, e0, available_at=0.0)
        m.wait_event(s1, e0, available_at=0.0)
        m.record_event(s1, e1, available_at=0.0)
        with pytest.raises(DeadlockError):
            m.run()

    def test_partial_collective_membership_rejected_up_front(self):
        from repro.sim.interconnect import CollectiveCostModel

        node = v100_nvlink_node(4)
        ccm = CollectiveCostModel(node.topology)
        coll = ccm.make_allreduce(1e6, [0, 1, 2, 3])
        m = Machine(node, Engine(), trace=Trace())
        # Ranks 2 and 3 never launch: rendezvous can't complete.
        m.launch(m.gpu(0).stream("c"), coll.members[0], available_at=0.0)
        m.launch(m.gpu(1).stream("c"), coll.members[1], available_at=0.0)
        with pytest.raises(DeadlockError):
            m.run()

    def test_double_event_record_flagged(self):
        m = Machine(v100_nvlink_node(1), Engine(), trace=Trace())
        s = m.gpu(0).stream("s")
        ev = CudaEvent("dup")
        m.record_event(s, ev, available_at=0.0)
        m.record_event(s, ev, available_at=0.0)
        with pytest.raises(StreamProtocolError):
            m.run()


class TestServingFaults:
    def test_double_batch_submission_rejected(self):
        from repro.models import OPT_30B
        from repro.parallel import IntraOpStrategy
        from repro.serving import Server
        from repro.serving.workload import general_trace

        model = OPT_30B.scaled_layers(4)
        node = v100_nvlink_node(4)
        strat = IntraOpStrategy(model, node)
        Server(model, node, strat, check_memory=False)
        batch = general_trace(2, 10.0, 2, seed=0)[0]
        batch.number(0)
        strat.submit_batch(batch)
        with pytest.raises(ConfigError):
            strat.submit_batch(batch)  # still open: double submission

    def test_unnumbered_batch_rejected(self):
        """A batch no server numbered (id −1) cannot reach a strategy: its
        id would collide with the infrastructure kernels'."""
        from repro.models import OPT_30B
        from repro.parallel import IntraOpStrategy
        from repro.serving import Server
        from repro.serving.workload import general_trace

        model = OPT_30B.scaled_layers(4)
        node = v100_nvlink_node(4)
        strat = IntraOpStrategy(model, node)
        Server(model, node, strat, check_memory=False)
        batch = general_trace(2, 10.0, 2, seed=0)[0]
        assert batch.batch_id == -1
        with pytest.raises(ConfigError, match="not numbered"):
            strat.submit_batch(batch)
        assert strat.open_batch_ids() == []

    def test_memory_exhaustion_raises_typed_error(self):
        from repro.models import ModelSpec
        from repro.parallel import IntraOpStrategy
        from repro.serving import Server
        from repro.serving.request import Batch, Request
        from repro.units import GB

        # A model whose weights almost fill the device: one huge batch OOMs.
        model = ModelSpec(
            name="tight", num_layers=2, num_heads=8, hidden_size=4096,
            weight_bytes=GB(62.0),
        )
        node = v100_nvlink_node(4)  # 15.5 GB weights in 16 GB devices
        strat = IntraOpStrategy(model, node)
        server = Server(model, node, strat, check_memory=False)
        huge = Batch(
            requests=[
                Request(rid=i, arrival=1.0, seq_len=4096) for i in range(64)
            ]
        )
        with pytest.raises(OutOfMemoryError):
            server.run([huge])


# ----------------------------------------------------------------------
# Declarative fault injection (repro.faults)
# ----------------------------------------------------------------------

def _serve_under_faults(
    plan, *, strategy="liger", resilience=None, seed=1, **kwargs
):
    from repro.models.specs import OPT_13B
    from repro.serving.api import serve

    return serve(
        model=OPT_13B,
        node=v100_nvlink_node(4),
        strategy=strategy,
        arrival_rate=40.0,
        num_requests=32,
        batch_size=2,
        seed=seed,
        fault_plan=plan,
        resilience=resilience,
        **kwargs,
    )


def _random_plan(rng):
    """A random-but-valid plan over the first ~0.8 s of the run."""
    from repro.faults.plan import FaultPlan, GpuStraggler, LaunchFailure

    def _overlaps(candidate, existing):
        return any(
            set(candidate.targets()) & set(f.targets())
            and candidate.start < f.end
            and f.start < candidate.end
            for f in existing
        )

    faults = []
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 2)
        start = float(rng.uniform(0, 600_000))
        end = start + float(rng.uniform(1_000, 200_000))
        if kind == 0:
            fault = GpuStraggler(
                start=start, end=end,
                gpu=int(rng.integers(0, 4)),
                factor=float(rng.uniform(1.5, 6.0)),
            )
        else:
            # Keep failure windows shorter than the retry budget most of
            # the time; longer windows exercise shedding, also legal.
            fault = LaunchFailure(start=start, end=start + 4_000.0)
        # Same-target overlap is a ConfigError since plan validation
        # landed; drop the colliding draw (the plan stays random-but-valid).
        if not _overlaps(fault, faults):
            faults.append(fault)
    return FaultPlan(faults)


class TestRandomizedFaultPlans:
    """Whatever the plan, the engine terminates and accounts for every request."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_plan_always_terminates(self, seed):
        rng = np.random.default_rng(seed)
        plan = _random_plan(rng)
        result = _serve_under_faults(plan)
        report = result.resilience
        assert report is not None
        # Every request is either served or explicitly shed — none lost.
        assert result.metrics.num_completed + result.metrics.shed_requests == 32

    def test_random_plans_are_deterministic(self):
        rng = np.random.default_rng(7)
        plan = _random_plan(rng)
        a = _serve_under_faults(plan)
        b = _serve_under_faults(plan)
        assert [
            (r.rid, r.completion) for r in a.metrics.completed
        ] == [(r.rid, r.completion) for r in b.metrics.completed]


class TestGracefulDegradation:
    """A straggler breaks Principle 1: violations are counted, work completes."""

    STRAGGLER = dict(start=0.0, end=400_000.0, gpu=1, factor=4.0)

    def test_straggler_counts_and_publishes_violations(self):
        from repro.faults.plan import FaultPlan, GpuStraggler
        from repro.obs import Observability

        obs = Observability()
        plan = FaultPlan([GpuStraggler(**self.STRAGGLER)])
        result = _serve_under_faults(plan, observability=obs)
        report = result.resilience
        # All requests served despite the fault — no wedge, no crash.
        assert result.metrics.num_completed == 32
        assert report.violations >= 1
        published = obs.bus.of_kind("principle1-violation")
        assert len(published) == report.violations
        assert all(e.overshoot_us > 0 for e in published)

    def test_clean_run_counts_no_violation(self):
        """A fault-free run counts rounds but no violation."""
        from repro.faults.plan import FaultPlan

        result = _serve_under_faults(FaultPlan())
        report = result.resilience
        assert report.violations == 0
        assert report.rounds_observed > 0


class TestEmptyPlanIsFree:
    """The armed recovery stack with no faults must not perturb the timeline."""

    def test_empty_plan_reproduces_plain_run_bit_for_bit(self):
        from repro.core.config import LigerConfig
        from repro.faults.plan import FaultPlan
        from repro.models.specs import OPT_13B
        from repro.serving.api import serve

        # At 100 req/s the full-NCCL ablation breaks Principle 1 without any
        # fault; its violations are counted but must not change the schedule.
        for config, rate in (
            (LigerConfig(), 40.0),
            (LigerConfig(reduce_nccl_channels=False), 100.0),
        ):
            kw = dict(
                model=OPT_13B, node=v100_nvlink_node(4), strategy="liger",
                arrival_rate=rate, num_requests=32, batch_size=2, seed=1,
                config=config,
            )
            plain = serve(**kw)
            armed = serve(**kw, fault_plan=FaultPlan())
            assert [
                (r.rid, r.arrival, r.completion) for r in plain.metrics.completed
            ] == [
                (r.rid, r.arrival, r.completion) for r in armed.metrics.completed
            ]
            assert plain.resilience is None
            assert armed.resilience is not None


class TestRetryAndShed:
    """Transient launch failures are retried; persistent ones shed or raise."""

    def test_short_window_absorbed_by_retries(self):
        from repro.faults.plan import FaultPlan, LaunchFailure

        plan = FaultPlan([LaunchFailure(start=50_000.0, end=53_000.0)])
        result = _serve_under_faults(plan)
        assert result.metrics.retries >= 1
        assert result.metrics.shed_requests == 0
        assert result.metrics.num_completed == 32

    def test_long_window_sheds_and_names_the_batch(self):
        from repro.faults.plan import FaultPlan, LaunchFailure

        plan = FaultPlan([LaunchFailure(start=50_000.0, end=80_000.0)])
        result = _serve_under_faults(plan)
        assert result.metrics.shed_requests > 0
        assert result.resilience.shed_batches
        assert (
            result.metrics.num_completed + result.metrics.shed_requests == 32
        )


class TestIncompleteRunDiagnostics:
    def test_unserved_batches_raise_deadlock_naming_them(self):
        """A run that returns with open batches reports them as a wedge."""
        from repro.models import OPT_30B
        from repro.parallel import IntraOpStrategy
        from repro.serving import Server
        from repro.serving.workload import general_trace

        model = OPT_30B.scaled_layers(4)
        node = v100_nvlink_node(4)
        strat = IntraOpStrategy(model, node)
        server = Server(model, node, strat, check_memory=False)
        batches = general_trace(4, 50.0, 2, seed=0)
        # Sabotage: swallow one batch so it never reaches the machine.
        real_submit = strat.submit_batch
        strat.submit_batch = (
            lambda b: None if b.batch_id == batches[1].batch_id
            else real_submit(b)
        )
        with pytest.raises(DeadlockError, match="never completed"):
            server.run(batches)
