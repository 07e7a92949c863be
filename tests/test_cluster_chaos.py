"""Chaos harness: seeded replay, invariants, and the crash property test.

The harness's promise is twofold: the same master seed replays the same
chaos run **bit-for-bit** (fingerprints compare equal), and under *any*
node-crash schedule every admitted request reaches exactly one terminal
state while the router never dispatches to a node it marked unhealthy.
The hypothesis test pins the second half over arbitrary schedules.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ChaosConfig, Cluster, run_chaos
from repro.cluster.chaos import draw_fault_plan, outcome_fingerprint
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.resilience import ReplicaRecoveryConfig
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.serving.workload import general_trace

SMALL_MODEL = OPT_30B.scaled_layers(2)
SMALL_NODE = v100_nvlink_node(2)

SMOKE = ChaosConfig(
    replicas=3,
    strategy="intra",
    gpus=2,
    layers=2,
    num_requests=12,
    rate=200.0,
    crashes=1,
    seed=0,
)


class TestChaosConfig:
    def test_crashes_need_two_replicas(self):
        with pytest.raises(ConfigError, match="2 replicas"):
            ChaosConfig(replicas=1, crashes=1)

    def test_goodput_floor_bounds(self):
        with pytest.raises(ConfigError, match="min_goodput"):
            ChaosConfig(min_goodput=1.5)


class TestScheduleDrawing:
    def test_crashes_never_target_node_zero(self):
        # Node 0 hosts the router; the schedule must always leave it up so
        # the liveness invariant is meaningful.
        for seed in range(20):
            plan = draw_fault_plan(
                ChaosConfig(replicas=3, crashes=2, partitions=1),
                seed,
                horizon=100_000.0,
            )
            for crash in plan.crashes:
                assert crash.node != 0
            for partition in plan.partitions:
                assert not partition.covers(0)

    def test_drawn_plans_are_always_valid(self):
        # The drawer must respect the plan's own overlap validation: the
        # FaultPlan constructor raising would mean the drawer emitted an
        # overlapping same-target schedule.
        for seed in range(30):
            draw_fault_plan(
                ChaosConfig(
                    replicas=3, crashes=3, partitions=2, degradations=2
                ),
                seed,
                horizon=50_000.0,
            )

    def test_schedule_is_a_pure_function_of_the_seed(self):
        config = ChaosConfig(replicas=3, crashes=2, partitions=1)
        a = draw_fault_plan(config, 99, horizon=80_000.0)
        b = draw_fault_plan(config, 99, horizon=80_000.0)
        assert [f.describe() for f in a.faults] == [
            f.describe() for f in b.faults
        ]


class TestSeededReplay:
    def test_same_seed_replays_bit_for_bit(self):
        first = run_chaos(SMOKE)
        second = run_chaos(SMOKE)
        assert first.fingerprint == second.fingerprint
        assert first.describe() == second.describe()

    def test_different_seeds_diverge(self):
        fingerprints = {
            run_chaos(
                ChaosConfig(
                    replicas=3, strategy="intra", gpus=2, layers=2,
                    num_requests=12, rate=200.0, crashes=1, seed=seed,
                )
            ).fingerprint
            for seed in range(3)
        }
        assert len(fingerprints) > 1

    def test_report_leads_with_the_seed(self):
        report = run_chaos(SMOKE)
        first_line = report.describe().splitlines()[0]
        assert first_line == f"chaos run: seed={SMOKE.seed}"
        # The derived seeds are printed in their fixed derivation order.
        assert list(report.derived_seeds) == [
            "schedule", "jitter", "router", "seqlen",
        ]

    def test_smoke_invariants_hold(self):
        report = run_chaos(SMOKE)
        assert report.ok, report.describe()
        result = report.result
        terminal = (
            result.completed_requests
            + result.shed_requests
            + result.timed_out_requests
        )
        assert terminal == result.num_requests
        assert result.unhealthy_dispatches == 0
        assert result.router_completed_requests == result.completed_requests

    def test_fingerprint_is_sensitive_to_outcomes(self):
        # The digest covers every request's terminal state: the same
        # result hashed against a served workload (completed requests)
        # and an unserved copy (pending requests) must differ.
        result = run_chaos(SMOKE).result
        served = general_trace(4, 100.0, 2, seed=1)
        pending = general_trace(4, 100.0, 2, seed=1)
        for batch in served:
            batch.complete(1_000.0)
        fp_served = outcome_fingerprint(result, served)
        fp_pending = outcome_fingerprint(result, pending)
        assert fp_served != fp_pending
        assert len(fp_served) == 64  # sha256 hex


# ----------------------------------------------------------------------
# The property: arbitrary crash schedules never lose a request and never
# reach a node the router marked unhealthy.
# ----------------------------------------------------------------------
@st.composite
def crash_scenarios(draw):
    replicas = draw(st.integers(min_value=2, max_value=3))
    rate = draw(st.floats(min_value=100.0, max_value=3_000.0))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    crashes = []
    for node in range(replicas):
        if not draw(st.booleans()):
            continue
        start = draw(st.floats(min_value=0.0, max_value=150_000.0))
        length = draw(
            st.one_of(
                st.floats(min_value=5_000.0, max_value=100_000.0),
                st.just(float("inf")),  # crash forever: no recovery
            )
        )
        crashes.append(NodeCrash(start=start, end=start + length, node=node))
    period = draw(st.sampled_from([1_000.0, 5_000.0]))
    return dict(
        replicas=replicas,
        rate=rate,
        seed=seed,
        plan=FaultPlan(crashes),
        recovery=ReplicaRecoveryConfig(health_check_period_us=period),
    )


@given(scenario=crash_scenarios())
# The last batch arrives at exactly a sweep instant and lands on a node that
# crashes 1 µs later: the sweep must keep running to fail it over.
@example(scenario=dict(
    replicas=2, rate=100.0, seed=3,
    plan=FaultPlan([NodeCrash(start=120_001.0, end=float("inf"), node=0)]),
    recovery=ReplicaRecoveryConfig(health_check_period_us=1_000.0),
))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_arbitrary_crash_schedules_keep_the_invariants(scenario):
    batches = general_trace(12, scenario["rate"], 2, seed=scenario["seed"])
    cluster = Cluster(
        SMALL_MODEL,
        SMALL_NODE,
        replicas=scenario["replicas"],
        strategy="intra",
        fault_plan=scenario["plan"],
        recovery=scenario["recovery"],
        check_memory=False,
        seed=scenario["seed"],
    )
    result = cluster.run(batches)

    # Every admitted request reached exactly one terminal state.  A lost
    # request raises DeadlockError inside run(); a double transition
    # raises inside the Request state machine — reaching here with the
    # counts adding up is the whole property.
    terminal = (
        result.completed_requests
        + result.shed_requests
        + result.timed_out_requests
    )
    assert terminal == result.num_requests
    # The router never dispatched to a node it had marked unhealthy.
    assert result.unhealthy_dispatches == 0
    # The completion gate accepted exactly the completions that counted.
    assert result.router_completed_requests == result.completed_requests
