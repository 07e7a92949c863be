"""Property test: an overloaded, faulty server always terminates cleanly.

The overload layer's one non-negotiable promise is *bounded* behaviour: no
matter how hostile the combination of burst rate, deadlines, queue bound,
and a mid-run GPU straggler, the run must end with every request in exactly
one terminal state — never a :class:`~repro.errors.DeadlockError`, never an
unbounded queue, never a silently lost request.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, GpuStraggler
from repro.faults.resilience import ResilienceConfig
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.serving import BurstyProcess, OverloadConfig, Server
from repro.serving.api import make_strategy
from repro.serving.workload import generative_trace

MODEL = OPT_30B.scaled_layers(6)
NODE = v100_nvlink_node(4)
N_REQUESTS = 96


@st.composite
def overload_scenarios(draw):
    rate = draw(st.floats(min_value=1_000.0, max_value=8_000.0))
    burstiness = draw(st.floats(min_value=1.5, max_value=8.0))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    max_pending = draw(st.integers(min_value=4, max_value=48))
    policy = draw(
        st.sampled_from(["reject", "shed-oldest", "shed-by-deadline"])
    )
    deadline_us = draw(
        st.one_of(st.none(), st.floats(min_value=5_000.0, max_value=200_000.0))
    )
    straggler_factor = draw(st.floats(min_value=1.5, max_value=6.0))
    straggler_start = draw(st.floats(min_value=0.0, max_value=20_000.0))
    straggler_len = draw(st.floats(min_value=5_000.0, max_value=80_000.0))
    return dict(
        rate=rate,
        burstiness=burstiness,
        seed=seed,
        max_pending=max_pending,
        policy=policy,
        deadline_us=deadline_us,
        straggler=GpuStraggler(
            start=straggler_start,
            end=straggler_start + straggler_len,
            gpu=draw(st.integers(min_value=0, max_value=3)),
            factor=straggler_factor,
        ),
    )


@given(scenario=overload_scenarios())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_overloaded_faulty_server_always_terminates(scenario):
    trace = generative_trace(
        N_REQUESTS,
        scenario["rate"],
        batch_size=8,
        context_len=128,
        seed=scenario["seed"],
        arrival=BurstyProcess(
            scenario["rate"],
            burstiness=scenario["burstiness"],
            phase_requests=16,
        ),
    )
    cfg = OverloadConfig(
        max_pending_requests=scenario["max_pending"],
        policy=scenario["policy"],
        default_deadline_us=scenario["deadline_us"],
    )
    strat = make_strategy("liger", MODEL, NODE)
    server = Server(
        MODEL,
        NODE,
        strat,
        check_memory=False,
        record_trace=False,
        fault_plan=FaultPlan([scenario["straggler"]]),
        resilience=ResilienceConfig(),
        overload=cfg,
    )
    # Must not raise DeadlockError (or anything else): the run terminates.
    result = server.run(trace)
    m = result.metrics
    # Every request reached exactly one terminal state.
    assert m.num_terminal == N_REQUESTS
    assert m.num_completed + m.shed_requests + m.timed_out_requests \
        == N_REQUESTS
    # The pending queue never exceeded its configured bound.
    assert result.overload.peak_pending_requests <= scenario["max_pending"]
    # The KV budget was never oversubscribed.
    assert result.overload.peak_kv_bytes <= result.overload.kv_capacity_bytes
