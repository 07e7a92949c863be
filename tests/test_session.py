"""The serving-session chassis: golden equivalence + composed subsystems.

Two halves:

* **Equivalence** — every (server, strategy) golden scenario must reproduce
  the pre-chassis fingerprint bit-for-bit with an empty
  :class:`~repro.serving.session.ServingConfig` (the zero-cost convention
  survives the rebase), and again with the assembly cache and the
  simulator memos disabled (every remaining hot-path cache is
  bit-identical on/off).
* **Capabilities** — the generation servers now ride the chassis, so fault
  injection, admission control, deadlines, and observability must work on
  :class:`~repro.serving.generation.ContinuousBatchingServer` — none of
  which existed before the chassis.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, LaunchFailure
from repro.faults.resilience import ResilienceConfig
from repro.hw import v100_nvlink_node
from repro.models import MODELS
from repro.obs import Observability
from repro.serving import (
    ContinuousBatchingServer,
    LifecycleServer,
    ServingConfig,
    StaticBatchingServer,
    chat_workload,
    generation_workload,
)
from repro.serving.api import make_strategy
from repro.serving.session import ServingSession
from serving_goldens import (
    GOLDEN_PATH,
    SCENARIOS,
    fingerprint,
    reset_batch_ids,
    run_scenario,
)

MODEL = MODELS["OPT-13B"].scaled_layers(2)
NODE = v100_nvlink_node(4)


def _load_goldens():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Golden equivalence (zero-cost convention)
# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("server,strategy", SCENARIOS)
    def test_trace_bit_identical_to_pre_chassis_golden(self, server, strategy):
        goldens = _load_goldens()
        _, trace = run_scenario(server, strategy)
        assert fingerprint(trace) == goldens[f"{server}/{strategy}"], (
            f"{server}/{strategy}: timeline diverged from the pre-chassis "
            "golden — the zero-cost convention is broken"
        )

    def test_explicit_empty_config_matches_golden(self):
        """Passing config= explicitly takes the same zero-cost path."""
        goldens = _load_goldens()
        _, trace = run_scenario(
            "continuous", "liger", config=ServingConfig(record_trace=True)
        )
        assert fingerprint(trace) == goldens["continuous/liger"]

    def test_config_and_legacy_kwargs_clash(self):
        strat = make_strategy("intra", MODEL, NODE)
        with pytest.raises(ConfigError, match="not both"):
            ContinuousBatchingServer(
                MODEL, NODE, strat,
                config=ServingConfig(),
                observability=Observability(),
                check_memory=False,
            )


class TestCacheOffEquivalence:
    @pytest.mark.parametrize("server,strategy", SCENARIOS)
    def test_cache_off_matches_golden(self, server, strategy):
        """Disabling the assembly cache and the simulator memos must not
        move a single float."""
        goldens = _load_goldens()
        _, trace = run_scenario(server, strategy, cache_off=True)
        assert fingerprint(trace) == goldens[f"{server}/{strategy}"], (
            f"{server}/{strategy}: cache-off timeline diverged from the "
            "golden — a cache is not bit-identical"
        )


# ----------------------------------------------------------------------
# The chassis itself
# ----------------------------------------------------------------------
class TestServingSession:
    def test_pipeline_stage_order_plain(self):
        strat = make_strategy("intra", MODEL, NODE)
        session = ServingSession(
            MODEL, NODE, strat,
            config=ServingConfig(),
            check_memory=False,
            complete_callback=lambda b, t: None,
        )
        assert session.pipeline.describe() == "dispatch → strategy"

    @staticmethod
    def _fully_armed(**kw):
        from repro.serving.overload import OverloadConfig

        strat = make_strategy("intra", MODEL, NODE)
        return ServingSession(
            MODEL, NODE, strat,
            config=ServingConfig(
                fault_plan=FaultPlan([LaunchFailure(start=0.0, end=1.0)]),
                overload=OverloadConfig(),
                observability=Observability(),
            ),
            check_memory=False,
            complete_callback=lambda b, t: None,
            **kw,
        )

    def test_pipeline_stage_order_fully_armed(self):
        """Batch mode: the session owns admission and recovery sheds."""
        session = self._fully_armed()
        assert session.pipeline.describe() == "admission → dispatch → recovery"
        assert session.recovery is not None
        assert session.overload_ctl is not None
        assert session.recovery.metrics is session.metrics
        assert session.strategy.track_memory

    def test_per_job_mode_leaves_accounting_to_the_server(self):
        """Job mode: no admission stage, memory and recovery sheds are the
        server's, and dispatch events flag first hand-offs."""
        session = self._fully_armed(per_job=True)
        assert session.pipeline.describe() == "dispatch → recovery"
        assert session.overload_ctl is None
        assert session.recovery.metrics is None
        assert not session.strategy.track_memory
        dispatch = session.pipeline.stages[0]
        assert dispatch._dispatched_rids is not None

    def test_strategy_mismatch_rejected(self):
        other = MODELS["OPT-13B"].scaled_layers(4)
        strat = make_strategy("intra", other, NODE)
        with pytest.raises(ConfigError, match="different model/node"):
            ServingSession(
                MODEL, NODE, strat,
                config=ServingConfig(),
                check_memory=False,
                complete_callback=lambda b, t: None,
            )


# ----------------------------------------------------------------------
# New capabilities on the generation servers
# ----------------------------------------------------------------------
class TestContinuousBatchingCapabilities:
    def _serve(self, jobs, **cfg_kwargs):
        reset_batch_ids()
        strat = make_strategy("liger", MODEL, NODE)
        srv = ContinuousBatchingServer(
            MODEL, NODE, strat, max_batch=8, pipeline_depth=2,
            check_memory=False, config=ServingConfig(**cfg_kwargs),
        )
        return srv.run(jobs)

    def test_fault_injection_with_recovery(self):
        """A launch-fail window triggers retries, yet every job completes."""
        jobs = generation_workload(8, 200.0, seed=0)
        plan = FaultPlan([LaunchFailure(start=0.0, end=20_000.0)])
        result = self._serve(
            jobs,
            fault_plan=plan,
            resilience=ResilienceConfig(max_retries=8, enable_fallback=False),
        )
        assert result.resilience is not None
        assert result.resilience.retries > 0
        assert result.metrics.num_completed == 8
        assert result.metrics.num_terminal == 8

    def test_admission_control_sheds_under_burst(self):
        """A tiny pending bound sheds jobs; every job still terminates."""
        from repro.serving.overload import OverloadConfig

        jobs = generation_workload(24, 4000.0, seed=2)
        result = self._serve(
            jobs,
            overload=OverloadConfig(max_pending_requests=2, policy="reject"),
        )
        assert result.overload is not None
        assert result.overload.shed_requests > 0
        assert result.metrics.shed_requests == result.overload.shed_requests
        assert result.metrics.num_terminal == 24
        assert result.metrics.num_completed < 24

    def test_deadlines_time_out_queued_jobs(self):
        from repro.serving.overload import OverloadConfig

        jobs = generation_workload(16, 2000.0, seed=3)
        result = self._serve(
            jobs,
            overload=OverloadConfig(
                max_pending_requests=64, default_deadline_us=2_000.0
            ),
        )
        assert result.metrics.timed_out_requests > 0
        assert result.metrics.num_terminal == 16
        # Timed-out jobs carry deadlines, so SLO attainment is tracked.
        assert result.metrics.slo_attainment() is not None

    def test_observability_bus_and_prometheus(self):
        """The bus fills and the Prometheus export carries repro_ metrics."""
        obs = Observability()
        jobs = generation_workload(6, 400.0, seed=1)
        result = self._serve(jobs, observability=obs, record_trace=True)
        assert result.observability is obs
        assert len(obs.bus.events) > 0
        kinds = {type(e).__name__ for e in obs.bus.events}
        assert "RequestsAdmitted" in kinds
        assert "BatchDispatched" in kinds
        text = obs.to_prometheus()
        assert "repro_" in text
        assert "repro_pending_queue_requests" in text
        # Zero-cost check rides the goldens; here just confirm the trace
        # recorded alongside the subsystems.
        assert result.trace is not None and len(result.trace.rows) > 0

    def test_faults_overload_obs_compose(self):
        """All three subsystems on one generation run."""
        from repro.serving.overload import OverloadConfig

        obs = Observability()
        jobs = generation_workload(10, 1000.0, seed=4)
        plan = FaultPlan([LaunchFailure(start=0.0, end=10_000.0)])
        result = self._serve(
            jobs,
            fault_plan=plan,
            resilience=ResilienceConfig(max_retries=8, enable_fallback=False),
            overload=OverloadConfig(max_pending_requests=4, policy="shed-oldest"),
            observability=obs,
        )
        assert result.resilience is not None
        assert result.overload is not None
        assert result.metrics.num_terminal == 10
        assert len(obs.bus.events) > 0


class TestStaticBatchingCapabilities:
    def test_admission_sheds_whole_groups(self):
        from repro.serving.overload import OverloadConfig

        reset_batch_ids()
        jobs = generation_workload(16, 8000.0, seed=5)
        strat = make_strategy("intra", MODEL, NODE)
        srv = StaticBatchingServer(
            MODEL, NODE, strat, batch_size=4, check_memory=False,
            config=ServingConfig(
                overload=OverloadConfig(max_pending_requests=4, policy="reject")
            ),
        )
        result = srv.run(jobs)
        assert result.overload is not None
        # Groups are atomic: sheds come in multiples of the group size.
        assert result.metrics.shed_requests % 4 == 0
        assert result.metrics.num_terminal == 16

    def test_retry_exhaustion_sheds_group(self):
        """A permanent launch-fail window sheds the whole afflicted group."""
        reset_batch_ids()
        jobs = generation_workload(4, 400.0, seed=6)
        strat = make_strategy("intra", MODEL, NODE)
        srv = StaticBatchingServer(
            MODEL, NODE, strat, batch_size=4, check_memory=False,
            config=ServingConfig(
                fault_plan=FaultPlan([LaunchFailure(start=0.0, end=1e12)]),
                resilience=ResilienceConfig(
                    max_retries=1, enable_fallback=False, enable_watchdog=False
                ),
            ),
        )
        result = srv.run(jobs)
        assert result.metrics.shed_requests == 4
        assert result.metrics.num_completed == 0
        assert result.metrics.num_terminal == 4


# ----------------------------------------------------------------------
# Lifecycle: zero-completion runs return a valid result (satellite)
# ----------------------------------------------------------------------
class TestLifecycleZeroCompletion:
    def test_all_timed_out_returns_valid_result(self):
        from repro.serving.overload import OverloadConfig

        reset_batch_ids()
        chats = chat_workload(4, 100.0, seed=0)
        strat = make_strategy("intra", MODEL, NODE)
        srv = LifecycleServer(
            MODEL, NODE, strat, prefill_batch=2, check_memory=False,
            config=ServingConfig(
                overload=OverloadConfig(
                    max_pending_requests=64, default_deadline_us=1.0
                )
            ),
        )
        result = srv.run(chats)
        assert result.num_requests == 0
        assert result.timed_out_requests + result.shed_requests == 4
        assert result.ttft.count == 0
        assert result.latency.count == 0
        assert result.tokens_per_second == 0.0
        assert result.slo_attainment == 0.0
        assert result.overload is not None
        assert result.summary()  # renders without raising
