"""The serving chassis: golden equivalence + composed subsystems.

Two halves:

* **Equivalence** — every (server, strategy) golden scenario must reproduce
  the pre-chassis fingerprint bit-for-bit with every subsystem keyword left
  at its default (the zero-cost convention survives the rebase), and again
  with every hot-path cache emptied before each use (each cache is
  bit-identical to its cold computation).
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
    Server,
    StaticBatchingServer,
    chat_workload,
    generation_workload,
)
from repro.serving.api import make_strategy
from repro.serving.request import Batch, Request, RequestState
from repro.sim.memory import NodeMemoryModel
from serving_goldens import (
    GOLDEN_PATH,
    GOLDEN_SCENARIOS,
    METRICS_SCENARIOS,
    SCENARIOS,
    fingerprint,
    liger_config,
    metrics_path,
    observed_prometheus,
    pinned_rows,
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
    @pytest.mark.parametrize("server,strategy", GOLDEN_SCENARIOS)
    def test_trace_bit_identical_to_pre_chassis_golden(self, server, strategy):
        goldens = _load_goldens()
        result, trace = run_scenario(server, strategy)
        assert fingerprint(trace, result.overload, result.resilience) == goldens[
            f"{server}/{strategy}"
        ], (
            f"{server}/{strategy}: timeline diverged from the pre-chassis "
            "golden — the zero-cost convention is broken"
        )

    @pytest.mark.parametrize("server,strategy", METRICS_SCENARIOS)
    def test_observed_prometheus_matches_golden(self, server, strategy):
        """An observed run exports the same counters, gauges (names, help
        texts and readings) and histograms."""
        with open(metrics_path(server, strategy), encoding="utf-8") as fh:
            assert observed_prometheus(server, strategy) == fh.read()

    def test_explicit_empty_config_matches_golden(self):
        """Passing every subsystem keyword at its empty value explicitly
        takes the same zero-cost path."""
        goldens = _load_goldens()
        _, trace = run_scenario(
            "continuous", "liger", contention=None, fault_plan=None,
            resilience=None, overload=None, observability=None,
        )
        assert fingerprint(trace) == goldens["continuous/liger"]

    @pytest.mark.parametrize(
        "first,other", [("server", "continuous"), ("continuous", "server")]
    )
    def test_batch_ids_are_local_to_a_run(self, first, other):
        """A scenario served again after another one in the same process
        gives the same raw trace rows, kernel names included, and the same
        ``Request.batch_id``s: each server numbers its batches from 0."""

        def serve(server):
            keep = []
            _, trace = run_scenario(server, "liger", keep=keep)
            completed = keep[0].metrics.completed
            return pinned_rows(trace), [(r.rid, r.batch_id) for r in completed]

        rows, ids = serve(first)
        serve(other)
        assert serve(first) == (rows, ids)
        assert min(row[4] for row in rows if row[4] >= 0) == 0

    def test_every_mechanism_reaches_a_scenario(self):
        """Every ``LigerConfig`` field off its default, every sync mode and
        policy, and every strategy name is served by some golden scenario."""
        from dataclasses import fields

        from repro.core import LigerConfig, SyncMode
        from repro.core.policy import POLICIES
        from repro.serving.api import STRATEGIES

        assert set(STRATEGIES) <= {strategy for _, strategy in SCENARIOS}
        configs = [
            liger_config(server) or LigerConfig()
            for server, strategy in SCENARIOS
            if strategy == "liger"
        ]
        default = LigerConfig()
        for f in fields(LigerConfig):
            assert any(
                getattr(c, f.name) != getattr(default, f.name) for c in configs
            ), f"no golden scenario sets LigerConfig.{f.name}"
        assert {c.sync_mode for c in configs} == set(SyncMode)
        assert {c.policy for c in configs} == set(POLICIES)


class TestCacheOffEquivalence:
    @pytest.fixture
    def cold_caches(self, monkeypatch):
        """Empty every hot-path cache before each use, so every lookup
        misses and each value comes from its cold computation."""
        from repro.core.decomposition import DecompositionPlanner
        from repro.parallel import base
        from repro.profiling.profiler import OpProfiler
        from repro.sim import gpu
        from repro.sim.interconnect import CollectiveCostModel

        # The strategy's launch-list cache.
        monkeypatch.setattr(base, "CACHE_SIZE", 0)
        monkeypatch.setattr(gpu, "_SHAPE_CACHE_LIMIT", -1)

        def cold(cls, method, memo):
            warm = getattr(cls, method)

            def cold_method(self, *args):
                getattr(self, memo).clear()
                return warm(self, *args)

            monkeypatch.setattr(cls, method, cold_method)

        cold(OpProfiler, "kernel_profile", "_profiles")
        cold(OpProfiler, "duration", "_cache")
        # The collective duration memo and the §3.6 division tables.
        cold(CollectiveCostModel, "instantiate", "_durations")
        cold(DecompositionPlanner, "_table", "_tables")

    @pytest.mark.parametrize("server,strategy", GOLDEN_SCENARIOS)
    def test_cache_off_matches_golden(self, server, strategy, cold_caches):
        """Computing every op list, assembly, kernel profile and contention
        slowdown cold must not move a single float."""
        goldens = _load_goldens()
        keep = []
        result, trace = run_scenario(server, strategy, keep=keep)
        assert fingerprint(trace, result.overload, result.resilience) == goldens[
            f"{server}/{strategy}"
        ], (
            f"{server}/{strategy}: cache-off timeline diverged from the "
            "golden — a cache is not bit-identical"
        )
        assert not keep[0].machine._shape_cache
        assert not keep[0].strategy._launch_lists
        assert keep[0].strategy.cache_hits == 0


# ----------------------------------------------------------------------
# The chassis itself
# ----------------------------------------------------------------------
class TestServingSession:
    """The submit path, observed: admission → announce → dispatch stamp →
    publish → submit."""

    @staticmethod
    def _armed():
        return dict(
            fault_plan=FaultPlan([LaunchFailure(start=0.0, end=1.0)]),
            observability=Observability(),
        )

    @staticmethod
    def _record_handoffs(monkeypatch, target, name, bus=None, forward=False):
        """Wrap ``target.name`` to record (batch, dispatch stamps, last bus
        event) at each hand-off; the batch goes on only with ``forward``."""
        real = getattr(target, name)
        seen = []

        def _handoff(batch):
            last = bus.events[-1] if bus is not None else None
            seen.append((batch, [r.dispatched_at for r in batch.requests], last))
            if forward:
                real(batch)

        monkeypatch.setattr(target, name, _handoff)
        return seen

    def test_pipeline_stage_order_plain(self, monkeypatch):
        """No recovery, no bus: the batch reaches the strategy at once with
        its dispatch time stamped."""
        srv, _ = self._serve_batches()
        assert srv.recovery is None
        assert srv.bus is None
        seen = self._record_handoffs(
            monkeypatch, srv.strategy, "submit_batch", forward=True
        )
        batch = Batch([Request(rid=0, arrival=5.0, seq_len=8)])
        srv.run([batch])
        assert [(b, stamps) for b, stamps, _ in seen] == [(batch, [5.0])]

    def _assert_admitted_then_dispatched(self, server, seen):
        """Per batch: RequestsAdmitted, then BatchDispatched, then the
        hand-off with the dispatch stamped and published just before."""
        events = server.bus.events
        assert seen
        for batch, stamps, last in seen:
            bid = batch.batch_id
            kinds = [
                e.kind for e in events
                if getattr(e, "batch_id", None) == bid
                and e.kind in ("admitted", "dispatched")
            ]
            assert kinds == ["admitted", "dispatched"], (bid, kinds)
            assert last.kind == "dispatched" and last.batch_id == bid
            assert stamps == [last.time_us] * batch.size

    def _serve_batches(self, **kw):
        from repro.serving.workload import general_trace

        srv = Server(
            MODEL, NODE, make_strategy("intra", MODEL, NODE),
            check_memory=False, **kw,
        )
        return srv, general_trace(8, 200.0, 2, seed=0)

    def test_pipeline_stage_order_fully_armed(self, monkeypatch):
        """Batch server, fully armed: admission, a KV ledger and recovery,
        and every admitted batch reaches the recovery manager."""
        from repro.serving.overload import OverloadConfig

        srv, batches = self._serve_batches(
            overload=OverloadConfig(), **self._armed()
        )
        assert srv.recovery is not None
        assert srv.recovery.on_shed == srv._on_shed
        assert srv.memory is not None
        assert srv.recovery.metrics is srv.metrics
        assert srv.strategy.track_memory
        seen = self._record_handoffs(
            monkeypatch, srv.recovery, "submit", bus=srv.bus, forward=True
        )
        result = srv.run(batches)
        assert result.metrics.num_completed == sum(b.size for b in batches)
        assert sorted(b.batch_id for b, _, _ in seen) == sorted(
            b.batch_id for b in batches
        )
        self._assert_admitted_then_dispatched(srv, seen)

    def test_announce_path_orders_admitted_before_dispatched(self, monkeypatch):
        """Bus on, overload off: the server announces each batch, then
        stamps, publishes and submits it to the strategy."""
        srv, batches = self._serve_batches(observability=Observability())
        assert srv.memory is None and srv.recovery is None
        seen = self._record_handoffs(
            monkeypatch, srv.strategy, "submit_batch", bus=srv.bus,
            forward=True,
        )
        srv.run(batches)
        assert len(seen) == len(batches)
        self._assert_admitted_then_dispatched(srv, seen)

    def test_per_job_mode_leaves_accounting_to_the_server(self, monkeypatch):
        """Job mode: the strategy tracks no memory, recovery sheds reach
        only the server's callback, and a hand-off announces nothing."""
        srv = ContinuousBatchingServer(
            MODEL, NODE, make_strategy("intra", MODEL, NODE),
            check_memory=False, **self._armed(),
        )
        assert srv.recovery.on_shed == srv._on_shed
        # Retries count in the one tally; a batch the server does not own
        # is left alone: nothing is shed and its request stays pending.
        assert srv.recovery.metrics is srv.metrics
        batch = Batch([Request(rid=0, arrival=0.0, seq_len=8)])
        srv.recovery.on_shed(batch)
        assert srv.metrics.shed_requests == 0
        assert batch.requests[0].state is RequestState.PENDING
        assert not srv.strategy.track_memory
        seen = self._record_handoffs(
            monkeypatch, srv.recovery, "submit", bus=srv.bus
        )
        srv.submit(batch)
        assert [e.kind for e in srv.bus.events] == ["dispatched"]
        assert seen == [(batch, [0.0], srv.bus.events[0])]

    def test_strategy_mismatch_rejected(self):
        other = MODELS["OPT-13B"].scaled_layers(4)
        strat = make_strategy("intra", other, NODE)
        with pytest.raises(ConfigError, match="different model/node"):
            Server(MODEL, NODE, strat, check_memory=False)


# ----------------------------------------------------------------------
# What a run accepts
# ----------------------------------------------------------------------
def _server_and_jobs(kind):
    """A small server of ``kind`` and a workload for it."""
    from repro.serving.workload import general_trace

    strat = make_strategy("intra", MODEL, NODE)
    if kind == "server":
        return Server(MODEL, NODE, strat, check_memory=False), general_trace(
            4, 200.0, 2, seed=0
        )
    if kind == "lifecycle":
        return LifecycleServer(MODEL, NODE, strat, check_memory=False), (
            chat_workload(4, 200.0, seed=0)
        )
    cls = StaticBatchingServer if kind == "static" else ContinuousBatchingServer
    return cls(MODEL, NODE, strat, check_memory=False), generation_workload(
        4, 200.0, seed=0
    )


SERVER_KINDS = ["server", "static", "continuous", "lifecycle"]


class TestRunInputs:
    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_duplicate_rids_rejected_up_front(self, kind):
        """Two requests with one rid are a usage error on every server,
        raised before anything is scheduled; the server can still serve."""
        srv, jobs = _server_and_jobs(kind)
        requests = [r for job in jobs for r in getattr(job, "requests", [job])]
        rid = requests[0].rid
        requests[-1].rid = rid
        with pytest.raises(ConfigError, match=f"duplicate request id {rid}"):
            srv.run(jobs)
        assert srv.engine.events_processed == 0
        assert srv.engine.now == 0.0
        requests[-1].rid = max(r.rid for r in requests) + 1
        srv.run(jobs)
        assert srv.metrics.num_completed == len(requests)

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_second_run_rejected(self, kind):
        """A server serves one run: a second call is a usage error raised
        before anything is scheduled."""
        srv, jobs = _server_and_jobs(kind)
        srv.run(jobs)
        events, now = srv.engine.events_processed, srv.engine.now
        with pytest.raises(ConfigError, match="serves one run"):
            srv.run(jobs)
        assert (srv.engine.events_processed, srv.engine.now) == (events, now)


# ----------------------------------------------------------------------
# New capabilities on the generation servers
# ----------------------------------------------------------------------
class TestContinuousBatchingCapabilities:
    def _serve(self, jobs, **cfg_kwargs):
        strat = make_strategy("liger", MODEL, NODE)
        srv = ContinuousBatchingServer(
            MODEL, NODE, strat, max_batch=8, pipeline_depth=2,
            check_memory=False, **cfg_kwargs,
        )
        return srv.run(jobs)

    def test_fault_injection_with_recovery(self):
        """A launch-fail window triggers retries, yet every job completes;
        the retries land in the one tally every view reads."""
        obs = Observability()
        jobs = generation_workload(8, 200.0, seed=0)
        plan = FaultPlan([LaunchFailure(start=0.0, end=20_000.0)])
        result = self._serve(
            jobs,
            fault_plan=plan,
            resilience=ResilienceConfig(max_retries=8),
            observability=obs,
        )
        assert result.resilience is not None
        assert result.metrics.retries > 0
        assert result.resilience.retries == result.metrics.retries
        retries = obs.registry.counter("repro_retries_total", "")
        assert retries.total() == result.metrics.retries
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
            resilience=ResilienceConfig(max_retries=8),
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

        jobs = generation_workload(16, 8000.0, seed=5)
        strat = make_strategy("intra", MODEL, NODE)
        srv = StaticBatchingServer(
            MODEL, NODE, strat, batch_size=4, check_memory=False,
            overload=OverloadConfig(max_pending_requests=4, policy="reject"),
        )
        result = srv.run(jobs)
        assert result.overload is not None
        # Groups are atomic: sheds come in multiples of the group size.
        assert result.metrics.shed_requests % 4 == 0
        assert result.metrics.num_terminal == 16

    def test_retry_exhaustion_sheds_group(self):
        """A permanent launch-fail window sheds the whole afflicted group."""
        jobs = generation_workload(4, 400.0, seed=6)
        strat = make_strategy("intra", MODEL, NODE)
        srv = StaticBatchingServer(
            MODEL, NODE, strat, batch_size=4, check_memory=False,
            fault_plan=FaultPlan([LaunchFailure(start=0.0, end=1e12)]),
            resilience=ResilienceConfig(max_retries=1),
        )
        result = srv.run(jobs)
        assert result.metrics.shed_requests == 4
        assert result.metrics.num_completed == 0
        assert result.metrics.num_terminal == 4


class TestRetryExhaustedJobs:
    @pytest.mark.parametrize("kind", ["static", "lifecycle"])
    def test_permanent_window_returns(self, kind):
        """A launch-fail window that outlasts the work sheds every job, and
        the run returns as it does under a window that closes."""

        def serve(end):
            strat = make_strategy("intra", MODEL, NODE)
            kw = dict(
                check_memory=False,
                fault_plan=FaultPlan([LaunchFailure(start=0.0, end=end)]),
                resilience=ResilienceConfig(),
            )
            if kind == "static":
                jobs = generation_workload(4, 400.0, seed=6)
                srv = StaticBatchingServer(MODEL, NODE, strat, batch_size=4, **kw)
            else:
                jobs = chat_workload(4, 400.0, seed=6)
                srv = LifecycleServer(MODEL, NODE, strat, **kw)
            srv.run(jobs)
            assert srv.metrics.shed_requests == srv.metrics.num_terminal == 4

        serve(200_000.0)
        serve(1e12)

    @pytest.mark.parametrize(
        "kind,start_us", [("continuous", 0.0), ("lifecycle", 10_000.0)]
    )
    def test_permanent_window_after_decode_started_returns(self, kind, start_us):
        """A window that never closes once decode runs: a job whose decode
        iterations were shed ``max_retries + 1`` times in a row is shed, so
        the run returns.  Every job ends in one terminal state and no KV
        reservation is left, as under a window that closes."""

        def serve(end):
            strat = make_strategy("intra", MODEL, NODE)
            kw = dict(
                check_memory=False,
                fault_plan=FaultPlan([LaunchFailure(start=start_us, end=end)]),
                resilience=ResilienceConfig(),
            )
            if kind == "continuous":
                jobs = generation_workload(4, 400.0, seed=6)
                srv = ContinuousBatchingServer(MODEL, NODE, strat, **kw)
            else:
                jobs = chat_workload(4, 400.0, seed=6)
                srv = LifecycleServer(MODEL, NODE, strat, **kw)
            srv.run(jobs)
            m = srv.metrics
            assert all(job.state.terminal for job in jobs)
            assert m.num_terminal == 4
            assert m.num_completed + m.shed_requests + m.timed_out_requests == 4
            clean = NodeMemoryModel(MODEL, NODE)
            assert [d.used for d in srv.memory.devices] == [
                d.used for d in clean.devices
            ]
            return m

        serve(start_us + 200_000.0)
        permanent = serve(1e12)
        assert permanent.shed_requests > 0
        if kind == "continuous":
            # A 20 ms window is survived: the streak limit only sheds a job
            # whose iterations keep failing.
            short = serve(20_000.0)
            assert short.num_completed == 4

    @pytest.mark.parametrize("start_us", [0.0, 3_000.0, 8_000.0])
    @pytest.mark.parametrize("kind", ["continuous", "lifecycle"])
    def test_shed_iterations_leave_one_terminal_state_and_no_kv(self, kind, start_us):
        """A 2 ms launch-fail window with no retries sheds iterations; the
        job servers requeue (or, for a lifecycle prefill, shed) their jobs,
        and the run still ends clean."""
        strat = make_strategy("liger", MODEL, NODE)
        kw = dict(
            check_memory=False,
            fault_plan=FaultPlan([LaunchFailure(start=start_us, end=start_us + 2_000.0)]),
            resilience=ResilienceConfig(max_retries=0),
        )
        if kind == "continuous":
            jobs = generation_workload(8, 1000.0, seed=0)
            srv = ContinuousBatchingServer(MODEL, NODE, strat, max_batch=8, **kw)
        else:
            jobs = chat_workload(8, 1000.0, seed=0)
            srv = LifecycleServer(MODEL, NODE, strat, prefill_batch=2, **kw)
        shed = []
        to_session = srv.recovery.on_shed
        srv.recovery.on_shed = lambda batch: (shed.append(batch.batch_id), to_session(batch))
        result = srv.run(jobs)
        m = srv.metrics
        # Every job reaches exactly one terminal state.
        states = [job.state for job in jobs]
        assert all(state.terminal for state in states)
        assert m.num_terminal == len(jobs)
        completed = [r.rid for r in m.completed]
        assert len(set(completed)) == len(completed)
        assert sorted(completed) == sorted(
            job.rid for job in jobs if job.state is RequestState.COMPLETED
        )
        assert m.shed_requests == states.count(RequestState.SHED)
        # The resilience report counts every shed batch, once.
        assert shed and result.resilience.shed_batches == shed
        assert len(set(shed)) == len(shed)
        # No KV reservation outlives the run: only the weights remain.
        clean = NodeMemoryModel(MODEL, NODE)
        assert [d.used for d in srv.memory.devices] == [d.used for d in clean.devices]


# ----------------------------------------------------------------------
# Lifecycle: zero-completion runs return a valid result (satellite)
# ----------------------------------------------------------------------
class TestLifecycleZeroCompletion:
    def test_all_timed_out_returns_valid_result(self):
        from repro.serving.overload import OverloadConfig

        chats = chat_workload(4, 100.0, seed=0)
        strat = make_strategy("intra", MODEL, NODE)
        srv = LifecycleServer(
            MODEL, NODE, strat, prefill_batch=2, check_memory=False,
            overload=OverloadConfig(
                max_pending_requests=64, default_deadline_us=1.0
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
