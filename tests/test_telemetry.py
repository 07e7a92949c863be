"""Tests for the telemetry store, SLO burn-rate engine, and the
critical-path analyzer (plus their advisory wiring)."""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.models.specs import OPT_30B
from repro.obs import (
    BatchCompleted,
    EventBus,
    Observability,
    ObservabilityConfig,
    RequestsShed,
    analyze_critical_path,
    validate_merged_trace,
)
from repro.obs.metrics import Histogram
from repro.obs.slo import BurnRule, SloEngine, SloPolicy
from repro.obs.telemetry import TimeSeriesStore
from repro.sim.kernel import KernelKind
from repro.sim.tracing import Trace, TraceRow

MODEL = OPT_30B.scaled_layers(2)
NODE = v100_nvlink_node(2)


# ----------------------------------------------------------------------
# TimeSeriesStore
# ----------------------------------------------------------------------
class TestTimeSeriesStore:
    def test_gauge_series_and_latest(self):
        s = TimeSeriesStore(window_us=1_000.0)
        s.record_gauge("g", 100.0, 1.0)
        s.record_gauge("g", 1_500.0, 2.0)
        s.record_gauge("g", 1_900.0, 3.0)  # same window: last write wins
        assert s.series("g") == [(0.0, 1.0), (1_000.0, 3.0)]
        assert s.latest("g") == 3.0
        assert s.latest("missing") is None

    def test_counter_rate_is_delta_over_span(self):
        s = TimeSeriesStore(window_us=1_000.0)
        for t, cum in ((0.0, 0.0), (1_000.0, 50.0), (2_000.0, 200.0)):
            s.record_counter("c_total", t, cum)
        # (200 - 0) / 2ms = 100_000/s over the whole history.
        assert s.rate("c_total") == pytest.approx(100_000.0)
        # Last two windows only: (200 - 50) / 1ms.
        assert s.rate("c_total", windows=2) == pytest.approx(150_000.0)
        assert s.window_rates("c_total") == [
            (1_000.0, pytest.approx(50_000.0)),
            (2_000.0, pytest.approx(150_000.0)),
        ]
        assert s.rate("c_total", windows=1) == 0.0  # needs two samples

    def test_percentile_nearest_rank(self):
        s = TimeSeriesStore(window_us=1_000.0)
        for v in range(1, 101):
            s.observe("lat", 500.0, float(v))
        assert s.percentile("lat", 0.5) == 50.0
        assert s.percentile("lat", 0.99) == 99.0
        assert s.percentile("lat", 1.0) == 100.0
        assert s.percentile("lat", 0.0) == 1.0
        assert s.observation_count("lat") == 100
        assert s.percentile("missing", 0.5) is None
        with pytest.raises(ConfigError):
            s.percentile("lat", 1.5)

    def test_percentile_windowed(self):
        s = TimeSeriesStore(window_us=1_000.0)
        s.observe("lat", 500.0, 1_000.0)
        s.observe("lat", 1_500.0, 1.0)
        assert s.percentile("lat", 1.0) == 1_000.0
        assert s.percentile("lat", 1.0, windows=1) == 1.0

    def test_ring_eviction(self):
        s = TimeSeriesStore(window_us=1_000.0, max_windows=2)
        for i in range(4):
            s.record_gauge("g", i * 1_000.0, float(i))
        assert len(s.windows) == 2
        assert s.evicted_windows == 2
        assert s.series("g") == [(2_000.0, 2.0), (3_000.0, 3.0)]

    def test_straggler_lands_in_older_window(self):
        s = TimeSeriesStore(window_us=1_000.0)
        s.record_gauge("g", 2_500.0, 1.0)
        s.record_gauge("h", 2_400.0, 9.0)  # not newer: clamped, no new window
        assert len(s.windows) == 1

    def test_federation_rollup(self):
        s = TimeSeriesStore(window_us=1_000.0)
        s.record_gauge("inflight", 100.0, 3.0, replica="0")
        s.record_gauge("inflight", 100.0, 5.0, replica="1")
        s.record_gauge("inflight", 1_200.0, 1.0, replica="0")
        assert s.sum_latest("inflight") == 6.0  # 1 (latest r0) + 5 (r1)
        assert s.series("inflight", replica="0") == [(0.0, 3.0), (1_000.0, 1.0)]
        assert s.label_sets("inflight") == [{"replica": "0"}, {"replica": "1"}]

    def test_sources_sampled_on_pump(self):
        from repro.obs.metrics import MetricsRegistry

        s = TimeSeriesStore(window_us=1_000.0)
        box = {"v": 2.0}
        s.add_source("live", lambda: box["v"], replica="0")
        s.pump(MetricsRegistry(), 100.0)
        box["v"] = 7.0
        s.pump(MetricsRegistry(), 1_100.0)
        assert s.series("live", replica="0") == [(0.0, 2.0), (1_000.0, 7.0)]

    def test_kind_collision_raises(self):
        s = TimeSeriesStore()
        s.record_gauge("x", 0.0, 1.0)
        with pytest.raises(ConfigError):
            s.record_counter("x", 0.0, 1.0)

    def test_prometheus_export_has_timestamps(self):
        s = TimeSeriesStore(window_us=1_000.0)
        s.record_counter("c_total", 0.0, 1.0)
        s.record_counter("c_total", 1_000.0, 4.0)
        s.record_gauge("g", 1_000.0, 2.5, replica="0")
        text = s.to_prometheus()
        assert "# TYPE c_total counter" in text
        assert "c_total 1 0" in text and "c_total 4 1" in text
        assert 'g{replica="0"} 2.5 1' in text
        # One TYPE header per family, in spec order before its samples.
        assert text.count("# TYPE c_total") == 1

    def test_save_series_json_and_prom(self, tmp_path):
        s = TimeSeriesStore(window_us=1_000.0)
        s.record_gauge("g", 0.0, 1.0)
        s.observe("lat", 0.0, 5.0)
        jpath = tmp_path / "series.json"
        s.save_series(str(jpath))
        snap = json.loads(jpath.read_text())
        assert snap["window_us"] == 1_000.0
        assert snap["windows"][0]["gauges"] == {"g": 1.0}
        assert snap["windows"][0]["observations"] == {"lat": [5.0]}
        ppath = tmp_path / "series.prom"
        s.save_series(str(ppath))
        assert "# TYPE g gauge" in ppath.read_text()

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            TimeSeriesStore(window_us=0.0)
        with pytest.raises(ConfigError):
            TimeSeriesStore(max_windows=1)


# ----------------------------------------------------------------------
# Histogram percentile queries (dirty flag + reused sorted buffer)
# ----------------------------------------------------------------------
class TestHistogramPercentile:
    def test_nearest_rank(self):
        h = Histogram("h", "help")
        for v in range(1, 11):
            h.observe(float(v))
        assert h.percentile(0.5) == 5.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 10.0

    def test_query_after_query_reuses_sorted_buffer(self):
        h = Histogram("h", "help")
        for v in (5.0, 1.0, 3.0):
            h.observe(v)
        assert h.percentile(0.5) == 3.0
        for _ in range(5):
            assert h.percentile(0.5) == 3.0
        assert h.sort_count == 1  # one sort serves every repeat query
        h.observe(0.5)  # dirties the buffer
        assert h.percentile(0.0) == 0.5
        assert h.sort_count == 2

    def test_empty_and_invalid(self):
        h = Histogram("h", "help")
        assert h.percentile(0.5) is None
        with pytest.raises(ConfigError):
            h.percentile(-0.1)


# ----------------------------------------------------------------------
# SLO burn-rate engine
# ----------------------------------------------------------------------
def _completed(t, rids, latencies, batch_id=0):
    return BatchCompleted(
        time_us=t,
        batch_id=batch_id,
        rids=tuple(rids),
        completed_rids=tuple(rids),
        latencies_us=tuple(latencies),
        slo_tracked=0,
        slo_met=0,
        deadline_misses=0,
    )


def _shed(t, rids, batch_id=0):
    return RequestsShed(
        time_us=t,
        batch_id=batch_id,
        rids=tuple(rids),
        where="admission",
        slo_tracked=len(rids),
    )


def _engine(policies, window_us=1_000.0):
    bus = EventBus()
    store = TimeSeriesStore(window_us=window_us)
    return SloEngine(policies, bus=bus, store=store), bus, store


class TestSloEngine:
    def _availability_policy(self):
        return SloPolicy(
            "avail",
            target=0.9,
            fast=BurnRule("fast", long_windows=2, short_windows=1, threshold=5.0),
            slow=BurnRule("slow", long_windows=4, short_windows=2, threshold=2.0),
        )

    def test_fast_burn_fires_when_both_spans_exceed(self):
        eng, bus, store = _engine([self._availability_policy()])
        # Windows 1 and 2: pure sheds -> error rate 1.0, burn 10x.
        bus.publish(_shed(1_100.0, range(5)))
        bus.publish(_shed(2_100.0, range(5), batch_id=1))
        fired = eng.evaluate(2_900.0)  # judges window 2
        severities = {a.severity for a in fired}
        assert severities == {"fast", "slow"}
        alert = next(a for a in fired if a.severity == "fast")
        assert alert.policy == "avail" and alert.objective == "availability"
        assert alert.burn_long == pytest.approx(10.0)
        assert alert.burn_short == pytest.approx(10.0)
        assert eng.under_fast_burn()
        # The burn-rate gauge landed in the store for both rules.
        assert store.latest("repro_slo_burn_rate", policy="avail", severity="fast") == (
            pytest.approx(10.0)
        )
        # And the alert rode the bus (-> Prometheus counter / timeline instant).
        assert [e.kind for e in bus.events if e.kind == "slo-burn-alert"]

    def test_quiet_short_window_gates_the_page(self):
        eng, bus, _ = _engine([self._availability_policy()])
        bus.publish(_shed(1_100.0, range(20)))  # window 1: all bad
        bus.publish(_completed(2_100.0, range(10), [1.0] * 10))  # window 2: good
        fired = eng.evaluate(2_900.0)
        # Long span burns 6.7x >= 5 but the short (current) window is clean.
        assert not [a for a in fired if a.severity == "fast"]
        assert not eng.under_fast_burn()

    def test_alert_resolves_when_short_burn_drops(self):
        eng, bus, _ = _engine([self._availability_policy()])
        bus.publish(_shed(1_100.0, range(5)))
        bus.publish(_shed(2_100.0, range(5), batch_id=1))
        assert eng.evaluate(2_900.0)
        bus.publish(_completed(3_100.0, range(8), [1.0] * 8))
        assert eng.evaluate(3_900.0) == []  # nothing new fires
        assert not eng.under_fast_burn()
        assert "slo-alert-resolved" in [e.kind for e in bus.events]
        # A re-fire later produces a fresh alert, not a duplicate.
        bus.publish(_shed(4_100.0, range(9), batch_id=2))
        refired = eng.evaluate(4_900.0)
        assert [a.severity for a in refired].count("fast") == 1

    def test_each_window_judged_once(self):
        eng, bus, _ = _engine([self._availability_policy()])
        bus.publish(_shed(1_100.0, range(5)))
        bus.publish(_shed(2_100.0, range(5), batch_id=1))
        assert eng.evaluate(2_900.0)
        assert eng.evaluate(2_950.0) == []  # same window: idempotent
        assert len(eng.alerts) == 2  # fast + slow, once each

    def test_latency_objective_classifies_by_threshold(self):
        policy = SloPolicy(
            "lat",
            objective="latency",
            target=0.5,
            latency_threshold_ms=1.0,
            fast=BurnRule("fast", long_windows=1, short_windows=1, threshold=1.5),
        )
        eng, bus, _ = _engine([policy])
        # 1 under the 1ms cut, 3 over -> error rate 0.75, burn 1.5x.
        bus.publish(_completed(100.0, range(4), [500.0, 2_000.0, 3_000.0, 4_000.0]))
        fired = eng.evaluate(900.0)
        assert [a for a in fired if a.severity == "fast"]

    def test_no_data_means_no_burn(self):
        eng, _, _ = _engine([self._availability_policy()])
        assert eng.evaluate(10_000.0) == []
        assert not eng.under_fast_burn()

    def test_alert_table_renders(self):
        eng, bus, _ = _engine([self._availability_policy()])
        assert eng.alert_table() == "no SLO alerts fired\n"
        bus.publish(_shed(1_100.0, range(5)))
        bus.publish(_shed(2_100.0, range(5), batch_id=1))
        eng.evaluate(2_900.0)
        table = eng.alert_table()
        assert "avail" in table and "fast" in table and "10.0x" in table

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ConfigError):
            _engine([SloPolicy("a"), SloPolicy("a", target=0.5)])

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            SloPolicy("x", objective="throughput")
        with pytest.raises(ConfigError):
            SloPolicy("x", target=1.0)
        with pytest.raises(ConfigError):
            SloPolicy("x", objective="latency")  # missing threshold
        with pytest.raises(ConfigError):
            BurnRule("fast", long_windows=1, short_windows=2)


# ----------------------------------------------------------------------
# Advisory wiring (breaker watermark + router spread)
# ----------------------------------------------------------------------
class TestAdvisory:
    def test_default_observability_has_no_advisor(self):
        assert Observability().fast_burn_advisor() is None
        armed = Observability(
            ObservabilityConfig(slo_policies=(SloPolicy("avail"),))
        )
        assert armed.fast_burn_advisor() is not None

    def test_breaker_trips_at_low_watermark_under_advisory(self):
        from repro.serving.metrics import ServingMetrics
        from repro.serving.overload import OverloadConfig, OverloadController
        from repro.serving.workload import general_trace
        from repro.sim.engine import Engine

        cfg = OverloadConfig(max_pending_requests=8, breaker_trip_checks=1)
        ctl = OverloadController(
            cfg, MODEL, NODE, Engine(), ServingMetrics(), lambda b: None
        )
        assert (ctl._low, ctl._high) == (2, 6)
        # Depth 4: between the watermarks.
        ctl._pending.extend(general_trace(4, 1_000.0, 2, seed=0))
        ctl._breaker_check()
        assert not ctl.breaker_open  # 4 <= high watermark 6
        ctl.attach_advisor(lambda: True)
        ctl._breaker_check()
        assert ctl.breaker_open  # 4 > lowered watermark 2
        assert ctl.advisory_trips == 1
        (event,) = ctl.report.events
        assert "advisory" in event.reason

    def test_router_spreads_instead_of_affinity_under_advisory(self):
        from repro.cluster.cluster import Cluster
        from repro.serving.workload import general_trace

        cluster = Cluster(
            MODEL,
            NODE,
            replicas=2,
            strategy="intra",
            check_memory=False,
            affinity=lambda b: "tenant",
            seed=0,
        )
        router = cluster.router
        batches = general_trace(8, 1_000.0, 2, seed=0)
        home = router._pick_target(batches[0], frozenset())
        assert router._pick_target(batches[1], frozenset()) == home
        assert router.advisory_spreads == 0
        router.attach_advisor(lambda: True)
        router._pick_target(batches[2], frozenset())
        assert router.advisory_spreads == 1


# ----------------------------------------------------------------------
# Critical-path analyzer: synthetic walks
# ----------------------------------------------------------------------
def _row(gpu, ready, start, end, *, kind=KernelKind.COMPUTE, op="gemm", noload=None):
    return TraceRow(
        gpu=gpu, stream=f"s{gpu}", name=f"{op}_b0@g{gpu}", kind=kind,
        batch_id=0, layer=0, op=op, ready=ready, start=start, end=end,
        noload_duration=(end - start) if noload is None else noload,
    )


class TestAnalyzerSynthetic:
    def test_empty_input(self):
        report = analyze_critical_path()
        assert report.makespan_us == 0.0 and report.path == []

    def test_device_gated_gap_becomes_device_wait(self):
        t = Trace()
        t.rows.append(_row(0, 0.0, 0.0, 10.0))
        t.rows.append(_row(0, 5.0, 20.0, 30.0))
        report = analyze_critical_path(t)
        assert [(s.kind, s.name) for s in report.path] == [
            ("compute", "gemm"), ("wait", "device"), ("compute", "gemm"),
        ]
        assert report.path_coverage_us == pytest.approx(report.makespan_us)
        (lane,) = report.per_gpu
        assert lane.compute_us == pytest.approx(20.0)
        assert lane.idle_us == pytest.approx(10.0)
        assert lane.total_us == pytest.approx(report.makespan_us)

    def test_input_gated_hop_crosses_gpus(self):
        t = Trace()
        t.rows.append(_row(0, 0.0, 0.0, 10.0))
        t.rows.append(_row(1, 10.0, 10.0, 25.0, kind=KernelKind.COMM, op="all_reduce"))
        report = analyze_critical_path(t)
        assert [(s.kind, s.gpu) for s in report.path] == [
            ("compute", 0), ("comm", 1),
        ]
        assert report.path_coverage_us == pytest.approx(25.0)

    def test_contention_carved_proportionally(self):
        t = Trace()
        # 10us of work inflated to 20us: 10us of contention.
        t.rows.append(_row(0, 0.0, 0.0, 20.0, noload=10.0))
        report = analyze_critical_path(t)
        (lane,) = report.per_gpu
        assert lane.contention_us == pytest.approx(10.0)
        assert lane.compute_us == pytest.approx(10.0)
        assert lane.total_us == pytest.approx(report.makespan_us)

    def test_top_segments_aggregate_by_kind_and_op(self):
        t = Trace()
        t.rows.append(_row(0, 0.0, 0.0, 10.0))
        t.rows.append(_row(0, 0.0, 10.0, 30.0))
        report = analyze_critical_path(t)
        (top,) = report.top_segments()
        assert top == ("compute", "gemm", pytest.approx(30.0), 2)
        assert "critical path" in report.describe()


# ----------------------------------------------------------------------
# Acceptance: attribution partitions the makespan on every server
# ----------------------------------------------------------------------
def _assert_partitions(report):
    assert report.makespan_us > 0
    assert report.per_gpu
    for lane in report.per_gpu:
        assert lane.total_us == pytest.approx(report.makespan_us, rel=1e-9), lane.lane


class TestAttributionAcceptance:
    def _strategy(self):
        from repro.serving.api import make_strategy

        return make_strategy("liger", MODEL, NODE)

    def test_plain_server(self):
        from repro.serving.server import Server
        from repro.serving.workload import general_trace

        srv = Server(MODEL, NODE, self._strategy(), record_trace=True,
                     check_memory=False)
        srv.run(general_trace(8, 200.0, 2, seed=0))
        _assert_partitions(analyze_critical_path(srv.trace))

    def test_static_batching_server(self):
        from repro.serving.generation import (
            StaticBatchingServer,
            generation_workload,
        )

        srv = StaticBatchingServer(MODEL, NODE, self._strategy(), batch_size=4,
                                   record_trace=True, check_memory=False)
        srv.run(generation_workload(8, 200.0, seed=0))
        _assert_partitions(analyze_critical_path(srv.trace))

    def test_continuous_batching_server(self):
        from repro.serving.generation import (
            ContinuousBatchingServer,
            generation_workload,
        )

        srv = ContinuousBatchingServer(MODEL, NODE, self._strategy(),
                                       max_batch=8, pipeline_depth=2,
                                       record_trace=True, check_memory=False)
        srv.run(generation_workload(8, 200.0, seed=0))
        _assert_partitions(analyze_critical_path(srv.trace))

    def test_lifecycle_server(self):
        from repro.serving.lifecycle import LifecycleServer, chat_workload

        srv = LifecycleServer(MODEL, NODE, self._strategy(), prefill_batch=2,
                              max_decode_batch=8, record_trace=True,
                              check_memory=False)
        srv.run(chat_workload(4, 120.0, seed=0))
        _assert_partitions(analyze_critical_path(srv.trace))


# ----------------------------------------------------------------------
# Chaos integration: lanes per incarnation, validated merged timeline
# ----------------------------------------------------------------------
class TestChaosTelemetry:
    @pytest.fixture(scope="class")
    def chaos_run(self):
        from repro.cluster.chaos import ChaosConfig, run_chaos

        obs = Observability(
            ObservabilityConfig(
                telemetry=True,
                window_us=20_000.0,
                slo_policies=(SloPolicy("avail", target=0.9),),
            )
        )
        config = ChaosConfig(
            replicas=3, crashes=1, seed=7, num_requests=36, rate=60.0,
            record_trace=True,
        )
        report = run_chaos(config, observability=obs)
        return obs, report

    def test_attribution_sums_on_every_incarnation_lane(self, chaos_run):
        obs, report = chaos_run
        path_report = obs.critical_path(traces=report.result.traces)
        _assert_partitions(path_report)
        # The crash produced a fresh incarnation -> a distinct lane label.
        labels = {lane.replica for lane in path_report.per_gpu}
        assert any(re.match(r"node\d+r\d+", lbl) for lbl in labels)

    def test_merged_trace_validates_with_lifecycle_instants(self, chaos_run):
        obs, report = chaos_run
        merged = obs.merged_chrome_trace(traces=report.result.traces)
        counts = validate_merged_trace(merged)
        assert counts["kernel"] > 0 and counts["span"] > 0
        instants = [
            ev["name"] for ev in merged["traceEvents"] if ev.get("ph") == "i"
        ]
        assert "node-crash" in instants
        assert "failover" in instants
        ts = [ev["ts"] for ev in merged["traceEvents"]]
        assert ts == sorted(ts)

    def test_store_federates_per_replica_series(self, chaos_run):
        obs, _ = chaos_run
        sets = obs.telemetry.label_sets("repro_cluster_node_alive")
        assert sets == [{"replica": "0"}, {"replica": "1"}, {"replica": "2"}]
        # The crashed replica's liveness series dipped to 0 and came back.
        crashed = [
            lbl["replica"]
            for lbl in sets
            if 0.0 in dict(obs.telemetry.series(
                "repro_cluster_node_alive", replica=lbl["replica"]
            )).values()
        ]
        assert crashed
        # Lifecycle transitions landed in the registry counter too.
        c = obs.registry._counters["repro_node_lifecycle_total"]
        assert c.value(kind="crash") >= 1
        assert c.value(kind="recover") >= 1


# ----------------------------------------------------------------------
# Zero-cost contract: telemetry moves no kernel
# ----------------------------------------------------------------------
def _normalized_rows(trace):
    base = min(r.batch_id for r in trace.rows)
    fix = lambda name: re.sub(
        r"_b(\d+)", lambda m: f"_b{int(m.group(1)) - base}", name
    )
    return [
        (
            r.gpu, r.stream, fix(r.name), r.kind, r.batch_id - base,
            r.layer, r.op, r.ready, r.start, r.end, r.noload_duration,
        )
        for r in trace.rows
    ]


class TestZeroCost:
    def test_telemetry_enabled_run_is_bit_identical(self):
        from repro.serving.api import serve

        def _run(observability):
            return serve(
                MODEL, NODE, strategy="liger", arrival_rate=400.0,
                num_requests=12, batch_size=2, seed=0, record_trace=True,
                observability=observability,
            )

        plain = _run(None)
        observed = _run(
            Observability(ObservabilityConfig(telemetry=True, window_us=10_000.0))
        )
        assert _normalized_rows(plain.trace) == _normalized_rows(observed.trace)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTelemetryCli:
    def test_cluster_mode_writes_artifacts(self, tmp_path, capsys):
        from repro.obs.telemetry_cli import main

        series = tmp_path / "series.json"
        timeline = tmp_path / "merged.json"
        rc = main([
            "--replicas", "2", "--layers", "2", "--requests", "12",
            "--rate", "100", "--batch", "2", "--seed", "0",
            "--report", "--alerts",
            "--series-out", str(series), "--timeline", str(timeline),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan:" in out and "SLO" in out
        snap = json.loads(series.read_text())
        assert snap["windows"]
        validate_merged_trace(json.loads(timeline.read_text()))

    def test_single_node_mode_forwards_policy(self, monkeypatch, capsys):
        import repro.serving.api as api
        from repro.obs.telemetry_cli import main

        seen = {}
        real_serve = api.serve

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real_serve(*args, **kwargs)

        monkeypatch.setattr(api, "serve", spy)
        rc = main([
            "--layers", "2", "--requests", "8", "--rate", "100",
            "--policy", "expert_overlap", "--report",
        ])
        assert rc == 0
        assert seen["policy"] == "expert_overlap"

    def test_build_policies_default_and_flags(self):
        from repro.obs.telemetry_cli import _build_parser, build_policies

        parser = _build_parser()
        default = build_policies(parser.parse_args([]))
        assert [p.name for p in default] == ["availability"]
        armed = build_policies(
            parser.parse_args(["--slo-p99-ms", "50", "--slo-deadline", "0.9"])
        )
        assert [p.objective for p in armed] == ["latency", "deadline"]
