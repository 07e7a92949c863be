"""Tests for the telemetry store, SLO burn-rate engine, and the
critical-path analyzer."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.obs.analysis import _EPS, PathSegment, _walk_path
from repro.obs.metrics import Histogram
from repro.obs.slo import BurnRule, SloEngine, SloPolicy
from repro.obs.telemetry import TimeSeriesStore
from repro.sim.kernel import KernelKind
from repro.sim.tracing import Trace, TraceRow
from serving_goldens import SCENARIOS, pinned_rows, run_scenario

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

    def test_labelled_series(self):
        # The SLO engine's burn-rate gauge: one series per policy/severity.
        s = TimeSeriesStore(window_us=1_000.0)
        s.record_gauge("burn", 100.0, 3.0, policy="a", severity="fast")
        s.record_gauge("burn", 100.0, 5.0, policy="a", severity="slow")
        s.record_gauge("burn", 1_200.0, 1.0, policy="a", severity="fast")
        assert s.series("burn", policy="a", severity="fast") == [
            (0.0, 3.0), (1_000.0, 1.0),
        ]
        assert s.latest("burn", policy="a", severity="slow") == 5.0
        assert s.series("burn") == []  # the unlabelled series was never set
        assert s.label_sets("burn") == [
            {"policy": "a", "severity": "fast"},
            {"policy": "a", "severity": "slow"},
        ]

    def test_kind_collision_raises(self):
        s = TimeSeriesStore()
        s.record_gauge("x", 0.0, 1.0)
        with pytest.raises(ConfigError):
            s.record_counter("x", 0.0, 1.0)

    def test_prometheus_export_has_timestamps(self):
        s = TimeSeriesStore(window_us=1_000.0)
        s.record_counter("c_total", 0.0, 1.0)
        s.record_counter("c_total", 1_000.0, 4.0)
        s.record_gauge("g", 1_000.0, 2.5, policy="a")
        text = s.to_prometheus()
        assert "# TYPE c_total counter" in text
        assert "c_total 1 0" in text and "c_total 4 1" in text
        assert 'g{policy="a"} 2.5 1' in text
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


def _fast_burning(eng):
    return any(a.severity == "fast" for a in eng.active_alerts())


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
        assert _fast_burning(eng)
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
        assert not _fast_burning(eng)

    def test_alert_resolves_when_short_burn_drops(self):
        eng, bus, _ = _engine([self._availability_policy()])
        bus.publish(_shed(1_100.0, range(5)))
        bus.publish(_shed(2_100.0, range(5), batch_id=1))
        assert eng.evaluate(2_900.0)
        bus.publish(_completed(3_100.0, range(8), [1.0] * 8))
        assert eng.evaluate(3_900.0) == []  # nothing new fires
        assert not _fast_burning(eng)
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
        assert not _fast_burning(eng)

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
        for cut in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ConfigError, match="latency_threshold_ms"):
                SloPolicy("x", objective="latency", latency_threshold_ms=cut)
        with pytest.raises(ConfigError):
            BurnRule("fast", long_windows=1, short_windows=2)


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


    def test_report_lists_lanes_in_gpu_order(self):
        t = Trace()
        for gpu in range(12):
            t.rows.append(_row(gpu, 0.0, 0.0, 10.0 + gpu))
        report = analyze_critical_path(t)
        lanes = [
            line.split()[0] for line in report.describe().splitlines()
            if line.startswith("gpu")
        ]
        assert lanes == [f"gpu{g}" for g in range(12)]


# ----------------------------------------------------------------------
# The indexed critical-path walk matches the quadratic scan it replaced
# ----------------------------------------------------------------------
def _reference_walk(rows, t0):
    """The walk as first written: every hop scans its whole pool."""
    if not rows:
        return []
    by_lane = {}
    for r in rows:
        by_lane.setdefault(r.gpu, []).append(r)

    def kind_of(row):
        return "comm" if row.kind is KernelKind.COMM else "compute"

    row = max(rows, key=lambda r: (r.end, r.start))
    frontier = row.end
    segments = []
    for _ in range(len(rows) + 1):
        seg_start = min(row.start, frontier)
        if frontier > seg_start:
            segments.append(PathSegment(kind_of(row), row.op or row.name,
                                        row.gpu, seg_start, frontier))
        frontier = seg_start
        if frontier <= t0 + _EPS:
            break
        if row.start > row.ready + _EPS:
            pool, gate = by_lane.get(row.gpu, []), row.start
        else:
            pool, gate = rows, row.ready
        limit = min(gate + _EPS, frontier)
        pred = None
        for cand in pool:
            if cand is row or cand.end > limit:
                continue
            if pred is None or cand.end > pred.end:
                pred = cand
        if pred is None:
            if frontier > t0:
                segments.append(PathSegment("wait", "start", row.gpu, t0, frontier))
            break
        if pred.end < frontier - _EPS:
            name = "dependency" if pool is rows else "device"
            segments.append(PathSegment("wait", name, row.gpu, pred.end, frontier))
            frontier = pred.end
        row = pred
    segments.reverse()
    return segments


def _assert_same_walk(rows):
    t0 = min((r.start for r in rows), default=0.0)
    assert _walk_path(rows, t0) == _reference_walk(rows, t0)


class TestIndexedWalk:
    @pytest.mark.parametrize(
        "server,strategy", SCENARIOS, ids=[f"{a}/{b}" for a, b in SCENARIOS]
    )
    def test_matches_reference_on_golden_traces(self, server, strategy):
        _, trace = run_scenario(server, strategy)
        assert trace.rows
        _assert_same_walk(trace.rows)

    @given(st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 8), st.integers(0, 4),
            st.integers(0, 4), st.booleans(),
        ),
        min_size=1, max_size=24,
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_tied_ends(self, specs):
        # A coarse integer grid makes equal ends, zero-length kernels and
        # ready == start common, so every tie rule is exercised.
        rows = [
            _row(gpu, ready, ready + lag, ready + lag + dur,
                 kind=KernelKind.COMM if comm else KernelKind.COMPUTE)
            for gpu, ready, lag, dur, comm in specs
        ]
        _assert_same_walk(rows)


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
# Zero-cost contract: telemetry moves no kernel
# ----------------------------------------------------------------------
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
        assert pinned_rows(plain.trace) == pinned_rows(observed.trace)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTelemetryCli:
    def test_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        series = tmp_path / "series.json"
        timeline = tmp_path / "merged.json"
        rc = main([
            "telemetry", "--layers", "2", "--requests", "12",
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

    def test_layers_scales_the_model(self, capsys):
        from repro.cli import main

        def avg_latency_ms(*flags):
            argv = ["telemetry", "--strategy", "intra", "--requests", "4",
                    "--rate", "200", "--report", *flags]
            assert main(argv) == 0
            out = capsys.readouterr().out
            return float(re.search(r"avg latency ([\d.]+) ms", out).group(1))

        assert avg_latency_ms("--layers", "2") < avg_latency_ms()

    def test_single_node_mode_forwards_policy(self, monkeypatch, capsys):
        import repro.serving.api as api
        from repro.cli import main

        seen = {}
        real_serve = api.serve

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real_serve(*args, **kwargs)

        monkeypatch.setattr(api, "serve", spy)
        rc = main([
            "telemetry", "--layers", "2", "--requests", "8", "--rate", "100",
            "--policy", "expert_overlap", "--report",
        ])
        assert rc == 0
        assert seen["policy"] == "expert_overlap"

    def test_build_policies_default_and_flags(self):
        from repro.cli import build_parser, build_policies

        parser = build_parser()
        default = build_policies(parser.parse_args(["telemetry"]))
        assert [p.name for p in default] == ["availability"]
        armed = build_policies(parser.parse_args(
            ["telemetry", "--slo-p99-ms", "50", "--slo-deadline", "0.9"]
        ))
        assert [p.objective for p in armed] == ["latency", "deadline"]
