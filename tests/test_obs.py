"""Tests for repro.obs: event bus, registry, spans, and the exporters."""

from __future__ import annotations

import json
import logging
import os
import re

import pytest

from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.models.specs import OPT_30B
from repro.obs import (
    BatchCompleted,
    BatchDispatched,
    EventBus,
    Observability,
    ObservabilityConfig,
    Principle1Violation,
    RequestsAdmitted,
    RequestsShed,
    RetryScheduled,
    analyze_critical_path,
    gpu_attribution,
    merged_chrome_trace,
    validate_merged_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.api import serve
from repro.serving.metrics import ServingMetrics
from repro.serving.overload import OverloadConfig
from repro.serving.request import Request
from repro.sim.kernel import KernelKind
from repro.sim.tracing import Trace, TraceRow
from serving_goldens import pinned_rows, run_scenario

MODEL = OPT_30B.scaled_layers(6)
NODE = v100_nvlink_node(4)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_publish_retains_in_order(self):
        bus = EventBus()
        bus.publish(RetryScheduled(time_us=1.0, batch_id=3, attempt=1))
        bus.publish(Principle1Violation(time_us=2.0, round_index=7))
        assert [e.kind for e in bus.events] == ["retry", "principle1-violation"]
        assert len(bus) == 2
        assert [e.time_us for e in bus.of_kind("retry")] == [1.0]

    def test_typed_subscription_filters(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, types=[RetryScheduled])
        bus.publish(Principle1Violation(time_us=0.0))
        bus.publish(RetryScheduled(time_us=1.0))
        assert [e.kind for e in seen] == ["retry"]

    def test_to_dict_is_flat_json(self):
        ev = RequestsShed(
            time_us=5.0, batch_id=3, rids=(1, 2), where="admission", slo_tracked=1
        )
        d = ev.to_dict()
        assert d["kind"] == "shed" and d["rids"] == [1, 2]
        json.dumps(d)  # must be JSON-serializable


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class TestMetricPrimitives:
    def test_counter_labels_and_total(self):
        c = Counter("x_total", "help")
        c.inc(2, state="a")
        c.inc(3, state="b")
        c.inc(1, state="a")
        assert c.value(state="a") == 3
        assert c.total() == 6
        exposed = "\n".join(c.expose())
        assert '# TYPE x_total counter' in exposed
        assert 'x_total{state="a"} 3' in exposed

    def test_counter_rejects_decrease(self):
        with pytest.raises(ConfigError):
            Counter("x", "h").inc(-1)

    def test_gauge_callback(self):
        box = {"v": 1.0}
        g = Gauge("g", "h", fn=lambda: box["v"])
        assert g.value() == 1.0
        box["v"] = 7.0
        assert g.value() == 7.0

    def test_histogram_cumulative_buckets(self):
        h = Histogram("lat_ms", "h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        text = "\n".join(h.expose())
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text
        assert 'lat_ms_bucket{le="100"} 3' in text
        assert 'lat_ms_bucket{le="+Inf"} 4' in text
        assert "lat_ms_count 4" in text
        assert h.sum == pytest.approx(555.5)

    def test_histogram_requires_sorted_buckets(self):
        with pytest.raises(ConfigError):
            Histogram("h", "h", buckets=(10.0, 1.0))

    def test_registry_rejects_type_collision(self):
        reg = MetricsRegistry()
        reg.counter("name", "h")
        with pytest.raises(ConfigError):
            reg.gauge("name", "h")

    def test_label_values_are_escaped(self):
        c = Counter("x_total", "help")
        c.inc(1, path='C:\\tmp\n"quoted"')
        exposed = "\n".join(c.expose())
        assert 'x_total{path="C:\\\\tmp\\n\\"quoted\\""} 1' in exposed
        # The exposition must stay one record per line.
        assert "\n" not in exposed.split("x_total{", 1)[1]


# ----------------------------------------------------------------------
# The golden hand-built scenario (pure events, no simulation)
# ----------------------------------------------------------------------
def _golden_scenario() -> Observability:
    """A fixed event sequence covering all three exporter event classes,
    with its outcomes recorded in the ServingMetrics the registry reads."""
    obs, metrics = Observability(), ServingMetrics()
    obs.attach_metrics(metrics)

    class _Window:
        start, end = 400.0, 900.0

        @staticmethod
        def describe() -> str:
            return "straggler(gpu=1, x4)[400..900us]"

    class _Plan:
        faults = [_Window]

    obs.note_fault_plan(_Plan)
    bus = obs.bus
    bus.publish(
        RequestsAdmitted(
            time_us=0.0, batch_id=0, rids=(0, 1), arrivals_us=(0.0, 10.0)
        )
    )
    bus.publish(
        BatchDispatched(
            time_us=100.0,
            batch_id=0,
            rids=(0, 1),
            phase="prefill",
            queue_waits_us=(100.0, 90.0),
        )
    )
    bus.publish(
        RequestsAdmitted(time_us=200.0, batch_id=1, rids=(2,), arrivals_us=(200.0,))
    )
    metrics.note_shed([Request(rid=2, arrival=200.0, seq_len=8, deadline=6000.0)])
    bus.publish(
        RequestsShed(
            time_us=300.0, batch_id=1, rids=(2,), where="admission", slo_tracked=1
        )
    )
    done = [Request(rid=0, arrival=0.0, seq_len=8, deadline=6000.0),
            Request(rid=1, arrival=10.0, seq_len=8)]
    for r in done:
        r.mark_completed(5100.0)
    metrics.record(done)
    bus.publish(
        BatchCompleted(
            time_us=5100.0,
            batch_id=0,
            rids=(0, 1),
            completed_rids=(0, 1),
            latencies_us=(5100.0, 5090.0),
            slo_met=1,
            deadline_misses=0,
        )
    )
    obs.registry.sample_gauges(5200.0)
    return obs


class TestGoldenExports:
    def test_prometheus_matches_golden(self):
        got = _golden_scenario().to_prometheus()
        with open(os.path.join(GOLDEN_DIR, "scenario_metrics.prom")) as fh:
            assert got == fh.read()

    def test_prometheus_histogram_conformance(self):
        """Every histogram family: monotone buckets, +Inf == _count, _sum."""
        text = _golden_scenario().to_prometheus()
        families = re.findall(r"# TYPE (\S+) histogram", text)
        assert "repro_request_latency_ms" in families
        for family in families:
            buckets = [
                (m.group(1), float(m.group(2)))
                for m in re.finditer(
                    rf'^{family}_bucket{{le="([^"]+)"}} (\S+)$', text, re.M
                )
            ]
            assert buckets, f"{family}: no buckets exposed"
            assert buckets[-1][0] == "+Inf", f"{family}: +Inf bucket missing"
            counts = [v for _, v in buckets]
            assert counts == sorted(counts), f"{family}: non-monotone buckets"
            count_m = re.search(rf"^{family}_count (\S+)$", text, re.M)
            assert count_m, f"{family}: _count missing"
            assert buckets[-1][1] == float(count_m.group(1))
            assert re.search(rf"^{family}_sum (\S+)$", text, re.M), (
                f"{family}: _sum missing"
            )

    def test_merged_trace_matches_golden(self):
        got = json.dumps(_golden_scenario().merged_chrome_trace(), indent=2)
        with open(os.path.join(GOLDEN_DIR, "scenario_trace.json")) as fh:
            assert got == fh.read().rstrip("\n")

    def test_merged_trace_validates(self):
        obj = _golden_scenario().merged_chrome_trace()
        counts = validate_merged_trace(obj)
        # queued+prefill for rids 0/1, queued for shed rid 2 -> 5 segments;
        # one shed instant; one fault window.
        assert counts == {"kernel": 0, "span": 5, "instant": 1, "fault": 1}
        # Accepts the serialized form too.
        assert validate_merged_trace(json.dumps(obj)) == counts

    def test_validate_rejects_malformed(self):
        with pytest.raises(ConfigError):
            validate_merged_trace({"no": "traceEvents"})
        with pytest.raises(ConfigError):
            validate_merged_trace({"traceEvents": [{"name": "x", "ph": "i"}]})


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_scenario_spans(self):
        obs = _golden_scenario()
        spans = {s.rid: s for s in obs.spans()}
        assert set(spans) == {0, 1, 2}
        s0 = spans[0]
        assert s0.state == "completed"
        assert s0.admitted_us == 0.0
        assert [seg.name for seg in s0.segments] == ["queued", "prefill"]
        assert s0.queue_wait_us == pytest.approx(100.0)
        assert s0.latency_us == pytest.approx(5100.0)
        # Member 1's queued segment starts at its own arrival, not batch 0's.
        assert spans[1].segments[0].start_us == pytest.approx(10.0)
        # The shed request never dispatched: one queued segment, shed state.
        s2 = spans[2]
        assert s2.state == "shed" and s2.latency_us is None
        assert [seg.name for seg in s2.segments] == ["queued"]
        assert s2.end_us == pytest.approx(300.0)

    def test_preempted_chat_spans_stay_ordered(self):
        """On the observed ``lifecycle-overload/liger`` run, one chat is
        preempted: every span's segments are in time order, never overlap
        and are all closed, and the preempted chat (rid 7) is prefilled
        twice."""
        obs = Observability()
        result, _ = run_scenario("lifecycle-overload", "liger", observability=obs)
        assert result.overload.preempted_batches == 1
        for span in obs.spans():
            assert span._open is None, span.rid
            for seg in span.segments:
                assert seg.start_us <= seg.end_us
            for prev, seg in zip(span.segments, span.segments[1:]):
                assert prev.end_us <= seg.start_us, span.rid
        segments = obs.spans_builder.get(7).segments
        assert [s.name for s in segments].count("prefill") == 2

    def test_registry_derives_scenario_counters(self):
        reg = _golden_scenario().registry
        c = reg._counters
        assert c["repro_requests_admitted_total"].total() == 3
        assert c["repro_requests_terminal_total"].value(state="completed") == 2
        assert c["repro_requests_terminal_total"].value(state="shed") == 1
        assert c["repro_requests_shed_total"].value(where="admission") == 1
        hist = reg._histograms["repro_request_latency_ms"]
        assert hist.count == 2 and hist.sum == pytest.approx(10.19)


# ----------------------------------------------------------------------
# End-to-end: served runs
# ----------------------------------------------------------------------
def _serve(observability=None, overload=None, record_trace=False):
    return serve(
        MODEL,
        NODE,
        strategy="liger",
        arrival_rate=400.0,
        num_requests=24,
        batch_size=2,
        seed=0,
        record_trace=record_trace,
        overload=overload,
        observability=observability,
    )


def _serve_overloaded(observability=None, record_trace=False):
    """Decode-heavy traffic at ~2x the sustainable rate: really sheds."""
    cfg = OverloadConfig(
        max_pending_requests=32,
        policy="shed-oldest",
        default_deadline_us=100_000.0,
    )
    return serve(
        MODEL,
        NODE,
        strategy="intra",
        workload="generative",
        arrival_rate=4000.0,
        num_requests=512,
        batch_size=8,
        context_len=256,
        seed=0,
        check_memory=False,
        record_trace=record_trace,
        overload=cfg,
        observability=observability,
    )


def _overloaded_job_server(kind, observability):
    """48 jobs in 12 ms against a pending bound of 8, with free KV cut to
    two static groups (context 16 + up to 16 tokens) or four chats
    (prompt up to 128 + up to 16 tokens) so work queues: every variant
    completes some jobs and sheds others."""
    from repro.serving import (
        ContinuousBatchingServer,
        LifecycleServer,
        StaticBatchingServer,
        chat_workload,
        generation_workload,
    )
    from repro.serving.api import make_strategy
    from repro.sim.memory import activation_bytes

    cls, kw, jobs, room = {
        "static": (
            StaticBatchingServer, {"batch_size": 4}, generation_workload,
            2 * (MODEL.kv_cache_bytes(4, 32, tp=4)
                 + activation_bytes(MODEL, 4, 1, 4)),
        ),
        "continuous": (
            ContinuousBatchingServer, {"max_batch": 8}, generation_workload,
            None,
        ),
        "lifecycle": (
            LifecycleServer, {"prefill_batch": 4, "max_decode_batch": 8},
            chat_workload,
            4 * (MODEL.kv_cache_bytes(1, 144, tp=4)
                 + activation_bytes(MODEL, 1, 1, 4)),
        ),
    }[kind]
    server = cls(
        MODEL, NODE, make_strategy("intra", MODEL, NODE),
        check_memory=False,
        overload=OverloadConfig(
            max_pending_requests=8,
            policy="shed-oldest",
            default_deadline_us=100_000.0,
        ),
        observability=observability,
        **kw,
    )
    if room is not None:
        server.memory.reserve("squeeze", server.memory.min_available() - room)
    server.run(jobs(48, 4000.0, seed=0))
    return server.metrics


class TestServedRuns:
    def test_disabled_observability_is_bit_identical(self):
        plain = _serve(record_trace=True)
        observed = _serve(observability=Observability(), record_trace=True)
        key = lambda r: r.rid
        assert [
            (r.rid, r.completion) for r in sorted(plain.metrics.completed, key=key)
        ] == [
            (r.rid, r.completion)
            for r in sorted(observed.metrics.completed, key=key)
        ]
        # Every kernel must land at the same instant either way.
        assert pinned_rows(plain.trace) == pinned_rows(observed.trace)

    def test_one_observability_reads_one_session(self):
        obs = Observability()
        _serve(observability=obs)
        with pytest.raises(ConfigError, match="another session"):
            _serve(observability=obs)

    @pytest.mark.parametrize("kind", ["server", "lifecycle", "static", "continuous"])
    def test_spans_cover_every_terminal_request(self, kind):
        obs = Observability()
        if kind == "server":
            m = _serve_overloaded(observability=obs).metrics
        else:
            m = _overloaded_job_server(kind, obs)
        states = {"completed": 0, "shed": 0, "timed_out": 0}
        for span in obs.spans():
            assert span.state in states
            states[span.state] += 1
        assert states["completed"] == m.num_completed
        assert states["shed"] == m.shed_requests
        assert states["timed_out"] == m.timed_out_requests

    def test_heartbeat_samples_gauges(self):
        obs = Observability(ObservabilityConfig(sample_period_us=5_000.0))
        cfg = OverloadConfig(max_pending_requests=32)
        _serve(observability=obs, overload=cfg)
        samples = obs.registry.samples
        assert len(samples) >= 2
        times = [s["time_us"] for s in samples]
        assert times == sorted(times)
        assert all("repro_pending_queue_requests" in s for s in samples)

    def test_merged_trace_export_roundtrip(self, tmp_path):
        obs = Observability()
        result = _serve_overloaded(observability=obs, record_trace=True)
        path = tmp_path / "merged.json"
        counts = obs.save_merged_trace(str(path), trace=result.trace)
        assert counts["kernel"] > 0
        assert counts["span"] > 0
        assert counts["instant"] > 0  # sheds/timeouts under this pressure
        reread = json.loads(path.read_text())
        assert validate_merged_trace(reread) == counts
        ts = [row["ts"] for row in reread["traceEvents"]]
        assert ts == sorted(ts)

    def test_snapshot_is_json(self, tmp_path):
        obs = Observability()
        _serve(observability=obs)
        path = tmp_path / "snap.json"
        obs.save_snapshot(str(path))
        snap = json.loads(path.read_text())
        assert snap["counters"]["repro_requests_admitted_total"] == {"": 24.0}
        assert len(snap["spans"]) == 24
        assert snap["num_events"] == len(obs.events)


# ----------------------------------------------------------------------
# The ``repro_perf_*`` section: hot-path cache counters as gauges
# ----------------------------------------------------------------------
class TestPerfGauges:
    @staticmethod
    def _serve_continuous(strategy: str, **workload):
        from repro.models import MODELS
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy

        model = MODELS["OPT-13B"].scaled_layers(2)
        node = v100_nvlink_node(2)
        strat = make_strategy(strategy, model, node)
        obs = Observability()
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2,
            check_memory=False,
            observability=obs, record_trace=False,
        )
        srv.run(generation_workload(seed=0, **workload))
        return strat, obs.to_prometheus()

    def test_perf_gauges_in_prometheus_export(self):
        strat, text = self._serve_continuous(
            "liger", num_requests=12, rate=1200.0,
            context_len=16, gen_tokens=(1, 1),
        )
        exported = set(re.findall(r"^(repro_perf_\w+) ", text, re.M))
        assert exported == {
            "repro_perf_assembly_cache_hits",
            "repro_perf_assembly_cache_misses",
            "repro_perf_assembly_cache_evictions",
            "repro_perf_assembly_build_seconds",
        }
        # The gauges carry the live counter values, not zeros.
        hits = strat.perf_counters()["assembly_cache_hits"]
        assert hits > 0
        assert f"repro_perf_assembly_cache_hits {hits}" in text

    def test_intra_strategy_exports_no_perf_gauges(self):
        """Duck-typing: strategies without perf_counters stay gauge-free."""
        _, text = self._serve_continuous(
            "intra", num_requests=6, rate=400.0
        )
        assert "repro_perf_" not in text


# ----------------------------------------------------------------------
# Trace edge cases (empty / single kernel): attribution and Chrome export
# ----------------------------------------------------------------------
class TestTraceEdgeCases:
    def _row(self, *, kind=KernelKind.COMPUTE, ready=0.0, start=10.0, end=25.0):
        return TraceRow(
            gpu=0, stream="s0", name="gemm_b0@g0", kind=kind, batch_id=0,
            layer=3, op="gemm", ready=ready, start=start, end=end,
            noload_duration=end - start,
        )

    def test_empty_trace_aggregates_are_zero(self):
        t = Trace()
        assert gpu_attribution(t) == []
        report = analyze_critical_path(t)
        assert report.makespan_us == 0.0
        assert report.per_gpu == [] and report.path == []

    def test_empty_trace_chrome_export(self):
        t = Trace()
        assert t.chrome_events() == []
        assert validate_merged_trace(merged_chrome_trace(trace=t)) == {
            "kernel": 0, "span": 0, "instant": 0, "fault": 0,
        }

    def test_single_kernel_aggregates(self):
        t = Trace()
        t.rows.append(self._row(ready=0.0, start=10.0, end=25.0))
        assert analyze_critical_path(t).makespan_us == 15.0
        (lane,) = gpu_attribution(t)
        assert lane.compute_us == 15.0 and lane.idle_us == 0.0
        assert lane.comm_fraction == 0.0  # compute only
        assert lane.overlap_us == 0.0  # nothing to overlap with
        assert lane.comm_hidden_fraction == 0.0
        assert t.rows[0].queueing_delay == 10.0

    def test_single_comm_kernel_comm_fraction_is_one(self):
        t = Trace()
        t.rows.append(self._row(kind=KernelKind.COMM))
        (lane,) = gpu_attribution(t)
        assert lane.comm_fraction == 1.0
        # All-comm trace: nothing hides it, the hidden share stays zero.
        assert lane.comm_hidden_fraction == 0.0

    def test_single_kernel_chrome_event_shape(self):
        t = Trace()
        t.rows.append(self._row(ready=0.0, start=10.0, end=25.0))
        (event,) = t.chrome_events()
        assert event["ph"] == "X"
        assert event["ts"] == 10.0 and event["dur"] == 15.0
        assert event["pid"] == "gpu0" and event["tid"] == "s0"
        assert event["args"]["queueing_delay_us"] == 10.0
        assert event["args"]["slowdown"] == 1.0
        assert merged_chrome_trace(trace=t)["traceEvents"] == [event]
        # And the merged exporter accepts a kernels-only trace.
        assert validate_merged_trace(merged_chrome_trace(trace=t)) == {
            "kernel": 1, "span": 0, "instant": 0, "fault": 0,
        }


# ----------------------------------------------------------------------
# Logging hierarchy
# ----------------------------------------------------------------------
class TestLogging:
    def test_root_logger_is_silenced_by_nullhandler(self):
        import repro  # noqa: F401  (import installs the handler)

        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


# ----------------------------------------------------------------------
# Observability config validation
# ----------------------------------------------------------------------
class TestObservabilityConfig:
    def test_rejects_nonpositive_sample_period(self):
        with pytest.raises(ConfigError):
            ObservabilityConfig(sample_period_us=0.0)

    @pytest.mark.parametrize("field", ["sample_period_us", "window_us"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nonfinite_periods(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ObservabilityConfig(**{field: value})

    def test_arm_is_idempotent(self):
        from repro.sim.engine import Engine

        obs = Observability()
        engine = Engine()
        obs.arm(engine)
        obs.arm(engine)
        assert len(obs.registry.samples) == 1  # sampled once on first arm

    def test_fault_window_export_rejects_empty_window(self):
        from repro.obs.export import fault_window_chrome_events

        with pytest.raises(ConfigError):
            fault_window_chrome_events([("w", 5.0, 5.0)])


# ----------------------------------------------------------------------
# Queue waits under continuous batching: one observation per request
# ----------------------------------------------------------------------
class TestContinuousQueueWaits:
    def test_every_dispatched_request_observed_once(self):
        """A request that joins an in-flight iteration still reaches the
        queue-wait histogram and the telemetry store, exactly once, with
        the wait its span shows."""
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy

        model = OPT_30B.scaled_layers(4)
        strat = make_strategy("liger", model, NODE)
        obs = Observability(ObservabilityConfig(telemetry=True))
        srv = ContinuousBatchingServer(
            model, NODE, strat, max_batch=8, pipeline_depth=2,
            observability=obs,
        )
        jobs = generation_workload(24, 400.0, seed=0)
        srv.run(jobs)

        dispatched = {
            rid for e in obs.bus.of_kind("dispatched") for rid in e.rids
        }
        waits = [
            s.queue_wait_us
            for s in obs.spans_builder.spans()
            if s.queue_wait_us is not None
        ]
        hist = obs.registry.histogram("repro_request_queue_wait_ms", "")
        assert len(dispatched) == len(jobs)
        assert hist.count == len(dispatched) == len(waits)
        assert hist.sum == pytest.approx(sum(waits) / 1e3)
        assert obs.telemetry.observation_count(
            "repro_request_queue_wait_ms"
        ) == len(dispatched)
