"""Tests for the serving layer: requests, arrivals, workloads, metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, IncompleteRequestError
from repro.serving.metrics import _percentile
from repro.serving import (
    Batch,
    BurstyProcess,
    ConstantRate,
    LatencyStats,
    Phase,
    Request,
    ServingMetrics,
    general_trace,
    generative_trace,
    pack_batches,
)


class TestRequestBatch:
    def test_latency_requires_completion(self):
        r = Request(rid=0, arrival=10.0, seq_len=8)
        with pytest.raises(IncompleteRequestError):
            _ = r.latency
        r.mark_completed(30.0)
        assert r.latency == 20.0

    def test_batch_padding_and_arrival(self):
        reqs = [
            Request(rid=0, arrival=5.0, seq_len=16),
            Request(rid=1, arrival=9.0, seq_len=100),
        ]
        b = Batch(requests=reqs)
        assert b.seq_len == 100
        assert b.arrival == 9.0
        assert b.size == 2

    def test_batch_complete_stamps_all(self):
        b = Batch(requests=[Request(rid=i, arrival=0.0, seq_len=8) for i in range(3)])
        b.complete(77.0)
        assert all(r.completion == 77.0 for r in b.requests)

    def test_mixed_phase_batch_rejected(self):
        with pytest.raises(ConfigError):
            Batch(
                requests=[
                    Request(rid=0, arrival=0.0, seq_len=8, phase=Phase.PREFILL),
                    Request(rid=1, arrival=0.0, seq_len=1, phase=Phase.DECODE),
                ]
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            Batch(requests=[])


class TestArrivals:
    def test_constant_rate_spacing(self):
        times = ConstantRate(10.0).arrivals(3)
        assert times == pytest.approx([1e5, 2e5, 3e5])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigError):
            ConstantRate(0.0)

    def test_bursty_mean_rate_preserved(self):
        proc = BurstyProcess(50.0, burstiness=4.0, phase_requests=10)
        times = proc.arrivals(1000)
        measured = 1000 / (times[-1] / 1e6)
        assert measured == pytest.approx(50.0, rel=0.05)

    def test_bursty_alternates_phases(self):
        proc = BurstyProcess(10.0, burstiness=4.0, phase_requests=4)
        times = proc.arrivals(8)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # First phase is the burst (small gaps), second the lull.
        assert max(gaps[:3]) < min(gaps[4:])

    def test_bursty_validation(self):
        with pytest.raises(ConfigError):
            BurstyProcess(0.0)
        with pytest.raises(ConfigError):
            BurstyProcess(10.0, burstiness=1.0)
        with pytest.raises(ConfigError):
            BurstyProcess(10.0, phase_requests=0)

    def test_bursty_monotone_sorted(self):
        times = BurstyProcess(20.0, burstiness=3.0, phase_requests=5).arrivals(50)
        assert times == sorted(times)


class TestWorkloads:
    def test_general_trace_shape(self):
        batches = general_trace(20, 10.0, 4, seq_range=(16, 128), seed=3)
        assert len(batches) == 5
        assert all(b.size == 4 for b in batches)
        for b in batches:
            for r in b.requests:
                assert 16 <= r.seq_len <= 128
                assert r.phase is Phase.PREFILL

    def test_general_trace_partial_tail_kept(self):
        batches = general_trace(10, 10.0, 4)
        assert [b.size for b in batches] == [4, 4, 2]

    def test_general_trace_seeded(self):
        a = general_trace(16, 5.0, 2, seed=9)
        b = general_trace(16, 5.0, 2, seed=9)
        assert [r.seq_len for x in a for r in x.requests] == [
            r.seq_len for x in b for r in x.requests
        ]

    def test_generative_trace_shape(self):
        batches = generative_trace(64, 100.0, batch_size=32, context_len=16)
        assert len(batches) == 2
        for b in batches:
            assert b.phase is Phase.DECODE
            assert b.context_len == 16
            assert b.seq_len == 1

    def test_pack_batches_orders_by_arrival(self):
        reqs = [
            Request(rid=0, arrival=30.0, seq_len=8),
            Request(rid=1, arrival=10.0, seq_len=8),
            Request(rid=2, arrival=20.0, seq_len=8),
        ]
        batches = pack_batches(reqs, 2)
        assert [r.rid for r in batches[0].requests] == [1, 2]

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            general_trace(0, 1.0, 2)
        with pytest.raises(ConfigError):
            general_trace(4, 1.0, 0)
        with pytest.raises(ConfigError):
            general_trace(4, 1.0, 2, seq_range=(0, 10))
        with pytest.raises(ConfigError):
            generative_trace(4, 1.0, context_len=0)

    @pytest.mark.parametrize(
        "make", ["general", "generative", "generation", "chat"]
    )
    def test_negative_seed_rejected(self, make):
        from repro.serving import chat_workload, generation_workload

        build = {
            "general": lambda seed: general_trace(4, 1.0, 2, seed=seed),
            "generative": lambda seed: generative_trace(4, 1.0, seed=seed),
            "generation": lambda seed: generation_workload(4, 1.0, seed=seed),
            "chat": lambda seed: chat_workload(4, 1.0, seed=seed),
        }[make]
        assert build(0)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            build(-1)


class TestMetrics:
    def _completed(self, latencies_us, start=0.0, gap=1e4):
        reqs = []
        for i, lat in enumerate(latencies_us):
            r = Request(rid=i, arrival=start + i * gap, seq_len=8)
            r.mark_completed(r.arrival + lat)
            reqs.append(r)
        return reqs

    def test_latency_stats(self):
        m = ServingMetrics()
        m.record(self._completed([1e4, 2e4, 3e4]))  # 10, 20, 30 ms
        stats = m.latency_stats()
        assert stats.mean == pytest.approx(20.0)
        assert stats.p50 == pytest.approx(20.0)
        assert stats.max == pytest.approx(30.0)

    def test_throughput_span(self):
        m = ServingMetrics()
        reqs = self._completed([5e4] * 10, gap=1e5)  # one per 0.1s
        m.record(reqs)
        # span = last completion − first arrival = 9·0.1s + 0.05s
        assert m.throughput() == pytest.approx(10 / 0.95, rel=1e-6)

    def test_incomplete_request_rejected(self):
        m = ServingMetrics()
        with pytest.raises(IncompleteRequestError):
            m.record([Request(rid=0, arrival=0.0, seq_len=8)])

    def test_empty_metrics(self):
        # A run that completed nothing (everything shed/timed out) must
        # still summarize cleanly: all-zero stats, not an exception.
        m = ServingMetrics()
        assert m.throughput() == 0.0
        stats = m.latency_stats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.p99 == 0.0
        assert stats.max == 0.0
        assert m.avg_latency_ms == 0.0
        assert m.pending_time_ms() == 0.0

    def test_latency_stats_count(self):
        m = ServingMetrics()
        m.record(self._completed([1e4, 2e4, 3e4]))
        assert m.latency_stats().count == 3

    def test_pending_time_exact(self):
        # Pending time is dispatched_at − arrival, not a latency heuristic.
        m = ServingMetrics()
        reqs = self._completed([5e4, 5e4])
        reqs[0].dispatched_at = reqs[0].arrival + 2e3  # 2 ms queued
        reqs[1].dispatched_at = reqs[1].arrival + 4e3  # 4 ms queued
        m.record(reqs)
        assert m.pending_time_ms() == pytest.approx(3.0)


@given(
    lat=st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=1, max_size=60)
)
@settings(max_examples=50, deadline=None)
def test_latency_stats_ordering_invariants(lat):
    stats = LatencyStats.from_latencies_us(lat)
    assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max
    eps = 1e-12  # float summation slack in the mean
    assert min(lat) / 1e3 - eps <= stats.mean <= stats.max + eps


@given(
    lat=st.integers(min_value=1, max_value=400).flatmap(
        lambda n: st.lists(
            st.floats(min_value=0.0, max_value=1e9), min_size=n, max_size=n
        )
    ),
    q=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_latency_percentiles_match_numpy_bit_for_bit(lat, q):
    ms = np.asarray(lat, dtype=float) / 1e3
    stats = LatencyStats.from_latencies_us(lat)
    assert stats.p50 == float(np.percentile(ms, 50))
    assert stats.p95 == float(np.percentile(ms, 95))
    assert stats.p99 == float(np.percentile(ms, 99))
    assert stats.max == float(ms.max())
    assert _percentile(sorted(ms.tolist()), q) == float(np.percentile(ms, q))
