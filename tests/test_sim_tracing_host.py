"""Tests for trace aggregation and the Host (CPU) launch model."""

from __future__ import annotations

import json

import pytest

from repro.hw import v100_nvlink_node
from repro.sim import (
    CudaEvent,
    Engine,
    Host,
    Kernel,
    KernelKind,
    Machine,
    NullContention,
    Trace,
)
from repro.sim.tracing import _intersection_length, _union_length


def k(name, dur, kind=KernelKind.COMPUTE, occ=0.4):
    return Kernel(name=name, kind=kind, duration=dur, occupancy=occ)


def make_machine(num_gpus=1):
    return Machine(
        v100_nvlink_node(num_gpus), Engine(), contention=NullContention(), trace=Trace()
    )


class TestIntervalMath:
    def test_union_merges_overlaps(self):
        assert _union_length([(0, 10), (5, 15), (20, 25)]) == 20.0

    def test_union_ignores_empty(self):
        assert _union_length([(5, 5), (7, 6)]) == 0.0

    def test_intersection_basic(self):
        assert _intersection_length([(0, 10)], [(5, 20)]) == 5.0

    def test_intersection_disjoint(self):
        assert _intersection_length([(0, 1)], [(2, 3)]) == 0.0

    def test_intersection_multiple_segments(self):
        a = [(0, 10), (20, 30)]
        b = [(5, 25)]
        assert _intersection_length(a, b) == 10.0


class TestTraceAggregates:
    def _machine_with_overlap(self):
        m = make_machine()
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("compute", 100.0, occ=0.5), available_at=0.0)
        m.launch(s1, k("comm", 60.0, kind=KernelKind.COMM, occ=0.1), available_at=20.0)
        m.run()
        return m

    def test_busy_and_overlap_times(self):
        m = self._machine_with_overlap()
        t = m.trace
        assert t.busy_time(0) == pytest.approx(100.0)
        assert t.busy_time(0, KernelKind.COMM) == pytest.approx(60.0)
        assert t.overlap_time(0) == pytest.approx(60.0)
        assert t.overlap_efficiency(0) == pytest.approx(1.0)

    def test_comm_fraction(self):
        m = self._machine_with_overlap()
        assert m.trace.comm_fraction(0) == pytest.approx(0.6)

    def test_makespan(self):
        m = self._machine_with_overlap()
        assert m.trace.makespan() == pytest.approx(100.0)

    def test_chrome_trace_round_trips(self):
        m = self._machine_with_overlap()
        data = json.loads(m.trace.to_chrome_trace())
        assert len(data["traceEvents"]) == 2
        names = {e["name"] for e in data["traceEvents"]}
        assert names == {"compute", "comm"}

    def test_save_chrome_trace(self, tmp_path):
        m = self._machine_with_overlap()
        path = tmp_path / "trace.json"
        m.trace.save_chrome_trace(str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_kernel_durations_grouped_by_op(self):
        m = make_machine()
        s = m.gpu(0).stream("s0")
        for i in range(3):
            m.launch(
                s,
                Kernel(name=f"g{i}", kind=KernelKind.COMPUTE, duration=5.0, op="gemm"),
                available_at=0.0,
            )
        m.run()
        assert m.trace.kernel_durations() == {"gemm": [5.0, 5.0, 5.0]}

    def test_mean_queueing_delay(self):
        m = make_machine()
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("hog", 50.0, occ=0.9), available_at=0.0)
        m.launch(s1, k("lagged", 10.0, kind=KernelKind.COMM, occ=0.5), available_at=0.0)
        m.run()
        assert m.trace.mean_queueing_delay(KernelKind.COMM) == pytest.approx(50.0)


class TestHost:
    def test_launch_advances_cursor_by_overhead(self):
        m = make_machine()
        host = Host(m, launch_overhead=5.0)
        s = m.gpu(0).stream("s0")
        t1 = host.launch_kernel(s, k("a", 10.0))
        t2 = host.launch_kernel(s, k("b", 10.0))
        assert t1 == pytest.approx(5.0)
        assert t2 == pytest.approx(10.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        # first kernel cannot start before its launch completes
        assert rows["a"].start == pytest.approx(5.0)
        # second launch overhead hidden behind the first kernel
        assert rows["b"].start == pytest.approx(15.0)

    def test_when_event_blocks_cpu_until_visibility(self):
        m = make_machine()
        host = Host(m, launch_overhead=5.0, sync_visibility_latency=2.0)
        s = m.gpu(0).stream("s0")
        ev = CudaEvent()
        host.launch_kernel(s, k("a", 100.0))
        host.record_event(s, ev)
        fired = []

        def on_done():
            fired.append((m.engine.now, host.cursor(0)))
            host.launch_kernel(s, k("b", 10.0))

        host.when_event(ev, on_done)
        m.run()
        (t, cursor) = fired[0]
        assert t == pytest.approx(105.0 + 2.0 + 0.3, abs=0.5)
        assert cursor >= t
        rows = {r.name: r for r in m.trace.rows}
        # Exposed gap: b starts only after CPU observed + relaunched.
        assert rows["b"].start > rows["a"].end + 2.0

    def test_when_event_multi_gpu_penalty(self):
        m = make_machine(2)
        host = Host(
            m,
            launch_overhead=5.0,
            sync_visibility_latency=2.0,
            multi_gpu_launch_penalty=15.0,
        )
        s = m.gpu(0).stream("s0")
        ev = CudaEvent()
        host.launch_kernel(s, k("a", 50.0))
        host.record_event(s, ev)
        seen = []
        host.when_event(ev, lambda: seen.append(m.engine.now), multi_gpu=True)
        m.run()
        record_time = 55.0  # records when the stream reaches the command
        assert seen[0] == pytest.approx(record_time + 2.0 + 15.0, abs=0.1)

    def test_when_all_events(self):
        m = make_machine(2)
        host = Host(m, launch_overhead=1.0)
        evs = []
        for g in (0, 1):
            s = m.gpu(g).stream("s0")
            ev = CudaEvent()
            host.launch_kernel(s, k(f"k{g}", 30.0 + 10 * g))
            host.record_event(s, ev)
            evs.append(ev)
        seen = []
        host.when_all_events(evs, lambda: seen.append(m.engine.now))
        m.run()
        assert len(seen) == 1
        # fires only after the slower (g1) event
        assert seen[0] >= 40.0

    def test_when_all_events_repeated_event_fires_once(self):
        m = make_machine()
        host = Host(m, launch_overhead=0.0)
        s = m.gpu(0).stream("s0")
        ev = CudaEvent()
        host.record_event(s, ev)
        seen = []
        host.when_all_events([ev, ev], lambda: seen.append(m.engine.now))
        m.run()
        assert seen == [pytest.approx(2.3)]

    def test_when_all_events_empty_fires_immediately(self):
        m = make_machine()
        host = Host(m)
        seen = []
        host.when_all_events([], lambda: seen.append(m.engine.now))
        m.run()
        assert seen == [0.0]

    def test_per_rank_cursors_are_independent(self):
        """Each GPU has its own MPI launcher rank: launches don't serialize
        across GPUs."""
        m = make_machine(2)
        host = Host(m, launch_overhead=5.0)
        t0 = host.launch_kernel(m.gpu(0).stream("s0"), k("a", 1.0))
        t1 = host.launch_kernel(m.gpu(1).stream("s0"), k("b", 1.0))
        assert t0 == pytest.approx(5.0)
        assert t1 == pytest.approx(5.0)  # not 10.0
        m.run()
