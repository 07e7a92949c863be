"""Tests for the per-GPU timeline attribution and the Host (CPU) launch model."""

from __future__ import annotations

import json

import pytest

from repro.hw import v100_nvlink_node
from repro.obs import analyze_critical_path, gpu_attribution, merged_chrome_trace
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
from repro.sim.tracing import TraceRow


def k(name, dur, kind=KernelKind.COMPUTE, occ=0.4):
    return Kernel(name=name, kind=kind, duration=dur, occupancy=occ)


def make_machine(num_gpus=1):
    return Machine(
        v100_nvlink_node(num_gpus), Engine(), contention=NullContention(), trace=Trace()
    )


def lane_of(compute=(), comm=()):
    """GPU 0's attribution of hand-placed compute and comm intervals."""
    t = Trace()
    for kind, intervals in ((KernelKind.COMPUTE, compute), (KernelKind.COMM, comm)):
        for s, e in intervals:
            t.rows.append(TraceRow(
                gpu=0, stream="s0", name="k", kind=kind, batch_id=0, layer=0,
                op="k", ready=s, start=s, end=e, noload_duration=e - s,
            ))
    (lane,) = gpu_attribution(t)
    return lane


class TestIntervalMath:
    def test_union_merges_overlaps(self):
        assert lane_of(compute=[(0, 10), (5, 15), (20, 25)]).compute_us == 20.0

    def test_union_ignores_empty(self):
        lane = lane_of(compute=[(5, 5)], comm=[(7, 6)])
        assert lane.compute_us == 0.0 and lane.comm_wall_us == 0.0

    def test_intersection_basic(self):
        assert lane_of(compute=[(0, 10)], comm=[(5, 20)]).overlap_us == 5.0

    def test_intersection_disjoint(self):
        assert lane_of(compute=[(0, 1)], comm=[(2, 3)]).overlap_us == 0.0

    def test_intersection_multiple_segments(self):
        lane = lane_of(compute=[(0, 10), (20, 30)], comm=[(5, 25)])
        assert lane.overlap_us == 10.0
        assert lane.comm_wall_us == 20.0


class TestTraceAggregates:
    def _machine_with_overlap(self):
        m = make_machine()
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("compute", 100.0, occ=0.5), available_at=0.0)
        m.launch(s1, k("comm", 60.0, kind=KernelKind.COMM, occ=0.1), available_at=20.0)
        m.run()
        return m

    def test_busy_and_overlap_attribution(self):
        m = self._machine_with_overlap()
        (lane,) = gpu_attribution(m.trace)
        assert lane.total_us - lane.idle_us == pytest.approx(100.0)
        assert lane.comm_wall_us == pytest.approx(60.0)
        assert lane.overlap_us == pytest.approx(60.0)
        assert lane.comm_hidden_fraction == pytest.approx(1.0)

    def test_comm_fraction(self):
        m = self._machine_with_overlap()
        assert gpu_attribution(m.trace)[0].comm_fraction == pytest.approx(0.6)

    def test_makespan(self):
        m = self._machine_with_overlap()
        assert analyze_critical_path(m.trace).makespan_us == pytest.approx(100.0)

    def test_chrome_trace_round_trips(self):
        m = self._machine_with_overlap()
        data = json.loads(json.dumps(merged_chrome_trace(trace=m.trace)))
        assert len(data["traceEvents"]) == 2
        names = {e["name"] for e in data["traceEvents"]}
        assert names == {"compute", "comm"}

    def test_comm_queueing_delay(self):
        m = make_machine()
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("hog", 50.0, occ=0.9), available_at=0.0)
        m.launch(s1, k("lagged", 10.0, kind=KernelKind.COMM, occ=0.5), available_at=0.0)
        m.run()
        (lagged,) = [r for r in m.trace.rows if r.kind is KernelKind.COMM]
        assert lagged.queueing_delay == pytest.approx(50.0)


class TestHost:
    def test_launch_advances_cursor_by_overhead(self):
        m = make_machine()
        host = Host(m)
        assert host.launch_overhead == 5.0  # the V100 spec's launch cost
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
        host = Host(m)
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
        host = Host(m)
        assert host.multi_gpu_launch_penalty == 15.0  # the V100 node's
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
        host = Host(m)
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
        host = Host(m)
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
        # As on the one-event path, the callback sees every launcher cursor
        # caught up to the observation time.
        m = make_machine(4)
        host = Host(m)
        seen = []
        m.engine.schedule(50.0, lambda: host.when_all_events(
            [], lambda: seen.append((m.engine.now, list(host.cursors)))
        ))
        m.run()
        assert seen == [(50.0, [50.0] * 4)]

    def test_group_ranks_keep_equal_cursors(self):
        """Launches, waits, records and host callbacks move every cursor of
        a rank group together: a group's commands carry its lead's cursor,
        which stands for every rank's."""
        m = make_machine(4)
        for g in m.gpus:
            g.stream("s0")
            g.stream("s1")
        m.mirror_ranks(range(4))
        host = Host(m)
        s0, s1 = m.gpu(0).streams
        seen = []

        def check(label):
            seen.append((label, list(host.cursors)))

        done = CudaEvent("done@g0")
        host.launch_kernel(s0, k("a@g0", 30.0))
        host.record_event(s0, done)
        host.wait_event(s1, done)
        host.launch_kernel(s1, k("b@g0", 10.0))
        check("issue")

        def later():
            check("callback")
            host.launch_kernel(s0, k("c@g0", 5.0))
            check("relaunch")

        host.when_event(done, later)
        m.engine.schedule(100.0, lambda: (host.catch_up(), check("catch-up")))
        m.run()
        assert [label for label, _ in seen] == [
            "issue", "callback", "relaunch", "catch-up",
        ]
        for _, cursors in seen:
            assert len(set(cursors)) == 1
        assert seen[-1][1] == [100.0] * 4
        assert m.groups == ((0, 1, 2, 3),)

    def test_per_rank_cursors_are_independent(self):
        """Each GPU has its own MPI launcher rank: launches don't serialize
        across GPUs."""
        m = make_machine(2)
        host = Host(m)
        t0 = host.launch_kernel(m.gpu(0).stream("s0"), k("a", 1.0))
        t1 = host.launch_kernel(m.gpu(1).stream("s0"), k("b", 1.0))
        assert t0 == pytest.approx(5.0)
        assert t1 == pytest.approx(5.0)  # not 10.0
        m.run()


class TestBatchedLaunch:
    """``Host.launch_kernels`` is a loop of ``launch_kernel`` issued as one
    ``Machine.submit_many``: every observable of the loop must match."""

    N = 4

    @staticmethod
    def _events(m):
        """The engine's pending events as ``(seq, time, priority, callback)``."""
        return sorted(
            (seq, t, prio, getattr(h.callback, "__name__", None))
            for t, prio, seq, h in m.engine._heap
            if not h.cancelled
        )

    def _issue(self, batched, prepare):
        """Issue ``N`` launches on a mirrored group's stream after
        ``prepare(machine, host, stream)``; snapshot what the issue left."""
        m = make_machine(4)
        for g in m.gpus:
            g.stream("s0")
        m.mirror_ranks(range(4))
        host = Host(m)
        stream = m.gpu(0).streams[0]
        prepare(m, host, stream)
        queued = len(stream.queue)
        before = self._events(m)
        kernels = [k(f"x{i}@g0", 3.0) for i in range(self.N)]
        if batched:
            last = host.launch_kernels(stream, kernels)
        else:
            for kern in kernels:
                last = host.launch_kernel(stream, kern)
        after = self._events(m)
        snap = {
            "last": last,
            "commands": [
                (c.name, c.available_at, c.pump_at)
                for c in list(stream.queue)[queued:]
            ],
            "cursors": list(host.cursors),
            "launches": host.launches_issued,
            # Events the issue scheduled (time, priority, callback).
            "armed": [e[1:] for e in after if e not in before],
            "avail_pump_at": stream.avail_pump_at,
        }
        assert [e for e in after if e in before] == before
        return snap, m

    def _same_as_loop(self, prepare):
        (batched, m_b), (looped, m_l) = (
            self._issue(True, prepare), self._issue(False, prepare)
        )
        assert batched == looped
        m_b.run()
        m_l.run()
        assert [(r.name, r.start, r.end) for r in m_b.trace.rows] == [
            (r.name, r.start, r.end) for r in m_l.trace.rows
        ]
        assert len(m_b.trace.rows) >= self.N
        return batched

    def test_idle_stream_with_the_run_already_visible(self):
        """The CPU issued ahead of a late clock: the first command is due
        now, so one zero-delay pump is armed."""

        def prepare(m, host, stream):
            m.engine.schedule(100.0, lambda: None)
            m.engine.run()

        snap = self._same_as_loop(prepare)
        ats = [at for _, at, _ in snap["commands"]]
        assert ats == pytest.approx([5.0 * (i + 1) for i in range(self.N)])
        assert [pump_at for _, _, pump_at in snap["commands"]] == [100.0] * self.N
        assert [(t, prio) for t, prio, _ in snap["armed"]] == [(100.0, 5)]
        assert snap["cursors"] == [ats[-1]] * 4
        assert snap["launches"] == 4 * self.N

    def test_busy_stream_arms_no_pump(self):
        """A running kernel retires into a pump of its own: the run is only
        stamped with its pump times."""

        def prepare(m, host, stream):
            host.launch_kernel(stream, k("long@g0", 500.0))
            m.engine.run(until=50.0)
            assert stream.running_kernel is not None
            host.catch_up()

        snap = self._same_as_loop(prepare)
        ats = [at for _, at, _ in snap["commands"]]
        assert ats == pytest.approx([50.0 + 5.0 * (i + 1) for i in range(self.N)])
        assert [pump_at for _, _, pump_at in snap["commands"]] == ats
        assert snap["armed"] == []
        assert snap["cursors"] == [ats[-1]] * 4

    def test_first_command_visible_later_arms_its_availability_pump(self):
        def prepare(m, host, stream):
            pass

        snap = self._same_as_loop(prepare)
        ats = [at for _, at, _ in snap["commands"]]
        assert ats == pytest.approx([5.0 * (i + 1) for i in range(self.N)])
        assert [pump_at for _, _, pump_at in snap["commands"]] == ats
        assert [(t, prio) for t, prio, _ in snap["armed"]] == [(ats[0], 5)]
        assert snap["avail_pump_at"] == ats[0]
        assert snap["cursors"] == [ats[-1]] * 4
        assert snap["last"] == ats[-1]
