"""Integration tests for the Machine executor: streams, admission, events.

These pin down the semantics contract of DESIGN.md §5 — in-order streams,
asynchronous launch availability, the left-over admission policy (and the
communication-lag behaviour it produces), inter-stream event sync, and
collective rendezvous.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, StreamProtocolError
from repro.hw import v100_nvlink_node
from repro.sim import (
    CudaEvent,
    Engine,
    Kernel,
    KernelKind,
    Machine,
    NullContention,
    Trace,
)
from repro.sim.interconnect import CollectiveCostModel, NcclConfig


def make_machine(num_gpus=2, contention=None):
    node = v100_nvlink_node(num_gpus)
    return Machine(
        node,
        Engine(),
        contention=contention or NullContention(),
        trace=Trace(),
    )


def k(name, dur, kind=KernelKind.COMPUTE, occ=0.9, mem=0.3, batch=0):
    return Kernel(
        name=name,
        kind=kind,
        duration=dur,
        occupancy=occ,
        memory_intensity=mem,
        batch_id=batch,
    )


# ----------------------------------------------------------------------
# Stream FIFO semantics
# ----------------------------------------------------------------------
class TestStreamOrder:
    def test_single_stream_serializes_kernels(self):
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 10.0), available_at=0.0)
        m.launch(s, k("b", 5.0), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["a"].start == 0.0 and rows["a"].end == 10.0
        assert rows["b"].start == 10.0 and rows["b"].end == 15.0

    def test_two_streams_overlap_when_occupancy_allows(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("a", 10.0, occ=0.5), available_at=0.0)
        m.launch(s1, k("b", 10.0, occ=0.4), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["a"].start == 0.0
        assert rows["b"].start == 0.0  # concurrent

    def test_command_not_visible_before_available_at(self):
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("late", 1.0), available_at=25.0)
        m.run()
        row = m.trace.rows[0]
        assert row.start == 25.0

    def test_launch_overhead_hidden_behind_running_kernel(self):
        # Kernel b is made available while a still runs: starts back-to-back.
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 100.0), available_at=0.0)
        m.launch(s, k("b", 10.0), available_at=40.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["b"].start == pytest.approx(100.0)


# ----------------------------------------------------------------------
# Left-over admission policy
# ----------------------------------------------------------------------
class TestAdmission:
    def test_oversubscribed_kernels_serialize(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        m.launch(s0, k("big_a", 10.0, occ=0.9), available_at=0.0)
        m.launch(s1, k("big_b", 10.0, occ=0.9), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        starts = sorted([rows["big_a"].start, rows["big_b"].start])
        assert starts == [0.0, 10.0]

    def test_compute_admitted_before_comm_at_same_instant(self):
        # comm (0.2) + compute (0.9) cannot co-run; compute wins the tie even
        # though the comm stream has higher priority — the §2.3.1 lag.
        m = make_machine(1)
        sc = m.gpu(0).stream("compute", priority=0)
        sm = m.gpu(0).stream("comm", priority=10)
        comm = k("comm", 10.0, kind=KernelKind.COMM, occ=0.2)
        m.launch(sm, comm, available_at=0.0)
        m.launch(sc, k("gemm", 10.0, occ=0.9), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["gemm"].start == 0.0
        assert rows["comm"].start == pytest.approx(10.0)
        assert rows["comm"].queueing_delay == pytest.approx(10.0)

    def test_small_comm_fits_alongside_compute(self):
        # Reduced-channel comm (0.05) co-runs with a 0.9 GEMM: the §3.5
        # mitigation is what makes overlap possible at all.
        m = make_machine(1)
        sc = m.gpu(0).stream("compute")
        sm = m.gpu(0).stream("comm")
        m.launch(sc, k("gemm", 10.0, occ=0.9), available_at=0.0)
        m.launch(sm, k("comm", 10.0, kind=KernelKind.COMM, occ=0.05), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["gemm"].start == 0.0
        assert rows["comm"].start == 0.0

    def test_earlier_ready_kernel_admitted_first(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        s2 = m.gpu(0).stream("s2")
        m.launch(s0, k("hog", 10.0, occ=0.9), available_at=0.0)
        # comm ready at t=2; compute ready at t=5. At t=10 the earlier-ready
        # comm kernel is admitted first (no same-instant tie here).
        m.launch(s1, k("comm", 5.0, kind=KernelKind.COMM, occ=0.9), available_at=2.0)
        m.launch(s2, k("late_compute", 5.0, occ=0.9), available_at=5.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["comm"].start == pytest.approx(10.0)
        assert rows["late_compute"].start == pytest.approx(15.0)


# ----------------------------------------------------------------------
# Event synchronization
# ----------------------------------------------------------------------
class TestEvents:
    def test_inter_stream_wait_orders_across_streams(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        ev = CudaEvent("ev")
        m.launch(s0, k("producer", 20.0, occ=0.4), available_at=0.0)
        m.record_event(s0, ev, available_at=0.0)
        m.wait_event(s1, ev, available_at=0.0)
        m.launch(s1, k("consumer", 5.0, occ=0.4), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["consumer"].start == pytest.approx(20.0)

    def test_wait_on_already_recorded_event_passes_through(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        ev = CudaEvent("ev")
        m.record_event(s0, ev, available_at=0.0)
        m.wait_event(s1, ev, available_at=5.0)
        m.launch(s1, k("x", 1.0), available_at=5.0)
        m.run()
        assert m.trace.rows[0].start == pytest.approx(5.0)

    def test_event_cannot_record_twice(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        ev = CudaEvent("ev")
        m.record_event(s0, ev, available_at=0.0)
        m.record_event(s0, ev, available_at=1.0)
        with pytest.raises(StreamProtocolError):
            m.run()

    def test_host_callback_fires_after_record(self):
        m = make_machine(1)
        s0 = m.gpu(0).stream("s0")
        ev = CudaEvent("ev")
        seen = []
        ev.on_host(lambda: seen.append(m.engine.now), delay=2.0)
        m.launch(s0, k("a", 10.0), available_at=0.0)
        m.record_event(s0, ev, available_at=0.0)
        m.run()
        assert seen == [pytest.approx(12.0)]

    def test_cross_gpu_event_sync(self):
        m = make_machine(2)
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(1).stream("s0")
        ev = CudaEvent("xgpu")
        m.launch(s0, k("g0", 30.0), available_at=0.0)
        m.record_event(s0, ev, available_at=0.0)
        m.wait_event(s1, ev, available_at=0.0)
        m.launch(s1, k("g1", 5.0), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["g1"].start == pytest.approx(30.0)
        assert rows["g1"].gpu == 1

    def test_unrecorded_event_deadlock_detected(self):
        m = make_machine(1)
        s1 = m.gpu(0).stream("s1")
        ev = CudaEvent("never")
        m.wait_event(s1, ev, available_at=0.0)
        m.launch(s1, k("stuck", 1.0), available_at=0.0)
        with pytest.raises(DeadlockError):
            m.run()


# ----------------------------------------------------------------------
# Collective rendezvous
# ----------------------------------------------------------------------
class TestCollectives:
    def test_allreduce_waits_for_all_ranks(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology, NcclConfig())
        coll = ccm.make_allreduce(1e6, [0, 1], batch_id=0)
        s0 = m.gpu(0).stream("comm")
        s1 = m.gpu(1).stream("comm")
        # rank 1 launches 40us late: rank 0's member spins until then.
        m.launch(s0, coll.members[0], available_at=0.0)
        m.launch(s1, coll.members[1], available_at=40.0)
        m.run()
        rows = {r.gpu: r for r in m.trace.rows}
        assert rows[0].start == 0.0
        assert rows[1].start == pytest.approx(40.0)
        # Both complete together, duration counted from rendezvous.
        assert rows[0].end == rows[1].end
        assert rows[0].end == pytest.approx(40.0 + coll.duration)

    def test_zero_byte_allreduce_completes(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_allreduce(0.0, [0, 1])
        m.launch(m.gpu(0).stream("c"), coll.members[0], available_at=0.0)
        m.launch(m.gpu(1).stream("c"), coll.members[1], available_at=0.0)
        m.run()
        assert m.all_idle()
        assert len(m.trace.rows) == 2

    def test_p2p_pair_completes_together(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_p2p(2e6, 0, 1, batch_id=3)
        m.launch(m.gpu(0).stream("c"), coll.members[0], available_at=0.0)
        m.launch(m.gpu(1).stream("c"), coll.members[1], available_at=0.0)
        m.run()
        ends = {r.end for r in m.trace.rows}
        assert len(ends) == 1

    def test_missing_rank_deadlocks(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_allreduce(1e6, [0, 1])
        m.launch(m.gpu(0).stream("c"), coll.members[0], available_at=0.0)
        with pytest.raises(DeadlockError):
            m.run()

    def test_collective_after_compute_on_same_stream(self):
        m = make_machine(2)
        ccm = CollectiveCostModel(m.node.topology)
        coll = ccm.make_allreduce(1e6, [0, 1])
        s0 = m.gpu(0).stream("main")
        s1 = m.gpu(1).stream("main")
        m.launch(s0, k("compute0", 10.0), available_at=0.0)
        m.launch(s0, coll.members[0], available_at=0.0)
        m.launch(s1, k("compute1", 30.0), available_at=0.0)
        m.launch(s1, coll.members[1], available_at=0.0)
        m.run()
        comm_rows = [r for r in m.trace.rows if r.kind is KernelKind.COMM]
        assert all(r.end == pytest.approx(30.0 + coll.duration) for r in comm_rows)


# ----------------------------------------------------------------------
# Rescheduling contract: one rate recompute per machine callback
# ----------------------------------------------------------------------
def _trace_completion_callbacks(m):
    """Log, per completion callback, the GPUs pumped and the timers armed.

    Priority 1 is the completion timer's alone, so every priority-1
    schedule call is a timer being (re)armed.
    """
    log = []
    current = None
    pump, schedule, on_timer = m._pump, m.engine.schedule, m._on_completion_timer

    def traced_pump(gpu):
        if current is not None:
            current["pumped"].append(gpu.gpu_id)
        return pump(gpu)

    def traced_schedule(delay, callback, *, priority=0):
        handle = schedule(delay, callback, priority=priority)
        if current is not None and priority == 1:
            current["armed"].append(handle)
        return handle

    def traced_on_timer():
        nonlocal current
        current = {"now": m.engine.now, "pumped": [], "armed": []}
        tombstones = m.engine._tombstones
        on_timer()
        current["tombstones"] = m.engine._tombstones - tombstones
        log.append(current)
        current = None

    m._pump = traced_pump
    m.engine.schedule = traced_schedule
    m._on_completion_timer = traced_on_timer
    return log


class TestRescheduling:
    def test_allreduce_and_locals_retiring_together_arm_one_timer(self):
        m = make_machine(4)
        log = _trace_completion_callbacks(m)
        coll = CollectiveCostModel(m.node.topology).make_allreduce(1e6, [0, 1, 2, 3])
        for g in range(4):
            m.launch(m.gpu(g).stream("comm"), coll.members[g], available_at=0.0)
            main = m.gpu(g).stream("main")
            # Retires at the collective's instant; its successor is admitted
            # by the same callback's pump.
            m.launch(main, k(f"local{g}", coll.duration, occ=0.5), available_at=0.0)
            m.launch(main, k(f"next{g}", 5.0, occ=0.5), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert all(rows[f"next{g}"].start == coll.duration for g in range(4))
        joint = [c for c in log if c["now"] == coll.duration]
        assert len(joint) == 1
        assert joint[0]["pumped"] == [0, 1, 2, 3]
        for callback in log:
            assert callback["tombstones"] == 0, callback
            assert len(callback["armed"]) <= 1, callback
        assert len(joint[0]["armed"]) == 1

    def test_completion_pumps_touched_gpus_in_id_order(self):
        # Ranks admitted 15, 7, 11, 3: the members dict, and a set built
        # from it, iterate in an order that is not the id order.
        m = make_machine(16)
        log = _trace_completion_callbacks(m)
        ranks = [15, 7, 11, 3]
        coll = CollectiveCostModel(m.node.topology).make_allreduce(1e6, ranks)
        for t, g in enumerate(ranks):
            s = m.gpu(g).stream("comm")
            m.launch(s, coll.members[g], available_at=float(t))
            m.launch(s, k(f"after{g}", 5.0), available_at=float(t))
        m.run()
        assert list(coll.members) == ranks
        assert log[0]["pumped"] == sorted(ranks)


# ----------------------------------------------------------------------
# CUDA_DEVICE_MAX_CONNECTIONS (soft model)
# ----------------------------------------------------------------------
class TestMaxConnections:
    def test_oversubscribed_stream_pays_delay(self):
        from repro.hw import v100_nvlink_node
        from repro.sim import NullContention, Trace

        m = Machine(
            v100_nvlink_node(1), Engine(), contention=NullContention(),
            trace=Trace(), max_connections=2, connection_contention_delay=10.0,
        )
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        s2 = m.gpu(0).stream("s2")
        m.launch(s0, k("a", 50.0, occ=0.2), available_at=0.0)
        m.launch(s1, k("b", 50.0, occ=0.2), available_at=0.0)
        # Third concurrent stream: over the connection limit.
        m.launch(s2, k("c", 50.0, occ=0.2), available_at=0.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        assert rows["a"].start == 0.0
        assert rows["b"].start == 0.0
        assert rows["c"].start == pytest.approx(10.0)

    def test_within_limit_no_delay(self):
        from repro.hw import v100_nvlink_node
        from repro.sim import NullContention, Trace

        m = Machine(
            v100_nvlink_node(1), Engine(), contention=NullContention(),
            trace=Trace(), max_connections=4,
        )
        streams = [m.gpu(0).stream(f"s{i}") for i in range(3)]
        for i, s in enumerate(streams):
            m.launch(s, k(f"k{i}", 10.0, occ=0.2), available_at=0.0)
        m.run()
        assert all(r.start == 0.0 for r in m.trace.rows)

    def test_invalid_config_rejected(self):
        from repro.errors import ConfigError
        from repro.hw import v100_nvlink_node

        with pytest.raises(ConfigError):
            Machine(v100_nvlink_node(1), Engine(), max_connections=0)


# ----------------------------------------------------------------------
# Completion observers and accounting
# ----------------------------------------------------------------------
class TestAccounting:
    def test_completion_observer_called_per_kernel(self):
        m = make_machine(1)
        seen = []
        m.on_kernel_complete(lambda kern, t: seen.append((kern.name, t)))
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 5.0), available_at=0.0)
        m.launch(s, k("b", 5.0), available_at=0.0)
        m.run()
        assert seen == [("a", 5.0), ("b", 10.0)]

    def test_kernels_completed_counter(self):
        m = make_machine(2)
        for g in (0, 1):
            s = m.gpu(g).stream("s0")
            m.launch(s, k(f"k{g}", 5.0), available_at=0.0)
        m.run()
        assert m.kernels_completed == 2

    def test_all_idle_after_run(self):
        m = make_machine(1)
        s = m.gpu(0).stream("s0")
        m.launch(s, k("a", 5.0), available_at=0.0)
        m.run()
        assert m.all_idle()
