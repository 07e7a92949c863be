"""Rank mirroring: each set of rank-symmetric GPUs is issued and simulated once.

The Intra-Op strategy and the Liger runtime declare their symmetric ranks
(:meth:`~repro.sim.gpu.Machine.mirror_ranks`) and issue one kernel, event
and command per rank group.  Every rank issues every command (HYBRID's
pre-kick included), so a declared group stays whole.  An armed fault
injector turns the declaration off, so an armed *empty* :class:`FaultPlan`
is the per-rank reference arm: every test here compares the mirrored run
with it row for row, and completion for completion.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LigerConfig, SyncMode
from repro.core.policy import policy_names
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw import a100_pcie_node, v100_nvlink_node
from repro.models import MOE_16E, OPT_30B
from repro.models.ops import allreduce_op, gemm_op
from repro.parallel.base import KernelFunc, ParallelStrategy, instantiate_op
from repro.profiling import OpProfiler
from repro.serving.api import make_strategy
from repro.serving.request import Batch, Phase, Request
from repro.serving.server import Server
from repro.serving.workload import general_trace
from repro.sim import CudaEvent, Engine, Host, Kernel, KernelKind, Machine, Trace
from repro.sim.contention import NullContention
from repro.sim.kernel import CollectiveKind, CollectiveOp
from serving_goldens import SCENARIOS, pinned_rows, run_scenario


def _completions(metrics):
    return [(r.rid, repr(r.arrival), repr(r.completion)) for r in metrics.completed]


def _mirrored(machine) -> bool:
    return any(len(group) > 1 for group in machine.groups)


def _groups_seen(machine):
    """The set of ``machine.groups`` values seen at its kernel completions,
    filled as the run goes."""
    seen = set()
    machine.on_kernel_complete(lambda k, t, ranks: seen.add(machine.groups))
    return seen


_WHOLE = {((0, 1, 2, 3),)}


def _host_counts(srv):
    """Every rank's host cursor, the host's launch count and the machine's
    completion count."""
    host = srv.host
    return (
        [host.cursor(r) for r in range(len(host.cursors))],
        host.launches_issued,
        srv.machine.kernels_completed,
    )


# ----------------------------------------------------------------------
# Mirrored arm == per-rank arm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("server,strategy", SCENARIOS)
def test_golden_scenarios_match_per_rank_run(server, strategy):
    """The pipeline baselines declare no symmetric ranks, so both their
    arms run per rank.  The reference arm arms the default recovery layer."""
    runs = []
    for plan in (None, FaultPlan()):
        keep = []
        extra = {} if plan is None else {"fault_plan": plan}
        _, trace = run_scenario(server, strategy, keep=keep, **extra)
        srv = keep[0]
        runs.append(
            (pinned_rows(trace), _completions(srv.metrics), _host_counts(srv))
        )
        assert _mirrored(srv.machine) is (
            plan is None and strategy in ("intra", "liger")
        )
    (rows, done, counts), (ref_rows, ref_done, ref_counts) = runs
    assert rows == ref_rows
    assert done == ref_done
    assert done
    # Group issue advances every rank's cursor and counts every rank.
    assert counts == ref_counts


def _serve_pair(model, node, liger_config, num_requests, *, rate=60.0):
    """The mirrored and per-rank runs' rows, completions and host counts,
    and the mirrored run's groups at its kernel completions."""
    runs = []
    for plan in (None, FaultPlan()):
        strategy = make_strategy("liger", model, node, config=liger_config)
        srv = Server(
            model, node, strategy, record_trace=True, check_memory=False,
            fault_plan=plan,
        )
        if plan is None:
            groups = _groups_seen(srv.machine)
        result = srv.run(general_trace(num_requests, rate, 2, seed=0))
        runs.append(
            (pinned_rows(result.trace), _completions(result.metrics),
             _host_counts(srv))
        )
        assert _mirrored(srv.machine) is (plan is None)
    mirrored, per_rank = runs
    return mirrored, per_rank, groups


_OPT = OPT_30B.scaled_layers(4)


@pytest.mark.parametrize("mode", list(SyncMode), ids=lambda m: m.name)
def test_liger_sync_modes_match_per_rank_run(mode):
    mirrored, per_rank, groups = _serve_pair(
        _OPT, v100_nvlink_node(4), LigerConfig(sync_mode=mode), 16
    )
    assert mirrored == per_rank and mirrored[1]
    # Every sync mode declares all ranks one group, which stays whole.
    assert groups == _WHOLE


def test_moe_expert_overlap_matches_per_rank_run():
    mirrored, per_rank, groups = _serve_pair(
        MOE_16E.scaled_layers(2), a100_pcie_node(4),
        LigerConfig(policy="expert_overlap", max_inflight=6), 12,
    )
    assert groups == _WHOLE
    assert mirrored == per_rank and mirrored[1]


def test_hybrid_decode_with_exposed_launches_matches_per_rank_run():
    """decode_steady's shape: short decode rounds drain the GPU before the
    host issues the next, so the launch overhead (pre-kick records
    included) shows, and the chain idles between arrivals."""
    from repro.serving.generation import (
        ContinuousBatchingServer,
        generation_workload,
    )

    runs, mirrored = [], []
    for plan in (None, FaultPlan()):
        model, node = OPT_30B.scaled_layers(4), v100_nvlink_node(4)
        strategy = make_strategy(
            "liger", model, node,
            config=LigerConfig(max_inflight=6, division_factor=16),
        )
        srv = ContinuousBatchingServer(
            model, node, strategy, max_batch=8, pipeline_depth=2,
            record_trace=True, check_memory=False, fault_plan=plan,
        )
        if plan is None:
            groups = _groups_seen(srv.machine)
        result = srv.run(generation_workload(10, 100.0, seed=0))
        runs.append(
            (pinned_rows(result.trace), _completions(srv.metrics),
             _host_counts(srv))
        )
        mirrored.append(_mirrored(srv.machine))
    assert groups == _WHOLE and mirrored == [True, False]
    assert runs[0] == runs[1] and runs[0][1]


# ----------------------------------------------------------------------
# Mirrored arm == per-rank arm, over drawn configurations
# ----------------------------------------------------------------------
def _serve(server, strategy, num_gpus, mode, policy, seed, plan):
    """One small run; returns its normalized rows and completions."""
    from repro.serving.generation import (
        ContinuousBatchingServer,
        StaticBatchingServer,
        generation_workload,
    )
    from repro.serving.lifecycle import LifecycleServer, chat_workload

    moe = policy == "expert_overlap"
    model = (MOE_16E if moe else OPT_30B).scaled_layers(2)
    node = (a100_pcie_node if moe else v100_nvlink_node)(num_gpus)
    config = LigerConfig(sync_mode=mode, policy=policy)
    strat = make_strategy(
        strategy, model, node, **({"config": config} if strategy == "liger" else {})
    )
    kw = dict(record_trace=True, check_memory=False, fault_plan=plan)
    if server == "server":
        srv = Server(model, node, strat, **kw)
        result = srv.run(general_trace(10, 120.0, 2, seed=seed))
    elif server == "lifecycle":
        srv = LifecycleServer(
            model, node, strat, prefill_batch=2, max_decode_batch=4, **kw
        )
        result = srv.run(chat_workload(4, 120.0, seed=seed))
    elif server == "static":
        srv = StaticBatchingServer(model, node, strat, batch_size=2, **kw)
        result = srv.run(generation_workload(6, 200.0, seed=seed))
    else:
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2, **kw
        )
        result = srv.run(generation_workload(6, 200.0, seed=seed))
    if plan is not None:
        assert not _mirrored(srv.machine)
    return (
        pinned_rows(srv.trace if server == "lifecycle" else result.trace),
        _completions(srv.metrics),
        _host_counts(srv),
    )


@given(
    server=st.sampled_from(["server", "lifecycle", "static", "continuous"]),
    strategy=st.sampled_from(["intra", "liger"]),
    mode=st.sampled_from(list(SyncMode)),
    policy=st.sampled_from(policy_names()),
    num_gpus=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_drawn_runs_match_per_rank_run(server, strategy, mode, policy, num_gpus, seed):
    mirrored = _serve(server, strategy, num_gpus, mode, policy, seed, None)
    per_rank = _serve(server, strategy, num_gpus, mode, policy, seed, FaultPlan())
    assert mirrored == per_rank
    assert mirrored[1]


# ----------------------------------------------------------------------
# Grouped completion keeps the per-rank order
# ----------------------------------------------------------------------
class _Scripted(ParallelStrategy):
    """Issues each batch's scripted ``(stream, duration)`` kernels once per
    rank group; every batch finish is logged with the free HBM then, and
    the first finish submits one more batch."""

    name = "scripted"

    def __init__(self, model, node, scripts):
        super().__init__(model, node)
        self.scripts = scripts
        self.log = []
        self.on_batch_complete(self._log)

    def bind(self, machine, host, *, track_memory=True) -> None:
        super().bind(machine, host, track_memory=track_memory)
        for g in machine.gpus:
            for name in ("a", "b"):
                g.stream(name)
        machine.mirror_ranks(range(len(machine.gpus)))

    def submit_batch(self, batch: Batch) -> None:
        machine = self._require_bound()
        self.host.catch_up()
        script = self.scripts[len(self._open_batches) + self.batches_completed]
        self.track_batch(batch, len(script) * len(machine.gpus))
        for i, (stream, duration) in enumerate(script):
            for group in machine.groups:
                lead = group[0]
                self.host.launch_kernel(
                    machine.gpu(lead).stream(stream),
                    Kernel(
                        name=f"k{i}_b{batch.batch_id}@g{lead}",
                        kind=KernelKind.COMPUTE, duration=duration,
                        occupancy=0.3, batch_id=batch.batch_id,
                    ),
                )

    def _log(self, batch, time) -> None:
        self.log.append((batch.batch_id, time, self.memory.min_available()))
        if len(self.log) == 1:
            self.submit_batch(_batch(2))


def _batch(rid):
    return Batch(
        [Request(rid=rid, arrival=0.0, seq_len=64, phase=Phase.PREFILL)],
        batch_id=rid,
    )


def _scripted_run(plan):
    """Batch 0's last kernel and batch 1's first retire together at t=10:
    batch 0 runs a(5) then a(5); batch 1 arrives at t=6 with b(4) and then
    a(5) queued behind batch 0.  The finish of batch 0 logs the free HBM,
    which is lower once batch 1 reserved its workspace, and issues batch 2
    on stream b."""
    model, node = OPT_30B.scaled_layers(4), v100_nvlink_node(4)
    node = replace(node, gpu=replace(node.gpu, kernel_launch_overhead=0.0))
    machine = Machine(node, Engine(), contention=NullContention(), trace=Trace())
    host = Host(machine)
    strategy = _Scripted(
        model, node, [[("a", 5.0), ("a", 5.0)], [("b", 4.0), ("a", 5.0)], [("b", 5.0)]]
    )
    strategy.bind(machine, host)
    if plan is not None:
        FaultInjector(plan).arm(machine)
    batches = [_batch(0), _batch(1)]
    strategy.submit_batch(batches[0])
    machine.engine.schedule(6.0, lambda: strategy.submit_batch(batches[1]))
    machine.run()
    assert _mirrored(machine) is (plan is None)
    rows = [(r.gpu, r.stream, r.name, r.start, r.end) for r in machine.trace.rows]
    return rows, strategy.log, machine.kernels_completed


def test_co_due_kernels_of_two_batches_keep_per_rank_order():
    mirrored = _scripted_run(None)
    assert mirrored == _scripted_run(FaultPlan())
    rows, log, completed = mirrored
    (first, t_first, free_first), (second, _, _), (third, _, _) = log
    assert (first, t_first) == (0, 10.0) and {second, third} == {1, 2}
    # Batch 1 had reserved its workspace when batch 0 finished.
    assert free_first < log[-1][2]
    assert [r for r in rows if "_b2@" in r[2]] == [
        (g, "b", f"k0_b2@g{g}", 10.0, 15.0) for g in range(4)
    ]
    assert completed == 5 * 4


# ----------------------------------------------------------------------
# Machine-level contract
# ----------------------------------------------------------------------
def _machine(num_gpus=3):
    return Machine(v100_nvlink_node(num_gpus), Engine(), trace=Trace())


def _k(name, dur=10.0):
    return Kernel(name=name, kind=KernelKind.COMPUTE, duration=dur, occupancy=0.5)


def _streams(m):
    streams = [g.stream("s") for g in m.gpus]
    m.mirror_ranks(range(len(m.gpus)))
    return streams


def test_mirrored_ranks_trace_every_rank():
    m = _machine()
    seen = []
    m.on_kernel_complete(lambda k, t, ranks: seen.append((k.name, ranks)))
    lead = _streams(m)[0]
    m.launch(lead, _k("a@g0"), available_at=1.0)
    m.launch(lead, _k("b@g0"), available_at=1.0)
    m.run()
    assert m.groups == ((0, 1, 2),)
    assert [g.ranks for g in m.gpus] == [(0, 1, 2), (), ()]
    assert [(r.gpu, r.name, r.start, r.end) for r in m.trace.rows] == [
        (0, "a@g0", 1.0, 11.0), (1, "a@g1", 1.0, 11.0), (2, "a@g2", 1.0, 11.0),
        (0, "b@g0", 11.0, 21.0), (1, "b@g1", 11.0, 21.0), (2, "b@g2", 11.0, 21.0),
    ]
    # A lone due kernel: one call for all three ranks.
    assert seen == [("a@g0", 3), ("b@g0", 3)]
    assert m.kernels_completed == 6 and m.all_idle()


def test_co_due_kernels_of_two_batches_keep_the_two_pass_order():
    """Two compute kernels from different batches retire at one instant on
    one mirrored group: the lead lane releases and observes both, then the
    other two ranks get one call per kernel, the per-rank run's order with
    its follower lanes folded together."""
    def run(plan):
        m = _machine()
        for g in m.gpus:
            for name in ("s", "t"):
                g.stream(name)
        m.mirror_ranks(range(3))
        if plan is not None:
            FaultInjector(plan).arm(m)
        seen, times = [], set()
        m.on_kernel_complete(
            lambda k, t, ranks: (seen.append((k.name, ranks)), times.add(t))
        )
        for group in m.groups:
            lead = m.gpu(group[0])
            for stream, batch in (("s", 0), ("t", 1)):
                m.launch(lead.stream(stream), Kernel(
                    name=f"{stream}_b{batch}@g{group[0]}", kind=KernelKind.COMPUTE,
                    duration=10.0, occupancy=0.5, batch_id=batch,
                ), available_at=0.0)
        m.run()
        assert len(times) == 1  # co-due
        return seen, times, m.kernels_completed

    mirrored, times, completed = run(None)
    assert mirrored == [
        ("s_b0@g0", 1), ("t_b1@g0", 1), ("s_b0@g0", 2), ("t_b1@g0", 2),
    ]
    per_rank, per_rank_times, per_rank_completed = run(FaultPlan())
    assert per_rank == [
        (f"{stream}_b{batch}@g{g}", 1)
        for g in range(3) for stream, batch in (("s", 0), ("t", 1))
    ]
    assert times == per_rank_times
    assert completed == per_rank_completed == 6


def test_groups_list_leads_in_rank_order():
    m = _machine(4)
    assert m.groups == ((0,), (1,), (2,), (3,))
    m.mirror_ranks([1, 2, 3])
    assert m.groups == ((0,), (1, 2, 3))


def test_issuing_on_a_follower_stream_raises():
    m = _machine()
    host = Host(m)
    s0, s1, _ = _streams(m)
    issues = [
        lambda: host.launch_kernel(s1, _k("a@g1")),
        lambda: host.record_event(s1, CudaEvent("e@g1")),
        lambda: host.wait_event(s1, CudaEvent("w@g1")),
        lambda: m.launch(s1, _k("a@g1"), available_at=0.0),
    ]
    for issue in issues:
        with pytest.raises(SimulationError, match="issue to its group lead GPU 0"):
            issue()
    assert host.cursors == [0.0, 0.0, 0.0] and host.launches_issued == 0
    assert s0.idle and s1.idle
    host.launch_kernel(s0, _k("a@g0"))
    assert host.cursors == [host.launch_overhead] * 3 and host.launches_issued == 3


def test_streams_created_after_declaration_are_mirrored():
    m = _machine()
    m.mirror_ranks([0, 1, 2])
    lead = m.gpu(0).stream("s")
    follower = m.gpu(1).stream("s")
    assert follower.lead is lead
    with pytest.raises(ConfigError, match="no counterpart"):
        m.gpu(2).stream("other")


def test_armed_injector_leaves_no_rank_mirrored():
    m = _machine()
    streams = _streams(m)
    FaultInjector(FaultPlan()).arm(m)
    assert not _mirrored(m)
    assert all(g.device is g for g in m.gpus)
    m.mirror_ranks([0, 1, 2])  # ignored while armed
    assert not _mirrored(m) and m.groups == ((0,), (1,), (2,))
    for i, s in enumerate(streams):
        m.launch(s, _k(f"a@g{i}", dur=float(i + 1)), available_at=0.0)
    m.run()
    assert sorted(r.end for r in m.trace.rows) == [1.0, 2.0, 3.0]


def test_session_with_faults_runs_per_rank():
    keep = []
    run_scenario("server", "intra", keep=keep, fault_plan=FaultPlan())
    assert not _mirrored(keep[0].machine)


def test_arming_after_a_mirrored_command_is_a_config_error():
    m = _machine()
    s0 = _streams(m)[0]
    m.launch(s0, _k("a@g0"), available_at=0.0)
    with pytest.raises(ConfigError, match="before submitting"):
        FaultInjector(FaultPlan()).arm(m)


def test_stranded_follower_stream_is_named():
    """A collective the mirrored ranks join but rank 3 never does: the
    deadlock message names every mirrored rank's own stream and kernel."""
    m = Machine(v100_nvlink_node(4), Engine(), trace=Trace())
    streams = [g.stream("comm") for g in m.gpus]
    m.mirror_ranks([0, 1, 2])
    op = CollectiveOp(
        kind=CollectiveKind.ALL_REDUCE, bytes=1.0, participants=[0, 1, 2, 3],
        duration=5.0, name="ar",
    )
    # One member for the group, issued to its lead.
    m.launch(streams[0], op.make_member(0, occupancy=0.2), available_at=0.0)
    with pytest.raises(DeadlockError) as err:
        m.run()
    message = str(err.value)
    for g in (0, 1, 2):
        assert f"Stream(g{g}/comm prio=0: running ar@g{g})" in message
    assert "awaiting ranks [3]" in message


# ----------------------------------------------------------------------
# A whole group's collective: a plain COMM kernel retired like an op
# ----------------------------------------------------------------------
def _whole_group_run(plan, num_gpus, build, *, mirror=None):
    """Run ``build(machine, op)`` on a machine whose ranks are one
    group (or the ranks in ``mirror``), armed with ``plan``.
    ``op(name, duration[, participants])`` makes a fresh all-reduce, over
    every rank unless told otherwise.  Returns the trace rows, the
    completion observer calls folded to one row per rank, the completion
    count, and the machine."""
    m = Machine(
        v100_nvlink_node(num_gpus), Engine(), contention=NullContention(),
        trace=Trace(),
    )
    for g in m.gpus:
        for name in ("s", "c", "h"):
            g.stream(name)
    m.mirror_ranks(range(num_gpus) if mirror is None else mirror)
    if plan is not None:
        FaultInjector(plan).arm(m)
    seen = []
    m.on_kernel_complete(
        lambda k, t, ranks: seen.extend([(k.name.rpartition("@g")[0], t)] * ranks)
    )

    def op(name, duration, participants=range(num_gpus)):
        return CollectiveOp(
            kind=CollectiveKind.ALL_REDUCE, bytes=1.0,
            participants=list(participants), duration=duration, name=name,
        )

    build(m, op)
    m.run()
    # Set once a command reached a multi-rank group.
    assert m._mirrored is (plan is None)
    rows = [(r.gpu, r.stream, r.name, r.ready, r.start, r.end) for r in m.trace.rows]
    return rows, seen, m.kernels_completed, m


def _whole_group_pair(num_gpus, build, **kw):
    mirrored = _whole_group_run(None, num_gpus, build, **kw)
    per_rank = _whole_group_run(FaultPlan(), num_gpus, build, **kw)
    assert mirrored[:3] == per_rank[:3] and mirrored[1]
    return mirrored


def test_whole_group_collective_completes_after_a_co_due_local_kernel():
    """Two all-reduces are admitted before a compute kernel and all three
    retire at one instant on one device.  ``instantiate_op`` builds them
    from their records: plain COMM kernels in the mirrored arm, rendezvous
    members in the per-rank arm.  In both the compute kernel is released
    and observed first, then the all-reduces in admission order, each once
    for its group."""
    profiler = OpProfiler(v100_nvlink_node(4))
    first, second = (
        KernelFunc.profiled(allreduce_op(name, 0, nbytes), profiler)
        for name, nbytes in (("ar1", 8e6), ("ar2", 2e6))
    )
    end = first.duration
    second_at = end - second.duration
    local_at = second_at + 1.0
    local = KernelFunc(
        gemm_op("a", 0, 64, 512, 512), end - local_at, KernelKind.COMPUTE,
        False, 0.5, 0.3,
    )
    assert 0.0 < second_at and local_at < end

    def build(m, op):
        groups = m.groups
        for stream, func, at in (
            ("c", first, 0.0), ("h", second, second_at), ("s", local, local_at),
        ):
            kernels = instantiate_op(func, groups, 0, profiler)
            if func.is_comm:  # an op only where the ranks are apart
                assert all(
                    (k.collective is None) is (len(groups) == 1)
                    for k in kernels
                )
            for group, kernel in zip(groups, kernels):
                m.launch(m.gpu(group[0]).stream(stream), kernel, available_at=at)

    rows, seen, completed, m = _whole_group_pair(4, build)
    assert rows == [
        (g, "s", f"a_b0@g{g}", local_at, local_at, end) for g in range(4)
    ] + [
        (g, "c", f"ar1_b0@g{g}", 0.0, 0.0, end) for g in range(4)
    ] + [
        (g, "h", f"ar2_b0@g{g}", second_at, second_at, end) for g in range(4)
    ]
    assert seen == (
        [("a_b0", end)] * 4 + [("ar1_b0", end)] * 4 + [("ar2_b0", end)] * 4
    )
    assert completed == 12 and m.all_idle()


def test_partial_group_collective_still_rendezvouses():
    """Ranks 0-2 are one group and rank 3 its own: the group's member waits
    in a rendezvous until rank 3 admits its member at t=20.  An all-reduce
    op over ranks 0-2 alone, admitted at t=1, is the group's whole
    collective: it rendezvouses at its admission, and retires at the same
    instant, after the rendezvous admitted first."""
    waiting = []

    def build(m, op):
        ar, own = op("ar", 5.0), op("own", 24.0, participants=(0, 1, 2))
        for group in m.groups:
            lead = group[0]
            gpu = m.gpu(lead)
            at = 20.0 if lead == 3 else 0.0
            m.launch(gpu.stream("c"), ar.make_member(lead, occupancy=0.2), at)
            if lead != 3:
                m.launch(gpu.stream("h"), own.make_member(lead, occupancy=0.2), 1.0)

        def look():
            waiting.append([
                (crun.op.name, sorted(crun.members), crun.started)
                for crun in m._collectives.values()
            ])

        m.engine.schedule(10.0, look)

    rows, seen, completed, m = _whole_group_pair(4, build, mirror=[0, 1, 2])
    assert m.groups == ((0, 1, 2), (3,))
    # The mirrored arm, then the per-rank arm, at t=10.
    assert waiting == [
        [("ar", [0, 1, 2], False), ("own", [0, 1, 2], True)],
    ] * 2
    assert [(r[0], r[2], r[4], r[5]) for r in rows] == [
        (0, "ar@g0", 0.0, 25.0), (1, "ar@g1", 0.0, 25.0),
        (2, "ar@g2", 0.0, 25.0), (3, "ar@g3", 20.0, 25.0),
        (0, "own@g0", 1.0, 25.0), (1, "own@g1", 1.0, 25.0),
        (2, "own@g2", 1.0, 25.0),
    ]
    assert seen == [("ar", 25.0)] * 4 + [("own", 25.0)] * 3 and completed == 7


def test_blocked_follower_names_its_own_event():
    m = _machine()
    m.wait_event(_streams(m)[0], CudaEvent("never@g0"), available_at=0.0)
    with pytest.raises(DeadlockError) as err:
        m.run()
    for i in range(3):
        assert f"Stream(g{i}/s prio=0: blocked on never@g{i})" in str(err.value)


def test_machine_local_ready_sequence():
    """Ready-list tie-breaks come from a per-machine counter."""
    first, second = _machine(1), _machine(1)
    for m in (first, second):
        s = m.gpu(0).stream("s")
        m.launch(s, _k("a"), available_at=0.0)
        m.run()
    assert next(first._ready_seq) == next(second._ready_seq) == 1
