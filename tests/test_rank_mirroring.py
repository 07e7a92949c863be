"""Rank mirroring: each set of rank-symmetric GPUs is simulated once.

The Intra-Op strategy and the Liger runtime declare their symmetric ranks
(:meth:`~repro.sim.gpu.Machine.mirror_ranks`).  An armed fault injector
turns the declaration off, so an armed *empty* :class:`FaultPlan` is the
per-rank reference arm: every test here compares the mirrored run with it
row for row, and completion for completion.
"""

from __future__ import annotations

import pytest

from repro.core import LigerConfig, SyncMode
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw import a100_pcie_node, v100_nvlink_node
from repro.models import MOE_16E, OPT_30B
from repro.serving.api import make_strategy
from repro.serving.server import Server
from repro.serving.workload import general_trace
from repro.sim import CudaEvent, Engine, Kernel, KernelKind, Machine, Trace
from repro.sim.kernel import CollectiveKind, CollectiveOp
from serving_goldens import SCENARIOS, normalized_rows, reset_batch_ids, run_scenario


def _completions(metrics):
    return [(r.rid, repr(r.arrival), repr(r.completion)) for r in metrics.completed]


def _mirrored(machine) -> bool:
    return any(len(g.ranks) > 1 for g in machine.gpus)


# ----------------------------------------------------------------------
# Mirrored arm == per-rank arm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("server,strategy", SCENARIOS)
def test_golden_scenarios_match_per_rank_run(server, strategy):
    runs = []
    for plan in (None, FaultPlan()):
        keep = []
        extra = {} if plan is None else {"fault_plan": plan}
        _, trace = run_scenario(server, strategy, keep=keep, **extra)
        srv = keep[0]
        runs.append((normalized_rows(trace), _completions(srv.metrics)))
        assert _mirrored(srv.session.machine) is (plan is None)
    (rows, done), (ref_rows, ref_done) = runs
    assert rows == ref_rows
    assert done == ref_done
    assert done


def _serve_pair(model, node, liger_config, num_requests, *, rate=60.0):
    runs = []
    for plan in (None, FaultPlan()):
        reset_batch_ids()
        strategy = make_strategy("liger", model, node, config=liger_config)
        srv = Server(
            model, node, strategy, record_trace=True, check_memory=False,
            fault_plan=plan,
        )
        result = srv.run(general_trace(num_requests, rate, 2, seed=0))
        assert _mirrored(srv.session.machine) is (plan is None)
        runs.append((normalized_rows(result.trace), _completions(result.metrics)))
    return runs


_OPT = OPT_30B.scaled_layers(4)


@pytest.mark.parametrize("mode", list(SyncMode), ids=lambda m: m.name)
def test_liger_sync_modes_match_per_rank_run(mode):
    (rows, done), (ref_rows, ref_done) = _serve_pair(
        _OPT, v100_nvlink_node(4), LigerConfig(sync_mode=mode), 16
    )
    assert rows == ref_rows and done == ref_done and done


def test_moe_expert_overlap_matches_per_rank_run():
    (rows, done), (ref_rows, ref_done) = _serve_pair(
        MOE_16E.scaled_layers(2), a100_pcie_node(4),
        LigerConfig(policy="expert_overlap", max_inflight=6), 12,
    )
    assert rows == ref_rows and done == ref_done and done


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
    m.on_kernel_complete(lambda k, t: seen.append(k.name))
    for i, s in enumerate(_streams(m)):
        m.launch(s, _k(f"a@g{i}"), available_at=1.0)
        m.launch(s, _k(f"b@g{i}"), available_at=1.0)
    m.run()
    assert [g.ranks for g in m.gpus] == [(0, 1, 2), (), ()]
    assert [(r.gpu, r.name, r.start, r.end) for r in m.trace.rows] == [
        (0, "a@g0", 1.0, 11.0), (1, "a@g1", 1.0, 11.0), (2, "a@g2", 1.0, 11.0),
        (0, "b@g0", 11.0, 21.0), (1, "b@g1", 11.0, 21.0), (2, "b@g2", 11.0, 21.0),
    ]
    assert seen == ["a@g0", "a@g1", "a@g2", "b@g0", "b@g1", "b@g2"]
    assert m.kernels_completed == 6 and m.all_idle()


def test_streams_created_after_declaration_are_mirrored():
    m = _machine()
    m.mirror_ranks([0, 1, 2])
    lead = m.gpu(0).stream("s")
    follower = m.gpu(1).stream("s")
    assert follower.lead is lead and follower.lane == 1
    with pytest.raises(ConfigError, match="no counterpart"):
        m.gpu(2).stream("other")


def test_divergent_follower_kernel_raises():
    m = _machine()
    s0, s1, s2 = _streams(m)
    m.launch(s0, _k("a@g0"), available_at=0.0)
    m.launch(s1, _k("a@g1"), available_at=0.0)
    with pytest.raises(SimulationError, match=r"rank 2 .*a@g2"):
        m.launch(s2, _k("a@g2", dur=11.0), available_at=0.0)


def test_follower_issued_at_another_instant_raises():
    m = _machine(2)
    s0, s1 = _streams(m)
    m.launch(s0, _k("a@g0"), available_at=0.0)
    with pytest.raises(SimulationError, match="rank 1"):
        m.launch(s1, _k("a@g1"), available_at=0.5)


def test_wait_on_a_foreign_event_raises():
    m = _machine(2)
    s0, s1 = _streams(m)
    e0, e1 = CudaEvent("e0"), CudaEvent("e1")
    m.record_event(s0, e0, available_at=0.0)
    m.record_event(s1, e1, available_at=0.0)
    m.wait_event(s0, e0, available_at=0.0)
    with pytest.raises(SimulationError, match="rank 1"):
        m.wait_event(s1, CudaEvent("other"), available_at=0.0)


def test_lead_command_without_its_followers_raises():
    m = _machine()
    s0, s1, _ = _streams(m)
    m.launch(s0, _k("a@g0"), available_at=0.0)
    m.launch(s1, _k("a@g1"), available_at=0.0)
    with pytest.raises(SimulationError, match=r"rank\(s\) \[2\] .*a@g0"):
        m.run()


def test_armed_injector_leaves_no_rank_mirrored():
    m = _machine()
    streams = _streams(m)
    FaultInjector(FaultPlan()).arm(m)
    assert not _mirrored(m)
    assert all(g.device is g for g in m.gpus)
    m.mirror_ranks([0, 1, 2])  # ignored while armed
    assert not _mirrored(m)
    for i, s in enumerate(streams):
        m.launch(s, _k(f"a@g{i}", dur=float(i + 1)), available_at=0.0)
    m.run()
    assert sorted(r.end for r in m.trace.rows) == [1.0, 2.0, 3.0]


def test_session_with_faults_runs_per_rank():
    keep = []
    run_scenario("server", "intra", keep=keep, fault_plan=FaultPlan())
    assert not _mirrored(keep[0].session.machine)


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
    for g in (0, 1, 2):
        m.launch(streams[g], op.make_member(g, occupancy=0.2), available_at=0.0)
    with pytest.raises(DeadlockError) as err:
        m.run()
    message = str(err.value)
    for g in (0, 1, 2):
        assert f"Stream(g{g}/comm prio=0: running ar@g{g})" in message
    assert "awaiting ranks [3]" in message


def test_blocked_follower_names_its_own_event():
    m = _machine()
    streams = _streams(m)
    for i, s in enumerate(streams):
        m.wait_event(s, CudaEvent(f"never@g{i}"), available_at=0.0)
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
