"""instantiate_op against kernels built with the validated constructors.

``instantiate_op`` builds one kernel per rank group, in group order, with
the slot-copy constructors of :mod:`repro.sim.kernel` from an op's profiled
record (:class:`~repro.parallel.base.KernelFunc`), whose profile was checked
once per entry.  The reference here is the constructor path — ``Kernel(...)``
per group lead, ``CollectiveOp(...)`` over every rank plus ``make_member``
per group lead — and every field must agree.  A collective one rank group
holds whole is the exception: one plain kernel whose fields are its
reference member's, built from the record alone.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.hw import a100_pcie_node, v100_nvlink_node
from repro.models import GLM_130B, MOE_16E, OPT_30B
from repro.models.costs import KernelCostModel
from repro.models.ops import (
    all_to_all_op,
    allreduce_op,
    attention_op,
    gemm_op,
    p2p_op,
)
from repro.parallel.base import KernelFunc, instantiate_op, instantiate_run
from repro.profiling import OpProfiler
from repro.core.policy import default_resource_class
from repro.core.runtime import LigerRuntime
from repro.serving import Server
from repro.serving.api import make_strategy
from repro.serving.request import Batch, Phase, Request
from repro.sim.interconnect import CollectiveCostModel
from repro.sim.kernel import CollectiveKind, CollectiveOp, Kernel

# Not sorted, and one two-rank group: member order must follow the argument,
# a collective spans every rank, and each group gets one kernel, its lead's.
GROUPS = [(2,), (0, 3), (1,)]
FIELDS = (
    "name", "kind", "duration", "occupancy", "memory_intensity", "flops",
    "bytes", "batch_id", "layer", "op", "decomposable", "policy",
    "resource_class",
)

OPS = [
    gemm_op("qkv", 3, 144, 7168, 5376),
    attention_op("attn", 3, batch=2, q_len=64, ctx_len=64, heads=14, head_dim=128),
    allreduce_op("ar", 3, 2e6),
    all_to_all_op("a2a", 3, 1.5e6),
    p2p_op("xfer", 3, 4e5, 1, 3),
]


def reference(op, groups, batch_id, profiler):
    """Kernels built through the validated constructors, by group lead (a
    p2p's by endpoint, source first)."""
    leads = [group[0] for group in groups]
    ranks = [rank for group in groups for rank in group]
    occupancy = profiler.occupancy(op)
    mem = profiler.memory_intensity(op)
    if op.op not in ("all_reduce", "all_to_all", "p2p"):
        return {
            gpu: Kernel(
                name=f"{op.name}_b{batch_id}@g{gpu}",
                kind=op.kind,
                duration=profiler.duration(op),
                occupancy=occupancy,
                memory_intensity=mem,
                batch_id=batch_id,
                layer=op.layer,
                op=op.op,
                decomposable=op.decomposable,
            )
            for gpu in leads
        }
    ccm = profiler.collectives
    if op.op == "p2p":
        participants = leads = [op.p2p_src, op.p2p_dst]
        duration = ccm.p2p_duration(op.comm_bytes, op.p2p_src, op.p2p_dst)
    elif op.op == "all_reduce":
        participants = ranks
        duration = ccm.allreduce_duration(op.comm_bytes, participants)
    else:
        participants = ranks
        duration = ccm.alltoall_duration(op.comm_bytes, participants)
    coll = CollectiveOp(
        kind=CollectiveKind(op.op),
        bytes=op.comm_bytes,
        participants=participants,
        duration=duration,
        batch_id=batch_id,
        name=f"{op.name}_b{batch_id}",
    )
    for gpu in leads:
        coll.make_member(
            gpu, occupancy=occupancy, memory_intensity=mem, layer=op.layer,
            op=op.op,
        )
    return dict(coll.members)


def instantiate(op, groups, batch_id, profiler):
    """``instantiate_op`` on the op's record, as a launch list holds it."""
    return instantiate_op(KernelFunc.profiled(op, profiler), groups, batch_id, profiler)


@pytest.fixture
def profiler():
    return OpProfiler(v100_nvlink_node(4))


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.op)
def test_fields_match_validated_constructors(op, profiler):
    want = reference(op, GROUPS, 7, profiler)
    for _ in range(2):  # the profile-entry miss, then the hit
        got = instantiate(op, GROUPS, 7, profiler)
        assert len(got) == len(want)
        for kern, ref in zip(got, want.values()):
            for field in FIELDS:
                assert getattr(kern, field) == getattr(ref, field), field
        # No provenance until a traced runtime launches them.
        assert {(kern.policy, kern.resource_class) for kern in got} == {("", "")}
        colls = {id(kern.collective) for kern in got}
        if want[next(iter(want))].collective is None:
            assert colls == {id(None)}
            continue
        assert len(colls) == 1
        coll = got[0].collective
        ref = next(iter(want.values())).collective
        for field in ("kind", "bytes", "participants", "duration", "batch_id", "name"):
            assert getattr(coll, field) == getattr(ref, field), field
        assert list(coll.members) == list(want)
        assert list(coll.members.values()) == got
        if op.op == "p2p":  # its endpoints, whatever the groups
            assert coll.complete_membership
        else:  # every rank, through the member of its group's lead
            lead_of = {r: group[0] for group in GROUPS for r in group}
            assert {lead_of[r] for r in coll.participants} == set(coll.members)


def _assert_same_kernel(got, want):
    """Every ``Kernel`` slot equal; a rendezvous's collective (built anew
    per call) equal in its fields and members' ranks."""
    for field in fields(Kernel):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "collective" and b is not None:
            assert a is not None
            for attr in ("kind", "bytes", "participants", "duration", "batch_id", "name"):
                assert getattr(a, attr) == getattr(b, attr), attr
            assert list(a.members) == list(b.members)
            continue
        assert a == b, field.name


@pytest.mark.parametrize("group,collectives", [
    ((0, 1, 2, 3), {"p2p"}),
    ((0, 1, 2), {"all_reduce", "all_to_all", "p2p"}),
    ((2,), {"all_reduce", "all_to_all", "p2p"}),
], ids=["whole-group", "partial-group", "one-rank"])
def test_run_equals_per_op_instantiation(group, collectives, profiler):
    """``instantiate_run`` is ``instantiate_op(f, [group], ...)[0]`` per
    record in every kernel slot: compute clones, a whole group's
    collectives as plain COMM kernels, a partial group's as rendezvous
    collectives, and a p2p as its source member."""
    funcs = [KernelFunc.profiled(op, profiler) for op in OPS]
    got = instantiate_run(funcs, group, 6, profiler)
    want = [instantiate_op(f, [group], 6, profiler)[0] for f in funcs]
    assert len(got) == len(funcs)
    for kern, ref in zip(got, want):
        _assert_same_kernel(kern, ref)
    assert {k.op for k in got if k.collective is not None} == collectives
    assert [k.name for k in got[:2]] == [f"qkv_b6@g{group[0]}", f"attn_b6@g{group[0]}"]
    xfer = got[4].collective
    assert xfer.participants == [1, 3] and got[4] is xfer.members[1]


class _Counting(KernelCostModel):
    def __init__(self, gpu, *, occupancy=None):
        super().__init__(gpu)
        self.calls = {"occupancy": 0, "memory_intensity": 0}
        self._occupancy = occupancy

    def occupancy(self, op):
        self.calls["occupancy"] += 1
        if self._occupancy is not None:
            return self._occupancy
        return super().occupancy(op)

    def memory_intensity(self, op):
        self.calls["memory_intensity"] += 1
        return super().memory_intensity(op)


def test_invalid_profile_raises_every_time():
    node = v100_nvlink_node(4)
    profiler = OpProfiler(node, cost_model=_Counting(node.gpu, occupancy=0.0))
    for _ in range(2):
        with pytest.raises(ConfigError, match="occupancy"):
            instantiate(gemm_op("g", 0, 64, 512, 512), GROUPS, 1, profiler)


@pytest.mark.parametrize("shared,expected", [(True, 1), (False, 3)])
def test_only_a_shared_profiler_reuses_its_profile_memo(shared, expected):
    """The memo lives in its profiler: three instantiations through one
    profiler ask the cost model once, while a fresh profiler per
    instantiation (the cold path, now that the memo has no switch) asks it
    every time, and both build the same kernels."""
    node = v100_nvlink_node(4)
    cost_model = _Counting(node.gpu)
    profiler = OpProfiler(node, cost_model=cost_model)
    op = gemm_op("g", 0, 64, 512, 512)
    kernels = []
    for b in range(3):
        if not shared:
            profiler = OpProfiler(node, cost_model=cost_model)
        kernels.append(instantiate(op, GROUPS, b, profiler)[1])
    assert cost_model.calls == {"occupancy": expected, "memory_intensity": expected}
    assert len({(k.duration, k.occupancy, k.memory_intensity) for k in kernels}) == 1


def test_repeated_instantiation_consults_the_cost_model_once():
    """The profile memo: the cost model is asked once per op shape, and the
    kernels built from a hit equal the cold build's."""
    node = v100_nvlink_node(4)
    cost_model = _Counting(node.gpu)
    profiler = OpProfiler(node, cost_model=cost_model)
    op = gemm_op("g", 0, 64, 512, 512)
    cold = reference(op, GROUPS, 0, OpProfiler(node))
    for b in range(3):
        got = instantiate(op, GROUPS, b, profiler)
        for kern, ref in zip(got, cold.values()):
            for field in FIELDS:
                want = getattr(ref, field)
                if field == "name":
                    want = want.replace("_b0@", f"_b{b}@")
                elif field == "batch_id":
                    want = b
                assert getattr(kern, field) == want, field
    assert cost_model.calls == {"occupancy": 1, "memory_intensity": 1}


def _count_allreduce_calls(ccm):
    """Wrap ``ccm.allreduce_duration``; returns the list of its arguments."""
    calls = []
    price = ccm.allreduce_duration

    def counted(size_bytes, participants):
        calls.append((size_bytes, tuple(participants)))
        return price(size_bytes, participants)

    ccm.allreduce_duration = counted
    return calls


def test_collective_is_priced_once_per_shape_without_a_hook(profiler):
    """A collective's duration is memoized by kind, bytes and ranks: each
    (op, ranks) is priced once, however often it is built."""
    ops = [allreduce_op("ar", 3, 2e6), allreduce_op("ar_big", 3, 8e6)]
    funcs = [KernelFunc.profiled(op, profiler) for op in ops]  # a launch list
    calls = _count_allreduce_calls(profiler.collectives)
    per_rank = [(0,), (1,), (2,), (3,)]
    for b in range(3):
        for op, func in zip(ops, funcs):
            for groups in (GROUPS, per_rank):
                got = instantiate_op(func, groups, b, profiler)
                coll = got[0].collective
                want = reference(op, groups, b, OpProfiler(v100_nvlink_node(4)))
                assert coll.duration == next(iter(want.values())).duration
    assert sorted(calls) == sorted(
        (op.comm_bytes, ranks) for op in ops for ranks in ((2, 0, 3, 1), (0, 1, 2, 3))
    )


def test_instantiation_reads_the_record_not_the_profile(monkeypatch, profiler):
    """A launch builds its kernels from the record alone: neither the
    profile memo nor its key is consulted."""
    funcs = [KernelFunc.profiled(op, profiler) for op in OPS]
    want = [instantiate_op(f, GROUPS, 5, profiler) for f in funcs]

    def forbidden(*args):
        raise AssertionError("instantiate_op profiled an op")

    monkeypatch.setattr(OpProfiler, "kernel_profile", forbidden)
    monkeypatch.setattr(OpProfiler, "duration", forbidden)
    monkeypatch.setattr("repro.profiling.profiler.op_key", forbidden)
    for func, ref in zip(funcs, want):
        got = instantiate_op(func, GROUPS, 5, profiler)
        assert len(got) == len(ref)
        for kern, want_kern in zip(got, ref):
            for field in FIELDS:
                assert getattr(kern, field) == getattr(want_kern, field), field


WHOLE = [(0, 1, 2, 3)]


def _forbid_interconnect(monkeypatch):
    """Make every collective cost-model method raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError("instantiate_op called the interconnect")

    for name in (
        "instantiate", "make_allreduce", "allreduce_duration",
        "alltoall_duration", "p2p_duration", "_ring_hop_latency",
    ):
        monkeypatch.setattr(CollectiveCostModel, name, forbidden)


@pytest.mark.parametrize("op", OPS[2:4], ids=lambda op: op.op)
def test_whole_group_collective_is_one_plain_kernel(monkeypatch, op, profiler):
    """One rank group holding the profiler's ranks: an all-reduce
    or all-to-all is one kernel, for the lead, with every field of the
    member the rendezvous path would build, no op, and the record's
    profiled duration; no interconnect method is called."""
    func = KernelFunc.profiled(op, profiler)
    want = reference(op, WHOLE, 7, OpProfiler(v100_nvlink_node(4)))
    _forbid_interconnect(monkeypatch)
    got = instantiate_op(func, WHOLE, 7, profiler)
    assert list(want) == [0] and len(got) == 1
    kern = got[0]
    for field in FIELDS:
        assert getattr(kern, field) == getattr(want[0], field), field
    assert kern.duration == func.duration
    assert kern.kind is want[0].kind and kern.collective is None
    assert want[0].collective is not None


def _op_groups(profiler, groups, op):
    got = instantiate_op(KernelFunc.profiled(op, profiler), groups, 1, profiler)
    colls = {id(kern.collective) for kern in got}
    assert len(colls) == 1 and id(None) not in colls
    return got[0].collective


@pytest.mark.parametrize("op", OPS[2:4], ids=lambda op: op.op)
def test_hook_or_partial_group_still_builds_an_op(op):
    """A group short of a participant, a group whose ring order differs
    from the profiler's, and more than one group all instantiate a
    rendezvous collective."""
    node = v100_nvlink_node(4)
    for participants, groups in (
        ((0, 1, 2, 3), [(0, 1, 2)]),
        ((1, 0, 2, 3), WHOLE),
        ((0, 1, 2, 3), [(0, 1, 2), (3,)]),
    ):
        profiler = OpProfiler(node, participants=participants)
        coll = _op_groups(profiler, groups, op)
        assert coll.participants == [r for g in groups for r in g]


def test_p2p_over_a_whole_group_builds_an_op(profiler):
    coll = _op_groups(profiler, WHOLE, OPS[4])
    assert coll.participants == [1, 3] and set(coll.members) == {1, 3}


def _batch(phase):
    return Batch(requests=[
        Request(rid=i, arrival=0.0, seq_len=64, phase=phase,
                context_len=128 if phase is Phase.DECODE else 0)
        for i in range(2)
    ])


@pytest.mark.parametrize("strategy", ["intra", "liger"])
@pytest.mark.parametrize("model,node", [
    (OPT_30B, v100_nvlink_node(4)),
    (GLM_130B, a100_pcie_node(4)),
    (MOE_16E, a100_pcie_node(4)),
], ids=["opt30b", "glm130b", "moe16e"])
def test_collective_records_equal_the_instantiated_price(strategy, model, node):
    """The whole-group kernel's duration is the record's: for the bench
    models, prefill and decode at tp=4, every collective record's profiled
    duration equals the price ``instantiate`` computes over the node's
    ranks."""
    strat = make_strategy(strategy, model.scaled_layers(2), node)
    ranks = list(range(node.num_gpus))
    seen = set()
    for phase in (Phase.PREFILL, Phase.DECODE):
        for func in strat.launch_list(_batch(phase), tp=node.num_gpus):
            op = func.op
            if op.op not in ("all_reduce", "all_to_all"):
                continue
            priced = CollectiveCostModel(node.topology, strat.profiler.nccl).instantiate(
                CollectiveKind(op.op), op.comm_bytes, ranks, ranks,
                func.occupancy, func.memory_intensity, 0, op.layer, op.name, op.op,
            )
            assert func.duration == priced.duration, op.name
            seen.add((phase, op.op))
    want = {(p, "all_reduce") for p in Phase}
    if model is MOE_16E:
        want |= {(p, "all_to_all") for p in Phase}
    assert seen == want


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_runtime_writes_provenance_only_when_traced(monkeypatch, traced):
    """``LigerRuntime._launch_round`` labels the kernels it launches with
    its policy and each op's resource class when the machine is traced,
    and the trace rows carry the labels; an untraced run leaves ``""``."""
    launched = []
    launch_round = LigerRuntime._launch_round

    def spy(self, round_, subset0, subset1):
        end_events = launch_round(self, round_, subset0, subset1)
        for kernels, funcs in ((subset0, round_.subset0), (subset1, round_.subset1)):
            for per_group, func in zip(kernels, funcs):
                launched.extend((kern, func) for kern in per_group)
        return end_events

    monkeypatch.setattr(LigerRuntime, "_launch_round", spy)
    model, node = OPT_30B.scaled_layers(2), v100_nvlink_node(4)
    strat = make_strategy("liger", model, node)
    server = Server(model, node, strat, record_trace=traced, check_memory=False)
    server.run([
        Batch([Request(rid=r, arrival=a, seq_len=64, phase=Phase.PREFILL)])
        for r, a in ((0, 0.0), (1, 10.0))
    ])
    assert launched
    policy = strat.runtime.scheduler.policy.name
    for kern, func in launched:
        want = (policy, default_resource_class(func)) if traced else ("", "")
        assert (kern.policy, kern.resource_class) == want, kern.name
    if traced:
        rows = {(r.policy, r.resource_class) for r in server.trace.rows}
        assert rows == {(kern.policy, kern.resource_class) for kern, _ in launched}
