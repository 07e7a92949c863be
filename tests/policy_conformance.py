"""Reusable conformance suite for :class:`repro.core.policy.SchedulingPolicy`.

Any policy — built-in or third-party — must uphold four invariants no
matter what workload it schedules:

1. **Round non-empty** — every planned round has a non-empty primary
   subset (Algorithm 1 pops at least one kernel before it stops).
2. **Window accounting exact** — the round's window is exactly the summed
   no-load duration of the primary subset, and the secondary fill is
   exactly the summed *anticipated* duration of the secondary subset.
3. **Principle 1 per policy key** — the primary subset shares one
   ``policy.key``, no secondary kernel has that key, and the fill never
   exceeds the window (beyond float tolerance).
4. **Drain termination** — repeatedly planning rounds consumes every
   enqueued kernel exactly once and terminates within ``total kernels``
   rounds (each round pops at least one).

``check_policy_conformance`` drives a scheduler built around the policy
over a workload and asserts all four.  ``tests/test_policy_conformance.py``
runs it for the built-in policies over crafted and hypothesis-random
workloads; downstream policies can import it the same way.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.assembly import FuncVec, KernelFunc
from repro.core.config import NO_ANTICIPATION
from repro.core.policy import default_resource_class
from repro.core.scheduler import LigerScheduler, Round
from repro.models.ops import all_to_all_op, allreduce_op, gemm_op, p2p_op
from repro.serving.request import Batch, Phase, Request

__all__ = [
    "make_func",
    "make_workload_vecs",
    "check_round_invariants",
    "check_policy_conformance",
]

_REL_TOL = 1e-9

#: Kernel-flavour palette for random workloads: one entry per resource
#: class the default classifier distinguishes.
FLAVOURS = ("gemm", "all_reduce", "all_to_all", "p2p")


def make_func(
    flavour: str,
    duration: float,
    *,
    name: str = "",
    batch_id: int = 0,
    decomposable: bool = False,
) -> KernelFunc:
    """One KernelFunc of the given flavour with a fixed no-load duration
    (``batch_id`` only names it)."""
    name = name or f"{flavour}_{batch_id}"
    if flavour == "gemm":
        op = gemm_op(name, 0, 128, 1024, 1024, decomposable=decomposable)
    elif flavour == "all_reduce":
        op = allreduce_op(name, 0, 1e6, decomposable=decomposable)
    elif flavour == "all_to_all":
        op = all_to_all_op(name, 0, 1e6, decomposable=decomposable)
    elif flavour == "p2p":
        op = p2p_op(name, 0, 1e6, 0, 1)
    else:
        raise ValueError(f"unknown flavour {flavour!r}")
    return KernelFunc(
        op=op,
        duration=duration,
        kind=op.kind,
        decomposable=decomposable,
        occupancy=0.5,
        memory_intensity=0.1,
    )


def make_workload_vecs(
    batches: Sequence[Sequence[KernelFunc]],
) -> List[FuncVec]:
    """Wrap per-batch kernel lists into FuncVecs with distinct batches."""
    vecs = []
    for i, funcs in enumerate(batches):
        batch = Batch(
            requests=[
                Request(rid=i, arrival=0.0, seq_len=64, phase=Phase.PREFILL)
            ]
        )
        vecs.append(FuncVec(batch, list(funcs)))
    return vecs


def check_round_invariants(
    policy, scheduler: LigerScheduler, round_: Round
) -> None:
    """Invariants 1–3 on a single planned round."""
    # 1. Round non-empty.
    assert round_.subset0, "round planned with an empty primary subset"

    # 2. Window accounting exact: window is the primary subset's summed
    #    no-load duration; fill is the secondary subset's summed
    #    anticipated duration.
    window = sum(f.duration for f in round_.subset0)
    assert abs(round_.window - window) <= _REL_TOL * max(1.0, window), (
        f"window {round_.window} != primary no-load sum {window}"
    )
    fill = sum(
        f.duration * scheduler.factors.for_kind(f.kind)
        for f in round_.subset1
    )
    assert abs(round_.secondary_fill - fill) <= _REL_TOL * max(1.0, fill), (
        f"secondary_fill {round_.secondary_fill} != anticipated sum {fill}"
    )

    # 3. Principle 1 per policy key: the primary run shares one key, no
    #    packed kernel has it, and the fill fits the window.
    assert round_.primary_class == default_resource_class(round_.subset0[0])
    primary_key = policy.key(round_.subset0[-1])
    assert all(policy.key(f) == primary_key for f in round_.subset0), (
        "primary subset mixes policy keys"
    )
    for func in round_.subset1:
        assert policy.key(func) != primary_key, (
            f"{func.op.name} packed into a {round_.primary_class} window "
            f"it contends with"
        )
    assert round_.secondary_fill <= round_.window * (1 + _REL_TOL), (
        f"fill {round_.secondary_fill} exceeds window {round_.window}"
    )


def check_policy_conformance(
    policy,
    batches: Sequence[Sequence[KernelFunc]],
    *,
    factors=NO_ANTICIPATION,
    max_inflight: int = 8,
) -> List[Round]:
    """Drive ``policy`` to drain over ``batches``; assert invariants 1–4.

    Returns the planned rounds for any additional policy-specific checks.
    """
    scheduler = LigerScheduler(
        factors=factors, policy=policy, max_inflight=max_inflight
    )
    total = sum(len(funcs) for funcs in batches)
    for vec in make_workload_vecs(batches):
        scheduler.enqueue(vec)

    rounds: List[Round] = []
    scheduled = 0
    while (round_ := scheduler.plan_round()) is not None:
        check_round_invariants(policy, scheduler, round_)
        rounds.append(round_)
        scheduled += len(round_.subset0) + len(round_.subset1)
        # 4. Termination: every round pops >= 1 kernel, so the round count
        #    can never exceed the kernel count.
        assert len(rounds) <= total, "scheduler failed to make progress"

    # 4. Drain: every kernel was scheduled exactly once (no decomposer in
    #    this harness, so counts are conserved), and nothing is left.
    assert scheduled == total, (
        f"scheduled {scheduled} kernels, enqueued {total}"
    )
    assert not scheduler.has_work
    return rounds
