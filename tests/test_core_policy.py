"""Tests for repro.core.policy: registry, resource classes, keys, helpers."""

from __future__ import annotations

import pytest

from policy_conformance import (
    check_policy_conformance,
    make_func,
    make_workload_vecs,
)
from repro.core.config import NO_ANTICIPATION
from repro.core.policy import (
    POLICIES,
    RC_ALL_TO_ALL,
    RC_COMPUTE,
    RC_NVLINK,
    RC_P2P,
    RESOURCE_CLASSES,
    ExpertOverlapPolicy,
    LigerDichotomyPolicy,
    SchedulingPolicy,
    default_resource_class,
    make_policy,
    policy_names,
)
from repro.core.scheduler import LigerScheduler
from repro.errors import ConfigError
from repro.sim.kernel import KernelKind


def _scheduler(policy, batches):
    s = LigerScheduler(
        factors=NO_ANTICIPATION, policy=policy, max_inflight=8
    )
    for vec in make_workload_vecs(batches):
        s.enqueue(vec)
    return s


# ----------------------------------------------------------------------
# Resource classification
# ----------------------------------------------------------------------
class TestResourceClasses:
    def test_class_palette_is_complete(self):
        assert RESOURCE_CLASSES == (
            RC_COMPUTE, RC_NVLINK, RC_ALL_TO_ALL, RC_P2P
        )

    @pytest.mark.parametrize(
        "flavour,expected",
        [
            ("gemm", RC_COMPUTE),
            ("all_reduce", RC_NVLINK),
            ("all_to_all", RC_ALL_TO_ALL),
            ("p2p", RC_P2P),
        ],
    )
    def test_default_classifier(self, flavour, expected):
        assert default_resource_class(make_func(flavour, 10.0)) == expected

    def test_policy_resource_class_uses_default(self):
        # Every policy's round names its primary run by the default class.
        for name in POLICIES:
            s = _scheduler(make_policy(name), [[make_func("all_to_all", 5.0)]])
            assert s.plan_round().primary_class == RC_ALL_TO_ALL

    @pytest.mark.parametrize("flavour", ["gemm", "all_reduce", "all_to_all", "p2p"])
    def test_policy_keys(self, flavour):
        func = make_func(flavour, 10.0)
        assert LigerDichotomyPolicy().key(func) is func.is_comm
        assert ExpertOverlapPolicy().key(func) == default_resource_class(func)


# ----------------------------------------------------------------------
# Registry and identity
# ----------------------------------------------------------------------
class TestRegistry:
    def test_policy_names_sorted(self):
        assert policy_names() == tuple(sorted(POLICIES))
        assert "dichotomy" in policy_names()
        assert "expert_overlap" in policy_names()

    def test_make_policy_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scheduling policy"):
            make_policy("nope")

    def test_default_is_dichotomy_first_fit(self):
        s = LigerScheduler(factors=NO_ANTICIPATION)
        assert isinstance(s.policy, LigerDichotomyPolicy)


# ----------------------------------------------------------------------
# Primary delimitation differences
# ----------------------------------------------------------------------
class TestPrimaryDelimitation:
    def test_dichotomy_groups_comm_flavours_together(self):
        # all_reduce then all_to_all are both COMM: one dichotomy run.
        s = _scheduler(
            LigerDichotomyPolicy(),
            [[make_func("all_reduce", 5.0), make_func("all_to_all", 7.0),
              make_func("gemm", 3.0)]],
        )
        r = s.plan_round()
        assert [f.op.op for f in r.subset0] == ["all_reduce", "all_to_all"]
        assert r.window == 12.0

    def test_expert_overlap_splits_comm_flavours(self):
        # Same stream: the class switch all_reduce→all_to_all ends the run.
        s = _scheduler(
            ExpertOverlapPolicy(),
            [[make_func("all_reduce", 5.0), make_func("all_to_all", 7.0),
              make_func("gemm", 3.0)]],
        )
        r = s.plan_round()
        assert [f.op.op for f in r.subset0] == ["all_reduce"]
        assert r.primary_class == RC_NVLINK
        r2 = s.plan_round()
        assert [f.op.op for f in r2.subset0] == ["all_to_all"]
        assert r2.primary_class == RC_ALL_TO_ALL

    def test_expert_overlap_packs_nvlink_under_all_to_all_window(self):
        # Dichotomy blocks any COMM under a COMM window; expert_overlap
        # admits the other collective flavour.
        batches = lambda: [  # noqa: E731 - fresh funcs per scheduler
            [make_func("all_to_all", 20.0), make_func("gemm", 1.0)],
            [make_func("all_reduce", 10.0), make_func("gemm", 1.0)],
        ]
        r_dich = _scheduler(LigerDichotomyPolicy(), batches()).plan_round()
        assert r_dich.subset1 == []
        r_eo = _scheduler(ExpertOverlapPolicy(), batches()).plan_round()
        # ...and keeps walking: the compute kernel behind it fits too.
        assert [f.op.op for f in r_eo.subset1] == ["all_reduce", "gemm"]
        assert r_eo.secondary_fill == 11.0


# ----------------------------------------------------------------------
# Shared pop/split helpers
# ----------------------------------------------------------------------
class TestSharedHelpers:
    def test_take_split_pushes_remainder_back(self):
        policy = LigerDichotomyPolicy()
        s = _scheduler(
            policy,
            [[make_func("gemm", 10.0)],
             [make_func("all_reduce", 9.0), make_func("gemm", 1.0)]],
        )
        fv = s.processing[1]
        whole = fv.peek()
        piece = make_func("all_reduce", 3.0, name="ar.c1/3", batch_id=1)
        rest = make_func("all_reduce", 6.0, name="ar.rest", batch_id=1)
        subset1 = []
        taken = policy._take_split(s, fv, (piece, rest), subset1)
        assert taken == 3.0
        assert s.decomposed_pieces == 1  # counted where the split happens
        assert subset1 == [piece]
        assert fv.peek() is rest  # remainder at the head, whole gone
        assert whole not in (fv.peek(),)


# ----------------------------------------------------------------------
# Round metadata
# ----------------------------------------------------------------------
class TestRoundMetadata:
    def test_round_carries_primary_class(self):
        s = _scheduler(
            ExpertOverlapPolicy(), [[make_func("all_to_all", 5.0)]]
        )
        r = s.plan_round()
        assert r.primary_class == RC_ALL_TO_ALL
        assert r.primary_kind is KernelKind.COMM


# ----------------------------------------------------------------------
# A policy is its key
# ----------------------------------------------------------------------
class FlavourPolicy(SchedulingPolicy):
    """Keys on the op flavour alone: every distinct op type is a class."""

    name = "flavour"

    def key(self, func):
        return func.op.op


class TestKeyOnlyPolicy:
    def test_runs_and_gates_on_its_key(self):
        s = _scheduler(
            FlavourPolicy(),
            [[make_func("gemm", 20.0), make_func("all_reduce", 1.0)],
             [make_func("p2p", 5.0), make_func("gemm", 5.0)],
             [make_func("all_reduce", 5.0), make_func("all_to_all", 5.0)]],
        )
        r = s.plan_round()
        assert [f.op.op for f in r.subset0] == ["gemm"]
        # Batch 1 stops at its gemm (the run's key); batch 2 packs fully.
        assert [f.op.op for f in r.subset1] == ["p2p", "all_reduce", "all_to_all"]

    def test_conforms(self):
        check_policy_conformance(
            FlavourPolicy(),
            [[make_func(f, d) for f, d in batch] for batch in (
                [("gemm", 30.0), ("all_reduce", 5.0), ("gemm", 8.0)],
                [("all_to_all", 9.0), ("p2p", 4.0), ("gemm", 6.0)],
                [("all_reduce", 7.0), ("gemm", 3.0)],
            )],
        )
