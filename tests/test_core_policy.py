"""Tests for repro.core.policy: registry, classes, helpers, packing parity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policy_conformance import make_func, make_workload_vecs
from repro.core.contention import NO_ANTICIPATION
from repro.core.policy import (
    POLICIES,
    RC_ALL_TO_ALL,
    RC_COMPUTE,
    RC_NVLINK,
    RC_P2P,
    RESOURCE_CLASSES,
    ExpertOverlapPolicy,
    LigerDichotomyPolicy,
    default_resource_class,
    make_policy,
    policy_names,
)
from repro.core.scheduler import LigerScheduler
from repro.errors import ConfigError
from repro.sim.kernel import KernelKind


def _scheduler(policy, batches):
    s = LigerScheduler(
        anticipator=NO_ANTICIPATION, policy=policy, max_inflight=8
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
        func = make_func("all_to_all", 5.0)
        for name in POLICIES:
            assert make_policy(name).resource_class(func) == RC_ALL_TO_ALL


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

    def test_bad_packing_rejected(self):
        with pytest.raises(ConfigError, match="packing must be"):
            make_policy("dichotomy", packing="worst_fit")

    def test_default_is_dichotomy_first_fit(self):
        s = LigerScheduler(anticipator=NO_ANTICIPATION)
        assert isinstance(s.policy, LigerDichotomyPolicy)
        assert s.policy.packing == "first_fit"


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
    def test_take_whole_pops_and_collects(self):
        policy = LigerDichotomyPolicy()
        s = _scheduler(
            policy,
            [[make_func("gemm", 10.0)],
             [make_func("all_reduce", 4.0), make_func("gemm", 1.0)]],
        )
        fv = s.processing[1]
        subset1 = []
        taken = policy._take_whole(s, fv, subset1)
        assert taken == 4.0
        assert [f.op.op for f in subset1] == ["all_reduce"]
        assert fv.peek().op.op == "gemm"  # head consumed

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
# First-fit / best-fit parity (satellite: packing property test)
# ----------------------------------------------------------------------
def _packed_fill(packing: str, window: float, heads) -> float:
    """Plan one round: primary [gemm window], then one batch per head."""
    batches = [[make_func("gemm", window), make_func("all_reduce", 1.0)]]
    for i, dur in enumerate(heads):
        batches.append(
            [make_func("all_reduce", dur, batch_id=i + 1),
             make_func("gemm", 1.0, batch_id=i + 1)]
        )
    s = _scheduler(make_policy("dichotomy", packing=packing), batches)
    round_ = s.plan_round()
    round_.validate_principle1()  # Principle-1 clean for both packers
    return round_.secondary_fill


class TestPackingParity:
    @settings(max_examples=60, deadline=None)
    @given(
        n_heads=st.integers(min_value=1, max_value=6),
        head=st.floats(min_value=1.0, max_value=50.0),
        slots=st.integers(min_value=0, max_value=8),
        # slack stays off 0: an exact-fit window is 1-ulp fragile under
        # the packer's sequential remaining -= head accounting.
        slack=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_equal_heads_fill_parity(self, n_heads, head, slots, slack):
        """With identical-duration candidate heads the two packers fill the
        window identically: both take min(n_heads, floor(window/head))
        heads, so best-fit fill >= first-fit fill holds with equality.
        (With *unequal* heads first-fit can beat best-fit — greedy
        largest-first is not optimal online — so >= is asserted only on
        this provably-equal family.)
        """
        window = head * slots + head * slack  # room for exactly `slots`
        ff = _packed_fill("first_fit", window, [head] * n_heads)
        bf = _packed_fill("best_fit", window, [head] * n_heads)
        expected = head * min(n_heads, slots)
        assert ff == pytest.approx(expected)
        assert bf >= ff  # equality on this family; >= is the contract
        assert bf == pytest.approx(expected)

    def test_best_fit_beats_first_fit_when_order_hurts(self):
        # Window 10; arrival order offers 7 then 10.  First-fit takes 7 and
        # dead-ends (10 no longer fits, no decomposer); best-fit takes the
        # exact-fit 10.
        ff = _packed_fill("first_fit", 10.0, [7.0, 10.0])
        bf = _packed_fill("best_fit", 10.0, [7.0, 10.0])
        assert ff == 7.0
        assert bf == 10.0

    def test_both_packers_principle1_clean_under_anticipation(self):
        from repro.core.contention import ContentionAnticipator
        from repro.profiling.contention_profiler import ContentionFactors

        anticipator = ContentionAnticipator(
            ContentionFactors(compute=1.10, comm=1.15)
        )
        for packing in ("first_fit", "best_fit"):
            batches = [
                [make_func("gemm", 30.0), make_func("all_reduce", 1.0)],
                [make_func("all_reduce", 20.0), make_func("gemm", 1.0)],
                [make_func("all_reduce", 8.0), make_func("gemm", 1.0)],
            ]
            s = LigerScheduler(
                anticipator=anticipator,
                policy=make_policy("dichotomy", packing=packing),
                max_inflight=8,
            )
            for vec in make_workload_vecs(batches):
                s.enqueue(vec)
            r = s.plan_round()
            r.validate_principle1()
            # fill is anticipated (scaled), not no-load
            assert r.secondary_fill == pytest.approx(
                sum(
                    anticipator.anticipated(f.duration, f.kind)
                    for f in r.subset1
                )
            )


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
