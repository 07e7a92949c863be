"""Run the policy conformance suite against the built-in policies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policy_conformance import (
    FLAVOURS,
    check_policy_conformance,
    make_func,
)
from repro.core.policy import POLICIES, make_policy
from repro.profiling.contention_profiler import ContentionFactors

pytestmark = pytest.mark.parametrize("policy_name", sorted(POLICIES))


def _batches(spec):
    """[(flavour, duration), ...] per batch → KernelFunc lists."""
    return [
        [
            make_func(flavour, duration, batch_id=i, name=f"k{i}_{j}")
            for j, (flavour, duration) in enumerate(batch)
        ]
        for i, batch in enumerate(spec)
    ]


class TestCraftedWorkloads:
    def test_single_batch_drains(self, policy_name):
        rounds = check_policy_conformance(
            make_policy(policy_name),
            _batches([[("gemm", 10.0), ("all_reduce", 5.0), ("gemm", 8.0)]]),
        )
        assert rounds  # at least one round planned

    def test_dense_tp_stream(self, policy_name):
        spec = [
            [("gemm", 30.0), ("all_reduce", 5.0), ("gemm", 20.0),
             ("all_reduce", 5.0)],
            [("all_reduce", 10.0), ("gemm", 10.0), ("all_reduce", 10.0)],
            [("gemm", 4.0), ("all_reduce", 2.0)],
        ]
        check_policy_conformance(make_policy(policy_name), _batches(spec))

    def test_moe_stream_with_all_to_all(self, policy_name):
        spec = [
            [("gemm", 20.0), ("all_to_all", 12.0), ("gemm", 6.0),
             ("gemm", 6.0), ("all_to_all", 12.0)],
            [("all_to_all", 8.0), ("gemm", 5.0), ("all_reduce", 4.0)],
            [("gemm", 9.0), ("all_to_all", 3.0), ("p2p", 2.0)],
        ]
        check_policy_conformance(make_policy(policy_name), _batches(spec))

    def test_anticipated_durations_fill_accounting(self, policy_name):
        factors = ContentionFactors(compute=1.10, comm=1.15)
        spec = [
            [("gemm", 50.0), ("all_reduce", 5.0)],
            [("all_reduce", 10.0), ("gemm", 10.0), ("all_to_all", 10.0)],
            [("all_to_all", 20.0), ("gemm", 2.0)],
        ]
        check_policy_conformance(
            make_policy(policy_name), _batches(spec), factors=factors
        )


class TestRandomWorkloads:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(FLAVOURS),
                    st.floats(min_value=0.5, max_value=100.0),
                ),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_random_streams_conform(self, policy_name, spec):
        check_policy_conformance(make_policy(policy_name), _batches(spec))
