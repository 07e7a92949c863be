"""Tests for topologies and collective cost models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hw import (
    InterconnectKind,
    a100_pcie_node,
    nvlink_mesh,
    pcie_switch,
    v100_nvlink_node,
)
from repro.models.ops import p2p_op
from repro.parallel.base import KernelFunc, instantiate_op
from repro.profiling import OpProfiler
from repro.sim.interconnect import CollectiveCostModel, NcclConfig
from repro.units import GB, GBps, us


def _p2p_members(size, src, dst):
    """A p2p pair as runs build it: the profiler's footprint, costed and
    built by :meth:`CollectiveCostModel.instantiate`."""
    profiler = OpProfiler(v100_nvlink_node(4))
    xfer = KernelFunc.profiled(p2p_op("x", 0, size, src, dst), profiler)
    return dict(zip((src, dst), instantiate_op(xfer, [(src,), (dst,)], 0, profiler)))


class TestTopology:
    def test_nvlink_mesh_direct_links(self):
        t = nvlink_mesh(4)
        assert t.kind is InterconnectKind.NVLINK
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert t.p2p_bandwidth(a, b) == GBps(25.0)
                    assert t.p2p_latency(a, b) == 1.5

    def test_pcie_switch_routes_through_switch(self):
        t = pcie_switch(4)
        assert t.kind is InterconnectKind.PCIE_SWITCH
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert t.p2p_bandwidth(a, b) == GBps(16.0)
                    assert t.p2p_latency(a, b) == 6.0

    def test_pcie_bottleneck_bandwidth(self):
        t = pcie_switch(4, lane_bandwidth=GBps(16.0))
        assert t.p2p_bandwidth(0, 1) == GBps(16.0)

    def test_latency_accumulates_over_hops(self):
        t = pcie_switch(4, lane_latency=us(3.0))
        assert t.p2p_latency(0, 1) == pytest.approx(6.0)
        nv = nvlink_mesh(4, link_latency=us(1.5))
        assert nv.p2p_latency(0, 3) == pytest.approx(1.5)

    def test_same_gpu_latency_zero(self):
        t = nvlink_mesh(2)
        assert t.p2p_latency(1, 1) == 0.0

    def test_invalid_gpu_id_rejected(self):
        t = nvlink_mesh(2)
        with pytest.raises(ConfigError):
            t.p2p_latency(0, 5)

    def test_same_out_of_range_gpu_rejected(self):
        t = nvlink_mesh(4)
        with pytest.raises(ConfigError):
            t.p2p_latency(9, 9)
        with pytest.raises(ConfigError):
            t.p2p_bandwidth(9, 9)

    def test_p2p_bandwidth_same_gpu_rejected(self):
        t = nvlink_mesh(2)
        with pytest.raises(ConfigError):
            t.p2p_bandwidth(0, 0)

    def test_zero_link_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            nvlink_mesh(4, link_bandwidth=0.0)
        with pytest.raises(ConfigError):
            pcie_switch(4, lane_bandwidth=float("inf"))

    def test_negative_link_latency_rejected(self):
        with pytest.raises(ConfigError):
            nvlink_mesh(4, link_latency=-50.0)
        with pytest.raises(ConfigError):
            pcie_switch(4, lane_latency=float("nan"))

    def test_nan_allreduce_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            nvlink_mesh(4, allreduce_bus_bandwidth=float("nan"))
        with pytest.raises(ConfigError):
            pcie_switch(4, allreduce_bus_bandwidth=-1.0)


_LINK_FLOATS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@given(
    latency=_LINK_FLOATS,
    bandwidth=_LINK_FLOATS.filter(lambda x: x > 0),
    n=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_uniform_links_match_path_min_and_sum_bit_for_bit(latency, bandwidth, n):
    """``hops * link_latency`` and the link bandwidth are exactly the ``sum``
    and ``min`` over the path's links: one direct link on NVLink, one lane up
    to the switch and one down on PCIe."""
    nv = nvlink_mesh(n, link_bandwidth=bandwidth, link_latency=latency)
    pcie = pcie_switch(n, lane_bandwidth=bandwidth, lane_latency=latency)
    assert nv.p2p_latency(0, n - 1).hex() == float(sum([latency])).hex()
    assert pcie.p2p_latency(0, n - 1).hex() == float(sum([latency, latency])).hex()
    assert nv.p2p_bandwidth(n - 1, 0).hex() == min([bandwidth]).hex()
    assert pcie.p2p_bandwidth(n - 1, 0).hex() == min([bandwidth, bandwidth]).hex()


class TestNcclConfig:
    def test_default_occupancy_much_larger_than_reduced(self):
        default = NcclConfig()
        reduced = default.reduced()
        assert reduced.occupancy < default.occupancy / 2

    def test_reduced_keeps_full_bandwidth(self):
        # The whole point of §3.5: fewer channels already saturate the link.
        assert NcclConfig().reduced().bandwidth_fraction == 1.0

    def test_below_saturation_derates(self):
        cfg = NcclConfig(max_nchannels=1, saturation_channels=3)
        assert cfg.bandwidth_fraction == pytest.approx(1 / 3)

    def test_invalid_channels_rejected(self):
        with pytest.raises(ConfigError):
            NcclConfig(max_nchannels=0)


class TestCollectiveCosts:
    def setup_method(self):
        self.topo = nvlink_mesh(4, allreduce_bus_bandwidth=GBps(32.75))
        self.ccm = CollectiveCostModel(self.topo)

    def test_allreduce_scales_with_bytes(self):
        small = self.ccm.allreduce_duration(1e6, [0, 1, 2, 3])
        big = self.ccm.allreduce_duration(16e6, [0, 1, 2, 3])
        assert big > small

    def test_allreduce_single_rank_free(self):
        assert self.ccm.allreduce_duration(1e9, [0]) == 0.0

    def test_allreduce_transfer_term_matches_ring_formula(self):
        size = GB(1.0)
        p = 4
        d = self.ccm.allreduce_duration(size, list(range(p)))
        transfer = (2 * (p - 1) / p) * size / GBps(32.75) * 1e6
        # latency terms are small against a 1GB payload
        assert d == pytest.approx(transfer, rel=0.01)

    def test_allreduce_slower_on_pcie(self):
        pcie = CollectiveCostModel(pcie_switch(4, allreduce_bus_bandwidth=GBps(14.88)))
        size = 50e6
        assert pcie.allreduce_duration(size, [0, 1, 2, 3]) > self.ccm.allreduce_duration(
            size, [0, 1, 2, 3]
        )

    def test_p2p_duration_includes_latency_floor(self):
        d = self.ccm.p2p_duration(0.0, 0, 1)
        assert d >= self.ccm.nccl.min_latency

    def test_make_allreduce_builds_all_members(self):
        coll = self.ccm.make_allreduce(1e6, [0, 1, 2, 3], batch_id=7, layer=3)
        assert coll.complete_membership
        assert set(coll.members) == {0, 1, 2, 3}
        for gpu, member in coll.members.items():
            assert member.batch_id == 7
            assert member.layer == 3
            assert member.collective is coll
            assert member.duration == coll.duration

    def test_make_p2p_two_members_low_occupancy(self):
        members = _p2p_members(1e6, 0, 2)
        assert set(members) == {0, 2}
        assert all(m.occupancy <= 0.05 for m in members.values())
        assert all(m.collective.duration == self.ccm.p2p_duration(1e6, 0, 2)
                   for m in members.values())

    def test_p2p_duration_same_out_of_range_gpu_rejected(self):
        with pytest.raises(ConfigError):
            self.ccm.p2p_duration(1e6, 7, 7)
        assert self.ccm.p2p_duration(1e6, 3, 3) == 0.0

    def test_make_p2p_same_gpu_rejected(self):
        with pytest.raises(ConfigError):
            _p2p_members(1e6, 1, 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            self.ccm.allreduce_duration(-1.0, [0, 1])

    def test_reduced_channels_same_duration_lower_occupancy(self):
        default = CollectiveCostModel(self.topo, NcclConfig())
        reduced = CollectiveCostModel(self.topo, NcclConfig().reduced())
        size = 10e6
        d_def = default.allreduce_duration(size, [0, 1, 2, 3])
        d_red = reduced.allreduce_duration(size, [0, 1, 2, 3])
        assert d_red == pytest.approx(d_def)
        c_def = default.make_allreduce(size, [0, 1, 2, 3])
        c_red = reduced.make_allreduce(size, [0, 1, 2, 3])
        assert c_red.members[0].occupancy < c_def.members[0].occupancy


@st.composite
def _ring(draw):
    """A node size and an ordered participant list of at least two ranks."""
    n = draw(st.integers(min_value=2, max_value=8))
    ranks = draw(st.permutations(range(n)))
    return n, ranks[: draw(st.integers(min_value=2, max_value=n))]


@given(ring=_ring(), node=st.sampled_from([v100_nvlink_node, a100_pcie_node]))
@settings(max_examples=80, deadline=None)
def test_memoized_hop_latency_is_bit_identical_to_uncached(ring, node):
    n, participants = ring
    topology = node(n).topology
    ccm = CollectiveCostModel(topology)
    p = len(participants)
    hops = [
        topology.p2p_latency(participants[i], participants[(i + 1) % p])
        for i in range(p)
    ]
    expected = (sum(hops) / len(hops)).hex()
    assert ccm._ring_hop_latency(participants).hex() == expected  # miss
    assert ccm._ring_hop_latency(list(participants)).hex() == expected  # hit
    assert tuple(participants) in ccm._hop_latency
