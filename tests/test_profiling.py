"""Tests for the offline profilers (§3.5 and the duration database)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hw import a100_pcie_node, v100_nvlink_node
from repro.models import GLM_130B, OPT_30B
from repro.models.ops import allreduce_op, elementwise_op, gemm_op, p2p_op
from repro.parallel.base import KernelFunc, instantiate_op
from repro.profiling import ContentionFactors, ContentionProfiler, OpProfiler, op_key
from repro.sim import Engine, Machine, Trace
from repro.sim.contention import NullContention
from repro.sim.interconnect import NcclConfig


class TestOpProfiler:
    def setup_method(self):
        self.node = v100_nvlink_node(4)
        self.prof = OpProfiler(self.node)

    def test_duration_cached_by_op_identity(self):
        a = gemm_op("first", 0, 128, 1024, 1024)
        b = gemm_op("second", 7, 128, 1024, 1024)  # same shape, other name
        d1 = self.prof.duration(a)
        d2 = self.prof.duration(b)
        assert d1 == d2
        assert self.prof.cache_size == 1

    def test_op_key_distinguishes_shapes(self):
        assert op_key(gemm_op("g", 0, 128, 512, 512)) != op_key(
            gemm_op("g", 0, 128, 512, 1024)
        )
        assert op_key(allreduce_op("a", 0, 1e6)) != op_key(allreduce_op("a", 0, 2e6))

    def test_collective_duration_uses_participants(self):
        two = OpProfiler(self.node, participants=[0, 1])
        four = OpProfiler(self.node, participants=[0, 1, 2, 3])
        ar = allreduce_op("ar", 0, 8e6)
        assert two.duration(ar) < four.duration(ar)

    def test_comm_footprint_follows_nccl_config(self):
        default = OpProfiler(self.node, nccl=NcclConfig())
        reduced = OpProfiler(self.node, nccl=NcclConfig().reduced())
        ar = allreduce_op("ar", 0, 8e6)
        assert reduced.occupancy(ar) < default.occupancy(ar)
        assert reduced.duration(ar) == pytest.approx(default.duration(ar))

    def test_measure_solo_matches_profile(self):
        """The executor must honour profiled durations exactly at no load:
        the kernels a run launches, alone on a scratch machine."""
        for op, gpus in [
            (gemm_op("g", 0, 144, 7168, 5376), [0]),
            (elementwise_op("ln", 0, 144 * 7168), [0]),
            (allreduce_op("ar", 0, 2e6), [0, 1, 2, 3]),
            (p2p_op("x", 0, 2e6, 0, 1), [0, 1]),
        ]:
            machine = Machine(
                self.node, Engine(), contention=NullContention(), trace=Trace()
            )
            func = KernelFunc.profiled(op, self.prof)
            groups = [(g,) for g in gpus]
            for gpu, kernel in zip(gpus, instantiate_op(func, groups, 0, self.prof)):
                stream = machine.gpu(gpu).stream("profile")
                machine.launch(stream, kernel, available_at=0.0)
            machine.run()
            assert len(machine.trace.rows) == len(gpus)
            assert max(r.duration for r in machine.trace.rows) == pytest.approx(
                self.prof.duration(op), rel=1e-9
            )


class TestContentionFactors:
    def test_factors_below_one_rejected(self):
        with pytest.raises(ConfigError):
            ContentionFactors(compute=0.9, comm=1.0)

    def test_for_kind_dispatch(self):
        from repro.sim.kernel import KernelKind

        f = ContentionFactors(compute=1.1, comm=1.3)
        assert f.for_kind(KernelKind.COMM) == 1.3
        assert f.for_kind(KernelKind.COMPUTE) == 1.1
        assert f.for_kind(KernelKind.MEMORY) == 1.1
        assert f.overall == 1.3


class TestContentionProfiler:
    def test_factors_match_paper_band(self):
        """V100 ≈ 1.10 and A100 ≈ 1.15 in the paper; we must land nearby,
        with the A100 factor strictly larger (its §4.2 observation)."""
        v_prof = OpProfiler(v100_nvlink_node(4), nccl=NcclConfig().reduced())
        v = ContentionProfiler(v100_nvlink_node(4), v_prof).profile(OPT_30B)
        a_prof = OpProfiler(a100_pcie_node(4), nccl=NcclConfig().reduced())
        a = ContentionProfiler(a100_pcie_node(4), a_prof).profile(GLM_130B)
        assert 1.02 <= v.overall <= 1.25
        assert 1.05 <= a.overall <= 1.35
        assert a.overall > v.overall

    def test_null_contention_profiles_to_margin_only(self):
        node = v100_nvlink_node(4)
        prof = OpProfiler(node, nccl=NcclConfig().reduced())
        cp = ContentionProfiler(node, prof, contention=NullContention())
        f = cp.profile(OPT_30B, batch_sizes=(2,), seq_lens=(64,), margin=1.0)
        assert f.compute == pytest.approx(1.0)
        assert f.comm == pytest.approx(1.0)

    def test_samples_recorded(self):
        node = v100_nvlink_node(4)
        prof = OpProfiler(node, nccl=NcclConfig().reduced())
        f = ContentionProfiler(node, prof).profile(
            OPT_30B, batch_sizes=(2,), seq_lens=(64,)
        )
        assert len(f.samples) >= 1
        for comp_slow, comm_slow in f.samples.values():
            assert comp_slow >= 1.0 and comm_slow >= 1.0

    def test_grid_focuses_on_lengthy_kernels(self):
        node = v100_nvlink_node(4)
        prof = OpProfiler(node)
        pairs = ContentionProfiler(node, prof).lengthy_kernel_grid(OPT_30B)
        for compute_op, comm_op in pairs:
            assert compute_op.op == "gemm"
            assert comm_op.op == "all_reduce"
