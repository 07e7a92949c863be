"""Tests for the contention model and its emergent effect in the Machine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.sim import (
    DefaultContention,
    Engine,
    Kernel,
    KernelKind,
    Machine,
    NullContention,
    Trace,
    default_contention_for,
)


def k(name, dur, kind=KernelKind.COMPUTE, occ=0.5, mem=0.3):
    return Kernel(name=name, kind=kind, duration=dur, occupancy=occ, memory_intensity=mem)


class TestModelProperties:
    def test_lone_kernel_has_unit_slowdown(self):
        model = DefaultContention()
        kern = k("gemm", 100.0)
        assert model.slowdowns([kern]) == [1.0]

    def test_null_model_always_unit(self):
        model = NullContention()
        ks = [k("a", 1.0), k("b", 1.0, kind=KernelKind.COMM)]
        assert model.slowdowns(ks) == [1.0, 1.0]

    def test_mixed_pair_slows_both(self):
        model = DefaultContention()
        gemm = k("gemm", 100.0, occ=0.9, mem=0.4)
        comm = k("ar", 100.0, kind=KernelKind.COMM, occ=0.06, mem=0.2)
        s_gemm, s_comm = model.slowdowns([gemm, comm])
        assert s_gemm > 1.0
        assert s_comm > 1.0

    def test_comm_suffers_more_from_big_compute_than_small(self):
        model = DefaultContention()
        comm = k("ar", 100.0, kind=KernelKind.COMM, occ=0.06)
        big = k("big", 100.0, occ=0.9)
        small = k("small", 100.0, occ=0.2)
        s_big = model.slowdowns([comm, big])[0]
        s_small = model.slowdowns([comm, small])[0]
        assert s_big > s_small

    def test_same_kind_compute_contends_harder_than_mixed(self):
        model = DefaultContention()
        a = k("a", 100.0, occ=0.5)
        b = k("b", 100.0, occ=0.5)
        comm = k("ar", 100.0, kind=KernelKind.COMM, occ=0.06)
        mixed = model.slowdowns([a, comm])[0]
        same = model.slowdowns([a, b])[0]
        assert same > mixed

    def test_memory_overcommit_penalizes_memory_hungry_kernels(self):
        model = DefaultContention(
            comm_on_compute=0.0,
            compute_on_comm=0.0,
            same_kind_compute=0.0,
            same_kind_comm=0.0,
            memory_pressure=1.0,
        )
        hungry = k("hungry", 100.0, occ=0.4, mem=0.9)
        other = k("other", 100.0, occ=0.4, mem=0.8)
        s_hungry, s_other = model.slowdowns([hungry, other])
        # total mem 1.7 → overcommit 0.7; each slowed by 0.7 * own intensity.
        assert s_hungry == pytest.approx(1.0 + 0.7 * 0.9)
        assert s_other == pytest.approx(1.0 + 0.7 * 0.8)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ConfigError):
            DefaultContention(comm_on_compute=-0.1)

    def test_per_node_presets(self):
        v = default_contention_for("v100-nvlink")
        a = default_contention_for("a100-pcie")
        assert a.compute_on_comm > v.compute_on_comm

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([KernelKind.COMPUTE, KernelKind.COMM, KernelKind.MEMORY]),
                st.floats(min_value=0.01, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_slowdowns_always_at_least_one(self, specs):
        model = DefaultContention()
        kernels = [
            k(f"k{i}", 10.0, kind=kind, occ=occ, mem=mem)
            for i, (kind, occ, mem) in enumerate(specs)
        ]
        slows = model.slowdowns(kernels)
        assert len(slows) == len(kernels)
        assert all(v >= 1.0 for v in slows)


class TestEmergentContention:
    """Contention must stretch wall time exactly per the integration rule."""

    def _run_pair(self, model):
        node = v100_nvlink_node(1)
        m = Machine(node, Engine(), contention=model, trace=Trace())
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        gemm = k("gemm", 100.0, occ=0.9, mem=0.4)
        comm = k("ar", 100.0, kind=KernelKind.COMM, occ=0.06, mem=0.2)
        m.launch(s0, gemm, available_at=0.0)
        m.launch(s1, comm, available_at=0.0)
        m.run()
        return {r.name: r for r in m.trace.rows}, model

    def test_no_contention_means_no_stretch(self):
        rows, _ = self._run_pair(NullContention())
        assert rows["gemm"].duration == pytest.approx(100.0)
        assert rows["ar"].duration == pytest.approx(100.0)

    def test_default_contention_stretches_both(self):
        rows, model = self._run_pair(DefaultContention())
        assert rows["gemm"].duration > 100.0
        assert rows["ar"].duration > 100.0

    def test_stretch_matches_model_while_fully_overlapped(self):
        # Both kernels have equal no-load durations, so the one finishing
        # last runs partially alone; the first-finisher is overlapped for its
        # entire life and must stretch by exactly its model slowdown.
        model = DefaultContention()
        rows, _ = self._run_pair(model)
        gemm = k("g", 100.0, occ=0.9, mem=0.4)
        comm = k("c", 100.0, kind=KernelKind.COMM, occ=0.06, mem=0.2)
        s_gemm, s_comm = model.slowdowns([gemm, comm])
        first = min(rows.values(), key=lambda r: r.end)
        expected = {"gemm": s_gemm, "ar": s_comm}[first.name]
        assert first.duration == pytest.approx(100.0 * expected, rel=1e-6)

    def test_partial_overlap_piecewise_integration(self):
        # comm joins halfway through the gemm: gemm runs 50us clean, then
        # overlapped. Verify end time matches hand-computed piecewise math.
        model = DefaultContention(
            comm_on_compute=0.5,
            compute_on_comm=0.0,
            same_kind_compute=0.0,
            same_kind_comm=0.0,
            memory_pressure=0.0,
        )
        node = v100_nvlink_node(1)
        m = Machine(node, Engine(), contention=model, trace=Trace())
        s0 = m.gpu(0).stream("s0")
        s1 = m.gpu(0).stream("s1")
        gemm = k("gemm", 100.0, occ=0.9, mem=0.0)
        comm = k("ar", 1000.0, kind=KernelKind.COMM, occ=0.1, mem=0.0)
        m.launch(s0, gemm, available_at=0.0)
        m.launch(s1, comm, available_at=50.0)
        m.run()
        rows = {r.name: r for r in m.trace.rows}
        # gemm: 50us alone (50 work done), remaining 50 at slowdown
        # 1 + 0.5*0.1 = 1.05 → ends at 50 + 52.5 = 102.5.
        assert rows["gemm"].end == pytest.approx(102.5, rel=1e-9)

    def test_work_conservation_total_progress(self):
        # However kernels overlap, banked progress must equal the no-load
        # duration at completion (validated via end-time consistency).
        model = DefaultContention()
        node = v100_nvlink_node(1)
        m = Machine(node, Engine(), contention=model, trace=Trace())
        streams = [m.gpu(0).stream(f"s{i}") for i in range(3)]
        durations = [70.0, 110.0, 40.0]
        for s, d, delay in zip(streams, durations, [0.0, 10.0, 30.0]):
            m.launch(
                s,
                k(f"k_{s.name}", d, occ=0.3, mem=0.3),
                available_at=delay,
            )
        m.run()
        for r in m.trace.rows:
            assert r.duration >= r.noload_duration - 1e-6
