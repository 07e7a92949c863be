"""Tests for runtime kernel decomposition (§3.6)."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import KernelFunc
from repro.core.decomposition import (
    DecompositionPlanner,
    _derive,
    split_comm_bytes,
    split_gemm_horizontal,
    split_gemm_vertical,
)
from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.models.ops import all_to_all_op, allreduce_op, attention_op, gemm_op
from repro.profiling import OpProfiler


@pytest.fixture
def profiler():
    return OpProfiler(v100_nvlink_node(4))


def kfunc(op, profiler, decomposable=True):
    _, occupancy, mem = profiler.kernel_profile(op)
    return KernelFunc(
        op=op,
        duration=profiler.duration(op),
        kind=op.kind,
        decomposable=decomposable,
        occupancy=occupancy,
        memory_intensity=mem,
    )


class TestSplits:
    def test_vertical_preserves_total_columns(self):
        op = gemm_op("g", 0, 144, 7168, 28672)
        piece, rest = split_gemm_vertical(op, 3, 8)
        assert piece.gemm_shape[2] + rest.gemm_shape[2] == 28672
        assert piece.gemm_shape[:2] == (144, 7168)
        assert rest.gemm_shape[:2] == (144, 7168)

    def test_horizontal_preserves_total_rows(self):
        op = gemm_op("g", 0, 144, 7168, 28672)
        piece, rest = split_gemm_horizontal(op, 1, 4)
        assert piece.gemm_shape[0] + rest.gemm_shape[0] == 144

    def test_allreduce_preserves_bytes(self):
        op = allreduce_op("ar", 0, 8e6)
        piece, rest = split_comm_bytes(op, 5, 8)
        assert piece.comm_bytes + rest.comm_bytes == pytest.approx(8e6)

    def test_pieces_equal_their_dataclasses_replace(self):
        """The splitters copy the op's fields instead of calling
        ``dataclasses.replace``; every field must come out the same."""
        g = gemm_op("g", 2, 16, 64, 64, split_dim="n")
        ar = allreduce_op("ar", 2, 800.0)
        a2a = all_to_all_op("a2a", 2, 800.0)
        cases = [
            (split_gemm_vertical(g, 3, 8), [
                replace(g, name="g.v3/8", gemm_shape=(16, 64, 24)),
                replace(g, name="g.rest", gemm_shape=(16, 64, 40)),
            ]),
            (split_gemm_horizontal(g, 3, 8), [
                replace(g, name="g.h3/8", gemm_shape=(6, 64, 64)),
                replace(g, name="g.rest", gemm_shape=(10, 64, 64)),
            ]),
            (split_comm_bytes(ar, 3, 8), [
                replace(ar, name="ar.c3/8", comm_bytes=300.0),
                replace(ar, name="ar.rest", comm_bytes=500.0),
            ]),
            (split_comm_bytes(a2a, 3, 8), [
                replace(a2a, name="a2a.c3/8", comm_bytes=300.0),
                replace(a2a, name="a2a.rest", comm_bytes=500.0),
            ]),
        ]
        for got, want in cases:
            assert [vars(op) for op in got] == [vars(op) for op in want]

    def test_derived_pieces_are_validated(self):
        """A degenerate piece still fails ``OpDesc`` validation."""
        with pytest.raises(ConfigError, match=r"g\.v1/8: gemm needs a positive"):
            _derive(gemm_op("g", 0, 4, 4, 4), "g.v1/8", (4, 4, 0), 0.0)
        with pytest.raises(ConfigError, match=r"ar\.c1/8: negative comm_bytes"):
            _derive(allreduce_op("ar", 0, 8.0), "ar.c1/8", None, -1.0)

    def test_invalid_fraction_rejected(self):
        op = gemm_op("g", 0, 144, 512, 512)
        for numer, denom in [(0, 8), (8, 8), (9, 8), (1, 1)]:
            with pytest.raises(ConfigError):
                split_gemm_vertical(op, numer, denom)

    def test_vertical_work_conservation_flops(self, profiler):
        """Split pieces do the same total FLOPs as the whole kernel."""
        op = gemm_op("g", 0, 144, 7168, 28672)
        piece, rest = split_gemm_vertical(op, 3, 8)
        whole_flops = 2 * 144 * 7168 * 28672
        split_flops = sum(
            2 * s.gemm_shape[0] * s.gemm_shape[1] * s.gemm_shape[2]
            for s in (piece, rest)
        )
        assert split_flops == whole_flops


class TestFig9:
    """The paper's decomposition-strategy comparison."""

    def test_vertical_beats_horizontal(self, profiler):
        op = gemm_op("g", 0, 144, 7168, 28672)
        d = 8
        whole = profiler.duration(op)
        vert = sum(
            profiler.duration(split_gemm_vertical(op, 1, d)[0]) for _ in range(d)
        )
        horiz = sum(
            profiler.duration(split_gemm_horizontal(op, 1, d)[0]) for _ in range(d)
        )
        assert vert < horiz
        # vertical overhead is modest; horizontal blows up
        assert vert < 1.5 * whole
        assert horiz > 2.0 * whole


class TestPlanner:
    def test_fits_whole_window_with_largest_piece(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = gemm_op("g", 0, 144, 7168, 28672)
        f = kfunc(op, profiler)
        window = profiler.duration(op) * 0.9
        result = planner.split_to_fit(f, window)
        assert result is not None
        piece, rest = result
        assert piece.duration <= window
        assert not piece.decomposable
        assert rest.decomposable
        # pieces partition the columns
        assert piece.op.gemm_shape[2] + rest.op.gemm_shape[2] == 28672

    def test_larger_window_gets_larger_piece(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = gemm_op("g", 0, 144, 7168, 28672)
        f = kfunc(op, profiler)
        dur = profiler.duration(op)
        small = planner.split_to_fit(f, dur * 0.3)
        large = planner.split_to_fit(f, dur * 0.8)
        assert small and large
        assert large[0].op.gemm_shape[2] > small[0].op.gemm_shape[2]

    def test_window_too_small_returns_none(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = gemm_op("g", 0, 144, 7168, 28672)
        f = kfunc(op, profiler)
        assert planner.split_to_fit(f, 0.5) is None

    def test_scale_applied_to_fit(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        op = allreduce_op("ar", 0, 8e6)
        f = kfunc(op, profiler)
        window = profiler.duration(op) * 0.5
        unscaled = planner.split_to_fit(f, window, scale=1.0)
        scaled = planner.split_to_fit(f, window, scale=2.0)
        assert unscaled is not None and scaled is not None
        assert scaled[0].op.comm_bytes < unscaled[0].op.comm_bytes

    def test_non_decomposable_kernel_refused(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        attn = attention_op("a", 0, batch=2, q_len=64, ctx_len=64, heads=14, head_dim=128)
        f = kfunc(attn, profiler, decomposable=False)
        assert not planner.can_decompose(f)
        assert planner.split_to_fit(f, 1e9) is None

    def test_division_factor_one_disables(self, profiler):
        planner = DecompositionPlanner(profiler, 1)
        f = kfunc(gemm_op("g", 0, 144, 7168, 28672), profiler)
        assert not planner.can_decompose(f)

    def test_profile_divisions_table(self, profiler):
        """The §3.6 offline table: d−1 monotone entries."""
        planner = DecompositionPlanner(profiler, 8)
        f = kfunc(gemm_op("g", 0, 144, 7168, 28672), profiler)
        table = planner.profile_divisions(f)
        assert len(table) == 7
        durations = [t for _, t in table]
        assert durations == sorted(durations)

    def test_tiny_gemm_not_decomposable(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        f = kfunc(gemm_op("g", 0, 2, 4, 4), profiler)
        assert not planner.can_decompose(f)


class TestSplitToFitEdges:
    """Edge coverage for split_to_fit / can_decompose (satellite)."""

    def test_division_factor_one_split_returns_none(self, profiler):
        # d = 1 admits no fractions at all, even with an infinite window.
        planner = DecompositionPlanner(profiler, 1)
        f = kfunc(gemm_op("g", 0, 144, 7168, 28672), profiler)
        assert planner.split_to_fit(f, 1e12) is None

    def test_unregistered_flavour_is_indivisible(self, profiler):
        # all_to_all is NOT in the default rule set (expert_overlap
        # registers it); the planner must refuse, not crash.
        planner = DecompositionPlanner(profiler, 8)
        f = kfunc(all_to_all_op("a2a", 0, 8e6), profiler)
        assert planner.split_rule("all_to_all") is None
        assert not planner.can_decompose(f)
        assert planner.split_to_fit(f, 1e12) is None

    def test_register_split_rule_enables_flavour(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        planner.register_split_rule("all_to_all", split_comm_bytes)
        f = kfunc(all_to_all_op("a2a", 0, 8e6), profiler)
        assert planner.split_rule("all_to_all") is split_comm_bytes
        assert planner.can_decompose(f)
        window = profiler.duration(f.op) * 0.6
        result = planner.split_to_fit(f, window)
        assert result is not None
        piece, rest = result
        assert piece.duration <= window
        assert ".c" in piece.op.name and rest.op.name.endswith(".rest")
        assert piece.op.comm_bytes + rest.op.comm_bytes == pytest.approx(8e6)

    def test_expert_overlap_policy_registers_all_to_all(self, profiler):
        from repro.core.policy import ExpertOverlapPolicy

        planner = DecompositionPlanner(profiler, 8)
        ExpertOverlapPolicy().configure_decomposer(planner)
        assert planner.split_rule("all_to_all") is split_comm_bytes

    def test_zero_byte_collective_is_indivisible(self, profiler):
        planner = DecompositionPlanner(profiler, 8)
        planner.register_split_rule("all_to_all", split_comm_bytes)
        f = kfunc(all_to_all_op("a2a", 0, 0.0), profiler)
        assert not planner.can_decompose(f)
        assert planner.split_to_fit(f, 1e12) is None

    def test_empty_remainder_error_message(self):
        # A 1-column GEMM cannot leave a non-empty rest: clear error.
        op = gemm_op("g1", 0, 4, 4, 1)
        with pytest.raises(ConfigError, match=r"g1: vertical split leaves empty remainder"):
            split_gemm_vertical(op, 1, 2)
        with pytest.raises(ConfigError, match=r"g2: horizontal split leaves empty remainder"):
            split_gemm_horizontal(gemm_op("g2", 0, 1, 4, 4), 1, 2)

    def test_degenerate_collective_split_error_messages(self):
        with pytest.raises(ConfigError, match=r"ar: degenerate all_reduce byte split"):
            split_comm_bytes(allreduce_op("ar", 0, 0.0), 1, 2)
        with pytest.raises(ConfigError, match=r"a2a: degenerate all_to_all byte split"):
            split_comm_bytes(all_to_all_op("a2a", 0, 0.0), 1, 2)

    def test_all_to_all_invalid_fraction_message(self):
        op = all_to_all_op("a2a", 0, 8e6)
        with pytest.raises(ConfigError, match=r"invalid decomposition fraction 2/2"):
            split_comm_bytes(op, 2, 2)

    def test_remainder_smaller_than_smallest_division_stops(self, profiler):
        # Window below the 1/d piece: None, and the kernel is untouched.
        planner = DecompositionPlanner(profiler, 4)
        op = allreduce_op("ar", 0, 8e6)
        f = kfunc(op, profiler)
        smallest = profiler.duration(split_comm_bytes(op, 1, 4)[0])
        assert planner.split_to_fit(f, smallest * 0.5) is None


def reference_split(profiler, splitter, func, window, scale, d):
    """The division scan without tables: split and profile every candidate."""
    for numer in range(d - 1, 0, -1):
        piece_op, rest_op = splitter(func.op, numer, d)
        piece_duration = profiler.duration(piece_op)
        if piece_duration * scale <= window:
            return piece_op, piece_duration, rest_op, profiler.duration(rest_op)
    return None


def reference_divisions(profiler, splitter, op, d):
    return [
        (f"{numer}/{d}", profiler.duration(splitter(op, numer, d)[0]))
        for numer in range(1, d)
    ]


@st.composite
def _decomposable_op(draw):
    """A GEMM with n >= d, or an all-reduce / all-to-all payload."""
    d = draw(st.integers(min_value=2, max_value=16))
    flavour = draw(st.sampled_from(["gemm", "all_reduce", "all_to_all"]))
    if flavour == "gemm":
        op = gemm_op(
            "g", 0,
            draw(st.integers(min_value=1, max_value=1024)),
            draw(st.integers(min_value=1, max_value=8192)),
            draw(st.integers(min_value=d, max_value=32768)),
        )
    else:
        make = allreduce_op if flavour == "all_reduce" else all_to_all_op
        op = make("c", 0, draw(st.floats(min_value=1.0, max_value=1e9)))
    return op, d


class TestDivisionTables:
    """split_to_fit / profile_divisions against the table-free scan."""

    @given(
        case=_decomposable_op(),
        window_fracs=st.lists(
            st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=4
        ),
        scale=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_split_to_fit_matches_reference_scan(self, case, window_fracs, scale):
        op, d = case
        node = v100_nvlink_node(4)
        planner = DecompositionPlanner(OpProfiler(node), d)
        planner.register_split_rule("all_to_all", split_comm_bytes)
        reference = OpProfiler(node)
        splitter = planner.split_rule(op.op)
        f = kfunc(op, reference)
        whole = reference.duration(op)
        for frac in window_fracs:
            window = whole * frac
            got = planner.split_to_fit(f, window, scale=scale)
            want = reference_split(reference, splitter, f, window, scale, d)
            if want is None:
                assert got is None
                continue
            piece_op, piece_duration, rest_op, rest_duration = want
            piece, rest = got
            assert piece.op == piece_op and rest.op == rest_op
            assert piece.duration == piece_duration
            assert rest.duration == rest_duration
            assert (piece.decomposable, rest.decomposable) == (False, True)
            for part in (piece, rest):
                assert part.kind == f.kind
                assert (part.occupancy, part.memory_intensity) == tuple(
                    reference.kernel_profile(part.op)[1:]
                )
        assert planner.profile_divisions(f) == reference_divisions(
            reference, splitter, op, d
        )

    def test_second_split_calls_the_rule_once_for_the_chosen_division(
        self, profiler
    ):
        calls = []

        def counted(op, numer, denom):
            calls.append((numer, denom))
            return split_gemm_vertical(op, numer, denom)

        planner = DecompositionPlanner(profiler, 8)
        planner.register_split_rule("gemm", counted)
        first = kfunc(gemm_op("a", 0, 144, 7168, 28672), profiler)
        window = profiler.duration(first.op) * 0.4
        piece, _ = planner.split_to_fit(first, window)
        assert len(calls) > 1  # the first scan profiles every candidate it tries
        calls.clear()
        # Same shape, another name and layer: the table is keyed by shape.
        second = kfunc(gemm_op("b", 3, 144, 7168, 28672), profiler)
        again, _ = planner.split_to_fit(second, window)
        numer = int(piece.op.name.split(".v")[1].split("/")[0])
        assert calls == [(numer, 8)]
        assert again.op.name == f"b.v{numer}/8"
        assert again.duration == piece.duration

    def test_profile_divisions_fills_the_table_split_to_fit_reads(self, profiler):
        calls = []

        def counted(op, numer, denom):
            calls.append(numer)
            return split_comm_bytes(op, numer, denom)

        planner = DecompositionPlanner(profiler, 4)
        planner.register_split_rule("all_reduce", counted)
        f = kfunc(allreduce_op("ar", 0, 8e6), profiler)
        table = planner.profile_divisions(f)
        assert calls == [1, 2, 3]
        calls.clear()
        piece, _ = planner.split_to_fit(f, table[1][1])
        assert calls == [2]
        assert piece.duration == table[1][1]


@given(
    window_frac=st.floats(min_value=0.05, max_value=0.95),
    d=st.sampled_from([2, 4, 8, 16]),
)
@settings(max_examples=40, deadline=None)
def test_split_piece_always_fits_window(window_frac, d):
    profiler = OpProfiler(v100_nvlink_node(4))
    planner = DecompositionPlanner(profiler, d)
    op = gemm_op("g", 0, 144, 7168, 28672)
    f = kfunc(op, profiler)
    window = profiler.duration(op) * window_frac
    result = planner.split_to_fit(f, window)
    if result is not None:
        piece, rest = result
        assert piece.duration <= window + 1e-9
        assert piece.op.gemm_shape[2] + rest.op.gemm_shape[2] == 28672
