"""Property tests for the lane sweep behind every timeline statistic.

Fig. 3's communication share, the comm-hidden fraction and the per-GPU
attribution all come from :func:`repro.obs.analysis._sweep_lane`, which
splits one GPU lane into compute, overlap, comm and idle time.  These
tests check each class against a brute-force rasterisation oracle:
compute = raster(compute), overlap = raster(compute) ∩ raster(comm),
comm = raster(comm) − raster(compute), idle = the rest.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analysis import _sweep_lane
from repro.sim.kernel import KernelKind
from repro.sim.tracing import TraceRow

_RES = 0.25  # raster cell (intervals are drawn on a multiple-of-0.25 grid)
_LO, _HI = 0.0, 50.0  # the swept window covers every drawn interval


def rasterize(intervals, lo=_LO, hi=_HI):
    cells = set()
    n = int((hi - lo) / _RES) + 1
    for s, e in intervals:
        for i in range(n):
            t = lo + i * _RES
            if s <= t < e:
                cells.add(i)
    return cells


def rows_of(intervals, kind):
    return [
        TraceRow(
            gpu=0, stream="s0", name="k", kind=kind, batch_id=0, layer=0,
            op="k", ready=s, start=s, end=e, noload_duration=e - s,
        )
        for s, e in intervals
    ]


def sweep(compute, comm):
    rows = rows_of(compute, KernelKind.COMPUTE) + rows_of(comm, KernelKind.COMM)
    return _sweep_lane(rows, _LO, _HI)


interval = st.tuples(
    st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200)
).map(lambda p: (min(p) * _RES, max(p) * _RES))


@given(st.lists(interval, min_size=0, max_size=12))
@settings(max_examples=80, deadline=None)
def test_union_matches_rasterized_oracle(intervals):
    compute, overlap, comm, idle = sweep(intervals, [])
    assert abs(compute - len(rasterize(intervals)) * _RES) < 1e-6
    assert overlap == 0.0 and comm == 0.0


@given(
    st.lists(interval, min_size=0, max_size=8),
    st.lists(interval, min_size=0, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_intersection_matches_rasterized_oracle(a, b):
    _, overlap, _, _ = sweep(a, b)
    expected = len(rasterize(a) & rasterize(b)) * _RES
    assert abs(overlap - expected) < 1e-6


@given(
    st.lists(interval, min_size=0, max_size=8),
    st.lists(interval, min_size=0, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_every_class_matches_rasterized_oracle(a, b):
    compute, overlap, comm, idle = sweep(a, b)
    ra, rb = rasterize(a), rasterize(b)
    assert abs(compute - len(ra) * _RES) < 1e-6
    assert abs(overlap - len(ra & rb) * _RES) < 1e-6
    assert abs(comm - len(rb - ra) * _RES) < 1e-6
    assert abs(idle - ((_HI - _LO) - len(ra | rb) * _RES)) < 1e-6


@given(st.lists(interval, min_size=0, max_size=10))
@settings(max_examples=50, deadline=None)
def test_self_intersection_equals_union(intervals):
    compute, overlap, comm, _ = sweep(intervals, intervals)
    assert abs(overlap - compute) < 1e-6
    assert comm == 0.0


@given(
    st.lists(interval, min_size=0, max_size=8),
    st.lists(interval, min_size=0, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_intersection_bounded_by_each_union(a, b):
    compute, overlap, comm, _ = sweep(a, b)
    comm_wall = sweep(b, [])[0]  # b's union, swept on its own
    assert overlap <= compute + 1e-9
    assert overlap <= comm_wall + 1e-9
    assert abs((overlap + comm) - comm_wall) < 1e-6
