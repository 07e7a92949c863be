"""Property-based tests of the Machine executor.

These pin the simulator's global invariants under randomly generated
workloads: no deadlock for dependency-free schedules, work conservation
(wall duration ≥ no-load duration, with equality exactly when never
overlapped under NullContention), stream FIFO order, collective group
completion, occupancy-capacity respect, and at most one resident kernel
per stream.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import v100_nvlink_node
from repro.sim import (
    CollectiveCostModel,
    DefaultContention,
    Engine,
    Kernel,
    KernelKind,
    Machine,
    NullContention,
    Trace,
)

_EPS = 1e-6


@st.composite
def kernel_spec(draw, max_occupancy=1.0):
    return {
        "kind": draw(st.sampled_from([KernelKind.COMPUTE, KernelKind.COMM, KernelKind.MEMORY])),
        "duration": draw(st.floats(min_value=0.0, max_value=500.0)),
        "occupancy": draw(st.floats(min_value=0.05, max_value=max_occupancy)),
        "mem": draw(st.floats(min_value=0.0, max_value=1.0)),
        "stream": draw(st.integers(min_value=0, max_value=2)),
        "gpu": draw(st.integers(min_value=0, max_value=1)),
        "avail": draw(st.floats(min_value=0.0, max_value=200.0)),
    }


def build_machine(specs, contention):
    m = Machine(
        v100_nvlink_node(2), Engine(), contention=contention, trace=Trace()
    )
    for i, s in enumerate(specs):
        stream = m.gpu(s["gpu"]).stream(f"s{s['stream']}")
        m.launch(
            stream,
            Kernel(
                name=f"k{i}",
                kind=s["kind"],
                duration=s["duration"],
                occupancy=s["occupancy"],
                memory_intensity=s["mem"],
            ),
            available_at=s["avail"],
        )
    return m


@given(specs=st.lists(kernel_spec(), min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_random_schedules_always_complete(specs):
    m = build_machine(specs, DefaultContention())
    m.run()
    assert m.all_idle()
    assert len(m.trace.rows) == len(specs)


@given(specs=st.lists(kernel_spec(), min_size=1, max_size=15))
@settings(max_examples=60, deadline=None)
def test_wall_duration_never_below_noload(specs):
    m = build_machine(specs, DefaultContention())
    m.run()
    for r in m.trace.rows:
        assert r.duration >= r.noload_duration - _EPS
        assert r.start >= r.ready - _EPS


@given(specs=st.lists(kernel_spec(), min_size=1, max_size=15))
@settings(max_examples=60, deadline=None)
def test_null_contention_durations_exact(specs):
    m = build_machine(specs, NullContention())
    m.run()
    for r in m.trace.rows:
        assert abs(r.duration - r.noload_duration) < 1e-5


@given(
    durations=st.lists(
        st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=8
    )
)
@settings(max_examples=60, deadline=None)
def test_single_stream_strict_fifo(durations):
    m = Machine(
        v100_nvlink_node(1), Engine(), contention=NullContention(), trace=Trace()
    )
    s = m.gpu(0).stream("s0")
    for i, d in enumerate(durations):
        m.launch(
            s,
            Kernel(name=f"k{i}", kind=KernelKind.COMPUTE, duration=d, occupancy=0.5),
            available_at=0.0,
        )
    m.run()
    rows = sorted(m.trace.rows, key=lambda r: int(r.name[1:]))
    for a, b in zip(rows, rows[1:]):
        assert b.start >= a.end - _EPS
    # back-to-back: total = sum of durations
    assert rows[-1].end == sum(durations) or abs(
        rows[-1].end - sum(durations)
    ) < 1e-6


@given(
    sizes=st.lists(st.floats(min_value=0.0, max_value=8e6), min_size=1, max_size=5),
    skews=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=4, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_collective_groups_complete_together(sizes, skews):
    node = v100_nvlink_node(4)
    m = Machine(node, Engine(), contention=DefaultContention(), trace=Trace())
    ccm = CollectiveCostModel(node.topology)
    for i, size in enumerate(sizes):
        coll = ccm.make_allreduce(size, [0, 1, 2, 3], name=f"ar{i}")
        for g in range(4):
            m.launch(m.gpu(g).stream("comm"), coll.members[g], available_at=skews[g])
    m.run()
    by_op = {}
    for r in m.trace.rows:
        by_op.setdefault(r.name.split("@")[0], []).append(r)
    for name, rows in by_op.items():
        assert len(rows) == 4
        ends = {round(r.end, 6) for r in rows}
        assert len(ends) == 1, f"{name} members ended at {ends}"
        # No member starts before it was launched.
        for r in rows:
            assert r.start >= min(skews) - _EPS


@given(specs=st.lists(kernel_spec(), min_size=2, max_size=12))
@settings(max_examples=50, deadline=None)
def test_occupancy_capacity_respected(specs):
    """At no instant does the sum of resident occupancies exceed 1 per GPU.

    Verified post-hoc from the trace by sweeping interval boundaries.
    """
    m = build_machine(specs, NullContention())
    m.run()
    occ = {s["gpu"]: [] for s in specs}
    rows = list(m.trace.rows)
    by_gpu = {}
    for i, r in enumerate(rows):
        by_gpu.setdefault(r.gpu, []).append((r, specs[int(r.name[1:])]["occupancy"]))
    for gpu, entries in by_gpu.items():
        boundaries = sorted({r.start for r, _ in entries})
        for t in boundaries:
            resident = sum(
                o for r, o in entries if r.start <= t + _EPS and r.end > t + _EPS
            )
            assert resident <= 1.0 + 1e-5


@given(specs=st.lists(kernel_spec(max_occupancy=0.3), min_size=2, max_size=20))
@settings(max_examples=50, deadline=None)
def test_residents_never_outnumber_streams(specs):
    """Every resident kernel is some stream's running kernel, so at no
    instant do a GPU's overlapping trace rows outnumber its streams.

    Occupancies are small enough that the left-over policy never binds:
    the stream count is the only limit.
    """
    m = build_machine(specs, DefaultContention())
    m.run()
    by_gpu = {}
    for r in m.trace.rows:
        by_gpu.setdefault(r.gpu, []).append(r)
    for gpu, rows in by_gpu.items():
        streams = len(m.gpu(gpu).streams)
        for t in {r.start for r in rows}:
            resident = sum(
                1 for r in rows if r.start <= t + _EPS and r.end > t + _EPS
            )
            assert resident <= streams
