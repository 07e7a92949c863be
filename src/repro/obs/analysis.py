"""Critical-path analytics over the merged timeline.

Answers the question end-of-run aggregates cannot: *where did the makespan
go*.  Two views, both derived from the kernel traces (plus request spans
for queue context):

**Per-GPU attribution** — an interval sweep over each GPU lane classifies
every instant of the run makespan as ``compute`` (a compute-like kernel
resident, regardless of overlap), ``comm`` (only communication resident),
or ``idle`` (nothing resident); the three partition the makespan exactly.
The same pass measures ``overlap``, the part of ``compute`` during which a
comm kernel was resident too, so a lane's comm wall time, its
communication share of busy time (Fig. 3) and the share of communication
hidden under computation (§3.3) all come from one sweep.  Contention — the
time kernels spent inflated past their no-load durations by the §2.3
interference model — is then carved proportionally out of the busy
classes, so::

    compute + comm + contention + idle == makespan   (per lane, exactly)

which is the invariant the acceptance tests pin on all four servers.

**Critical path** — a backward walk from the last kernel to finish.  At
each step the gating edge is chosen the way the simulator actually
serialised the work: a kernel that started after it became ready was
waiting on its *device* (follow the same-lane predecessor); a kernel that
started the moment it was ready was waiting on its *inputs* (follow the
latest-finishing kernel anywhere that released it — on another GPU this is
a comm edge).  Gaps between hops become ``wait`` segments, so the path
partitions the tail-to-start interval and its segments sum to what they
cover of the makespan.  Each hop bisects an index of its pool sorted by
end time, so the walk costs O(n log n) for n kernel rows.  The ranked "top
segments" report aggregates path time by (kind, op) — the segments to
attack first, MPK-style.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import KernelKind

__all__ = [
    "GpuAttribution",
    "PathSegment",
    "CriticalPathReport",
    "analyze_critical_path",
    "gpu_attribution",
]

_EPS = 1e-6  # float-comparison slack, µs


@dataclass
class GpuAttribution:
    """Makespan attribution for one GPU lane, in µs."""

    gpu: int
    compute_us: float = 0.0
    comm_us: float = 0.0
    contention_us: float = 0.0
    idle_us: float = 0.0
    #: Wall time with a compute and a comm kernel both resident: the part
    #: of compute that hid communication (before the contention carve).
    overlap_us: float = 0.0
    #: Wall time with any comm kernel resident (before the contention carve).
    comm_wall_us: float = 0.0

    @property
    def total_us(self) -> float:
        return self.compute_us + self.comm_us + self.contention_us + self.idle_us

    @property
    def comm_fraction(self) -> float:
        """Communication share of busy wall time (the Fig. 3 metric)."""
        busy = self.compute_us + self.comm_us + self.contention_us
        return self.comm_wall_us / busy if busy > 0 else 0.0

    @property
    def comm_hidden_fraction(self) -> float:
        """Share of communication wall time hidden under computation."""
        if self.comm_wall_us <= 0:
            return 0.0
        return self.overlap_us / self.comm_wall_us

    @property
    def lane(self) -> str:
        return f"gpu{self.gpu}"


@dataclass
class PathSegment:
    """One hop of the critical path."""

    kind: str  # "compute" | "comm" | "wait"
    name: str
    gpu: int
    start_us: float
    end_us: float

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class CriticalPathReport:
    """Everything the analyzer derived from one run's timelines."""

    t0_us: float
    makespan_us: float
    per_gpu: List[GpuAttribution] = field(default_factory=list)
    path: List[PathSegment] = field(default_factory=list)
    #: Aggregate queue wait from the request spans (µs), for context.
    span_queue_wait_us: float = 0.0
    span_count: int = 0

    @property
    def path_coverage_us(self) -> float:
        """Total time the walked path accounts for."""
        return sum(s.duration_us for s in self.path)

    def top_segments(self, n: int = 10) -> List[Tuple[str, str, float, int]]:
        """``(kind, op, total_us, hops)`` ranked by path time, descending."""
        agg: Dict[Tuple[str, str], Tuple[float, int]] = {}
        for seg in self.path:
            key = (seg.kind, seg.name)
            total, hops = agg.get(key, (0.0, 0))
            agg[key] = (total + seg.duration_us, hops + 1)
        ranked = sorted(
            ((kind, op, total, hops) for (kind, op), (total, hops) in agg.items()),
            key=lambda item: -item[2],
        )
        return ranked[:n]

    def describe(self) -> str:
        """The human-readable report the ``telemetry`` CLI prints."""
        lines = [
            f"makespan: {self.makespan_us / 1e3:.2f} ms "
            f"(from t={self.t0_us / 1e3:.2f} ms)",
        ]
        if self.span_count:
            lines.append(
                f"requests: {self.span_count} spans, "
                f"total queue wait {self.span_queue_wait_us / 1e3:.2f} ms"
            )
        lines.append("")
        header = (
            f"{'lane':<14} {'compute':>10} {'comm':>10} "
            f"{'contention':>11} {'idle':>10} {'busy%':>6}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for a in self.per_gpu:
            busy = a.compute_us + a.comm_us + a.contention_us
            frac = 100.0 * busy / a.total_us if a.total_us > 0 else 0.0
            lines.append(
                f"{a.lane:<14} {a.compute_us / 1e3:>8.2f}ms {a.comm_us / 1e3:>8.2f}ms "
                f"{a.contention_us / 1e3:>9.2f}ms {a.idle_us / 1e3:>8.2f}ms "
                f"{frac:>5.1f}%"
            )
        lines.append("")
        lines.append(
            f"critical path: {len(self.path)} segments covering "
            f"{self.path_coverage_us / 1e3:.2f} ms"
        )
        top = self.top_segments()
        if top:
            header = f"{'rank':>4}  {'kind':<8} {'segment':<28} {'path time':>10} {'hops':>5}"
            lines.append(header)
            lines.append("-" * len(header))
            for i, (kind, op, total, hops) in enumerate(top, 1):
                lines.append(
                    f"{i:>4}  {kind:<8} {op:<28} {total / 1e3:>8.2f}ms {hops:>5}"
                )
        return "\n".join(lines) + "\n"


def _sweep_lane(
    rows: Sequence, t0: float, t1: float
) -> Tuple[float, float, float, float]:
    """(compute, overlap, comm, idle) over [t0, t1] for one lane's rows.

    Priority at each instant: any compute-like kernel resident -> compute;
    else any comm kernel resident -> comm; else idle.  Because the three
    classes are decided per elementary interval of one boundary-sorted
    sweep, they partition [t0, t1] exactly (no double counting under
    overlap).  ``overlap`` is the part of ``compute`` during which a comm
    kernel was resident too.
    """
    events: List[Tuple[float, int, int]] = []  # (time, delta, 0=compute 1=comm)
    for r in rows:
        lo = max(t0, min(t1, r.start))
        hi = max(t0, min(t1, r.end))
        if hi <= lo:
            continue
        chan = 1 if r.kind is KernelKind.COMM else 0
        events.append((lo, +1, chan))
        events.append((hi, -1, chan))
    events.sort()
    compute = overlap = comm = idle = 0.0
    active = [0, 0]
    prev = t0
    for time, delta, chan in events:
        if time > prev:
            if active[0] > 0:
                compute += time - prev
                if active[1] > 0:
                    overlap += time - prev
            elif active[1] > 0:
                comm += time - prev
            else:
                idle += time - prev
            prev = time
        active[chan] += delta
    if t1 > prev:
        idle += t1 - prev
    return compute, overlap, comm, idle


def _by_end(rows: Sequence) -> Tuple[List[float], List]:
    """``rows`` sorted by end time (ties keep row order) and their ends."""
    ranked = sorted(rows, key=attrgetter("end"))
    return [r.end for r in ranked], ranked


def _latest_finisher(index, limit: float, row) -> Optional[object]:
    """The row of ``index`` other than ``row`` that finished last at or
    before ``limit``; among equal ends, the first in row order."""
    ends, ranked = index
    hi = bisect_right(ends, limit)
    while hi > 0:
        lo = bisect_left(ends, ends[hi - 1], 0, hi)
        for i in range(lo, hi):
            if ranked[i] is not row:
                return ranked[i]
        hi = lo
    return None


def _walk_path(rows: Sequence, t0: float) -> List[PathSegment]:
    """Backward critical-path walk over every lane's rows."""
    if not rows:
        return []
    by_lane: Dict[int, List] = {}
    for r in rows:
        by_lane.setdefault(r.gpu, []).append(r)
    lanes = {gpu: _by_end(lane_rows) for gpu, lane_rows in by_lane.items()}
    everywhere = _by_end(rows)

    def kind_of(row) -> str:
        return "comm" if row.kind is KernelKind.COMM else "compute"

    row = max(rows, key=lambda r: (r.end, r.start))
    frontier = row.end
    segments: List[PathSegment] = []
    for _ in range(len(rows) + 1):  # bounded: each hop strictly recedes
        seg_start = min(row.start, frontier)
        if frontier > seg_start:
            segments.append(
                PathSegment(
                    kind=kind_of(row),
                    name=row.op or row.name,
                    gpu=row.gpu,
                    start_us=seg_start,
                    end_us=frontier,
                )
            )
        frontier = seg_start
        if frontier <= t0 + _EPS:
            break
        if row.start > row.ready + _EPS:
            # Device-gated: the lane was busy until our start.
            index, gate, wait = lanes[row.gpu], row.start, "device"
        else:
            # Input-gated: follow whatever finished last before we were
            # ready — on another GPU this is the comm/readiness edge.
            index, gate, wait = everywhere, row.ready, "dependency"
        pred = _latest_finisher(index, min(gate + _EPS, frontier), row)
        if pred is None:
            if frontier > t0:
                segments.append(
                    PathSegment(
                        kind="wait",
                        name="start",
                        gpu=row.gpu,
                        start_us=t0,
                        end_us=frontier,
                    )
                )
            break
        if pred.end < frontier - _EPS:
            segments.append(
                PathSegment(
                    kind="wait",
                    name=wait,
                    gpu=row.gpu,
                    start_us=pred.end,
                    end_us=frontier,
                )
            )
            frontier = pred.end
        row = pred
    segments.reverse()
    return segments


def gpu_attribution(trace) -> List[GpuAttribution]:
    """Per-GPU attribution of ``trace``'s makespan, in GPU order.

    One :func:`_sweep_lane` pass per lane, without the critical-path walk;
    lanes with no kernel rows are absent.
    """
    rows = trace.rows if trace is not None else []
    if not rows:
        return []
    t0 = min(r.start for r in rows)
    t1 = max(r.end for r in rows)
    by_lane: Dict[int, List] = {}
    for r in rows:
        by_lane.setdefault(r.gpu, []).append(r)
    per_gpu: List[GpuAttribution] = []
    for gpu, lane_rows in sorted(by_lane.items()):
        compute, overlap, comm, idle = _sweep_lane(lane_rows, t0, t1)
        comm_wall = overlap + comm  # before the carve below scales comm
        inflation = sum(
            max(0.0, r.duration - r.noload_duration) for r in lane_rows
        )
        busy = compute + comm
        contention = min(inflation, busy)
        if busy > 0 and contention > 0:
            scale = (busy - contention) / busy
            compute *= scale
            comm *= scale
        per_gpu.append(
            GpuAttribution(
                gpu=gpu,
                compute_us=compute,
                comm_us=comm,
                contention_us=contention,
                idle_us=idle,
                overlap_us=overlap,
                comm_wall_us=comm_wall,
            )
        )
    return per_gpu


def analyze_critical_path(
    trace=None, *, spans: Sequence = ()
) -> CriticalPathReport:
    """Build the :class:`CriticalPathReport` for one run.

    ``trace`` is the run's :class:`~repro.sim.tracing.Trace`; lanes are
    keyed by GPU.
    """
    rows = trace.rows if trace is not None else []

    queue_wait = sum(s.queue_wait_us or 0.0 for s in spans)
    if not rows:
        return CriticalPathReport(
            t0_us=0.0,
            makespan_us=0.0,
            span_queue_wait_us=queue_wait,
            span_count=len(spans),
        )

    t0 = min(r.start for r in rows)
    t1 = max(r.end for r in rows)
    return CriticalPathReport(
        t0_us=t0,
        makespan_us=t1 - t0,
        per_gpu=gpu_attribution(trace),
        path=_walk_path(rows, t0),
        span_queue_wait_us=queue_wait,
        span_count=len(spans),
    )
