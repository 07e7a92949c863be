"""Timeline tracing and overlap statistics.

The trace records one row per executed kernel: placement (GPU, stream),
identity (name, kind, batch, layer), timing (ready / start / end), and the
effective slowdown the contention model imposed.  From these rows we derive
the quantities the paper's figures are built on — communication-time
fraction (Fig. 3), kernel-duration distributions (Fig. 4), and
compute/communication overlap (the mechanism behind Fig. 10) — plus a
Chrome-trace export (`chrome://tracing` / Perfetto) for eyeballing
schedules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.kernel import KernelKind

__all__ = ["TraceRow", "Trace"]


@dataclass(frozen=True)
class TraceRow:
    """One executed kernel instance."""

    gpu: int
    stream: str
    name: str
    kind: KernelKind
    batch_id: int
    layer: int
    op: str
    ready: float
    start: float
    end: float
    noload_duration: float
    #: Scheduling provenance, set when the Liger runtime launched the kernel
    #: under a policy with tracing armed ("" for baseline/profile kernels).
    policy: str = ""
    resource_class: str = ""

    @property
    def duration(self) -> float:
        """Wall duration on the device (µs), contention included."""
        return self.end - self.start

    @property
    def queueing_delay(self) -> float:
        """Time spent ready-but-not-admitted (µs) — the 'execution lag'."""
        return self.start - self.ready

    @property
    def slowdown(self) -> float:
        """Measured duration / no-load duration; 1.0 for zero-length kernels."""
        if self.noload_duration <= 0:
            return 1.0
        return self.duration / self.noload_duration


class Trace:
    """Accumulates :class:`TraceRow` records during a simulation."""

    def __init__(self) -> None:
        self.rows: List[TraceRow] = []

    # Called by Machine with a _RunState; duck-typed to avoid a cycle.
    def record_kernel(self, rs, end: float, kernel, gpu: int) -> None:
        """Append one executed kernel's row (called by the machine).

        ``kernel`` ran on ``gpu`` under run state ``rs``: a rank-mirrored
        run state carries every rank of its group, so the machine names
        the rank and its kernel.
        """
        self.rows.append(
            TraceRow(
                gpu=gpu,
                stream=rs.stream.name,
                name=kernel.name,
                kind=kernel.kind,
                batch_id=kernel.batch_id,
                layer=kernel.layer,
                op=kernel.op,
                ready=rs.ready_at,
                start=rs.start_at,
                end=end,
                noload_duration=kernel.duration,
                policy=kernel.meta.get("_policy", ""),
                resource_class=kernel.meta.get("_rclass", ""),
            )
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Last end minus first start across all GPUs (µs)."""
        if not self.rows:
            return 0.0
        return max(r.end for r in self.rows) - min(r.start for r in self.rows)

    def busy_time(self, gpu: int, kind: Optional[KernelKind] = None) -> float:
        """Union length (µs) of kernel intervals on one GPU, optionally by kind.

        Intervals are merged, so two overlapped kernels count once — this is
        wall-clock busy time, not summed kernel time.
        """
        intervals = sorted(
            (r.start, r.end)
            for r in self.rows
            if r.gpu == gpu and (kind is None or r.kind is kind)
        )
        return _union_length(intervals)

    def summed_time(self, gpu: int, kind: Optional[KernelKind] = None) -> float:
        """Sum of kernel durations on one GPU (overlap counted twice)."""
        return sum(
            r.duration
            for r in self.rows
            if r.gpu == gpu and (kind is None or r.kind is kind)
        )

    def comm_fraction(self, gpu: int) -> float:
        """Communication share of busy wall time on one GPU (Fig. 3 metric)."""
        comm = self.busy_time(gpu, KernelKind.COMM)
        total = self.busy_time(gpu)
        return comm / total if total > 0 else 0.0

    def overlap_time(self, gpu: int) -> float:
        """Wall time (µs) during which compute AND comm were both resident."""
        comp = sorted(
            (r.start, r.end)
            for r in self.rows
            if r.gpu == gpu and r.kind is not KernelKind.COMM
        )
        comm = sorted(
            (r.start, r.end)
            for r in self.rows
            if r.gpu == gpu and r.kind is KernelKind.COMM
        )
        return _intersection_length(comp, comm)

    def overlap_efficiency(self, gpu: int) -> float:
        """Fraction of communication wall time hidden under computation."""
        comm = self.busy_time(gpu, KernelKind.COMM)
        if comm <= 0:
            return 0.0
        return self.overlap_time(gpu) / comm

    def mean_queueing_delay(self, kind: Optional[KernelKind] = None) -> float:
        """Average ready→start delay (µs), the §2.3.1 lag metric."""
        rows = [r for r in self.rows if kind is None or r.kind is kind]
        if not rows:
            return 0.0
        return sum(r.queueing_delay for r in rows) / len(rows)

    def kernel_durations(self) -> Dict[str, List[float]]:
        """Observed durations grouped by operator name (Fig. 4 inputs)."""
        out: Dict[str, List[float]] = {}
        for r in self.rows:
            out.setdefault(r.op or r.name, []).append(r.duration)
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """Kernel rows as Chrome trace-event dicts (one slice per kernel).

        The merged exporter (:mod:`repro.obs.export`) interleaves these
        with request spans and control instants on one timeline.
        """
        events = []
        for r in self.rows:
            args = {
                "batch": r.batch_id,
                "layer": r.layer,
                "op": r.op,
                "queueing_delay_us": r.queueing_delay,
                "slowdown": r.slowdown,
            }
            if r.policy:
                args["policy"] = r.policy
                args["resource_class"] = r.resource_class
            events.append(
                {
                    "name": r.name,
                    "cat": r.kind.value,
                    "ph": "X",
                    "ts": r.start,
                    "dur": r.duration,
                    "pid": f"gpu{r.gpu}",
                    "tid": r.stream,
                    "args": args,
                }
            )
        return events

    def to_chrome_trace(self) -> str:
        """Serialize as a Chrome trace-event JSON string."""
        return json.dumps({"traceEvents": self.chrome_events()})

    def save_chrome_trace(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_chrome_trace())


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of sorted (start, end) intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for s, e in intervals:
        if e <= s:
            continue
        if cur_start is None or s > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def _intersection_length(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Length of intersection of two interval unions (both sorted)."""
    # Merge each side into disjoint unions first, then sweep.
    a = _merge(a)
    b = _merge(b)
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            total += e - s
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _merge(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for s, e in intervals:
        if e <= s:
            continue
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged
