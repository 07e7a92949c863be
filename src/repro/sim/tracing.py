"""Timeline tracing.

The trace records one row per executed kernel: placement (GPU, stream),
identity (name, kind, batch, layer), timing (ready / start / end), and the
effective slowdown the contention model imposed.  The quantities the
paper's figures are built on — communication share of busy time (Fig. 3)
and compute/communication overlap (the mechanism behind Fig. 10) — are
derived from these rows by :mod:`repro.obs.analysis`; the rows' Chrome
trace events feed the merged timeline of :mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.kernel import Kernel, KernelKind

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

    def record_kernel(self, kernel: Kernel, end: float, gpu: int, name: str) -> None:
        """Append the row of ``kernel``, retiring on ``gpu`` under ``name``
        (the machine calls this before the release clears its run state).

        A rank-mirrored kernel runs on every rank of its group, so the
        machine names the rank and the rank's own name for the kernel.
        """
        self.rows.append(
            TraceRow(
                gpu=gpu,
                stream=kernel.stream.name,
                name=name,
                kind=kernel.kind,
                batch_id=kernel.batch_id,
                layer=kernel.layer,
                op=kernel.op,
                ready=kernel.ready_at,
                start=kernel.start_at,
                end=end,
                noload_duration=kernel.duration,
                policy=kernel.policy,
                resource_class=kernel.resource_class,
            )
        )

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
