"""Contention anticipation for the scheduler (§3.5).

A thin adapter between the offline :class:`~repro.profiling.contention_profiler.ContentionFactors`
and Algorithm 1: the scheduler keeps using no-load durations for the
*primary* subset and inflates only *subsequent-batch* kernels by the
profiled maximum factor for their kernel class.  This pessimism guarantees
the secondary subset's estimated time never exceeds the primary window
(Principle 1) at the cost of some overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.profiling.contention_profiler import ContentionFactors
from repro.sim.kernel import KernelKind

__all__ = ["ContentionAnticipator", "NO_ANTICIPATION"]


@dataclass(frozen=True)
class ContentionAnticipator:
    """Scales secondary-subset kernel durations by profiled factors."""

    factors: ContentionFactors

    def scale(self, kind: KernelKind) -> float:
        """Multiplier applied to a subsequent-batch kernel of ``kind``."""
        return self.factors.for_kind(kind)

    def anticipated(self, duration: float, kind: KernelKind) -> float:
        """Pessimistic duration of a secondary kernel under overlap."""
        if duration < 0:
            raise ConfigError("duration must be >= 0")
        return duration * self.scale(kind)


#: The ablation: schedule with raw no-load durations (risking scheduling
#: failures — the secondary subset outliving the primary one).
NO_ANTICIPATION = ContentionAnticipator(
    ContentionFactors(compute=1.0, comm=1.0)
)
