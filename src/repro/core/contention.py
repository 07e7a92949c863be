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


class AdaptiveAnticipator:
    """Online contention anticipation (extension beyond the paper).

    The paper's factors come from an offline profiling pass on the
    deployment hardware (§3.5).  This variant needs no offline pass: it
    starts at 1.0 and learns per-kind slowdowns from the kernels the runtime
    actually executes, via an exponentially-weighted moving *maximum* —
    a decayed running max rather than a mean, because the factor's job is to
    bound the worst case (Principle 1), not to predict the average.

    Duck-type compatible with :class:`ContentionAnticipator` (``scale`` /
    ``anticipated``); the Liger runtime feeds observations through
    :meth:`observe`.
    """

    def __init__(self, *, decay: float = 0.02, margin: float = 1.02) -> None:
        if not 0.0 < decay < 1.0:
            raise ConfigError("decay must be in (0, 1)")
        if margin < 1.0:
            raise ConfigError("margin must be >= 1")
        self.decay = decay
        self.margin = margin
        self._estimate = {True: 1.0, False: 1.0}  # keyed by is_comm
        self.observations = 0

    def observe(self, kind: KernelKind, noload: float, measured: float) -> None:
        """Feed one executed kernel's (no-load, measured) duration pair."""
        if noload <= 0:
            return
        slowdown = max(1.0, measured / noload)
        key = kind is KernelKind.COMM
        current = self._estimate[key]
        if slowdown >= current:
            self._estimate[key] = slowdown     # jump to new maxima instantly
        else:
            # decay toward the observation, so stale spikes fade
            self._estimate[key] = current + self.decay * (slowdown - current)
        self.observations += 1

    def scale(self, kind: KernelKind) -> float:
        """Current learned multiplier for ``kind`` (margin included)."""
        return self._estimate[kind is KernelKind.COMM] * self.margin

    def anticipated(self, duration: float, kind: KernelKind) -> float:
        """Pessimistic duration of a secondary kernel under overlap."""
        if duration < 0:
            raise ConfigError("duration must be >= 0")
        return duration * self.scale(kind)

    @property
    def factors(self) -> ContentionFactors:
        """Snapshot of the learned factors."""
        return ContentionFactors(
            compute=max(1.0, self._estimate[False] * self.margin),
            comm=max(1.0, self._estimate[True] * self.margin),
        )
