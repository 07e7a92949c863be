"""Runtime Principle-1 monitoring: catch the violation the plan can't see.

Liger's scheduler *validates* Principle 1 at planning time
(:meth:`~repro.core.scheduler.Round.validate_principle1`): the secondary
subset's anticipated duration must fit the primary window.  That validation
trusts the profiled contention factors — under an active fault (a straggling
GPU, a degraded link) anticipation is systematically wrong, the plan passes,
and the *execution* violates: the secondary subset outlives the primary and
delays the next round's primary kernels, exactly the condition
:class:`~repro.errors.SchedulingError` names (§3.5).

This monitor observes executions rather than plans.  The Liger runtime tags
each launched kernel with its round index and subset
(``LigerRuntime.on_round_launched``); a completion observer folds kernel end
times per round, and when a round's kernels have all retired it compares the
subsets: a secondary end beyond the primary end by more than
``max(MIN_MARGIN_US, MARGIN_FRAC × window)`` is one violation.  The recovery
layer reports the count and publishes each violation; it never switches
the strategy.

Purely passive: the monitor registers observers and reads timestamps; it
never schedules events, so an attached monitor does not change the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sim.gpu import Machine
from repro.sim.kernel import Kernel

__all__ = ["PrincipleMonitor", "RoundObservation"]

#: Tolerated secondary overshoot as a fraction of the round window
#: (anticipation margins make small overshoots benign).
MARGIN_FRAC = 0.10
#: Absolute overshoot floor (µs) below which no violation is counted,
#: whatever the window size.
MIN_MARGIN_US = 10.0


@dataclass
class RoundObservation:
    """Accumulated completion state of one launched round."""

    expected0: int
    expected1: int
    window: float
    seen0: int = 0
    seen1: int = 0
    end0: float = field(default=-1.0)
    end1: float = field(default=-1.0)

    @property
    def complete(self) -> bool:
        """True once every kernel of both subsets has retired."""
        return self.seen0 >= self.expected0 and self.seen1 >= self.expected1


class PrincipleMonitor:
    """Counts executed rounds whose secondary subset outlived the primary.

    Parameters
    ----------
    machine:
        Machine whose kernel completions are observed.
    on_violation:
        Optional callback ``fn(round_index, overshoot_us, time_us)`` fired
        per detected violation.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        on_violation: Optional[Callable[[int, float, float], None]] = None,
    ) -> None:
        self.machine = machine
        self.on_violation = on_violation
        self.rounds_observed = 0
        self.violations = 0
        self._rounds: Dict[int, RoundObservation] = {}
        machine.on_kernel_complete(self._on_kernel_complete)

    # ------------------------------------------------------------------
    def attach(self, runtime) -> None:
        """Hook a :class:`~repro.core.runtime.LigerRuntime`'s round launches."""
        runtime.on_round_launched = self._on_round_launched

    def _on_round_launched(
        self, index: int, expected0: int, expected1: int, window: float
    ) -> None:
        self._rounds[index] = RoundObservation(
            expected0=expected0, expected1=expected1, window=window
        )

    # ------------------------------------------------------------------
    def _on_kernel_complete(self, kernel: Kernel, time: float, ranks: int) -> None:
        rindex = kernel.meta.get("_round")
        if rindex is None:
            return
        obs = self._rounds.get(rindex)
        if obs is None:
            return
        if kernel.meta.get("_subset") == 0:
            obs.seen0 += ranks
            obs.end0 = max(obs.end0, time)
        else:
            obs.seen1 += ranks
            obs.end1 = max(obs.end1, time)
        if obs.complete:
            del self._rounds[rindex]
            self._judge(rindex, obs)

    def _judge(self, rindex: int, obs: RoundObservation) -> None:
        self.rounds_observed += 1
        if obs.expected1 == 0:
            return  # nothing was interleaved: Principle 1 is vacuous
        margin = max(MIN_MARGIN_US, MARGIN_FRAC * obs.window)
        overshoot = obs.end1 - obs.end0
        if overshoot > margin:
            self.violations += 1
            if self.on_violation is not None:
                self.on_violation(rindex, overshoot, max(obs.end0, obs.end1))
