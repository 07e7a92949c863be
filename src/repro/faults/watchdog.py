"""Engine-level progress watchdog: turn wedges into diagnoses.

The simulator already detects *drained* deadlocks (the event queue empties
while streams still hold work — :class:`~repro.errors.DeadlockError` from
``Machine.run``).  What it cannot detect on its own is a **livelock**: time
keeps advancing (completion timers pushed ever further out by an injected
fault, retry loops, a pathological contention model) but no kernel ever
retires.  On real serving infrastructure that is the worst failure mode —
the process looks alive while every request ages out.

The watchdog rides the engine's heartbeat: every ``INTERVAL_US`` it compares
``machine.kernels_completed`` against the last observation.  An *idle*
machine is healthy (there is simply nothing to run); a *busy* machine that
completes nothing for longer than ``STALL_TIMEOUT_US`` trips the watchdog,
which raises a :class:`~repro.errors.DeadlockError` naming the stuck
streams, ready kernels, and half-assembled collectives — plus any context
the caller registered (e.g. open batch ids from the serving layer).

Because the heartbeat auto-stops when it is the only live event, an armed
watchdog never keeps a finished simulation alive.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import DeadlockError
from repro.sim.gpu import Machine

__all__ = ["Watchdog"]

#: Longest tolerated span (µs) in which a busy machine completes no kernel.
STALL_TIMEOUT_US = 400_000.0
#: Heartbeat period (µs): a quarter of the stall timeout.
INTERVAL_US = STALL_TIMEOUT_US / 4.0


class Watchdog:
    """Progress monitor for one machine.

    Parameters
    ----------
    machine:
        The machine to observe.
    context:
        Optional callable returning extra diagnostic lines (the serving
        layer passes open batch ids).
    """

    def __init__(
        self,
        machine: Machine,
        *,
        context: Optional[Callable[[], List[str]]] = None,
    ) -> None:
        self.machine = machine
        self.context = context
        self.tripped = False
        self.checks = 0
        self._armed = False
        self._last_completed = -1
        self._last_progress_at = 0.0

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start the heartbeat (idempotent; call after work is scheduled)."""
        if self._armed:
            return
        self._armed = True
        self._last_completed = self.machine.kernels_completed
        self._last_progress_at = self.machine.engine.now
        self.machine.engine.heartbeat(INTERVAL_US, self._check)

    # ------------------------------------------------------------------
    def _check(self) -> bool:
        m = self.machine
        now = m.engine.now
        self.checks += 1
        if m.kernels_completed != self._last_completed or m.all_idle():
            self._last_completed = m.kernels_completed
            self._last_progress_at = now
            return True
        if now - self._last_progress_at >= STALL_TIMEOUT_US - 1e-9:
            self.tripped = True
            stuck = m.stuck_summary()
            if self.context is not None:
                stuck += self.context()
            raise DeadlockError(
                f"watchdog: no kernel completed for "
                f"{now - self._last_progress_at:.0f}us (limit "
                f"{STALL_TIMEOUT_US:.0f}us) while work is pending: "
                + "; ".join(stuck[:8])
            )
        return True
