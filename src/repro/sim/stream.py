"""CUDA-like streams: FIFO command queues per GPU.

A stream executes its entries strictly in order; different streams on the
same GPU are independent except where :class:`~repro.sim.events.CudaEvent`
dependencies couple them and where they compete for the device's execution
resources (the left-over policy in :mod:`repro.sim.gpu`).

A queue entry is a launch — the :class:`~repro.sim.kernel.Kernel` itself,
as Liger's runtime launches one function-wrapper record (§3.2) — or a
:class:`Command` that records or waits on an event.  Each entry carries an
``available_at`` timestamp — the simulation time the *host* issued it.
This is how asynchronous kernel launch is modelled: the host runs ahead
assigning availability times, and an entry that reaches the head of its
stream before it is available simply waits, exposing launch overhead
exactly when the paper says it is exposed (a GPU that drained its queue
waits for the CPU; §4.5).

An entry issued to a rank group (:meth:`~repro.sim.gpu.Machine.mirror_ranks`)
runs on every rank of the group at one ``available_at``: the group's ranks
issue the same commands, so their launcher cursors never differ.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Union

from repro.sim.events import CudaEvent
from repro.sim.kernel import Kernel

__all__ = ["CommandKind", "Command", "Stream"]


class CommandKind(enum.Enum):
    RECORD_EVENT = "record_event"
    WAIT_EVENT = "wait_event"


@dataclass(slots=True)
class Command:
    """An event record or wait in a stream's FIFO."""

    kind: CommandKind
    available_at: float
    event: CudaEvent
    #: The instant the machine would pump this entry into view (a launched
    #: kernel carries it too), stamped at submit time with the exact
    #: ``now + max(0, available_at - now)`` float arithmetic the submit-time
    #: pump used to be scheduled with — so a pump scheduled lazily (when the
    #: entry is first seen waiting at its stream's head) fires at the
    #: bit-identical time.
    pump_at: float = 0.0


class Stream:
    """A FIFO command queue bound to one GPU.

    Parameters
    ----------
    gpu_id:
        Device the stream belongs to.
    name:
        Label for traces (``"compute"``, ``"comm"``, ``"s1"`` ...).
    priority:
        Admission tie-break among kernels that become ready at the same
        instant on one device (higher wins).  Mirrors CUDA stream priority —
        and, as the paper observes (§2.3.1), priority alone does *not*
        guarantee timely communication-kernel startup; the left-over policy
        can still defer a COMM kernel that does not fit.
    """

    def __init__(self, gpu_id: int, name: str, priority: int = 0) -> None:
        self.gpu_id = gpu_id
        self.name = name
        self.priority = priority
        #: Launches (the kernels themselves) and event commands, in order.
        self.queue: Deque[Union[Kernel, Command]] = deque()
        # Head-state flags owned by the machine pump:
        self.blocked_on_event: Optional[CudaEvent] = None
        self.running_kernel: Optional[Kernel] = None
        #: Latest ``pump_at`` the machine has already scheduled a lazy
        #: availability pump for (dedup marker owned by the machine).
        self.avail_pump_at: float = -1.0
        # Rank mirroring, owned by the machine (see Machine.mirror_ranks).
        # A *follower* stream is never issued to: ``lead`` is the
        # same-position stream of its group's lowest rank, which runs the
        # group's commands.
        self.lead: Optional["Stream"] = None

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when nothing is queued, running, or blocked.

        A follower reports its group's stream: it runs the same commands.
        """
        s = self.lead or self
        return (
            not s.queue
            and s.running_kernel is None
            and s.blocked_on_event is None
        )

    def describe(
        self,
        running: Optional[str],
        blocked: Optional[str],
        queued: int,
    ) -> str:
        """This stream's diagnostic line for the given head state: the
        names of its running kernel and of the event it is blocked on."""
        state = "idle"
        if running is not None:
            state = f"running {running}"
        elif blocked is not None:
            state = f"blocked on {blocked}"
        elif queued:
            state = f"{queued} queued"
        return f"Stream(g{self.gpu_id}/{self.name} prio={self.priority}: {state})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running, blocked = self.running_kernel, self.blocked_on_event
        return self.describe(
            running.name if running is not None else None,
            blocked.name if blocked is not None else None,
            len(self.queue),
        )
