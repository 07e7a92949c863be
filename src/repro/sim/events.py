"""CUDA-like events: the synchronization primitive between streams and host.

A :class:`CudaEvent` mirrors the semantics Liger's hybrid synchronization
builds on (§3.4, Fig. 8):

* ``cudaEventRecord`` → the event is *recorded* by a ``RecordEvent`` stream
  command; it captures the simulation time at which every preceding command
  on that stream has completed.
* ``cudaStreamWaitEvent`` → inter-stream synchronization: a ``WaitEvent``
  command blocks its stream until the event is recorded, without involving
  the CPU.
* host callbacks (``cudaLaunchHostFunc`` / event polling) → CPU-GPU
  synchronization: the host registers a callback which fires when the event
  records, optionally after a host-visibility latency (the CPU learns of GPU
  progress through PCIe, not instantaneously).

Events are single-shot: recording twice is a protocol error (real CUDA allows
re-record; single-shot keeps schedules auditable and Liger never re-records).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import StreamProtocolError

__all__ = ["CudaEvent"]


class CudaEvent:
    """A single-shot synchronization event.

    Attributes
    ----------
    recorded_at:
        Simulation time (µs) at which the event was recorded, or ``None``.
    """

    __slots__ = (
        "name", "recorded_at", "_stream_waiters", "_host_waiters",
    )

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self.recorded_at: Optional[float] = None
        # Streams blocked on this event; resumed via their machine pump.
        self._stream_waiters: List[Callable[[], None]] = []
        # (delay_us, callback) host-side observers.
        self._host_waiters: List[Tuple[float, Callable[[], None]]] = []

    @property
    def is_recorded(self) -> bool:
        return self.recorded_at is not None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_stream_waiter(self, resume: Callable[[], None]) -> None:
        """Register a stream-resume callback (inter-stream sync path).

        The machine calls this when a ``WaitEvent`` command reaches the head
        of a stream before the event is recorded.  If the event is already
        recorded the caller should not block at all; registering on a
        recorded event is a protocol error to catch that mistake.
        """
        if self.is_recorded:
            raise StreamProtocolError(
                f"{self.name}: adding a stream waiter after the event recorded"
            )
        self._stream_waiters.append(resume)

    def on_host(self, callback: Callable[[], None], *, delay: float = 0.0) -> None:
        """Register a host callback fired ``delay`` µs after recording.

        ``delay`` models host visibility latency (PCIe round trip + driver
        polling); the CPU-GPU synchronization path passes a non-zero delay.
        If the event already recorded, the callback must be scheduled by the
        caller — the event does not hold an engine reference, so that path is
        flagged as a protocol error.
        """
        if self.is_recorded:
            raise StreamProtocolError(
                f"{self.name}: host callback registered after the event recorded"
            )
        self._host_waiters.append((delay, callback))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        now: float,
        schedule,
        local: Optional[Callable[[], None]] = None,
    ) -> None:
        """Mark the event recorded at ``now`` and release all waiters.

        Parameters
        ----------
        now:
            Recording timestamp.
        schedule:
            ``schedule(delay, callback)`` — the machine's deferred-call hook,
            used so waiter callbacks run as fresh engine events rather than
            deep inside the recording call stack.
        local:
            The recording device's own stream-resume callback.  Waiters
            registered with it are not scheduled: the recording pump's sweep
            unblocks them itself.
        """
        if self.is_recorded:
            raise StreamProtocolError(f"{self.name}: recorded twice")
        self.recorded_at = now
        for resume in self._stream_waiters:
            if resume is not local:
                schedule(0.0, resume)
        self._stream_waiters.clear()
        for delay, callback in self._host_waiters:
            schedule(delay, callback)
        self._host_waiters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"recorded@{self.recorded_at:.2f}" if self.is_recorded else "pending"
        return f"CudaEvent({self.name}, {state})"
