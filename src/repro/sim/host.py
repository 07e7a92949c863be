"""The host (CPU) model: launch overhead and CPU-GPU synchronization.

The paper's §4.5 quantifies why launch modelling matters: a null kernel
launch costs ~5 µs, but when the CPU must wait for communication kernels on
*multiple* GPUs to complete before relaunching (the CPU-GPU synchronization
path), the exposed gap exceeds 20 µs — inconsistent per-GPU launch times plus
PCIe contention.  Liger's hybrid synchronization pre-launches the next kernel
groups while one kernel is still running, hiding this entirely.

The prototype runs under MPI (`mpirun -np 4 ./main`): each GPU has its own
host *rank* issuing launches, so the :class:`Host` keeps **one CPU cursor per
GPU**.  A launch advances only its GPU's cursor and takes the resulting time
as the command's ``available_at``; the GPU sees the command only from then
on.  If the GPU is still busy past that time the overhead is hidden — the
asynchronous-launch semantics the hybrid approach exploits.

Ranks that run the same command sequence form one group of the machine
(:meth:`~repro.sim.gpu.Machine.mirror_ranks`).  A group's commands are
issued once, to its lead rank's streams, and each one advances the cursor
of every rank in the group by its cost, as that rank's own issue would.
Every rank issues every command and the host catches every rank up at
once, so a group's cursors never differ: a command carries its lead's.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from repro.sim.events import CudaEvent
from repro.sim.gpu import Machine
from repro.sim.kernel import Kernel
from repro.sim.stream import Command, CommandKind, Stream
from repro.units import us

__all__ = ["Host"]

_RECORD_EVENT = CommandKind.RECORD_EVENT
_WAIT_EVENT = CommandKind.WAIT_EVENT

#: CPU cost of enqueueing an event record/wait — much cheaper than a launch.
EVENT_CMD_OVERHEAD = us(0.3)
#: Delay between an event recording on the GPU and the CPU observing it
#: (PCIe round-trip + driver polling).
SYNC_VISIBILITY_LATENCY = us(2.0)


class Host:
    """CPU-side command issue for one node (one launcher rank per GPU).

    The costs come from the machine's node: ``launch_overhead`` is the GPU
    spec's per-kernel launch cost and ``multi_gpu_launch_penalty`` the extra
    CPU-GPU sync cost when the host must confirm completion on *all* GPUs
    before proceeding (§4.5's 5 µs → >20 µs effect).
    ``sync_visibility_latency`` is :data:`SYNC_VISIBILITY_LATENCY`.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        node = machine.node
        self.launch_overhead = node.gpu.kernel_launch_overhead
        self.sync_visibility_latency = SYNC_VISIBILITY_LATENCY
        self.multi_gpu_launch_penalty = node.multi_gpu_launch_penalty
        #: One CPU time cursor per GPU rank: a rank issues commands serially.
        self.cursors: List[float] = [0.0] * machine.node.num_gpus
        #: Per-rank count: a group launch counts once for each of its ranks.
        self.launches_issued = 0

    # ------------------------------------------------------------------
    def cursor(self, gpu_id: int) -> float:
        """Current CPU time of the launcher rank for ``gpu_id``."""
        return self.cursors[gpu_id]

    def advance_to(self, time: float) -> None:
        """Move every rank's cursor forward (never backward) to ``time``."""
        cursors = self.cursors
        for rank, cursor in enumerate(cursors):
            if cursor < time:
                cursors[rank] = time

    def catch_up(self) -> None:
        """Advance the cursors to the current simulation time (host was idle)."""
        self.advance_to(self.machine.engine.now)

    # ------------------------------------------------------------------
    # Command issue (each advances its ranks' CPU cursors)
    # ------------------------------------------------------------------
    def _advance(self, stream: Stream, cost: float) -> None:
        """Advance every cursor of ``stream``'s rank group by ``cost``, once
        the machine took a command stamped with the lead's cursor plus it."""
        cursors = self.cursors
        for rank in self.machine.gpus[stream.gpu_id].ranks:
            cursors[rank] += cost

    def launch_kernel(self, stream: Stream, kernel: Kernel) -> float:
        """Issue one kernel launch; returns its availability time."""
        machine = self.machine
        cost = self.launch_overhead
        at = self.cursors[stream.gpu_id] + cost
        machine.launch(stream, kernel, at)
        self.launches_issued += len(machine.gpus[stream.gpu_id].ranks)
        self._advance(stream, cost)
        return at

    def launch_kernels(self, stream: Stream, kernels: Sequence[Kernel]) -> float:
        """Issue a run of kernel launches on one stream; returns the last
        one's availability time (the cursor if ``kernels`` is empty).

        Equal to :meth:`launch_kernel` once per kernel, in order: the
        machine takes the run in one
        :meth:`~repro.sim.gpu.Machine.submit_many`, which stamps each
        kernel with the lead's cursor after its own launch cost.
        """
        cursors = self.cursors
        gpu_id = stream.gpu_id
        start = cursors[gpu_id]
        cost = self.launch_overhead
        machine = self.machine
        at = machine.submit_many(stream, kernels, start, cost)
        group = machine.gpus[gpu_id].ranks
        self.launches_issued += len(kernels) * len(group)
        for rank in group:
            if cursors[rank] == start:
                cursors[rank] = at
            else:
                for _ in kernels:
                    cursors[rank] += cost
        return at

    def _issue_event(self, stream: Stream, kind: CommandKind, event: CudaEvent) -> float:
        at = self.cursors[stream.gpu_id] + EVENT_CMD_OVERHEAD
        self.machine.submit(stream, Command(kind, at, event))
        self._advance(stream, EVENT_CMD_OVERHEAD)
        return at

    def record_event(self, stream: Stream, event: CudaEvent) -> float:
        """Issue an event-record command."""
        return self._issue_event(stream, _RECORD_EVENT, event)

    def wait_event(self, stream: Stream, event: CudaEvent) -> float:
        """Issue a stream-wait command (inter-stream sync, no CPU blocking)."""
        return self._issue_event(stream, _WAIT_EVENT, event)

    # ------------------------------------------------------------------
    # CPU-GPU synchronization
    # ------------------------------------------------------------------
    def when_event(
        self,
        event: CudaEvent,
        callback: Callable[[], None],
        *,
        multi_gpu: bool = False,
    ) -> None:
        """Run ``callback`` when the CPU observes ``event`` recorded.

        The callback runs with all cursors advanced to the observation time —
        the launcher ranks were blocked waiting.  ``multi_gpu=True`` adds the
        node's multi-GPU completion-confirmation penalty (§4.5).
        """
        extra = self.multi_gpu_launch_penalty if multi_gpu else 0.0
        delay = self.sync_visibility_latency + extra

        def _wrapped() -> None:
            self.advance_to(self.machine.engine.now)
            callback()

        event.on_host(_wrapped, delay=delay)

    def when_all_events(
        self,
        events: Iterable[CudaEvent],
        callback: Callable[[], None],
        *,
        multi_gpu: bool = False,
    ) -> None:
        """Run ``callback`` once every event in ``events`` has recorded.

        A repeated event is waited on once, so ``callback`` runs exactly once.
        """
        pending = list(dict.fromkeys(events))
        remaining = set(pending)

        def _fire() -> None:
            self.advance_to(self.machine.engine.now)
            callback()

        def _one_done(event: CudaEvent) -> Callable[[], None]:
            def _fn() -> None:
                remaining.discard(event)
                if not remaining:
                    _fire()

            return _fn

        if not pending:
            # Degenerate case: fire on the next engine tick, with the
            # cursors caught up as for any observed event.
            self.machine.engine.schedule(0.0, _fire)
            return
        for e in pending:
            self.when_event(e, _one_done(e), multi_gpu=multi_gpu)
