"""The multi-GPU machine: command pumping, admission, progress integration.

This module is the behavioural core of the hardware substitute.  It executes
stream commands with the semantics the paper's scheduling contribution
depends on:

* **In-order streams** — a stream runs one kernel at a time, in FIFO order,
  and a launch or command is only visible to the device once the host has
  issued it (``available_at``).  A launch is the kernel itself, which
  carries its own run state while it is in flight.
* **Left-over admission policy** (§2.3.1) — a kernel at the head of its
  stream becomes *ready*; ready kernels are admitted onto the device only
  while the sum of resident SM occupancies stays ≤ 1.  Among kernels ready at
  the same instant, computation kernels are admitted before communication
  kernels regardless of stream priority — reproducing the paper's observation
  that high-priority streams do not prevent communication-kernel execution
  lag.
* **Emergent contention** — kernel progress is integrated piecewise: whenever
  any device's resident set changes, elapsed progress is banked at the old
  rates and per-kernel slowdowns are recomputed from the
  :class:`~repro.sim.contention.ContentionModel`.
* **Collective rendezvous** — a collective's member kernels occupy SMs from
  the moment they are admitted (NCCL kernels spin while waiting for peers),
  but the operation makes progress only once *every* rank has admitted its
  member, at the rate of the most-contended member, and all members finish at
  the same instant.  A collective one rank group holds whole is no op at
  all: the strategy launches it as a plain COMM kernel, which progresses
  like any other kernel and retires the way a collective does — after the
  co-due compute-like kernels, one at a time in admission order.

One :class:`Machine` owns all GPUs of a node so that cross-device state
(collectives, the single completion timer) has a single coordinator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.hw.devices import NodeSpec
from repro.sim.contention import ContentionModel, DefaultContention
from repro.sim.engine import Engine, EventHandle
from repro.sim.events import CudaEvent
from repro.sim.kernel import CollectiveOp, Kernel, KernelKind
from repro.sim.stream import Command, CommandKind, Stream
from repro.sim.tracing import Trace

__all__ = ["Machine", "Gpu", "rank_name"]

_EPS = 1e-6

#: Bound on the shape-keyed slowdown memo; unbounded shape diversity (e.g.
#: a bursty prefill mix) must not leak, and recurring shapes repopulate it
#: quickly after a clear.
_SHAPE_CACHE_LIMIT = 8192

# Hoisted enum members: the pump compares command kinds ~100k times per
# simulated second of decode, and a module-global load beats two attribute
# lookups at that call volume.
_RECORD_EVENT = CommandKind.RECORD_EVENT
_WAIT_EVENT = CommandKind.WAIT_EVENT
_COMM = KernelKind.COMM


@dataclass(slots=True)
class _CollectiveRun:
    """Shared progress state of an in-flight rendezvous collective: one
    whose participants span more than one rank group."""

    op: CollectiveOp
    #: Rank → its member kernel, in per-rank admission order (a mirrored
    #: device's ranks share one member and enter together).
    members: Dict[int, Kernel] = field(default_factory=dict)
    started_at: float = -1.0
    remaining: float = 0.0
    slowdown: float = 1.0

    @property
    def started(self) -> bool:
        return self.started_at >= 0.0


class Gpu:
    """One rank's streams, and the device state of its rank group.

    The machine simulates each group of rank-symmetric GPUs once (see
    :meth:`Machine.mirror_ranks`).  The group's lowest rank is its *device*
    and its *lead*: work for the group is issued to the lead's streams, and
    its ready set, resident set and occupancy stand for every rank in
    ``ranks``.  A follower rank keeps its own streams, which are never
    issued to; its ``device`` is the lead and its own ``ranks`` is empty.
    An undeclared rank is a one-rank group, its own device.
    """

    def __init__(self, gpu_id: int, machine: "Machine") -> None:
        self.gpu_id = gpu_id
        self.machine = machine
        self.streams: List[Stream] = []
        self.ready: List[Kernel] = []
        #: Resident kernels, in admission order (values are None).
        self.resident: Dict[Kernel, None] = {}
        self.used_occupancy = 0.0
        #: Residents that progress on their own, in admission order: every
        #: kernel but a rendezvous member — the progress integrator iterates
        #: this instead of re-filtering ``resident``.
        self.active_local: Dict[Kernel, None] = {}
        #: Set on every admit/release: the residents' stored contention
        #: slowdowns are stale until the next reschedule refreshes them.
        self.dirty = False
        #: A completion callback released a kernel here: pump the device.
        self.touched = False
        self.device: Gpu = self
        self.ranks: Tuple[int, ...] = (gpu_id,)

    def stream(self, name: str, priority: int = 0) -> Stream:
        """Get-or-create the stream named ``name`` on this device.

        Idempotent by name: repeated calls return the same stream (asking
        for a different priority on an existing name is a config error) —
        creating a fresh stream per call is the kind of silent concurrency
        bug no caller ever wants.  On a follower rank the new stream mirrors
        the lead's stream at the same position, which must have the same
        name and priority.
        """
        for s in self.streams:
            if s.name == name:
                if s.priority != priority:
                    raise ConfigError(
                        f"stream {name!r} on GPU {self.gpu_id} already exists "
                        f"with priority {s.priority}, requested {priority}"
                    )
                return s
        s = Stream(self.gpu_id, name, priority)
        lead = self.device
        if lead is not self:
            position = len(self.streams)
            if position >= len(lead.streams) or _layout(
                lead.streams[position]
            ) != _layout(s):
                raise ConfigError(
                    f"stream {name!r} on GPU {self.gpu_id} has no counterpart "
                    f"at position {position} on its mirror lead GPU "
                    f"{lead.gpu_id}"
                )
            s.lead = lead.streams[position]
        self.streams.append(s)
        return s

    def all_idle(self) -> bool:
        """True when nothing is resident, ready, or queued on any stream."""
        device = self.device
        return not (device.resident or device.ready) and all(
            s.idle for s in self.streams
        )


def _layout(stream: Stream) -> Tuple[str, int]:
    return stream.name, stream.priority


def _check_issuable(stream: Stream) -> None:
    """Raise unless ``stream`` takes commands: a follower's does not."""
    if stream.lead is not None:
        raise SimulationError(
            f"stream {stream.name!r} on GPU {stream.gpu_id} is rank-mirrored: "
            f"issue to its group lead GPU {stream.lead.gpu_id}"
        )


def _in_flight(kernel: Kernel, stream: Stream) -> SimulationError:
    return SimulationError(
        f"kernel {kernel.name} launched on stream {stream.name!r} of GPU "
        f"{stream.gpu_id} is already in flight on stream "
        f"{kernel.stream.name!r} of GPU {kernel.stream.gpu_id}"
    )


def rank_name(name: str, rank: int, lead: int) -> str:
    """``name`` as rank ``rank`` of the group led by ``lead`` knows it.

    A group's kernels and events are named for its lead (``qkv_b3@g1``);
    each rank's trace rows and diagnostics name its own copy, so the
    trailing ``@g<lead>`` becomes ``@g<rank>``.  Any other name is shared
    by every rank of the group.
    """
    if rank == lead:
        return name
    head, sep, tail = name.rpartition("@g")
    if not sep or not tail.isdigit():
        return name
    return f"{head}@g{rank}"


class Machine:
    """A simulated multi-GPU node executing stream commands.

    Parameters
    ----------
    node:
        Hardware description (GPU specs + topology).
    engine:
        Shared event loop.  One engine may drive several machines in
        principle; the serving layer uses one machine per node.
    contention:
        Interference model; defaults to the calibrated
        :class:`~repro.sim.contention.DefaultContention`.
    trace:
        Optional timeline recorder.
    """

    def __init__(
        self,
        node: NodeSpec,
        engine: Optional[Engine] = None,
        *,
        contention: Optional[ContentionModel] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        self.node = node
        self.engine = engine or Engine()
        self.contention = contention or DefaultContention()
        self.trace = trace
        #: Optional fault-injection hook (see :mod:`repro.faults.injector`),
        #: set by :meth:`arm_fault_injector`.  When None — the default —
        #: every fault code path is skipped and the machine behaves
        #: bit-for-bit like a fault-free build.
        self.fault_injector = None
        self.gpus: List[Gpu] = [Gpu(i, self) for i in range(node.num_gpus)]
        #: The device states the machine pumps, admits on and integrates:
        #: one per rank group, in lead-rank order (see :meth:`mirror_ranks`).
        self._devices: List[Gpu] = []
        #: The rank groups, in lead-rank order: the unit work is issued in.
        #: Each group's first rank is its lead.  One-rank groups unless
        #: :meth:`mirror_ranks` declared otherwise and no fault injector is
        #: armed, e.g. ``((0, 1, 2, 3),)``.
        self.groups: Tuple[Tuple[int, ...], ...] = ()
        self._regroup()
        #: Set once a command reaches a multi-rank group; faults can no
        #: longer be armed after that.
        self._mirrored = False
        #: Admission tie-break within one device's ready list (pop order).
        self._ready_seq = itertools.count()
        #: In-flight rendezvous collectives by op, in first-admission order.
        self._collectives: Dict[CollectiveOp, _CollectiveRun] = {}
        #: Shape-keyed slowdown vectors (see ContentionModel.pure_in_shape):
        #: steady-state decode re-creates the same resident shapes with fresh
        #: kernels.
        self._shape_cache: Dict[tuple, tuple] = {}
        self._contention_pure_in_shape = bool(
            getattr(self.contention, "pure_in_shape", False)
        )
        self._last_bank_time = 0.0
        self._completion_timer: Optional[EventHandle] = None
        self._pump_scheduled: Dict[int, bool] = {}
        # Pre-bound per-device pump callbacks: the pump-scheduling paths and
        # event waiters fire tens of thousands of times per simulated second,
        # and building a fresh closure for each showed up in profiles.
        self._run_pump_fns: List[Callable[[], None]] = [
            (lambda gid=g.gpu_id: self._run_pump(gid)) for g in self.gpus
        ]
        self._kick_pump_fns: List[Callable[[], None]] = [
            (lambda gid=g.gpu_id: self._schedule_pump(gid)) for g in self.gpus
        ]
        #: Per-rank count: a group kernel counts once for each of its ranks.
        self.kernels_completed = 0
        # Observers notified with each completed kernel (serving layer hooks).
        self._completion_observers: List[Callable[[Kernel, float, int], None]] = []

    # ------------------------------------------------------------------
    # Topology / construction helpers
    # ------------------------------------------------------------------
    def gpu(self, gpu_id: int) -> Gpu:
        """The per-device state object for ``gpu_id``."""
        if not 0 <= gpu_id < len(self.gpus):
            raise ConfigError(f"no GPU {gpu_id} on node {self.node.name}")
        return self.gpus[gpu_id]

    def on_kernel_complete(self, fn: Callable[[Kernel, float, int], None]) -> None:
        """Register an observer called as ``fn(kernel, end_time, ranks)``.

        ``ranks`` is how many ranks' copies of ``kernel`` the call retires;
        per-rank accounting adds it.  The calls come in the order the
        per-rank calls would (see :meth:`mirror_ranks`).
        """
        self._completion_observers.append(fn)

    # ------------------------------------------------------------------
    # Rank mirroring
    # ------------------------------------------------------------------
    def mirror_ranks(self, ranks: Iterable[int]) -> None:
        """Declare that ``ranks`` run the same command sequence.

        The ranks become one group in :attr:`groups`, led by the lowest
        rank.  Work for the group is issued once, to the lead's streams:
        one kernel (named for the lead, e.g. ``qkv_b3@g0``), or one event
        and command per record or wait, which runs on every rank of the
        group at the lead's launcher stamp.  Issuing to a follower's stream
        raises :class:`~repro.errors.SimulationError`.  The lead's device
        state pumps, admits, prices contention and banks progress for the
        group.  Every rank issues every command, so the ranks' launcher
        cursors, and with them their timelines, never differ.

        Per-rank results are kept.  :attr:`kernels_completed` counts every
        rank.  The trace gets one row per rank, in rank order, each named
        for its rank by :func:`rank_name`; deadlock messages name every
        rank's own stream, kernel and event the same way.  A device's lone
        due compute-like kernel is observed once, with the group's rank
        count.  Co-due ones are observed twice each: with ``ranks=1`` in
        the lead-lane pass, which also releases them, then with the count
        of the other ranks.  A batch can only finish on its device's last
        lane, so this is the per-rank call order with the follower lanes'
        calls folded together, exact for groups of consecutive ranks.  A
        COMM kernel retires after them as a collective does: once per
        member kernel, with its group's rank count.

        Ignored while a fault injector is armed: faults skew the ranks, so
        each rank is then simulated on its own.  Declare before submitting
        to the ranks, and each rank in one declaration at most.
        """
        if self.fault_injector is not None:
            return
        ranks = sorted(set(ranks))
        if len(ranks) < 2:
            return
        gpus = [self.gpu(r) for r in ranks]
        for g in gpus:
            if g.device is not g or len(g.ranks) > 1:
                raise ConfigError(f"GPU {g.gpu_id} is already rank-mirrored")
            if not g.all_idle():
                raise ConfigError(
                    f"GPU {g.gpu_id} has work queued; declare mirroring first"
                )
        lead = gpus[0]
        layout = [_layout(s) for s in lead.streams]
        for g in gpus[1:]:
            if [_layout(s) for s in g.streams] != layout:
                raise ConfigError(
                    f"GPU {g.gpu_id} streams {[_layout(s) for s in g.streams]} "
                    f"differ from GPU {lead.gpu_id}'s {layout}"
                )
        lead.ranks = tuple(ranks)
        self._relink(lead)
        self._regroup()

    def arm_fault_injector(self, injector) -> None:
        """Attach a fault injector, simulating every rank on its own.

        Faults skew the ranks, so any rank mirroring is undone.  That is
        only possible before a command reached a mirrored group.
        """
        if self._mirrored:
            raise ConfigError(
                "arm the fault injector before submitting work: commands "
                "already run rank-mirrored"
            )
        for g in self.gpus:
            g.ranks = (g.gpu_id,)
            self._relink(g)
        self._regroup()
        self.fault_injector = injector

    def _regroup(self) -> None:
        self._devices = [g for g in self.gpus if g.device is g]
        self.groups = tuple(g.ranks for g in self._devices)

    def _relink(self, device: Gpu) -> None:
        """Make ``device`` the lead of the ranks in its ``ranks``."""
        for rank in device.ranks:
            g = self.gpus[rank]
            g.device = device
            if g is device:
                for s in g.streams:
                    s.lead = None
            else:
                g.ranks = ()
                for lead_stream, stream in zip(device.streams, g.streams):
                    stream.lead = lead_stream

    # ------------------------------------------------------------------
    # Command submission (host side)
    # ------------------------------------------------------------------
    def submit(self, stream: Stream, command: Union[Kernel, Command]) -> None:
        """Enqueue a stamped kernel or command; a pump is scheduled only
        when one is needed.

        A pump at the entry's availability instant is scheduled *eagerly*
        only when the stream was idle — otherwise something ahead of it
        still has to retire, and each retirement already triggers a pump;
        if that pump finds this entry waiting at the head it schedules the
        availability pump *lazily* at the pre-stamped ``pump_at``, which
        makes the skipped eager pumps pure no-ops.

        An entry on a mirrored group's lead stream runs for every rank of
        the group.  A follower rank's stream takes none (see
        :meth:`mirror_ranks`), and a kernel already queued, ready or
        resident is not launched again: both raise
        :class:`~repro.errors.SimulationError` before anything changes.
        """
        _check_issuable(stream)
        if command.__class__ is Kernel:
            if command.stream is not None:
                raise _in_flight(command, stream)
            command.stream = stream
        self._enqueue(stream, command)

    def _enqueue(self, stream: Stream, command: Union[Kernel, Command]) -> None:
        if len(self.gpus[stream.gpu_id].ranks) > 1:
            self._mirrored = True
        was_idle = stream.idle
        stream.queue.append(command)
        now = self.engine.now
        delay = command.available_at - now
        if delay <= _EPS:
            command.pump_at = now
            if was_idle:
                self._schedule_pump(stream.gpu_id, 0.0)
        else:
            command.pump_at = now + delay
            if was_idle:
                self._schedule_avail_pump(stream, command.pump_at)

    def submit_many(
        self, stream: Stream, kernels: Sequence[Kernel], start: float, cost: float
    ) -> float:
        """Launch a run of kernels on one stream, in order, the first at
        ``start + cost``; returns the last stamp (``start`` if none).

        Equal to :meth:`launch` once per kernel, each stamped ``cost``
        after the one before: only the first can find the stream idle and
        arm a pump.  A run holding a kernel in flight (or one kernel
        twice) raises :class:`~repro.errors.SimulationError` with nothing
        launched.
        """
        _check_issuable(stream)
        now = self.engine.now
        at = start
        for i, kernel in enumerate(kernels):
            if kernel.stream is not None:
                error = _in_flight(kernel, stream)
                for claimed in kernels[:i]:
                    claimed.stream = None
                raise error
            kernel.stream = stream
            at += cost
            kernel.available_at = at
            delay = at - now
            kernel.pump_at = now if delay <= _EPS else now + delay
        if kernels:
            if len(self.gpus[stream.gpu_id].ranks) > 1:
                self._mirrored = True
            was_idle = stream.idle
            stream.queue.extend(kernels)
            if was_idle:
                first = kernels[0]
                if first.available_at - now <= _EPS:
                    self._schedule_pump(stream.gpu_id, 0.0)
                else:
                    self._schedule_avail_pump(stream, first.pump_at)
        return at

    def launch(self, stream: Stream, kernel: Kernel, available_at: float) -> None:
        """Convenience: submit ``kernel`` stamped ``available_at`` (a kernel
        in flight keeps its stamp)."""
        if kernel.stream is None:
            kernel.available_at = available_at
        self.submit(stream, kernel)

    def record_event(self, stream: Stream, event: CudaEvent, available_at: float) -> None:
        """Convenience: submit a RECORD_EVENT command."""
        self.submit(stream, Command(_RECORD_EVENT, available_at, event))

    def wait_event(self, stream: Stream, event: CudaEvent, available_at: float) -> None:
        """Convenience: submit a WAIT_EVENT command."""
        self.submit(stream, Command(_WAIT_EVENT, available_at, event))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, *, check_quiescent: bool = True) -> float:
        """Drive the engine; verify no stranded work unless ``until`` given."""
        end = self.engine.run(until=until)
        if check_quiescent and until is None:
            stuck = self.stuck_summary()
            if stuck:
                raise DeadlockError(
                    "simulation quiesced with pending work: " + "; ".join(stuck[:8])
                )
        return end

    def stuck_summary(self) -> List[str]:
        """Describe every piece of work currently unable to make progress.

        Used by the quiescence check above to name the stuck
        streams/kernels in its diagnostics.  Follower ranks are named rank
        by rank, through their group.
        """
        stuck = [
            self._describe_stream(s)
            for g in self.gpus
            for s in g.streams
            if not s.idle
        ]
        stuck += [
            f"ready:{rank_name(kern.name, g.gpu_id, g.device.gpu_id)}"
            for g in self.gpus
            for kern in g.device.ready
        ]
        for crun in self._collectives.values():
            if not crun.started:
                missing = sorted(set(crun.op.participants) - set(crun.members))
                stuck.append(
                    f"collective:{crun.op.name} awaiting ranks {missing}"
                )
        return stuck

    def _describe_stream(self, stream: Stream) -> str:
        lead = stream.lead or stream
        rank, lead_id = stream.gpu_id, lead.gpu_id
        running, blocked = lead.running_kernel, lead.blocked_on_event
        return stream.describe(
            None if running is None else rank_name(running.name, rank, lead_id),
            None if blocked is None else rank_name(blocked.name, rank, lead_id),
            len(lead.queue),
        )

    # ------------------------------------------------------------------
    # Pumping: advance stream heads into the ready set
    # ------------------------------------------------------------------
    def _schedule_pump(self, gpu_id: int, delay: float = 0.0) -> None:
        # Collapse same-time pumps: one outstanding zero-delay pump per GPU.
        if delay <= _EPS:
            if self._pump_scheduled.get(gpu_id):
                return
            self._pump_scheduled[gpu_id] = True
            delay = 0.0
        self.engine.schedule(delay, self._run_pump_fns[gpu_id], priority=5)

    def _schedule_avail_pump(self, stream: Stream, pump_at: float) -> None:
        """Arm one pump at ``pump_at``, a head command's (dedup'd per stream
        head)."""
        if stream.avail_pump_at == pump_at:
            return
        stream.avail_pump_at = pump_at
        self.engine.schedule_at(pump_at, self._run_pump_fns[stream.gpu_id], priority=5)

    def _run_pump(self, gpu_id: int) -> None:
        self._pump_scheduled[gpu_id] = False
        if self._pump(self.gpus[gpu_id]):
            self._reschedule()

    def _pump(self, gpu: Gpu) -> bool:
        """Advance every stream on ``gpu`` as far as dependencies allow.

        The sweep processes at most one entry per stream per pass — the
        per-pass round-robin is load-bearing, because ``ready_seq`` (and
        with it same-instant admission order) follows pop order.  A popped
        kernel becomes ready with a fresh kernel's run state.  Returns
        whether a kernel was admitted; rescheduling is the caller's job
        (see :meth:`_reschedule`).  On a mirrored device each retired
        entry stands for every rank of the group.
        """
        now = self.engine.now
        threshold = now + _EPS
        streams = gpu.streams
        progressed = True
        while progressed:
            progressed = False
            for stream in streams:
                if stream.running_kernel is not None:
                    continue
                blocked = stream.blocked_on_event
                if blocked is not None:
                    if blocked.is_recorded:
                        stream.blocked_on_event = None
                    else:
                        continue
                queue = stream.queue
                if not queue:
                    continue
                cmd = queue[0]
                if cmd.available_at > threshold:
                    # Not yet visible: make sure a pump fires at availability
                    # (the eager submit-time pump is elided for busy streams).
                    self._schedule_avail_pump(stream, cmd.pump_at)
                    continue
                queue.popleft()
                if cmd.__class__ is Kernel:
                    # A launch.  Its stream now runs it, and no other
                    # stream's head changed: it needs no further pass.
                    stream.running_kernel = cmd
                    cmd.ready_seq = next(self._ready_seq)
                    cmd.ready_at = now
                    cmd.start_at = -1.0
                    cmd.remaining = 0.0
                    cmd.slowdown = 1.0
                    cmd.contention = 1.0
                    gpu.ready.append(cmd)
                elif cmd.kind is _RECORD_EVENT:
                    # This device's own waiters are unblocked by the next
                    # pass of this sweep, so only other devices get a kick.
                    cmd.event.record(
                        now, self._deferred, self._kick_pump_fns[gpu.gpu_id]
                    )
                    progressed = True
                else:  # WAIT_EVENT
                    event = cmd.event
                    if event.is_recorded:
                        progressed = True
                    else:
                        stream.blocked_on_event = event
                        event.add_stream_waiter(self._kick_pump_fns[gpu.gpu_id])
        return self._try_admit(gpu)

    def _deferred(self, delay: float, callback: Callable[[], None]) -> None:
        """Deferred-call hook handed to CudaEvent.record."""
        self.engine.schedule(delay, callback, priority=4)

    # ------------------------------------------------------------------
    # Admission: the left-over policy
    # ------------------------------------------------------------------
    @staticmethod
    def _admission_key(kern: Kernel):
        # Earlier-ready first; at the same instant compute-like kernels are
        # admitted before communication kernels (the GPU's left-over policy
        # favours computation regardless of stream priority); then stream
        # priority, then launch order.
        return (
            kern.ready_at,
            0 if kern.kind.is_compute_like else 1,
            -kern.stream.priority,
            kern.ready_seq,
        )

    def _try_admit(self, gpu: Gpu) -> bool:
        """Admit ready kernels under the left-over policy; True if any was."""
        ready = gpu.ready
        if not ready:
            return False
        # A completion callback has banked progress at this instant already.
        if self._last_bank_time != self.engine.now:
            self._bank_progress()
        if len(ready) > 1:
            ready.sort(key=self._admission_key)
        still_ready: List[Kernel] = []
        for kern in ready:
            if gpu.used_occupancy + kern.occupancy <= 1.0 + _EPS:
                self._admit(gpu, kern)
            else:
                still_ready.append(kern)
        gpu.ready = still_ready
        return len(still_ready) < len(ready)

    def _admit(self, gpu: Gpu, kernel: Kernel) -> None:
        now = self.engine.now
        kernel.start_at = now
        kernel.remaining = kernel.duration
        gpu.resident[kernel] = None
        gpu.used_occupancy += kernel.occupancy
        gpu.dirty = True
        coll = kernel.collective
        if coll is None:
            gpu.active_local[kernel] = None
            return
        crun = self._collectives.get(coll)
        if crun is None:
            crun = self._collectives[coll] = _CollectiveRun(
                op=coll, remaining=coll.duration
            )
        members = crun.members
        for rank in gpu.ranks:
            if rank in members:
                raise SimulationError(
                    f"collective {coll.name}: duplicate member on GPU {rank}"
                )
            members[rank] = kernel
        participants = coll.participants
        if len(members) == len(participants) and set(members) == set(participants):
            crun.started_at = now

    # ------------------------------------------------------------------
    # Progress integration
    # ------------------------------------------------------------------
    def _bank_progress(self) -> None:
        """Integrate elapsed progress at the current slowdowns."""
        now = self.engine.now
        dt = now - self._last_bank_time
        self._last_bank_time = now
        if dt <= _EPS:
            return
        for gpu in self._devices:
            for kern in gpu.active_local:
                rem = kern.remaining - dt / kern.slowdown
                kern.remaining = rem if rem > 0.0 else 0.0
        if self._collectives:
            for crun in self._collectives.values():
                if crun.started_at >= 0.0:
                    rem = crun.remaining - dt / crun.slowdown
                    crun.remaining = rem if rem > 0.0 else 0.0

    def _refresh_contention(self, gpu: Gpu) -> None:
        """Store each resident's clamped contention slowdown on the kernel.

        A lone kernel gets exactly 1.0 without consulting the model — the
        :meth:`ContentionModel.slowdowns` contract.  The ≥ 1.0 clamp defends
        against custom models that would accelerate kernels.  When the model
        declares shape purity, the slowdown vector is memoized by the
        resident kernels' shapes — new kernels with recurring shapes (the
        steady-decode pattern) skip the model entirely.
        """
        gpu.dirty = False
        resident = gpu.resident
        if len(resident) == 1:
            for kern in resident:
                kern.contention = 1.0
            return
        kernels = list(resident)
        if self._contention_pure_in_shape:
            shape = tuple(
                [(k.kind, k.occupancy, k.memory_intensity) for k in kernels]
            )
            values = self._shape_cache.get(shape)
            if values is None:
                values = tuple(self.contention.slowdowns(kernels))
                self._shape_cache[shape] = values
                if len(self._shape_cache) > _SHAPE_CACHE_LIMIT:
                    self._shape_cache.clear()
        else:
            values = self.contention.slowdowns(kernels)
        for kern, slow in zip(kernels, values):
            kern.contention = 1.0 if slow < 1.0 else slow

    def refresh_rates(self) -> None:
        """Re-bank progress and recompute slowdowns at the current instant.

        The fault injector calls this at every fault-window boundary so that
        elapsed progress is banked at the *old* rates before the new
        inflation factors apply — the same piecewise integration contract the
        contention model relies on.
        """
        self._bank_progress()
        self._reschedule()

    def _reschedule(self) -> None:
        """Recompute rates and (re)arm the single completion timer.

        One fused pass over the active sets: contention slowdowns (stored on
        the kernels, refreshed only on devices whose resident set
        changed), fault inflation (never stored), and the min-scan for the
        next completion instant.  This is the hottest path in the simulator
        under steady-state decode.

        Runs once per machine callback that changed a resident set: a pump
        event reschedules only if it admitted something, and a completion
        callback pumps every touched device first and reschedules after the
        last pump (see ``docs/INTERNALS.md`` §1 for why that is
        bit-identical to rescheduling after every admission).
        """
        inj = self.fault_injector
        next_dt: Optional[float] = None
        for gpu in self._devices:
            if not gpu.resident:
                continue
            if gpu.dirty:
                self._refresh_contention(gpu)
            for kern in gpu.active_local:
                slow = kern.contention
                if inj is not None:
                    slow *= inj.kernel_inflation(kern, gpu.gpu_id)
                kern.slowdown = slow
                dt = kern.remaining * slow
                if next_dt is None or dt < next_dt:
                    next_dt = dt
        for crun in self._collectives.values():
            if crun.started_at < 0.0:
                continue
            slow = None
            for gid, kern in crun.members.items():
                member = kern.contention
                if inj is not None:
                    member *= inj.kernel_inflation(kern, gid)
                if slow is None or member > slow:
                    slow = member
            slow = 1.0 if slow is None else slow
            crun.slowdown = slow
            dt = crun.remaining * slow
            if next_dt is None or dt < next_dt:
                next_dt = dt
        if self._completion_timer is not None:
            self._completion_timer.cancel()
            self._completion_timer = None
        if next_dt is not None:
            self._completion_timer = self.engine.schedule(
                next_dt if next_dt > 0.0 else 0.0,
                self._on_completion_timer,
                priority=1,
            )

    def _on_completion_timer(self) -> None:
        self._completion_timer = None
        self._bank_progress()
        now = self.engine.now

        # Due compute-like kernels as (device, kernels) in device order,
        # each device's in admission order; due COMM kernels, each a whole
        # group's collective, in device then admission order.
        due_locals: List[Tuple[Gpu, List[Kernel]]] = []
        due_comms: List[Kernel] = []
        for gpu in self._devices:
            due = None
            for kern in gpu.active_local:
                if kern.remaining <= _EPS:
                    if kern.kind is _COMM:
                        due_comms.append(kern)
                    elif due is None:
                        due = [kern]
                        due_locals.append((gpu, due))
                    else:
                        due.append(kern)
        # Due rendezvous collectives, in first-admission order.
        due_runs = [
            crun
            for crun in self._collectives.values()
            if crun.started_at >= 0.0 and crun.remaining <= _EPS
        ] if self._collectives else ()
        for crun in due_runs:
            del self._collectives[crun.op]
        if due_locals:
            trace = self.trace
            if trace is not None:
                # One row per rank, in per-rank order: GPU id, then
                # admission order within the GPU.
                for g in self.gpus:
                    for device, due in due_locals:
                        if device is g.device:
                            rank, lead = g.gpu_id, device.gpu_id
                            for kern in due:
                                trace.record_kernel(
                                    kern, now, rank, rank_name(kern.name, rank, lead)
                                )
            # Devices in lead order.  A lone due kernel is released and
            # observed once for its group; co-due kernels are released and
            # observed by the lead lane, then the other lanes' calls follow
            # as one call per kernel (see mirror_ranks for why the order is
            # exact).
            observers = self._completion_observers
            for device, due in due_locals:
                ranks = len(device.ranks)
                self.kernels_completed += len(due) * ranks
                if len(due) == 1:
                    kern = due[0]
                    self._release(kern)
                    for fn in observers:
                        fn(kern, now, ranks)
                    continue
                for kern in due:
                    self._release(kern)
                    for fn in observers:
                        fn(kern, now, 1)
                if ranks > 1:
                    ranks -= 1
                    for kern in due:
                        for fn in observers:
                            fn(kern, now, ranks)
        # Collectives after every compute-like kernel: the whole groups'
        # COMM kernels, then the rendezvous.
        for kern in due_comms:
            self._complete_collective((kern,), now)
        for crun in due_runs:
            members = [
                kern for rank, kern in crun.members.items()
                if rank == kern.stream.gpu_id
            ]
            self._complete_collective(members, now)

        # Every pump below runs at the same instant, so progress banking
        # between them is a no-op and one reschedule after the last covers
        # them all.  The devices a release touched are pumped in id order.
        for gpu in self._devices:
            if gpu.touched:
                gpu.touched = False
                self._pump(gpu)
        self._reschedule()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _release(self, kernel: Kernel) -> None:
        """Take a due kernel off its device and stream; it is no longer in
        flight, so it may be launched again."""
        stream = kernel.stream
        gpu = self.gpus[stream.gpu_id]
        del gpu.resident[kernel]
        gpu.active_local.pop(kernel, None)
        used = gpu.used_occupancy - kernel.occupancy
        gpu.used_occupancy = used if used > 0.0 else 0.0
        gpu.dirty = True
        gpu.touched = True
        if stream.running_kernel is kernel:
            stream.running_kernel = None
        kernel.stream = None

    def _complete_collective(self, members: Sequence[Kernel], now: float) -> None:
        """Retire a due collective given its member kernels, one per rank
        group in member order: a whole group's COMM kernel, or a
        rendezvous's members.  Each member's group gets one trace row per
        rank, in rank order, and one observer call with its rank count."""
        trace = self.trace
        gpus = self.gpus
        counts = []
        for kern in members:
            lead = kern.stream.gpu_id
            ranks = gpus[lead].ranks
            counts.append(len(ranks))
            if trace is not None:
                for rank in ranks:
                    trace.record_kernel(
                        kern, now, rank, rank_name(kern.name, rank, lead)
                    )
            self._release(kern)
        self.kernels_completed += sum(counts)
        for fn in self._completion_observers:
            for kern, count in zip(members, counts):
                fn(kern, now, count)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def all_idle(self) -> bool:
        """True when every stream on every GPU is fully drained."""
        return all(g.all_idle() for g in self.gpus) and not self._collectives
