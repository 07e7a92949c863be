"""Kernel and collective-operation descriptors.

A :class:`Kernel` is the unit the whole system schedules: Liger's function
assembly produces lists of them, Algorithm 1 partitions those lists into
subsets, and the simulator executes them on GPU streams.  A kernel carries
exactly the metadata the paper's function wrappers carry (§3.2): the kernel
type, its (no-load) duration, and batch/shape context — plus the resource
footprint the simulator needs for the left-over admission policy and the
contention model.

Collective communication kernels (all-reduce, point-to-point) are *grouped*:
one :class:`CollectiveOp` owns a member kernel per participating GPU, and the
simulator applies rendezvous semantics — no member makes progress until every
member has been admitted on its device, and all members complete at the same
instant.  This reproduces the real NCCL behaviour that makes communication
kernels sensitive to per-rank launch skew (§4.5).  Ranks simulated as one
group cannot skew, so a collective such a group holds whole is a plain COMM
kernel with no :class:`CollectiveOp`
(:func:`~repro.parallel.base.instantiate_op`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - the stream module imports this one
    from repro.sim.stream import Stream

__all__ = ["KernelKind", "Kernel", "CollectiveOp", "CollectiveKind"]


class KernelKind(enum.Enum):
    """The coarse kernel taxonomy the scheduler reasons about.

    The paper's scheduler distinguishes only computation vs communication
    (the type-switch points in Algorithm 1).  ``MEMORY`` covers device-local
    copies (KV-cache appends) and ``AUX`` covers negligible bookkeeping; both
    schedule like computation.
    """

    COMPUTE = "compute"
    COMM = "comm"
    MEMORY = "memory"
    AUX = "aux"

    # Members compare by identity, so they may hash by it too: C-level
    # ``object.__hash__`` instead of Enum's Python-level hash of the name.
    # The machine's shape memo hashes a kind per resident on every lookup.
    __hash__ = object.__hash__

    @property
    def is_comm(self) -> bool:
        return self is KernelKind.COMM

    @property
    def is_compute_like(self) -> bool:
        return self is not KernelKind.COMM


class CollectiveKind(enum.Enum):
    """Which collective a COMM kernel group implements."""

    ALL_REDUCE = "all_reduce"
    P2P = "p2p"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"

    # Identity hash, as for KernelKind: the collective cost model's duration
    # memo hashes a kind on every instantiation.
    __hash__ = object.__hash__


@dataclass(slots=True, eq=False)
class Kernel:
    """One GPU kernel instance, equal and hashed by identity.

    A kernel is also its own launch: a stream queues the kernel itself, and
    the machine keeps its launch stamps and run state (the slots after
    ``resource_class``) on it, so it is in flight on one stream at a time.

    Parameters
    ----------
    name:
        Human-readable kernel name, e.g. ``"qkv_gemm[L12]"``.
    kind:
        Scheduler-visible taxonomy (see :class:`KernelKind`).
    duration:
        No-load execution time in µs — what offline profiling reports.  The
        simulator stretches this when contention applies.
    occupancy:
        Fraction of the device's SMs the kernel occupies while resident
        (0 < occupancy ≤ 1).  Drives the left-over admission policy: a kernel
        is admitted only when the sum of resident occupancies stays ≤ 1.
    memory_intensity:
        Fraction of HBM bandwidth the kernel consumes while running (0..1);
        feeds the memory-interference term of the contention model.
    flops / bytes:
        Work metadata from the cost model; informational (used by reports and
        decomposition heuristics, never by the executor).
    batch_id:
        Serving-side batch this kernel belongs to (−1 for infrastructure).
    layer / op:
        Model position metadata, e.g. layer index and operator name.
    collective:
        The owning :class:`CollectiveOp` when this is a collective member.
    decomposable:
        Whether runtime kernel decomposition (§3.6) may split this kernel.
    policy / resource_class:
        Scheduling provenance for trace rows: the Liger runtime writes them
        only when the machine is traced (``""`` otherwise).
    """

    name: str
    kind: KernelKind
    duration: float
    occupancy: float = 0.9
    memory_intensity: float = 0.5
    flops: float = 0.0
    bytes: float = 0.0
    batch_id: int = -1
    layer: int = -1
    op: str = ""
    collective: Optional["CollectiveOp"] = None
    decomposable: bool = False
    policy: str = ""
    resource_class: str = ""
    # Owned by the machine.  ``stream`` is the stream the kernel is queued,
    # ready or resident on (None when not in flight); on a mirrored group
    # it is the lead's, and the state stands for every rank.
    stream: Optional["Stream"] = field(default=None, init=False)
    ready_seq: int = field(default=0, init=False)
    ready_at: float = field(default=0.0, init=False)
    start_at: float = field(default=-1.0, init=False)
    remaining: float = field(default=0.0, init=False)
    slowdown: float = field(default=1.0, init=False)
    #: Clamped contention slowdown from the device's resident set, without
    #: fault inflation; refreshed only after the resident set changes.
    contention: float = field(default=1.0, init=False)
    available_at: float = field(default=0.0, init=False)  # see Stream
    pump_at: float = field(default=0.0, init=False)  # see Command

    def __post_init__(self) -> None:
        check_kernel_profile(
            self.name, self.duration, self.occupancy, self.memory_intensity
        )

    @property
    def is_comm(self) -> bool:
        return self.kind.is_comm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel({self.name} {self.kind.value} "
            f"{self.duration:.1f}us occ={self.occupancy:.2f} b={self.batch_id})"
        )


def check_kernel_profile(
    name: str, duration: float, occupancy: float, memory_intensity: float
) -> None:
    """Raise :class:`ConfigError` unless the values are valid Kernel fields."""
    if duration < 0:
        raise ConfigError(f"kernel {name}: negative duration")
    if not 0.0 < occupancy <= 1.0:
        raise ConfigError(
            f"kernel {name}: occupancy must be in (0, 1], got {occupancy}"
        )
    if not 0.0 <= memory_intensity <= 1.0:
        raise ConfigError(f"kernel {name}: memory_intensity must be in [0, 1]")


def kernel_from_profile(
    name, kind, duration, occupancy, memory_intensity, nbytes, batch_id,
    layer, op, collective, decomposable,
) -> Kernel:
    """Slot-copy constructor: a :class:`Kernel` that skips ``__post_init__``.

    Only for values that already passed :func:`check_kernel_profile` — once
    per profile entry, not once per kernel.  This is how every simulator
    kernel of an instantiated op is built (``flops`` = 0).
    """
    kern = _new_kernel(Kernel)
    kern.name = name
    kern.kind = kind
    kern.duration = duration
    kern.occupancy = occupancy
    kern.memory_intensity = memory_intensity
    kern.bytes = nbytes
    kern.batch_id = batch_id
    kern.layer = layer
    kern.op = op
    kern.collective = collective
    kern.decomposable = decomposable
    kern.policy = kern.resource_class = ""
    kern.stream = None
    kern.ready_seq = 0
    kern.start_at = -1.0
    kern.slowdown = kern.contention = 1.0
    kern.flops = kern.ready_at = kern.remaining = 0.0
    kern.available_at = kern.pump_at = 0.0
    return kern


_new_kernel = Kernel.__new__


@dataclass(slots=True, eq=False)
class CollectiveOp:
    """A group of COMM kernels executing one collective across GPUs, equal
    and hashed by identity.

    Rendezvous semantics are enforced by the machine: the op *starts* when
    the last member kernel is admitted on its GPU, progresses at the rate of
    its slowest member (contention on any one device slows the whole ring),
    and all members complete together.
    """

    kind: CollectiveKind
    bytes: float
    participants: List[int]
    duration: float
    batch_id: int = -1
    name: str = ""
    members: Dict[int, Kernel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_collective(self.participants, self.duration)
        if not self.name:
            self.name = self.kind.value

    def make_member(
        self,
        gpu: int,
        *,
        occupancy: float,
        memory_intensity: float = 0.4,
        layer: int = -1,
        op: str = "",
    ) -> Kernel:
        """Create (and register) the member kernel for one GPU."""
        if gpu not in self.participants:
            raise ConfigError(f"GPU {gpu} is not a participant of {self.name}")
        if gpu in self.members:
            raise ConfigError(f"{self.name} already has a member on GPU {gpu}")
        kernel = Kernel(
            name=f"{self.name}@g{gpu}",
            kind=KernelKind.COMM,
            duration=self.duration,
            occupancy=occupancy,
            memory_intensity=memory_intensity,
            bytes=self.bytes,
            batch_id=self.batch_id,
            layer=layer,
            op=op or self.kind.value,
            collective=self,
        )
        self.members[gpu] = kernel
        return kernel

    @property
    def complete_membership(self) -> bool:
        """True once every participant has a member kernel created."""
        return set(self.members) == set(self.participants)


def check_collective(participants: List[int], duration: float) -> None:
    """Raise :class:`ConfigError` unless the values are valid CollectiveOp fields."""
    if len(participants) < 1:
        raise ConfigError("collective needs at least one participant")
    if len(set(participants)) != len(participants):
        raise ConfigError("collective participants must be distinct")
    if duration < 0:
        raise ConfigError("collective duration must be >= 0")


def collective_from_profile(
    kind, nbytes, participants, leads, duration, occupancy, memory_intensity,
    batch_id, layer, name, op,
) -> CollectiveOp:
    """Slot-copy constructor: a :class:`CollectiveOp` with one member kernel
    per rank in ``leads``, in that order, skipping every ``__post_init__``.

    ``leads`` are the participants that are issued a member: all of them,
    or under rank mirroring each group's lead, whose member stands for its
    whole group.  Only for values that passed :func:`check_collective` and
    :func:`check_kernel_profile`, and a non-empty ``name``.
    """
    coll = _new_collective(CollectiveOp)
    coll.kind = kind
    coll.bytes = nbytes
    coll.participants = participants
    coll.duration = duration
    coll.batch_id = batch_id
    coll.name = name
    coll.members = members = {}
    comm = KernelKind.COMM
    for gpu in leads:
        members[gpu] = kernel_from_profile(
            f"{name}@g{gpu}", comm, duration, occupancy, memory_intensity,
            nbytes, batch_id, layer, op, coll, False,
        )
    return coll


_new_collective = CollectiveOp.__new__
