"""The parallel-strategy interface shared by the baselines and Liger.

A :class:`ParallelStrategy` turns arriving :class:`~repro.serving.request.Batch`
objects into simulator kernels on the machine's streams.  The serving server
(:mod:`repro.serving.server`) owns the clock: it calls
:meth:`ParallelStrategy.submit_batch` at each batch's arrival time, and the
strategy reports completions through registered callbacks.

Work is issued per rank group (:attr:`~repro.sim.gpu.Machine.groups`):
ranks that run the same command sequence share one kernel, issued to the
group lead's streams, and :func:`instantiate_op` builds one kernel per
group (:func:`instantiate_run`: one group's kernels for a run of ops, in
one pass).  Completion detection is uniform and per rank: every simulator
kernel carries its ``batch_id``; the strategy counts each batch's kernels
once per rank that runs them, and an
:meth:`~repro.sim.gpu.Machine.on_kernel_complete` observer subtracts the
ranks each completion retires — when the count hits zero the batch is done.

Every strategy reads a batch's work through
:meth:`ParallelStrategy.launch_list`: one immutable :class:`KernelFunc`
record per op, holding the op and everything the offline profile knows
about its kernel (§3.2's function wrapper).  The tuple is cached by batch
shape, LRU-bounded at :data:`CACHE_SIZE` shapes, and shared by every batch
of that shape, so a recurring shape neither re-walks the model nor asks the
profiler again; :func:`instantiate_op` builds kernels straight from a
record.  The cache lives here, not in :mod:`repro.core`, because an
Intra-Op run must not import Liger's runtime.
"""

from __future__ import annotations

import abc
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, SimulationError
from repro.hw.devices import NodeSpec
from repro.models.kvcache import decode_step_ops
from repro.models.ops import OpDesc
from repro.models.specs import ModelSpec
from repro.models.transformer import prefill_ops
from repro.profiling.profiler import OpProfiler
from repro.serving.request import Batch, Phase
from repro.sim.gpu import Machine
from repro.sim.host import Host
from repro.sim.kernel import CollectiveKind, Kernel, KernelKind, kernel_from_profile
from repro.sim.memory import NodeMemoryModel

__all__ = [
    "ParallelStrategy", "KernelFunc", "instantiate_op", "instantiate_run", "CACHE_SIZE",
]

#: Batch shapes a strategy's launch-list cache keeps before evicting the
#: least recently used.
CACHE_SIZE = 128

BatchCallback = Callable[[Batch, float], None]

_COLLECTIVE_KINDS = {kind.value: kind for kind in CollectiveKind}

#: The op flavours a rank group instantiates as a rendezvous collective, by
#: whether the group holds the profiler's ranks whole: then only a p2p,
#: whose endpoints are not a group; otherwise every collective.
_RENDEZVOUS = {True: frozenset({"p2p"}), False: frozenset(_COLLECTIVE_KINDS)}


@dataclass(slots=True)
class KernelFunc:
    """One kernel launch wrapper (the paper's function-wrapper record).

    The op plus its offline profile: the no-load duration the scheduler
    plans with, the kernel type, whether §3.6 may split it, and the SM
    occupancy and memory intensity its kernels run with.  Records carry no
    batch identity, so one record serves every batch of its shape, and
    nothing writes to a record once it is built.  (Not ``frozen``: that
    would triple the cost of building one, on every cache miss and §3.6
    split.)
    """

    op: OpDesc
    duration: float           # profiled no-load duration (µs)
    kind: KernelKind
    decomposable: bool
    occupancy: float
    memory_intensity: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigError(f"{self.op.name}: negative profiled duration")

    @property
    def is_comm(self) -> bool:
        return self.kind is KernelKind.COMM

    @classmethod
    def profiled(cls, op: OpDesc, profiler: OpProfiler) -> "KernelFunc":
        """The record of ``op`` as ``profiler`` measures it."""
        duration, occupancy, mem = profiler.kernel_profile(op)
        if duration is None:  # a collective: priced per instance
            duration = profiler.duration(op)
        return cls(op, duration, op.kind, op.decomposable, occupancy, mem)


def instantiate_op(
    func: KernelFunc,
    groups: Sequence[Sequence[int]],
    batch_id: int,
    profiler: OpProfiler,
) -> List[Kernel]:
    """Materialise one op record as simulator kernels, one per rank group.

    ``groups`` are rank groups as :attr:`~repro.sim.gpu.Machine.groups`
    lists them, each led by its first rank; the result holds the kernel
    issued for each group, in ``groups`` order, named for its lead.
    Compute-like ops become independent per-group kernel clones (each
    device executes its shard) of the record's profile.  An
    ``all_reduce`` / ``all_to_all`` that one group holds whole — the
    group's ranks are the profiler's ``participants`` — is one plain COMM
    kernel at the record's duration, which the profiler priced over those
    ranks (§3.1: the all-reduce is just another kernel); otherwise it
    becomes a rendezvous collective over every rank of ``groups``, with
    one member per lead, and ``p2p`` a two-member collective over its
    endpoints, source first.  Those are costed by the collective cost
    model.
    """
    if not groups:
        raise ConfigError(f"op {func.op.name}: no target GPUs")
    whole = len(groups) == 1 and groups[0] == profiler.participants
    if func.op.op in _RENDEZVOUS[whole]:
        return _rendezvous(func, groups, batch_id, profiler)
    kernels = []
    for group in groups:
        kernels.append(_group_kernel(func, f"_b{batch_id}@g{group[0]}", batch_id))
    return kernels


def instantiate_run(
    funcs: Sequence[KernelFunc],
    group: Sequence[int],
    batch_id: int,
    profiler: OpProfiler,
) -> List[Kernel]:
    """Materialise a run of op records as one rank group's kernels, in one
    pass: one kernel per record, in order.

    Kernel ``i`` equals ``instantiate_op(funcs[i], [group], batch_id,
    profiler)[0]`` in every slot, by the same per-record rule, without an
    :func:`instantiate_op` call, a name format and a result list per
    record.  A strategy builds a whole batch, or a pipeline stage, for one
    group this way.  A record that needs a rendezvous contributes the
    collective's first member (a p2p's source).
    """
    suffix = f"_b{batch_id}@g{group[0]}"
    rendezvous = _RENDEZVOUS[group == profiler.participants]
    kernels = []
    append = kernels.append
    for func in funcs:
        if func.op.op in rendezvous:
            append(_rendezvous(func, [group], batch_id, profiler)[0])
        else:
            append(_group_kernel(func, suffix, batch_id))
    return kernels


def _group_kernel(func: KernelFunc, suffix: str, batch_id: int) -> Kernel:
    """The per-record rule for a record that needs no rendezvous: one
    group's kernel, named ``op.name + suffix``.  A compute-like op's is a
    clone of the record's profile; a collective's — an all-reduce /
    all-to-all that the group holds whole — is one plain COMM kernel at
    the record's duration."""
    op = func.op
    flavour = op.op
    if flavour in _COLLECTIVE_KINDS:
        nbytes, decomposable = op.comm_bytes, False
    else:
        nbytes, decomposable = 0.0, op.decomposable
    return kernel_from_profile(
        op.name + suffix, op.kind, func.duration, func.occupancy,
        func.memory_intensity, nbytes, batch_id, op.layer, flavour, None,
        decomposable,
    )


def _rendezvous(
    func: KernelFunc,
    groups: Sequence[Sequence[int]],
    batch_id: int,
    profiler: OpProfiler,
) -> List[Kernel]:
    """A collective record as a rendezvous over ``groups`` (a p2p over its
    endpoints), priced by the collective cost model: its members, one per
    lead, in ``groups`` order (a p2p's source first)."""
    op = func.op
    collective = _COLLECTIVE_KINDS[op.op]
    if collective is CollectiveKind.P2P:
        participants = leads = (op.p2p_src, op.p2p_dst)
    else:
        participants = [rank for group in groups for rank in group]
        leads = [group[0] for group in groups]
    coll = profiler.collectives.instantiate(
        collective, op.comm_bytes, participants, leads,
        func.occupancy, func.memory_intensity, batch_id, op.layer,
        f"{op.name}_b{batch_id}", op.op,
    )
    return list(coll.members.values())


class ParallelStrategy(abc.ABC):
    """Base class: model/node binding, batch bookkeeping, op construction.

    Subclasses implement :meth:`submit_batch` (and may override
    :meth:`bind` to create their stream layout).
    """

    #: Strategy identifier used by the serving API ("intra", "inter", ...).
    name: str = "base"

    #: Fraction of a batch's per-device workspace resident at any instant.
    #: 1.0 for tensor-parallel execution (the whole shard lives on every
    #: device for the batch's lifetime); pipelines override with
    #: ``1/num_stages`` (a batch occupies one stage at a time).
    memory_share: float = 1.0

    def __init__(
        self,
        model: ModelSpec,
        node: NodeSpec,
        *,
        profiler: Optional[OpProfiler] = None,
    ) -> None:
        self.model = model
        self.node = node
        self.profiler = profiler or OpProfiler(node)
        self.memory: Optional[NodeMemoryModel] = None
        self.machine: Optional[Machine] = None
        self.host: Optional[Host] = None
        self._callbacks: List[BatchCallback] = []
        self._pending_kernels: Dict[int, int] = {}
        self._open_batches: Dict[int, Batch] = {}
        self._closed_batches: set = set()
        self._memory_reserved: set = set()
        self.batches_completed = 0
        #: Launch lists by batch shape, least recently used first.
        self._launch_lists: "OrderedDict[Tuple, Tuple[KernelFunc, ...]]" = (
            OrderedDict()
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: Wall seconds spent enumerating and profiling on cache misses —
        #: the cost a hit avoids (exported as a perf gauge).
        self.build_seconds = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(
        self,
        machine: Machine,
        host: Host,
        *,
        track_memory: bool = True,
    ) -> None:
        """Attach to a machine/host pair; called once by the server.

        ``track_memory`` is the one place the memory-tracking mode is set:
        with it the strategy reserves each batch's workspace in its own
        :attr:`memory` ledger.  Servers that account memory at job
        granularity (the generation and lifecycle servers) bind with
        ``track_memory=False``.
        """
        if self.machine is not None:
            raise ConfigError(f"strategy {self.name} is already bound")
        if machine.node is not self.node:
            raise ConfigError("strategy node and machine node differ")
        self.track_memory = track_memory
        self.machine = machine
        self.host = host
        if self.track_memory:
            self.memory = NodeMemoryModel(self.model, self.node)
        machine.on_kernel_complete(self._on_kernel_complete)

    def on_batch_complete(self, cb: BatchCallback) -> None:
        """Register ``cb(batch, completion_time_us)``."""
        self._callbacks.append(cb)

    @abc.abstractmethod
    def submit_batch(self, batch: Batch) -> None:
        """Called by the server at the batch's arrival time."""

    # ------------------------------------------------------------------
    # Op construction
    # ------------------------------------------------------------------
    def launch_list(self, batch: Batch, tp: int, layers=None) -> Tuple[KernelFunc, ...]:
        """The per-device launch list this batch requires, one profiled
        record per op in issue order.

        Cached by ``(phase, size, seq_len, context_len, tp, layers)``,
        least recently used evicted past :data:`CACHE_SIZE` shapes.  The
        model and profiler are fixed for the strategy's lifetime, so the
        tuple equals a fresh enumeration profiled afresh; it is shared by
        every batch of the shape, and nobody writes to it or its records.
        """
        if layers is not None:
            layers = tuple(layers)
        key = (batch.phase, batch.size, batch.seq_len, batch.context_len, tp, layers)
        cache = self._launch_lists
        funcs = cache.get(key)
        if funcs is not None:
            cache.move_to_end(key)
            self.cache_hits += 1
            return funcs
        self.cache_misses += 1
        start = time.perf_counter()
        profiler = self.profiler
        funcs = tuple(
            KernelFunc.profiled(op, profiler)
            for op in self._enumerate_ops(batch, tp, layers)
        )
        self.build_seconds += time.perf_counter() - start
        cache[key] = funcs
        if len(cache) > CACHE_SIZE:
            cache.popitem(last=False)
            self.cache_evictions += 1
        return funcs

    def _enumerate_ops(self, batch: Batch, tp: int, layers) -> Sequence[OpDesc]:
        """Walk the model for one batch: its per-device ops under ``tp``."""
        if batch.phase is Phase.PREFILL:
            return prefill_ops(self.model, batch.size, batch.seq_len, tp, layers=layers)
        return decode_step_ops(self.model, batch.size, batch.context_len, tp, layers=layers)

    # ------------------------------------------------------------------
    # Completion tracking
    #
    # Two usage styles:
    #   * static (the baselines): ``track_batch(batch, n)`` — all kernels are
    #     known up front; the batch completes when n kernels retire.
    #   * dynamic (Liger): ``register_batch`` at submit, ``add_pending`` as
    #     kernels are launched round by round (runtime decomposition changes
    #     the count), ``close_batch`` when the batch's FuncVec drains.
    # ------------------------------------------------------------------
    def register_batch(self, batch: Batch) -> None:
        """Open a batch for dynamic kernel accounting.

        Device memory is *not* reserved here: a queued batch waits in host
        memory.  The workspace (and decode KV cache) is reserved lazily when
        the batch's first kernel retires — i.e. once it is actually
        executing — and released at completion, so backlog depth does not
        fictitiously exhaust HBM.

        Raises :class:`~repro.errors.ConfigError` on a batch no server has
        numbered (negative ``batch_id``): ids below 0 belong to the
        infrastructure kernels.
        """
        if batch.batch_id < 0:
            raise ConfigError(
                f"batch {batch.batch_id} is not numbered; a server numbers "
                "the batches it serves (Batch.number)"
            )
        if batch.batch_id in self._open_batches:
            raise ConfigError(f"batch {batch.batch_id} submitted twice")
        self._pending_kernels[batch.batch_id] = 0
        self._open_batches[batch.batch_id] = batch

    def _reserve_batch_memory(self, batch: Batch) -> None:
        if self.memory is None or batch.batch_id in self._memory_reserved:
            return
        self.memory.reserve_batch(
            batch.batch_id,
            batch.size,
            batch.seq_len,
            context=batch.context_len if batch.phase is Phase.DECODE else 0,
            share=self.memory_share,
        )
        self._memory_reserved.add(batch.batch_id)

    def add_pending(self, batch_id: int, num_kernels: int) -> None:
        """Account ``num_kernels`` newly-launched per-rank kernels for an
        open batch."""
        if batch_id not in self._open_batches:
            raise ConfigError(f"batch {batch_id} is not open")
        if num_kernels < 0:
            raise ConfigError("num_kernels must be >= 0")
        self._pending_kernels[batch_id] += num_kernels

    def close_batch(self, batch_id: int, time: float) -> None:
        """Mark that no further kernels will be launched for this batch."""
        if batch_id not in self._open_batches:
            raise ConfigError(f"batch {batch_id} is not open")
        self._closed_batches.add(batch_id)
        if self._pending_kernels[batch_id] == 0:
            self._retire_batch(batch_id, time)

    def track_batch(self, batch: Batch, num_kernels: int) -> None:
        """Static style: all ``num_kernels`` per-rank kernels known at
        submit time."""
        if num_kernels < 1:
            raise ConfigError(f"batch {batch.batch_id}: no kernels to track")
        self.register_batch(batch)
        self.add_pending(batch.batch_id, num_kernels)
        self._closed_batches.add(batch.batch_id)

    def _on_kernel_complete(self, kernel: Kernel, time: float, ranks: int) -> None:
        bid = kernel.batch_id
        remaining = self._pending_kernels.get(bid)
        if remaining is None:
            return  # infrastructure kernel or foreign batch
        if remaining < ranks:
            raise SimulationError(f"batch {bid}: completion underflow")
        # First retired kernel ⇒ the batch is executing: claim its workspace.
        if self.memory is not None and bid not in self._memory_reserved:
            self._reserve_batch_memory(self._open_batches[bid])
        remaining -= ranks
        self._pending_kernels[bid] = remaining
        if remaining == 0 and bid in self._closed_batches:
            self._retire_batch(bid, time)

    def _retire_batch(self, bid: int, time: float) -> None:
        batch = self._open_batches.pop(bid)
        del self._pending_kernels[bid]
        self._closed_batches.discard(bid)
        self.batches_completed += 1
        if self.memory is not None:
            self.memory.release_batch(bid)
            self._memory_reserved.discard(bid)
        self._finish_batch(batch, time)

    def _finish_batch(self, batch: Batch, time: float) -> None:
        """Hook: invoked when a batch's last kernel retires."""
        for cb in self._callbacks:
            cb(batch, time)

    # ------------------------------------------------------------------
    @property
    def inflight_batches(self) -> int:
        return len(self._open_batches)

    def open_batch_ids(self) -> List[int]:
        """Ids of batches submitted but not yet completed (diagnostics)."""
        return sorted(self._open_batches)

    def _require_bound(self) -> Machine:
        if self.machine is None or self.host is None:
            raise ConfigError(f"strategy {self.name} used before bind()")
        return self.machine
