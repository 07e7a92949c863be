"""Function assembly (§3.2): per-batch lists of kernel launch wrappers.

For each newly-arrived batch Liger assembles a list of *function wrappers*.
In the C++ prototype a wrapper holds the kernel launch function pointer plus
"the kernel duration, the kernel type, the batch size, and the sequence
length"; here a :class:`KernelFunc` holds the :class:`~repro.models.ops.OpDesc`
(the launchable), the profiled no-load duration, and the same metadata.  The
assembled :class:`FuncVec` is what Algorithm 1 consumes: it exposes
in-order peek and pop, and accepts push-front for decomposition remainders.
The paper's type-switch test (``FuncVec[0].switch()``) is the policy's key
compared on consecutive heads (:mod:`repro.core.policy`).

Assembly is a hot path under continuous batching — every decode iteration of
every batch re-enumerates the same op sequence and re-attaches the same
profiled durations.  :class:`FunctionAssembler` therefore memoizes assembled
function lists by batch *shape* ``(phase, size, seq_len, context_len)``: a
hit rebinds the cached wrappers to the new batch identity without touching
the op enumerator or the profiler.  Its LRU bound is the strategies' op-memo
bound, :data:`repro.parallel.base.CACHE_SIZE`.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro.errors import ConfigError
from repro.models.ops import OpDesc
from repro.parallel import base
from repro.profiling.profiler import OpProfiler
from repro.serving.request import Batch
from repro.sim.kernel import KernelKind

__all__ = ["KernelFunc", "FuncVec", "FunctionAssembler", "rebind"]


@dataclass(slots=True)
class KernelFunc:
    """One kernel launch wrapper (the paper's function-wrapper record)."""

    op: OpDesc
    duration: float           # profiled no-load duration (µs)
    kind: KernelKind
    batch_id: int
    batch_size: int
    seq_len: int
    decomposable: bool

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigError(f"{self.op.name}: negative profiled duration")

    @property
    def is_comm(self) -> bool:
        return self.kind is KernelKind.COMM


def rebind(
    template: KernelFunc, *, batch_id: int, batch_size: int, seq_len: int
) -> KernelFunc:
    """A copy of ``template`` bound to another batch's identity.

    Bypasses ``__init__`` — the template's duration was validated when it was
    first built, and the op/kind/decomposable fields are shared verbatim.
    This is the assembly-cache hit primitive.
    """
    func = KernelFunc.__new__(KernelFunc)
    func.op = template.op
    func.duration = template.duration
    func.kind = template.kind
    func.batch_id = batch_id
    func.batch_size = batch_size
    func.seq_len = seq_len
    func.decomposable = template.decomposable
    return func


class FuncVec:
    """The assembled kernel-function list of one batch (FIFO with push-front)."""

    def __init__(self, batch: Batch, funcs: List[KernelFunc]) -> None:
        if not funcs:
            raise ConfigError(f"batch {batch.batch_id}: empty function list")
        self.batch = batch
        self._funcs: Deque[KernelFunc] = deque(funcs)
        self.total_assembled = len(funcs)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._funcs)

    @property
    def empty(self) -> bool:
        return not self._funcs

    def peek(self) -> KernelFunc:
        """The head kernel function without consuming it."""
        if not self._funcs:
            raise ConfigError("peek on empty FuncVec")
        return self._funcs[0]

    def pop(self) -> KernelFunc:
        """Consume and return the head kernel function."""
        if not self._funcs:
            raise ConfigError("pop on empty FuncVec")
        return self._funcs.popleft()

    def push_front(self, func: KernelFunc) -> None:
        """Return a decomposition remainder to the head of the list."""
        self._funcs.appendleft(func)


class FunctionAssembler:
    """Builds a :class:`FuncVec` for each arriving batch (online procedure).

    Uses the batch's size / sequence length / phase and the target model to
    enumerate the per-device op sequence under the node's tensor-parallel
    degree, attaching profiled durations from the offline procedure's
    :class:`~repro.profiling.profiler.OpProfiler`.

    Function lists are memoized by batch shape ``(phase, size, seq_len,
    context_len)`` with LRU eviction past
    :data:`repro.parallel.base.CACHE_SIZE` shapes, and a hit rebinds the
    cached wrappers to the new batch without calling ``strategy_ops_fn``
    or the profiler.  **Contract:** ``strategy_ops_fn`` must be a pure
    function of those four batch attributes (true for the built-in
    strategies, whose op enumerators close over a fixed model and TP
    degree).
    """

    def __init__(self, strategy_ops_fn, profiler: OpProfiler) -> None:
        """``strategy_ops_fn(batch) -> Sequence[OpDesc]`` supplies the ops."""
        self._ops_fn = strategy_ops_fn
        self.profiler = profiler
        self.batches_assembled = 0
        self._cache: "OrderedDict[Tuple, Tuple[KernelFunc, ...]]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: Wall seconds spent enumerating ops + profiling on cache misses —
        #: the cost a hit avoids (exported as a perf gauge).
        self.build_seconds = 0.0

    def assemble(self, batch: Batch) -> FuncVec:
        """Build the batch's FuncVec with profiled durations (§3.2)."""
        key = (batch.phase, batch.size, batch.seq_len, batch.context_len)
        templates = self._cache.get(key)
        if templates is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            bid, size, seq = batch.batch_id, batch.size, batch.seq_len
            funcs = [
                rebind(t, batch_id=bid, batch_size=size, seq_len=seq)
                for t in templates
            ]
        else:
            self.cache_misses += 1
            start = time.perf_counter()
            funcs = [
                KernelFunc(
                    op=op,
                    duration=self.profiler.duration(op),
                    kind=op.kind,
                    batch_id=batch.batch_id,
                    batch_size=batch.size,
                    seq_len=batch.seq_len,
                    decomposable=op.decomposable,
                )
                for op in self._ops_fn(batch)
            ]
            self.build_seconds += time.perf_counter() - start
            self._cache[key] = tuple(funcs)
            if len(self._cache) > base.CACHE_SIZE:
                self._cache.popitem(last=False)
                self.cache_evictions += 1
        self.batches_assembled += 1
        return FuncVec(batch, funcs)
