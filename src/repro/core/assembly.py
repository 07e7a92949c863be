"""Function assembly (§3.2): per-batch lists of kernel launch wrappers.

For each newly-arrived batch Liger assembles a list of *function wrappers*.
In the C++ prototype a wrapper holds the kernel launch function pointer plus
"the kernel duration, the kernel type, the batch size, and the sequence
length"; here a :class:`KernelFunc` (defined in :mod:`repro.parallel.base`)
holds the :class:`~repro.models.ops.OpDesc` (the launchable), the profiled
no-load duration, the type and the kernel's profiled footprint.  The batch
size and sequence length are the batch's own, so they stay on the batch.

The assembled :class:`FuncVec` is what Algorithm 1 consumes: it exposes
in-order peek and pop, and accepts push-front for decomposition remainders.
The paper's type-switch test (``FuncVec[0].switch()``) is the policy's key
compared on consecutive heads (:mod:`repro.core.policy`).

Assembly is a hot path under continuous batching — every decode iteration of
every batch needs the same op sequence with the same profiled durations.
The strategy's launch-list cache
(:meth:`~repro.parallel.base.ParallelStrategy.launch_list`) builds that
sequence once per batch shape as an immutable tuple of records, and a
:class:`FuncVec` is just the batch plus a cursor into the shared tuple, so
assembling a recurring shape copies nothing.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigError
from repro.parallel.base import KernelFunc
from repro.serving.request import Batch

__all__ = ["KernelFunc", "FuncVec"]


class FuncVec:
    """The assembled kernel-function list of one batch (FIFO with push-front).

    ``funcs`` may be shared with every other batch of the same shape: the
    vector never changes it.  It reads the tuple through a cursor, and a
    small front stack holds the §3.6 remainders pushed back onto it.
    """

    __slots__ = ("batch", "batch_id", "_funcs", "_next", "_end", "_front")

    def __init__(self, batch: Batch, funcs: Sequence[KernelFunc]) -> None:
        if not funcs:
            raise ConfigError(f"batch {batch.batch_id}: empty function list")
        self.batch = batch
        #: The batch every kernel popped from this vector belongs to.
        self.batch_id = batch.batch_id
        self._funcs = tuple(funcs)
        self._next = 0
        self._end = len(self._funcs)
        self._front: List[KernelFunc] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._end - self._next + len(self._front)

    @property
    def empty(self) -> bool:
        return self._next == self._end and not self._front

    def peek(self) -> KernelFunc:
        """The head kernel function without consuming it."""
        if self._front:
            return self._front[-1]
        try:
            return self._funcs[self._next]
        except IndexError:
            raise ConfigError("peek on empty FuncVec") from None

    def pop(self) -> KernelFunc:
        """Consume and return the head kernel function."""
        if self._front:
            return self._front.pop()
        i = self._next
        try:
            func = self._funcs[i]
        except IndexError:
            raise ConfigError("pop on empty FuncVec") from None
        self._next = i + 1
        return func

    def push_front(self, func: KernelFunc) -> None:
        """Return a decomposition remainder to the head of the list."""
        self._front.append(func)
