"""Offline kernel profiling (the preprocessing phase's offline procedure).

Liger profiles every kernel's no-load duration before deployment and feeds
those durations to the scheduler (Fig. 5; §3.2's function wrappers carry
"the kernel duration").  In this reproduction the analytical cost model
*plays the role of the hardware* (DESIGN.md §2), so a "measurement" of a
solo kernel equals the cost-model value by construction; the profiler's job
is therefore to be the single component that owns the
op → (duration, occupancy, memory-intensity) mapping, with caching keyed on
op identity.  Each op's launch record
(:class:`~repro.parallel.base.KernelFunc`) carries its profile, and
:func:`~repro.parallel.base.instantiate_op` builds kernels from the record,
so a lone kernel on the machine runs for exactly its profiled duration.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.hw.devices import NodeSpec
from repro.models.costs import KernelCostModel
from repro.models.ops import OpDesc
from repro.sim.interconnect import CollectiveCostModel, NcclConfig
from repro.sim.kernel import check_kernel_profile

__all__ = ["OpProfiler", "op_key"]

#: Op flavours instantiated as rendezvous collectives.
_COLLECTIVE_FLAVOURS = ("all_reduce", "all_to_all", "p2p")


def op_key(op: OpDesc) -> Tuple:
    """A hashable identity for caching profiled values.

    Two ops with the same flavour and shape share a profile — exactly how a
    real profile database is keyed (kernel + launch configuration).
    """
    if op.op == "gemm":
        return ("gemm", op.gemm_shape)
    if op.op == "attention":
        return (
            "attention",
            op.attn_batch,
            op.attn_q_len,
            op.attn_ctx_len,
            op.attn_heads,
            op.attn_head_dim,
        )
    if op.op in ("elementwise", "embed", "kv_append"):
        return (op.op, op.elems, op.rw_factor)
    if op.op == "all_reduce":
        return ("all_reduce", op.comm_bytes)
    if op.op == "all_to_all":
        return ("all_to_all", op.comm_bytes)
    if op.op == "p2p":
        return ("p2p", op.comm_bytes, op.p2p_src, op.p2p_dst)
    raise ConfigError(f"unknown op flavour {op.op!r}")


class OpProfiler:
    """Profiled durations and footprints for a (node, model-config) pair.

    Parameters
    ----------
    node:
        Testbed; determines the device cost model and collective topology.
    cost_model:
        Override the per-device kernel cost model.
    nccl:
        Communication-library configuration.  Liger passes the *reduced*
        config (§3.5); baselines profile with NCCL defaults.
    participants:
        Ranks collectives run over, in ring order (defaults to all GPUs of
        the node); stored as a tuple.
    """

    def __init__(
        self,
        node: NodeSpec,
        *,
        cost_model: Optional[KernelCostModel] = None,
        nccl: Optional[NcclConfig] = None,
        participants: Optional[Sequence[int]] = None,
    ) -> None:
        self.node = node
        self.cost_model = cost_model or KernelCostModel(node.gpu)
        self.nccl = nccl or NcclConfig()
        self.collectives = CollectiveCostModel(node.topology, self.nccl)
        self.participants: Tuple[int, ...] = (
            tuple(participants) if participants is not None else tuple(range(node.num_gpus))
        )
        self._cache: Dict[Tuple, float] = {}
        self._profiles: Dict[Tuple, Tuple[Optional[float], float, float]] = {}

    # ------------------------------------------------------------------
    # The profile database
    # ------------------------------------------------------------------
    def duration(self, op: OpDesc) -> float:
        """No-load duration (µs) of one op, cached."""
        key = op_key(op)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ccm = self.collectives
        if op.op == "all_reduce":
            value = ccm.allreduce_duration(op.comm_bytes, self.participants)
        elif op.op == "all_to_all":
            value = ccm.alltoall_duration(op.comm_bytes, self.participants)
        elif op.op == "p2p":
            value = ccm.p2p_duration(op.comm_bytes, op.p2p_src, op.p2p_dst)
        else:
            value = self.cost_model.duration(op)
        self._cache[key] = value
        return value

    def occupancy(self, op: OpDesc) -> float:
        """SM footprint of the op's kernel."""
        if op.is_comm:
            # Ring and all-to-all collectives carry the full NCCL channel
            # footprint; p2p copies ride the copy engines.
            if op.op in ("all_reduce", "all_to_all"):
                return self.nccl.occupancy
            return min(self.nccl.occupancy, 0.04)
        return self.cost_model.occupancy(op)

    def memory_intensity(self, op: OpDesc) -> float:
        """HBM footprint of the op's kernel."""
        if op.is_comm:
            return self.collectives._comm_memory_intensity(op.comm_bytes)
        return self.cost_model.memory_intensity(op)

    def kernel_profile(self, op: OpDesc) -> Tuple[Optional[float], float, float]:
        """``(duration, occupancy, memory_intensity)`` of the op's kernels.

        Checked against the :class:`Kernel` invariants when the entry is
        made and memoized by :func:`op_key`, so kernels built from it use
        the slot-copy constructors of :mod:`repro.sim.kernel`.  A collective's
        duration is None here: the record takes :meth:`duration`'s price
        over :attr:`participants`, and a rendezvous over other ranks is
        priced at instantiation.
        """
        key = op_key(op)
        hit = self._profiles.get(key)
        if hit is not None:
            return hit
        duration = None if op.op in _COLLECTIVE_FLAVOURS else self.duration(op)
        profile = (duration, self.occupancy(op), self.memory_intensity(op))
        check_kernel_profile(op.name, duration or 0.0, *profile[1:])
        self._profiles[key] = profile
        return profile

    @property
    def cache_size(self) -> int:
        return len(self._cache)
