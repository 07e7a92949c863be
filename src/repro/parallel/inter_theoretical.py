"""Theoretical inter-operator parallelism (Inter-Th, §4.1).

Identical pipeline structure to :class:`~repro.parallel.inter_op.InterOpStrategy`,
but each stage executes the **partitioned kernels taken from the intra-op
approach** instead of whole single-device kernels: a stage prices each GEMM /
attention operator as ``p`` sequential tensor-parallel shards.  The paper
introduces this baseline because partitioned-kernel timing differs from
whole-kernel timing "primarily due to the kernel implementation" — and in
Fig. 10(j)(k) Inter-Th actually *beats* Inter-Op on the largest models,
where the accumulated duration of four partitioned kernels undercuts the one
giant kernel.  Our cost model reproduces that via the giant-panel efficiency
rolloff (see :mod:`repro.models.costs`).
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.models.ops import OpDesc, attention_op
from repro.parallel.inter_op import InterOpStrategy
from repro.serving.request import Batch

__all__ = ["InterTheoreticalStrategy", "partition_op_for_theoretical"]


def partition_op_for_theoretical(op: OpDesc, tp: int) -> List[OpDesc]:
    """Replace one whole op with its ``tp`` sequential intra-op shards.

    GEMMs shard along their Megatron split dimension (``split_dim``);
    attention shards by heads; replicated ops (layernorm, embedding) are
    returned unchanged — intra-op replicates them, so there is no
    partitioned variant to borrow.
    """
    if tp < 1:
        raise ConfigError(f"tp must be >= 1, got {tp}")
    if tp == 1:
        return [op]
    if op.op == "gemm":
        m, k, n = op.gemm_shape  # type: ignore[misc]
        if op.split_dim == "n":
            if n % tp:
                raise ConfigError(f"{op.name}: n={n} not divisible by tp={tp}")
            shard = op.with_gemm_shape(m, k, n // tp)
        elif op.split_dim == "k":
            if k % tp:
                raise ConfigError(f"{op.name}: k={k} not divisible by tp={tp}")
            shard = op.with_gemm_shape(m, k // tp, n)
        else:
            # No TP split recorded: treat as replicated (no shards).
            return [op]
        return [shard] * tp
    if op.op == "attention":
        if op.attn_heads % tp:
            raise ConfigError(
                f"{op.name}: heads={op.attn_heads} not divisible by tp={tp}"
            )
        shard = attention_op(
            op.name,
            op.layer,
            batch=op.attn_batch,
            q_len=op.attn_q_len,
            ctx_len=op.attn_ctx_len,
            heads=op.attn_heads // tp,
            head_dim=op.attn_head_dim,
        )
        return [shard] * tp
    return [op]


class InterTheoreticalStrategy(InterOpStrategy):
    """Pipeline whose stages run intra-op partitioned kernels sequentially."""

    name = "inter_th"

    def __init__(self, model, node, *, profiler=None, num_stages=None, tp=None):
        super().__init__(model, node, profiler=profiler, num_stages=num_stages)
        #: Partitioning degree the shards are borrowed from (the intra-op
        #: configuration of the same node).
        self.tp = tp or node.num_gpus
        model.validate_tp(self.tp)

    def _enumerate_ops(self, batch: Batch, tp: int, layers) -> List[OpDesc]:
        return [
            shard
            for op in super()._enumerate_ops(batch, tp, layers)
            for shard in partition_op_for_theoretical(op, self.tp)
        ]
