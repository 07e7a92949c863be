"""Generative (incremental sampling) phase with a KV cache (§4.3).

During incremental sampling the model processes **one token per request per
step**: the query length is 1, attention reads the whole cached context, and
every GEMM has only ``batch`` rows.  Computational intensity is therefore far
lower than prefill — the property that makes Liger's gains "relatively
weaker" on generative workloads (the communication volume shrinks with the
token count just like the compute does, but latency floors don't).

The kernel sequence per layer matches :mod:`repro.models.transformer` with
``m = batch``, plus a KV-cache append after the QKV projection.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.models.ops import (
    OpDesc,
    allreduce_op,
    attention_op,
    elementwise_op,
    gemm_op,
)
from repro.models.specs import ModelSpec
from repro.models.transformer import layer_subset, lm_head_ops
from repro.sim.kernel import KernelKind
from repro.units import FP16_BYTES

__all__ = ["decode_layer_ops", "decode_step_ops", "batch_kv_bytes"]


def batch_kv_bytes(model: ModelSpec, batch, tp: int) -> float:
    """Per-device KV-cache bytes one serving batch holds while in flight.

    Accounting is per *request*, not per padded batch — KV lives in paged
    per-sequence allocations, so a decode batch's footprint is the sum of
    each member's true context (cached tokens plus the one being generated),
    and a prefill batch's is the KV it writes for each member's own prompt.
    This is what an overload-armed :class:`~repro.serving.server.Server`
    reserves against its per-GPU KV budget.
    """
    from repro.serving.request import Phase  # local: avoid a package cycle

    if tp < 1:
        raise ConfigError(f"tp must be >= 1, got {tp}")
    total = 0.0
    for req in batch.requests:
        if req.phase is Phase.DECODE:
            tokens = req.context_len + 1
        else:
            tokens = req.seq_len
        total += model.kv_cache_bytes(1, tokens, tp=tp)
    return total


def decode_layer_ops(
    model: ModelSpec,
    batch: int,
    context: int,
    tp: int,
    layer: int,
) -> List[OpDesc]:
    """One transformer layer of a single decode step on one device."""
    _validate(model, batch, context, tp)
    m = batch  # one new token per request
    h = model.hidden_size
    hp = h // tp
    ffn_p = model.ffn_size // tp
    heads_p = model.num_heads // tp
    ar_bytes = float(m * h * FP16_BYTES)

    ops: List[OpDesc] = [
        elementwise_op(f"ln1_L{layer}", layer, m * h),
        gemm_op(f"qkv_gemm_L{layer}", layer, m, h, 3 * hp, split_dim="n"),
        OpDesc(
            name=f"kv_append_L{layer}",
            op="kv_append",
            kind=KernelKind.MEMORY,
            layer=layer,
            elems=float(2 * m * hp),
            rw_factor=2.0,
        ),
        attention_op(
            f"attention_L{layer}",
            layer,
            batch=batch,
            q_len=1,
            ctx_len=context + 1,  # cached context plus the new token
            heads=heads_p,
            head_dim=model.head_dim,
        ),
        gemm_op(f"attn_out_gemm_L{layer}", layer, m, hp, h, split_dim="k"),
    ]
    if tp > 1:
        ops.append(allreduce_op(f"allreduce_attn_L{layer}", layer, ar_bytes))
    if model.is_moe:
        # Routed FFN: one new token per request, expert parallelism = tp.
        from repro.models.moe import moe_ffn_ops

        ops += moe_ffn_ops(model, m, tp, layer)
        return ops
    ops += [
        elementwise_op(f"ln2_L{layer}", layer, m * h),
        gemm_op(f"mlp_gemm1_L{layer}", layer, m, h, ffn_p, split_dim="n"),
        gemm_op(f"mlp_gemm2_L{layer}", layer, m, ffn_p, h, split_dim="k"),
    ]
    if tp > 1:
        ops.append(allreduce_op(f"allreduce_mlp_L{layer}", layer, ar_bytes))
    return ops


def decode_step_ops(
    model: ModelSpec,
    batch: int,
    context: int,
    tp: int,
    *,
    layers: Optional[Sequence[int]] = None,
    include_lm_head: bool = True,
) -> List[OpDesc]:
    """A full single-token decode step (the paper's §4.3 workload unit).

    The paper evaluates "one iteration of the sampling phase constantly with
    a sequence length of 16 as the starting point and a batch size of 32" —
    i.e. repeated decode steps at a fixed small context.

    ``layers`` restricts to a contiguous subset, checked by
    :func:`~repro.models.transformer.layer_subset`; the LM head is included
    only when the subset touches the last layer.
    """
    _validate(model, batch, context, tp)
    layer_ids = layer_subset(model, layers, "decode_step_ops")
    ops: List[OpDesc] = []
    for lid in layer_ids:
        ops += decode_layer_ops(model, batch, context, tp, lid)
    if include_lm_head and layer_ids[-1] == model.num_layers - 1:
        ops += lm_head_ops(model, batch, tp)
    return ops


def _validate(model: ModelSpec, batch: int, context: int, tp: int) -> None:
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    if context < 1:
        raise ConfigError(f"context must be >= 1, got {context}")
    model.validate_tp(tp)
