"""Transformer forward passes as per-device operator sequences.

This module encodes the structure every strategy schedules: the fused
inference kernel sequence of a Megatron-style transformer layer.  Under
tensor parallelism of degree ``tp`` each layer is (§4.1, Intra-Op baseline):

====================== ======================= ======================
op                     shape per device        notes
====================== ======================= ======================
input layernorm        m × h                   memory-bound, replicated
QKV projection         (m, h, 3h/tp)           column-parallel GEMM
fused attention        heads/tp heads          local heads only
output projection      (m, h/tp, h)            row-parallel GEMM
**all-reduce**         m·h·2 bytes             1st of 2 per layer
post layernorm         m × h                   replicated
FFN up + GeLU          (m, h, 4h/tp)           column-parallel GEMM
FFN down               (m, 4h/tp, h)           row-parallel GEMM
**all-reduce**         m·h·2 bytes             2nd of 2 per layer
====================== ======================= ======================

where ``m = batch × seq``.  With ``tp == 1`` the same sequence has no
collectives — that is the per-stage kernel sequence of the inter-operator
baseline.  The "two all-reduce synchronizations per transformer layer" is
exactly the Megatron-LM scheme the paper names.
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
from repro.sim.kernel import KernelKind
from repro.units import FP16_BYTES

__all__ = ["layer_ops", "prefill_ops", "lm_head_ops", "embed_ops"]


def layer_ops(
    model: ModelSpec,
    batch: int,
    seq: int,
    tp: int,
    layer: int,
) -> List[OpDesc]:
    """The fused kernel sequence of one transformer layer on one device."""
    if model.is_moe:
        # Routed-FFN layers live in repro.models.moe (imported lazily to
        # keep the dense path's import graph unchanged).
        from repro.models.moe import moe_layer_ops

        return moe_layer_ops(model, batch, seq, tp, layer)
    _validate(model, batch, seq, tp)
    m = batch * seq
    h = model.hidden_size
    hp = h // tp
    ffn_p = model.ffn_size // tp
    heads_p = model.num_heads // tp
    ar_bytes = float(m * h * FP16_BYTES)

    ops: List[OpDesc] = [
        elementwise_op(f"ln1_L{layer}", layer, m * h),
        gemm_op(f"qkv_gemm_L{layer}", layer, m, h, 3 * hp, split_dim="n"),
        attention_op(
            f"attention_L{layer}",
            layer,
            batch=batch,
            q_len=seq,
            ctx_len=seq,
            heads=heads_p,
            head_dim=model.head_dim,
        ),
        gemm_op(f"attn_out_gemm_L{layer}", layer, m, hp, h, split_dim="k"),
    ]
    if tp > 1:
        ops.append(allreduce_op(f"allreduce_attn_L{layer}", layer, ar_bytes))
    ops += [
        elementwise_op(f"ln2_L{layer}", layer, m * h),
        gemm_op(f"mlp_gemm1_L{layer}", layer, m, h, ffn_p, split_dim="n"),
        gemm_op(f"mlp_gemm2_L{layer}", layer, m, ffn_p, h, split_dim="k"),
    ]
    if tp > 1:
        ops.append(allreduce_op(f"allreduce_mlp_L{layer}", layer, ar_bytes))
    return ops


def embed_ops(model: ModelSpec, batch: int, seq: int) -> List[OpDesc]:
    """Token + position embedding gather (replicated; memory-bound)."""
    m = batch * seq
    return [
        OpDesc(
            name="embed",
            op="embed",
            kind=KernelKind.COMPUTE,
            layer=-1,
            elems=float(m * model.hidden_size),
            rw_factor=2.0,
        )
    ]


def lm_head_ops(model: ModelSpec, batch: int, tp: int) -> List[OpDesc]:
    """Final layernorm + LM-head projection for the *last* token per request.

    Serving systems compute logits only for the sampled position, so the LM
    head GEMM has ``m = batch`` rows.  Under tensor parallelism the vocab
    dimension is column-split and a small collective gathers the shards.
    """
    h = model.hidden_size
    ops: List[OpDesc] = [
        elementwise_op("final_ln", -1, batch * h),
        gemm_op("lm_head_gemm", -1, max(1, batch), h, model.vocab_size // tp, split_dim="n"),
    ]
    if tp > 1:
        ops.append(
            allreduce_op(
                "allreduce_logits",
                -1,
                float(batch * (model.vocab_size // tp) * FP16_BYTES),
                decomposable=False,
            )
        )
    return ops


def prefill_ops(
    model: ModelSpec,
    batch: int,
    seq: int,
    tp: int,
    *,
    layers: Optional[Sequence[int]] = None,
    include_embed: bool = True,
    include_lm_head: bool = True,
) -> List[OpDesc]:
    """A full prefill (initial conditioning phase, §4.3) forward pass.

    ``layers`` restricts to a contiguous subset (pipeline stages use this),
    checked by :func:`layer_subset`; embedding / LM head are included only
    when the subset touches the first / last layer respectively.
    """
    _validate(model, batch, seq, tp)
    layer_ids = layer_subset(model, layers, "prefill_ops")
    ops: List[OpDesc] = []
    if include_embed and layer_ids[0] == 0:
        ops += embed_ops(model, batch, seq)
    for lid in layer_ids:
        ops += layer_ops(model, batch, seq, tp, lid)
    if include_lm_head and layer_ids[-1] == model.num_layers - 1:
        ops += lm_head_ops(model, batch, tp)
    return ops


def layer_subset(
    model: ModelSpec, layers: Optional[Sequence[int]], caller: str
) -> Sequence[int]:
    """The layer ids a forward pass walks: all of ``model``'s when ``layers``
    is None, else ``layers``, which must be a non-empty, consecutive,
    increasing run inside ``range(model.num_layers)``.

    Raises :class:`~repro.errors.ConfigError` naming ``caller`` otherwise: a
    gap or a repeat would price a pass no device runs, and a negative id
    would collide with the pre/post-model ``layer=-1`` ops.
    """
    if layers is None:
        return range(model.num_layers)
    layer_ids = list(layers)
    if not layer_ids:
        raise ConfigError(f"{caller}: empty layer subset")
    first = layer_ids[0]
    if (
        first < 0
        or layer_ids[-1] >= model.num_layers
        or layer_ids != list(range(first, first + len(layer_ids)))
    ):
        raise ConfigError(
            f"{caller}: layers {layer_ids} are not a consecutive increasing "
            f"run inside range({model.num_layers})"
        )
    return layer_ids


def _validate(model: ModelSpec, batch: int, seq: int, tp: int) -> None:
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    if seq < 1:
        raise ConfigError(f"seq must be >= 1, got {seq}")
    model.validate_tp(tp)
