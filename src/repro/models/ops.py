"""Device-level operator descriptors.

An :class:`OpDesc` is one operator of a forward pass *as seen by one device*
after parallelisation — the unit that Liger's function assembly wraps (§3.2)
and that Algorithm 1 schedules.  It is declarative: shapes and byte counts
only.  The cost model (:mod:`repro.models.costs`) turns an OpDesc into a
duration/footprint, and the assembly layer turns it into simulator kernels.

Ops come in a handful of flavours, selected by ``op``:

* ``"gemm"`` — dense matmul ``(m, k, n)``; the decomposable workhorse.
* ``"attention"`` — fused attention (QKᵀ, softmax, AV) over a KV context.
* ``"elementwise"`` — layernorm / residual / activation fused kernels.
* ``"embed"`` — embedding gather.
* ``"kv_append"`` — KV-cache append during generative decoding.
* ``"all_reduce"`` / ``"all_to_all"`` / ``"p2p"`` — collectives;
  ``comm_bytes`` is the payload (per-rank for all-to-all).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.sim.kernel import KernelKind

__all__ = [
    "OpDesc",
    "gemm_op",
    "attention_op",
    "elementwise_op",
    "allreduce_op",
    "all_to_all_op",
    "p2p_op",
]


@dataclass
class OpDesc:
    """One per-device operator in a forward pass.

    Only the fields relevant to ``op`` are set; the rest stay at their
    defaults.  ``layer`` is −1 for pre/post-model ops (embedding, LM head).

    Construction validates the fields for ``op`` and raises
    :class:`~repro.errors.ConfigError` on a bad one; derive a changed op
    through the constructor (or :func:`dataclasses.replace`) so the checks
    run again.  An op is read-only once built: launch-list records share it
    across every batch of a shape and every §3.6 piece derived from it.
    (Not ``frozen``, and so not hashable: a frozen ``__init__`` costs
    several times a plain one, on every launch-list miss and §3.6 split.
    Cache by :func:`~repro.profiling.profiler.op_key` instead.)
    """

    name: str
    op: str
    kind: KernelKind
    layer: int = -1
    # gemm
    gemm_shape: Optional[Tuple[int, int, int]] = None
    # attention
    attn_batch: int = 0
    attn_q_len: int = 0
    attn_ctx_len: int = 0
    attn_heads: int = 0
    attn_head_dim: int = 0
    # elementwise / embed / kv_append
    elems: float = 0.0
    rw_factor: float = 3.0
    # collectives
    comm_bytes: float = 0.0
    p2p_src: int = -1
    p2p_dst: int = -1
    # scheduling hints
    decomposable: bool = False
    # How Megatron tensor-parallelism splits this op: "n" (column-parallel
    # weight), "k" (row-parallel weight), "heads" (attention), "" (replicated).
    # Inter-Th pricing and the vertical/horizontal decomposition strategies
    # (§3.6) both key off this.
    split_dim: str = ""

    def __post_init__(self) -> None:
        if self.op == "gemm":
            shape = self.gemm_shape
            # Three positive ints, checked by C calls alone: this runs for
            # every GEMM of every launch-list miss and §3.6 piece.
            if (
                type(shape) is not tuple
                or len(shape) != 3
                or set(map(type, shape)) != {int}
                or min(shape) < 1
            ):
                raise ConfigError(
                    f"{self.name}: gemm needs a positive (m,k,n) shape, got {shape!r}"
                )
        elif self.op == "attention":
            if min(
                self.attn_batch, self.attn_q_len, self.attn_ctx_len,
                self.attn_heads, self.attn_head_dim,
            ) < 1:
                raise ConfigError(f"{self.name}: attention dims must be positive")
        elif self.op in ("elementwise", "embed", "kv_append"):
            if self.elems <= 0:
                raise ConfigError(f"{self.name}: {self.op} needs positive elems")
        elif self.op in ("all_reduce", "all_to_all", "p2p"):
            if self.kind is not KernelKind.COMM:
                raise ConfigError(f"{self.name}: collectives must be COMM kind")
            if self.comm_bytes < 0:
                raise ConfigError(f"{self.name}: negative comm_bytes")
            if self.op == "p2p" and (self.p2p_src < 0 or self.p2p_dst < 0):
                raise ConfigError(f"{self.name}: p2p needs src and dst")
        else:
            raise ConfigError(f"{self.name}: unknown op flavour {self.op!r}")

    @property
    def is_comm(self) -> bool:
        return self.kind is KernelKind.COMM

    def with_gemm_shape(self, m: int, k: int, n: int) -> "OpDesc":
        """A copy with a different GEMM shape (Inter-Th shards with it)."""
        return replace(self, gemm_shape=(m, k, n))


# ----------------------------------------------------------------------
# Constructors (keep call sites terse and validated)
# ----------------------------------------------------------------------

def gemm_op(
    name: str,
    layer: int,
    m: int,
    k: int,
    n: int,
    *,
    decomposable: bool = True,
    split_dim: str = "",
) -> OpDesc:
    """A dense matmul op: ``[m,k] @ [k,n]``.

    ``split_dim`` records how Megatron TP shards the weight: ``"n"`` for
    column-parallel (QKV, FFN-up, LM head) and ``"k"`` for row-parallel
    (attention output, FFN-down).
    """
    return OpDesc(
        name=name,
        op="gemm",
        kind=KernelKind.COMPUTE,
        layer=layer,
        gemm_shape=(m, k, n),
        decomposable=decomposable,
        split_dim=split_dim,
    )


def attention_op(
    name: str,
    layer: int,
    *,
    batch: int,
    q_len: int,
    ctx_len: int,
    heads: int,
    head_dim: int,
) -> OpDesc:
    """A fused attention op over ``ctx_len`` cached keys/values per query."""
    return OpDesc(
        name=name,
        op="attention",
        kind=KernelKind.COMPUTE,
        layer=layer,
        attn_batch=batch,
        attn_q_len=q_len,
        attn_ctx_len=ctx_len,
        attn_heads=heads,
        attn_head_dim=head_dim,
        split_dim="heads",
    )


def elementwise_op(name: str, layer: int, elems: float, *, rw_factor: float = 3.0) -> OpDesc:
    """A memory-bound fused elementwise op (layernorm + residual etc.)."""
    return OpDesc(
        name=name,
        op="elementwise",
        kind=KernelKind.COMPUTE,
        layer=layer,
        elems=elems,
        rw_factor=rw_factor,
    )


def allreduce_op(name: str, layer: int, comm_bytes: float, *, decomposable: bool = True) -> OpDesc:
    """A tensor-parallel all-reduce of ``comm_bytes`` per device."""
    return OpDesc(
        name=name,
        op="all_reduce",
        kind=KernelKind.COMM,
        layer=layer,
        comm_bytes=comm_bytes,
        decomposable=decomposable,
    )


def all_to_all_op(
    name: str, layer: int, comm_bytes: float, *, decomposable: bool = True
) -> OpDesc:
    """An expert-parallel all-to-all exchange of ``comm_bytes`` per device.

    MoE layers issue one for token dispatch (routing tokens to the devices
    hosting their selected experts) and one for combine (routing expert
    outputs back); the payload is the per-rank scatter buffer.
    """
    return OpDesc(
        name=name,
        op="all_to_all",
        kind=KernelKind.COMM,
        layer=layer,
        comm_bytes=comm_bytes,
        decomposable=decomposable,
    )


def p2p_op(name: str, layer: int, comm_bytes: float, src: int, dst: int) -> OpDesc:
    """A pipeline-boundary activation transfer."""
    return OpDesc(
        name=name,
        op="p2p",
        kind=KernelKind.COMM,
        layer=layer,
        comm_bytes=comm_bytes,
        p2p_src=src,
        p2p_dst=dst,
    )
