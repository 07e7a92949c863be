"""Runtime kernel decomposition (§3.6).

When the scheduler cannot fit a subsequent batch's next kernel into the
remaining overlap window, it splits the kernel into fine-grained pieces with
*equal capability*.  Liger pre-decides the decomposition strategy per kernel
class (a manual process in the paper) and profiles every possible division
of a factor-``d`` split (1/d … (d−1)/d) offline, so the runtime can pick the
largest piece that fits by table lookup.

Decomposition strategies (Fig. 9):

* **GEMM — vertical**: split the *weight's output columns* (the ``n``
  dimension).  The activation matrix A is already skinny in inference;
  vertical splitting keeps its shape, each piece computes a full column
  slice of the output, and the cost is only tile-quantisation + one extra
  kernel overhead per piece.  This is the strategy Liger uses.
* **GEMM — horizontal** (provided for the Fig. 9 comparison, never chosen):
  split A's rows (``m``); the pieces become even skinnier and efficiency
  collapses.
* **All-reduce**: split the payload bytes evenly; each piece is an
  independent smaller collective (NCCL treats chunks independently), paying
  one extra latency term per piece.
* **All-to-all**: the same byte split (:func:`split_comm_bytes`) applied
  to the MoE expert dispatch/combine exchange.  Not wired by default — the
  ``expert_overlap`` policy registers it via
  :meth:`DecompositionPlanner.register_split_rule`, the hook that lets a
  scheduling policy teach the planner new kernel classes.

A kernel piece is a real :class:`~repro.parallel.base.KernelFunc` whose op
has the scaled shape — its duration and footprint come from the same
profiler, so the decomposition *penalty* (sum of pieces > whole) is
emergent, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.models.ops import OpDesc
from repro.parallel.base import KernelFunc
from repro.profiling.profiler import OpProfiler, op_key

__all__ = [
    "DecompositionPlanner",
    "split_gemm_vertical",
    "split_gemm_horizontal",
    "split_comm_bytes",
]


def _derive(op: OpDesc, name: str, gemm_shape, comm_bytes: float) -> OpDesc:
    """``replace(op, name=name, gemm_shape=..., comm_bytes=...)`` as one
    positional ``OpDesc`` call, so ``__post_init__`` validates the piece.

    The arguments follow the field order; ``replace`` or a keyword call
    costs about twice as much, on every §3.6 split.
    """
    return OpDesc(
        name, op.op, op.kind, op.layer, gemm_shape,
        op.attn_batch, op.attn_q_len, op.attn_ctx_len, op.attn_heads,
        op.attn_head_dim, op.elems, op.rw_factor, comm_bytes,
        op.p2p_src, op.p2p_dst, op.decomposable, op.split_dim,
    )


def split_gemm_vertical(op: OpDesc, numer: int, denom: int) -> Tuple[OpDesc, OpDesc]:
    """Split a GEMM along ``n`` into (numer/denom, rest).  Fig. 9 'vertical'."""
    _check_fraction(numer, denom)
    m, k, n = op.gemm_shape  # type: ignore[misc]
    n_piece = max(1, (n * numer) // denom)
    n_rest = n - n_piece
    if n_rest < 1:
        raise ConfigError(f"{op.name}: vertical split leaves empty remainder")
    return (
        _derive(op, f"{op.name}.v{numer}/{denom}", (m, k, n_piece), op.comm_bytes),
        _derive(op, f"{op.name}.rest", (m, k, n_rest), op.comm_bytes),
    )


def split_gemm_horizontal(op: OpDesc, numer: int, denom: int) -> Tuple[OpDesc, OpDesc]:
    """Split a GEMM along ``m`` (Fig. 9 'horizontal' — the bad strategy)."""
    _check_fraction(numer, denom)
    m, k, n = op.gemm_shape  # type: ignore[misc]
    m_piece = max(1, (m * numer) // denom)
    m_rest = m - m_piece
    if m_rest < 1:
        raise ConfigError(f"{op.name}: horizontal split leaves empty remainder")
    return (
        _derive(op, f"{op.name}.h{numer}/{denom}", (m_piece, k, n), op.comm_bytes),
        _derive(op, f"{op.name}.rest", (m_rest, k, n), op.comm_bytes),
    )


def split_comm_bytes(op: OpDesc, numer: int, denom: int) -> Tuple[OpDesc, OpDesc]:
    """Split a collective's payload into (numer/denom, rest) byte chunks.

    The one splitter of both collective flavours, all-reduce and
    all-to-all; the pieces keep the op's flavour.
    """
    _check_fraction(numer, denom)
    piece = op.comm_bytes * numer / denom
    rest = op.comm_bytes - piece
    if piece <= 0 or rest <= 0:
        raise ConfigError(f"{op.name}: degenerate {op.op} byte split")
    return (
        _derive(op, f"{op.name}.c{numer}/{denom}", op.gemm_shape, piece),
        _derive(op, f"{op.name}.rest", op.gemm_shape, rest),
    )


def _check_fraction(numer: int, denom: int) -> None:
    if denom < 2 or not 1 <= numer < denom:
        raise ConfigError(f"invalid decomposition fraction {numer}/{denom}")


@dataclass
class DecompositionPlanner:
    """Chooses the largest profiled piece of a kernel that fits a window.

    The §3.6 offline profile is kept as *division tables*: one per split
    rule and ``op_key(op)`` (and ``d``), holding the profiled duration of
    each ``i/d`` piece.  An entry is profiled the first time a scan reaches
    it, so the profiler sees the same calls in the same order as a scan
    that re-derives every piece; after that :meth:`split_to_fit` is a table
    lookup, and only the chosen division builds its piece/rest ops.

    Parameters
    ----------
    profiler:
        Duration oracle (the offline profile of all divisions).
    division_factor:
        ``d``; candidate pieces are ``i/d`` for ``i = d−1 … 1``.
    """

    profiler: OpProfiler
    division_factor: int = 8

    def __post_init__(self) -> None:
        if self.division_factor < 1:
            raise ConfigError("division_factor must be >= 1")
        #: Split-rule registry, op flavour → ``fn(op, numer, denom)``.  The
        #: defaults reproduce the paper's manual pre-decided strategies;
        #: scheduling policies may register additional kernel classes
        #: (``expert_overlap`` adds the all-to-all byte splitter).
        self._split_rules = {
            "gemm": split_gemm_vertical,
            "all_reduce": split_comm_bytes,
        }
        #: Division tables, ``(splitter, d, op_key)`` → piece duration per
        #: numerator (index 0 unused; None until profiled).
        self._tables: Dict[Tuple, List[Optional[float]]] = {}

    def register_split_rule(self, flavour: str, splitter) -> None:
        """Teach the planner to decompose a new op flavour.

        ``splitter(op, numer, denom) -> (piece_op, rest_op)`` must follow
        the piece/rest naming conventions of the built-in splitters, and
        the piece's profile must depend only on ``op_key(op)`` — the
        division tables are keyed by it.
        """
        self._split_rules[flavour] = splitter

    def split_rule(self, flavour: str):
        """The registered splitter for an op flavour, or None."""
        return self._split_rules.get(flavour)

    def can_decompose(self, func: KernelFunc) -> bool:
        """Whether this kernel admits a factor-``d`` split at all."""
        if not func.decomposable or self.division_factor < 2:
            return False
        flavour = func.op.op
        if flavour not in self._split_rules:
            return False
        if flavour == "gemm":
            # Need at least d columns to split d ways.
            return func.op.gemm_shape[2] >= self.division_factor  # type: ignore[index]
        # Collective flavours split their payload bytes.
        return func.op.comm_bytes > 0

    def split_to_fit(
        self, func: KernelFunc, window: float, *, scale: float = 1.0
    ) -> Optional[Tuple[KernelFunc, KernelFunc]]:
        """Split ``func`` so the first piece's scaled duration fits ``window``.

        Returns ``(piece, remainder)`` or ``None`` when even the smallest
        profiled division (1/d) does not fit.  ``scale`` is the contention
        factor applied to the piece's duration when testing the fit.
        """
        if not self.can_decompose(func):
            return None
        op = func.op
        splitter = self._split_rules[op.op]
        d = self.division_factor
        table = self._table(splitter, op)
        for numer in range(d - 1, 0, -1):
            piece_duration = self._division(splitter, op, table, numer)
            if piece_duration * scale <= window:
                piece_op, rest_op = splitter(op, numer, d)
                profile = self.profiler.kernel_profile
                # Pieces are final; the remainder may split again later.
                piece = KernelFunc(
                    piece_op, piece_duration, func.kind, False,
                    *profile(piece_op)[1:],
                )
                remainder = KernelFunc(
                    rest_op, self.profiler.duration(rest_op), func.kind, True,
                    *profile(rest_op)[1:],
                )
                return piece, remainder
        return None

    def profile_divisions(self, func: KernelFunc) -> List[Tuple[str, float]]:
        """Offline table: duration of every ``i/d`` division of a kernel."""
        if not self.can_decompose(func):
            return []
        op = func.op
        splitter = self._split_rules[op.op]
        d = self.division_factor
        table = self._table(splitter, op)
        return [
            (f"{numer}/{d}", self._division(splitter, op, table, numer))
            for numer in range(1, d)
        ]

    def _table(self, splitter, op: OpDesc) -> List[Optional[float]]:
        d = self.division_factor
        key = (splitter, d, op_key(op))
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = [None] * d
        return table

    def _division(self, splitter, op: OpDesc, table, numer: int) -> float:
        """Table entry ``numer``, profiled on first use."""
        duration = table[numer]
        if duration is None:
            piece_op, _ = splitter(op, numer, self.division_factor)
            duration = table[numer] = self.profiler.duration(piece_op)
        return duration
