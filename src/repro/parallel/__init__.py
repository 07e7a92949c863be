"""Parallelism strategies: the paper's two baselines, Inter-Th, and Liger.

All four implement :class:`~repro.parallel.base.ParallelStrategy` and are
interchangeable from the serving layer:

* :class:`IntraOpStrategy` — Megatron tensor parallelism (low latency,
  throughput capped by exposed collectives);
* :class:`InterOpStrategy` — GPipe-style equal-stage pipeline (high
  throughput, no latency benefit);
* :class:`InterTheoreticalStrategy` — pipeline running intra-op partitioned
  kernels sequentially (§4.1's Inter-Th);
* :class:`InterleavedStrategy` — Liger's interleaved parallelism.
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "ParallelStrategy": "base",
    "KernelFunc": "base",
    "instantiate_op": "base",
    "IntraOpStrategy": "intra_op",
    "InterOpStrategy": "inter_op",
    "InterTheoreticalStrategy": "inter_theoretical",
    "partition_op_for_theoretical": "inter_theoretical",
    "InterleavedStrategy": "interleaved",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
