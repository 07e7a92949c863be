"""Liger's core: function assembly, Algorithm-1 scheduling, hybrid
synchronization, contention anticipation, and runtime kernel decomposition.

This subpackage is the paper's primary contribution; the hardware it drives
lives in :mod:`repro.sim` and the strategy adapter the serving layer uses is
:class:`repro.parallel.interleaved.InterleavedStrategy`.
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "KernelFunc": "assembly",  # defined in repro.parallel.base
    "FuncVec": "assembly",
    "LigerConfig": "config",
    "SyncMode": "config",
    "NO_ANTICIPATION": "config",
    "DecompositionPlanner": "decomposition",
    "split_gemm_vertical": "decomposition",
    "split_gemm_horizontal": "decomposition",
    "split_comm_bytes": "decomposition",
    "SchedulingPolicy": "policy",
    "LigerDichotomyPolicy": "policy",
    "ExpertOverlapPolicy": "policy",
    "POLICIES": "policy",
    "make_policy": "policy",
    "policy_names": "policy",
    "default_resource_class": "policy",
    "LigerScheduler": "scheduler",
    "Round": "scheduler",
    "LigerRuntime": "runtime",
    "PrincipleMonitor": "runtime",
    "RuntimeStats": "runtime",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
