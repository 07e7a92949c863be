"""Liger's core: function assembly, Algorithm-1 scheduling, hybrid
synchronization, contention anticipation, and runtime kernel decomposition.

This subpackage is the paper's primary contribution; the hardware it drives
lives in :mod:`repro.sim` and the strategy adapter the serving layer uses is
:class:`repro.parallel.interleaved.InterleavedStrategy`.
"""

from repro.core.assembly import FuncVec, FunctionAssembler, KernelFunc
from repro.core.config import LigerConfig, SyncMode
from repro.core.contention import (
    NO_ANTICIPATION,
    AdaptiveAnticipator,
    ContentionAnticipator,
)
from repro.core.decomposition import (
    DecompositionPlanner,
    split_all_to_all,
    split_allreduce,
    split_gemm_horizontal,
    split_gemm_vertical,
)
from repro.core.policy import (
    POLICIES,
    ExpertOverlapPolicy,
    LigerDichotomyPolicy,
    SchedulingPolicy,
    default_resource_class,
    make_policy,
    policy_names,
)
from repro.core.runtime import LigerRuntime, RuntimeStats
from repro.core.scheduler import LigerScheduler, Round

__all__ = [
    "KernelFunc",
    "FuncVec",
    "FunctionAssembler",
    "LigerConfig",
    "SyncMode",
    "ContentionAnticipator",
    "AdaptiveAnticipator",
    "NO_ANTICIPATION",
    "DecompositionPlanner",
    "split_gemm_vertical",
    "split_gemm_horizontal",
    "split_allreduce",
    "split_all_to_all",
    "SchedulingPolicy",
    "LigerDichotomyPolicy",
    "ExpertOverlapPolicy",
    "POLICIES",
    "make_policy",
    "policy_names",
    "default_resource_class",
    "LigerScheduler",
    "Round",
    "LigerRuntime",
    "RuntimeStats",
]
