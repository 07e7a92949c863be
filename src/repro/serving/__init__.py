"""The serving system: requests, arrivals, workloads, server, and metrics.

This subpackage plays the role of the serving architecture Liger slots into
as a runtime backend (Fig. 5): it receives requests, packs them into batches,
and hands batches to a parallel strategy at their arrival times, measuring
the paper's two metrics — per-request latency (pending + execution) and
throughput.
"""

from repro.serving.arrival import (
    ArrivalProcess,
    BurstyProcess,
    ConstantRate,
    PoissonProcess,
    TraceReplay,
)
from repro.serving.generation import (
    ContinuousBatchingServer,
    GenRequest,
    StaticBatchingServer,
    generation_workload,
)
from repro.serving.lifecycle import (
    ChatRequest,
    LifecycleResult,
    LifecycleServer,
    chat_workload,
)
from repro.serving.metrics import LatencyStats, ServingMetrics
from repro.serving.overload import (
    AdmissionPolicy,
    KVCacheAccountant,
    OverloadConfig,
    OverloadController,
    OverloadReport,
)
from repro.serving.request import Batch, Phase, Request, RequestState
from repro.serving.server import Server, ServingResult
from repro.serving.session import RunResult, ServingSession
from repro.serving.workload import (
    general_trace,
    generative_trace,
    pack_batches,
    pack_batches_bucketed,
)

__all__ = [
    "Request",
    "Batch",
    "Phase",
    "RequestState",
    "AdmissionPolicy",
    "OverloadConfig",
    "OverloadController",
    "OverloadReport",
    "KVCacheAccountant",
    "ArrivalProcess",
    "ConstantRate",
    "PoissonProcess",
    "BurstyProcess",
    "TraceReplay",
    "general_trace",
    "generative_trace",
    "pack_batches",
    "pack_batches_bucketed",
    "ServingMetrics",
    "LatencyStats",
    "Server",
    "ServingResult",
    "RunResult",
    "ServingSession",
    "GenRequest",
    "generation_workload",
    "StaticBatchingServer",
    "ContinuousBatchingServer",
    "ChatRequest",
    "chat_workload",
    "LifecycleServer",
    "LifecycleResult",
]
