"""The serving system: requests, arrivals, workloads, server, and metrics.

This subpackage plays the role of the serving architecture Liger slots into
as a runtime backend (Fig. 5): it receives requests, packs them into batches,
and hands batches to a parallel strategy at their arrival times, measuring
the paper's two metrics — per-request latency (pending + execution) and
throughput.
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "Request": "request",
    "Batch": "request",
    "Phase": "request",
    "RequestState": "request",
    "AdmissionPolicy": "overload",
    "OverloadConfig": "overload",
    "OverloadReport": "overload",
    "ArrivalProcess": "arrival",
    "ConstantRate": "arrival",
    "BurstyProcess": "arrival",
    "general_trace": "workload",
    "generative_trace": "workload",
    "pack_batches": "workload",
    "ServingMetrics": "metrics",
    "LatencyStats": "metrics",
    "Server": "server",
    "ServingResult": "server",
    "RunResult": "session",
    "GenRequest": "generation",
    "generation_workload": "generation",
    "StaticBatchingServer": "generation",
    "ContinuousBatchingServer": "generation",
    "ChatRequest": "lifecycle",
    "chat_workload": "lifecycle",
    "LifecycleServer": "lifecycle",
    "LifecycleResult": "lifecycle",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
