"""repro — a full reproduction of Liger (PPoPP '24).

Liger: Interleaving Intra- and Inter-Operator Parallelism for Distributed
Large Model Inference.  Because this environment has no GPUs, the hardware
substrate (CUDA streams/events, NCCL collectives, SM contention) is a
deterministic discrete-event simulator; everything above it — the transformer
cost model, the intra-/inter-operator baselines, Liger's function assembly,
Algorithm-1 scheduler, hybrid synchronization, contention factors, and
runtime kernel decomposition — follows the paper.  See DESIGN.md.

Quickstart::

    from repro import serve, v100_nvlink_node, OPT_30B
    result = serve(model=OPT_30B, node=v100_nvlink_node(4),
                   strategy="liger", arrival_rate=8.0, num_requests=64)
    print(result.summary())
"""

import logging as _logging

from repro.hw import (
    A100_80GB_PCIE,
    V100_16GB,
    GpuSpec,
    NodeSpec,
    a100_pcie_node,
    v100_nvlink_node,
)

# Library convention: the ``repro.*`` logger hierarchy is silent unless the
# application installs a handler (or runs the CLI with ``--log-level``).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "V100_16GB",
    "A100_80GB_PCIE",
    "v100_nvlink_node",
    "a100_pcie_node",
    "__version__",
]


def __getattr__(name):
    """Lazy re-exports of the higher layers (keeps import cost low)."""
    if name in {"OPT_30B", "OPT_66B", "GLM_130B", "ModelSpec", "MODELS"}:
        from repro.models import specs

        return getattr(specs, name)
    if name in {"serve", "ServingResult", "Server"}:
        from repro.serving import api

        return getattr(api, name)
    if name in {
        "AdmissionPolicy",
        "OverloadConfig",
        "OverloadController",
        "OverloadReport",
        "KVCacheAccountant",
        "RequestState",
        "RunResult",
        "ServingSession",
    }:
        from repro import serving

        return getattr(serving, name)
    if name in {"LigerConfig", "LigerRuntime"}:
        from repro import core

        return getattr(core, name)
    if name in {
        "FaultPlan",
        "GpuStraggler",
        "LinkDegradation",
        "LaunchFailure",
        "HostJitter",
        "FaultInjector",
        "Watchdog",
        "ResilienceConfig",
        "ResilienceReport",
        "RecoveryManager",
    }:
        from repro import faults

        return getattr(faults, name)
    if name in {"FaultError", "RetryExhaustedError"}:
        from repro import errors

        return getattr(errors, name)
    if name in {
        "Observability",
        "EventBus",
        "MetricsRegistry",
        "SpanBuilder",
        "RequestSpan",
        "merged_chrome_trace",
        "validate_merged_trace",
    }:
        from repro import obs

        return getattr(obs, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
