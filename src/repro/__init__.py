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

import importlib as _importlib
import logging as _logging
import sys as _sys

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


def _lazy_exports(package: str, table: dict[str, str]):
    """A module ``__getattr__`` for ``package`` that resolves ``table``.

    This is the one export idiom of the package ``__init__``s.  ``table``
    maps each exported name to the submodule (relative to ``package``) that
    defines it, and the package sets ``__getattr__ = _lazy_exports(__name__,
    table)``.  Importing the package then runs no submodule: the first
    access to a name imports its submodule and caches the name on the
    package, so a process compiles only the modules its run uses.  A run
    that arms no event bus, for one, never loads :mod:`repro.obs`.
    """

    def __getattr__(name: str):
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = _importlib.import_module(f"{package}.{submodule}")
        value = getattr(module, name)
        setattr(_sys.modules[package], name, value)
        return value

    return __getattr__


#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "GpuSpec": "hw.devices",
    "NodeSpec": "hw.devices",
    "V100_16GB": "hw.devices",
    "A100_80GB_PCIE": "hw.devices",
    "v100_nvlink_node": "hw.devices",
    "a100_pcie_node": "hw.devices",
    "OPT_30B": "models.specs",
    "OPT_66B": "models.specs",
    "GLM_130B": "models.specs",
    "ModelSpec": "models.specs",
    "MODELS": "models.specs",
    "serve": "serving.api",
    "Server": "serving.server",
    "ServingResult": "serving.server",
    "AdmissionPolicy": "serving.overload",
    "OverloadConfig": "serving.overload",
    "OverloadReport": "serving.overload",
    "RequestState": "serving.request",
    "RunResult": "serving.session",
    "LigerConfig": "core.config",
    "LigerRuntime": "core.runtime",
    "FaultPlan": "faults.plan",
    "GpuStraggler": "faults.plan",
    "LaunchFailure": "faults.plan",
    "FaultInjector": "faults.injector",
    "ResilienceConfig": "faults.resilience",
    "ResilienceReport": "faults.resilience",
    "RecoveryManager": "faults.resilience",
    "FaultError": "errors",
    "Observability": "obs.observability",
    "EventBus": "obs.events",
    "MetricsRegistry": "obs.metrics",
    "SpanBuilder": "obs.spans",
    "RequestSpan": "obs.spans",
    "merged_chrome_trace": "obs.export",
    "validate_merged_trace": "obs.export",
}

__getattr__ = _lazy_exports(__name__, _EXPORTS)
