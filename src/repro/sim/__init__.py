"""The multi-GPU hardware simulator (CUDA/NCCL substitute).

This package replaces the GPUs, CUDA runtime, and NCCL of the paper's
testbeds with a deterministic discrete-event model that preserves the
behaviours Liger's scheduling depends on: in-order streams with asynchronous
host launch, CUDA-event synchronization (inter-stream and CPU-GPU), the
left-over kernel admission policy, emergent compute/communication contention,
and rendezvous collectives.  See DESIGN.md §5 for the semantics contract.
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "Engine": "engine",
    "EventHandle": "engine",
    "CudaEvent": "events",
    "Gpu": "gpu",
    "Machine": "gpu",
    "Host": "host",
    "CollectiveCostModel": "interconnect",
    "NcclConfig": "interconnect",
    "CollectiveKind": "kernel",
    "CollectiveOp": "kernel",
    "Kernel": "kernel",
    "KernelKind": "kernel",
    "Command": "stream",
    "CommandKind": "stream",
    "Stream": "stream",
    "Trace": "tracing",
    "TraceRow": "tracing",
    "ContentionModel": "contention",
    "DefaultContention": "contention",
    "NullContention": "contention",
    "default_contention_for": "contention",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
