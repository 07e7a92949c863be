"""GPU device and node specifications.

These dataclasses describe the paper's two testbeds (§4.1) in the numbers the
cost model and simulator consume.  Peak figures are public datasheet values;
the *achievable* fractions are folded into the cost model's efficiency curves
(:mod:`repro.models.costs`), not here, so a device spec stays a statement of
hardware fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.errors import ConfigError
from repro.hw.topology import Topology, nvlink_mesh, pcie_switch
from repro.units import GB, GBps, TFLOPS, us

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "V100_16GB",
    "A100_80GB_PCIE",
    "v100_nvlink_node",
    "a100_pcie_node",
    "TESTBEDS",
]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU.

    Parameters
    ----------
    name:
        Marketing name, e.g. ``"V100-16GB"``.
    fp16_flops:
        Peak FP16 tensor-core throughput (FLOPs/s).
    memory_bandwidth:
        Peak HBM bandwidth (bytes/s).
    memory_capacity:
        HBM capacity (bytes); used for model-placement feasibility checks.
    num_sms:
        Streaming multiprocessor count — the resource pool that the left-over
        scheduling policy allocates (kernels occupy a fraction of it).
    kernel_launch_overhead:
        CPU-side cost (µs) to launch one kernel, ~5 µs in the paper's null
        kernel profiling (§4.5).
    """

    name: str
    fp16_flops: float
    memory_bandwidth: float
    memory_capacity: float
    num_sms: int
    kernel_launch_overhead: float = us(5.0)

    def __post_init__(self) -> None:
        if self.fp16_flops <= 0 or self.memory_bandwidth <= 0:
            raise ConfigError(f"{self.name}: peak rates must be positive")
        if self.memory_capacity <= 0 or self.num_sms <= 0:
            raise ConfigError(f"{self.name}: capacity/SM count must be positive")
        if self.kernel_launch_overhead < 0:
            raise ConfigError(f"{self.name}: launch overhead must be >= 0")


@dataclass(frozen=True)
class NodeSpec:
    """A multi-GPU node: homogeneous GPUs plus an interconnect topology.

    The paper targets single-node multi-GPU systems exclusively (§1), so a
    node is the whole deployment unit.
    """

    name: str
    gpu: GpuSpec
    topology: Topology
    # Extra CPU-side delay (µs) incurred when the host must coordinate a
    # launch across *all* GPUs synchronously (CPU-GPU sync path).  The paper
    # measures the multi-GPU launch delay at >20 µs vs ~5 µs for one GPU
    # (§4.5) and attributes the gap to inconsistent launch times + PCIe
    # contention; this term models that gap.
    multi_gpu_launch_penalty: float = us(15.0)

    def __post_init__(self) -> None:
        if self.multi_gpu_launch_penalty < 0:
            raise ConfigError("multi_gpu_launch_penalty must be >= 0")

    @property
    def num_gpus(self) -> int:
        """Number of GPUs on the node."""
        return self.topology.num_gpus

    @property
    def total_memory(self) -> float:
        """Aggregate HBM capacity across the node (bytes)."""
        return self.gpu.memory_capacity * self.num_gpus


# ----------------------------------------------------------------------
# The paper's testbeds (§4.1)
# ----------------------------------------------------------------------

#: NVIDIA Tesla V100 SXM2 16 GB: 125 TFLOPS FP16 tensor peak, 900 GB/s HBM2.
V100_16GB = GpuSpec(
    name="V100-16GB",
    fp16_flops=TFLOPS(125.0),
    memory_bandwidth=GBps(900.0),
    memory_capacity=GB(16.0),
    num_sms=80,
    kernel_launch_overhead=us(5.0),
)

#: NVIDIA A100 80 GB PCIe: 312 TFLOPS FP16 tensor peak, 1935 GB/s HBM2e.
A100_80GB_PCIE = GpuSpec(
    name="A100-80GB",
    fp16_flops=TFLOPS(312.0),
    memory_bandwidth=GBps(1935.0),
    memory_capacity=GB(80.0),
    num_sms=108,
    kernel_launch_overhead=us(5.0),
)


def v100_nvlink_node(num_gpus: int = 4) -> NodeSpec:
    """The paper's V100 testbed: 4× V100-16GB with NVLink (32.75 GB/s AR)."""
    return NodeSpec(
        name="v100-nvlink",
        gpu=V100_16GB,
        topology=nvlink_mesh(num_gpus),
    )


def a100_pcie_node(num_gpus: int = 4) -> NodeSpec:
    """The paper's A100 testbed: 4× A100-80GB over PCIe (14.88 GB/s AR)."""
    return NodeSpec(
        name="a100-pcie",
        gpu=A100_80GB_PCIE,
        topology=pcie_switch(num_gpus),
    )


#: Named testbed factories, keyed the way the experiment harness refers to them.
TESTBEDS: Dict[str, Callable[[], NodeSpec]] = {
    "v100": v100_nvlink_node,
    "a100": a100_pcie_node,
}
