"""Multi-GPU interconnect topologies.

The paper's Fig. 1 distinguishes two node architectures, and these are the
only two shapes modelled: GPUs with direct links (NVLink), where every pair
shares one link, and GPUs attached to one PCIe switch with no direct link,
where every GPU↔GPU transfer crosses the switch over two PCIe lanes.  Either
way all links are alike, so a topology is one per-direction link bandwidth
(bytes/s), one link latency (µs) and a hop count that follows from the kind.

The host↔GPU control path (kernel launches) always crosses PCIe and is
modelled separately in :class:`repro.sim.host.Host`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import GBps, us

__all__ = ["InterconnectKind", "Topology", "nvlink_mesh", "pcie_switch"]


class InterconnectKind(enum.Enum):
    """The flavour of GPU↔GPU interconnect a topology models."""

    NVLINK = "nvlink"
    PCIE_SWITCH = "pcie_switch"


#: Links a GPU↔GPU transfer crosses: one direct link, or up to the switch and down.
_HOPS = {InterconnectKind.NVLINK: 1, InterconnectKind.PCIE_SWITCH: 2}


@dataclass(frozen=True)
class Topology:
    """A node-local GPU interconnect of uniform links.

    Parameters
    ----------
    num_gpus:
        Number of GPU endpoints (ids ``0..num_gpus-1``).
    kind:
        Interconnect flavour; fixes how many links a transfer crosses.
    link_bandwidth:
        Bandwidth (bytes/s) of every link, per direction.
    link_latency:
        Latency (µs) of every link.
    allreduce_bus_bandwidth:
        Measured peak all-reduce *bus* bandwidth (bytes/s) in the NCCL-tests
        sense.  The paper reports 32.75 GB/s (V100 NVLink) and 14.88 GB/s
        (A100 PCIe); the ring all-reduce cost model consumes this directly so
        collective costs match the measured machine rather than a theoretical
        link sum.
    """

    num_gpus: int
    kind: InterconnectKind
    link_bandwidth: float
    link_latency: float
    allreduce_bus_bandwidth: float = GBps(25.0)

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError(f"num_gpus must be >= 1, got {self.num_gpus}")
        for name in ("link_bandwidth", "allreduce_bus_bandwidth"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.link_latency) and self.link_latency >= 0):
            raise ConfigError(
                f"link_latency must be finite and >= 0, got {self.link_latency}"
            )

    # ------------------------------------------------------------------
    # Pair queries
    # ------------------------------------------------------------------
    def p2p_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck bandwidth (bytes/s) between two GPUs."""
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            raise ConfigError("p2p bandwidth is undefined for src == dst")
        return self.link_bandwidth

    def p2p_latency(self, src: int, dst: int) -> float:
        """Accumulated hop latency (µs) between two GPUs; 0 for ``src == dst``."""
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            return 0.0
        return _HOPS[self.kind] * self.link_latency

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise ConfigError(
                f"GPU id {gpu} out of range for {self.num_gpus}-GPU topology"
            )


def nvlink_mesh(
    num_gpus: int,
    *,
    link_bandwidth: float = GBps(25.0),
    link_latency: float = us(1.5),
    allreduce_bus_bandwidth: float = GBps(32.75),
) -> Topology:
    """Fully-connected NVLink mesh, the paper's V100 testbed shape.

    Each GPU pair shares a direct link with ``link_bandwidth`` per direction
    (first-generation NVLink sustains ~25 GB/s per direction on a V100 pair).
    """
    return Topology(
        num_gpus=num_gpus,
        kind=InterconnectKind.NVLINK,
        link_bandwidth=link_bandwidth,
        link_latency=link_latency,
        allreduce_bus_bandwidth=allreduce_bus_bandwidth,
    )


def pcie_switch(
    num_gpus: int,
    *,
    lane_bandwidth: float = GBps(16.0),
    lane_latency: float = us(3.0),
    allreduce_bus_bandwidth: float = GBps(14.88),
) -> Topology:
    """GPUs hanging off one PCIe switch, the paper's A100 testbed shape.

    No direct GPU↔GPU link exists; every transfer crosses the switch, one
    PCIe lane up and one down, bounded by the lane bandwidth.
    """
    return Topology(
        num_gpus=num_gpus,
        kind=InterconnectKind.PCIE_SWITCH,
        link_bandwidth=lane_bandwidth,
        link_latency=lane_latency,
        allreduce_bus_bandwidth=allreduce_bus_bandwidth,
    )
