"""Collective-communication cost models (the NCCL substitute).

The simulator does not move bytes; it needs *durations* and *footprints* for
communication kernels.  Costs follow the standard alpha-beta treatment:

* **Ring all-reduce** over ``p`` ranks moves ``2·(p−1)/p · S`` bytes per rank
  through the bottleneck link, so with the measured all-reduce *bus*
  bandwidth ``B`` (what NCCL-tests report, and what the paper quotes —
  32.75 GB/s on the V100/NVLink node, 14.88 GB/s on the A100/PCIe node) the
  transfer term is ``2(p−1)/p · S / B``; each of the ``2(p−1)`` ring steps
  additionally pays the hop latency.
* **Point-to-point** pays path latency plus ``S / link-bandwidth``.

The *footprint* side models the §3.5 mitigation: NCCL by default allocates
generously many channels (CUDA blocks); Liger shrinks them with
``NCCL_MAX_NCHANNELS`` / ``NCCL_NTHREADS`` because a few channels already
saturate the link.  Here the channel count maps to the SM occupancy of the
communication kernel — reducing channels is what makes a collective and a
GEMM co-resident at all under the left-over policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.hw.topology import Topology
from repro.sim.kernel import (
    CollectiveKind,
    CollectiveOp,
    check_collective,
    check_kernel_profile,
    collective_from_profile,
)
from repro.units import us

__all__ = ["NcclConfig", "CollectiveCostModel"]

#: NCCL's default channel allocation on the nodes modelled here.
DEFAULT_NCCL_CHANNELS = 12
#: SM occupancy contributed per NCCL channel (one CUDA block per channel,
#: normalised by a typical 80–108-SM device).
OCCUPANCY_PER_CHANNEL = 0.018


@dataclass(frozen=True)
class NcclConfig:
    """The communication-library tuning surface Liger manipulates (§3.5).

    ``max_nchannels`` mirrors ``NCCL_MAX_NCHANNELS``; fewer channels → lower
    SM occupancy (and a mild bandwidth derate once below the saturation
    knee).  ``min_latency`` is the per-collective base cost (rendezvous +
    protocol), independent of message size.
    """

    max_nchannels: int = DEFAULT_NCCL_CHANNELS
    min_latency: float = us(8.0)
    #: Channels needed to saturate the link; below this, bandwidth derates
    #: linearly.  The paper found "less blocks are enough to saturate the
    #: peak bandwidth", i.e. this knee sits well below the default.
    saturation_channels: int = 3

    def __post_init__(self) -> None:
        if self.max_nchannels < 1:
            raise ConfigError("max_nchannels must be >= 1")
        if self.min_latency < 0:
            raise ConfigError("min_latency must be >= 0")
        if self.saturation_channels < 1:
            raise ConfigError("saturation_channels must be >= 1")

    @property
    def occupancy(self) -> float:
        """SM footprint of one collective kernel under this config."""
        return min(1.0, self.max_nchannels * OCCUPANCY_PER_CHANNEL)

    @property
    def bandwidth_fraction(self) -> float:
        """Fraction of peak bus bandwidth achievable with these channels."""
        if self.max_nchannels >= self.saturation_channels:
            return 1.0
        return self.max_nchannels / self.saturation_channels

    def reduced(self) -> "NcclConfig":
        """The Liger mitigation: just enough channels to saturate."""
        return NcclConfig(
            max_nchannels=self.saturation_channels,
            min_latency=self.min_latency,
            saturation_channels=self.saturation_channels,
        )


class CollectiveCostModel:
    """Durations and kernel groups for collectives on a given topology."""

    def __init__(self, topology: Topology, nccl: Optional[NcclConfig] = None) -> None:
        self.topology = topology
        self.nccl = nccl or NcclConfig()
        #: Optional hook returning the *currently achievable* fraction of the
        #: nominal link bandwidth (0 < f ≤ 1).  Fault injection wires this to
        #: the active :class:`~repro.faults.plan.FaultPlan` so collectives
        #: issued during a degraded-interconnect window are costed at the
        #: reduced bandwidth.  ``None`` (the default) means healthy links and
        #: is bit-exact with the unhooked cost model.
        self.bandwidth_scale: Optional[Callable[[], float]] = None
        #: Ring-hop latency per participant tuple.  The topology is frozen
        #: (link faults go through ``bandwidth_scale``), and every
        #: instantiated collective would otherwise make ``p`` pair queries.
        self._hop_latency: Dict[Tuple[int, ...], float] = {}

    def _link_health(self) -> float:
        """Current bandwidth fraction from the fault hook (1.0 when healthy)."""
        if self.bandwidth_scale is None:
            return 1.0
        scale = self.bandwidth_scale()
        if not 0.0 < scale <= 1.0:
            raise ConfigError(f"bandwidth_scale hook returned {scale}, not in (0, 1]")
        return scale

    # ------------------------------------------------------------------
    # Durations
    # ------------------------------------------------------------------
    def allreduce_duration(self, size_bytes: float, participants: Sequence[int]) -> float:
        """Ring all-reduce duration (µs) for ``size_bytes`` over the ranks."""
        if size_bytes < 0:
            raise ConfigError("allreduce size must be >= 0")
        p = len(participants)
        if p <= 1:
            return 0.0
        bw = (
            self.topology.allreduce_bus_bandwidth
            * self.nccl.bandwidth_fraction
            * self._link_health()
        )
        hop_latency = self._ring_hop_latency(participants)
        steps = 2 * (p - 1)
        transfer_us = (2.0 * (p - 1) / p) * size_bytes / bw * 1e6
        return self.nccl.min_latency + steps * hop_latency + transfer_us

    def alltoall_duration(
        self, size_bytes: float, participants: Sequence[int]
    ) -> float:
        """All-to-all personalized exchange duration (µs).

        ``size_bytes`` is the per-rank payload: each rank scatters
        ``(p−1)/p · S`` of its buffer to peers in ``p−1`` pipelined steps,
        so relative to ring all-reduce the transfer and latency terms are
        halved (one pass instead of reduce-scatter + all-gather).
        """
        if size_bytes < 0:
            raise ConfigError("alltoall size must be >= 0")
        p = len(participants)
        if p <= 1:
            return 0.0
        bw = (
            self.topology.allreduce_bus_bandwidth
            * self.nccl.bandwidth_fraction
            * self._link_health()
        )
        hop_latency = self._ring_hop_latency(participants)
        steps = p - 1
        transfer_us = ((p - 1) / p) * size_bytes / bw * 1e6
        return self.nccl.min_latency + steps * hop_latency + transfer_us

    def p2p_duration(self, size_bytes: float, src: int, dst: int) -> float:
        """Point-to-point transfer duration (µs)."""
        if size_bytes < 0:
            raise ConfigError("p2p size must be >= 0")
        latency = self.topology.p2p_latency(src, dst)  # range-checks both ids
        if src == dst:
            return 0.0
        bw = (
            self.topology.p2p_bandwidth(src, dst)
            * self.nccl.bandwidth_fraction
            * self._link_health()
        )
        return self.nccl.min_latency + latency + size_bytes / bw * 1e6

    def _ring_hop_latency(self, participants: Sequence[int]) -> float:
        """Mean adjacent-pair latency along the ring order given (memoized)."""
        key = tuple(participants)
        latency = self._hop_latency.get(key)
        if latency is None:
            p = len(key)
            hops = [
                self.topology.p2p_latency(key[i], key[(i + 1) % p])
                for i in range(p)
            ]
            latency = self._hop_latency[key] = sum(hops) / p
        return latency

    # ------------------------------------------------------------------
    # Kernel-group construction
    # ------------------------------------------------------------------
    def make_allreduce(
        self,
        size_bytes: float,
        participants: Sequence[int],
        *,
        batch_id: int = -1,
        layer: int = -1,
        name: str = "",
        op: str = "all_reduce",
    ) -> CollectiveOp:
        """Build an all-reduce :class:`CollectiveOp` with one member per rank."""
        return self._make(
            CollectiveKind.ALL_REDUCE, size_bytes, participants,
            self.nccl.occupancy, batch_id, layer,
            name or f"allreduce_L{layer}_b{batch_id}", op,
        )

    def make_all_to_all(
        self,
        size_bytes: float,
        participants: Sequence[int],
        *,
        batch_id: int = -1,
        layer: int = -1,
        name: str = "",
        op: str = "all_to_all",
    ) -> CollectiveOp:
        """Build an all-to-all :class:`CollectiveOp` with one member per rank."""
        return self._make(
            CollectiveKind.ALL_TO_ALL, size_bytes, participants,
            self.nccl.occupancy, batch_id, layer,
            name or f"alltoall_L{layer}_b{batch_id}", op,
        )

    def make_p2p(
        self,
        size_bytes: float,
        src: int,
        dst: int,
        *,
        batch_id: int = -1,
        layer: int = -1,
        name: str = "",
    ) -> CollectiveOp:
        """Build a p2p send/recv pair as a two-member collective."""
        return self._make(
            # p2p copies are driven by copy engines + a light proxy kernel;
            # much smaller SM footprint than a ring collective.
            CollectiveKind.P2P, size_bytes, [src, dst],
            min(self.nccl.occupancy, 0.04), batch_id, layer,
            name or f"p2p_{src}to{dst}_b{batch_id}", "p2p",
        )

    def _make(
        self, kind, size_bytes, participants, occupancy, batch_id, layer, name, op
    ) -> CollectiveOp:
        mem = self._comm_memory_intensity(size_bytes)
        check_kernel_profile(name, 0.0, occupancy, mem)
        return self.instantiate(
            kind, size_bytes, participants, occupancy, mem, batch_id, layer,
            name, op,
        )

    def instantiate(
        self, kind, size_bytes, participants, occupancy, memory_intensity,
        batch_id, layer, name, op,
    ) -> CollectiveOp:
        """Cost a collective at the current link health and build it.

        The footprint (``occupancy``, ``memory_intensity``) must already
        have passed :func:`~repro.sim.kernel.check_kernel_profile`; the
        ranks and duration are checked here, once per collective, and the
        op and its members are built by the slot-copy constructor.
        """
        participants = list(participants)
        if kind is CollectiveKind.P2P:
            duration = self.p2p_duration(size_bytes, *participants)
        elif kind is CollectiveKind.ALL_REDUCE:
            duration = self.allreduce_duration(size_bytes, participants)
        elif kind is CollectiveKind.ALL_TO_ALL:
            duration = self.alltoall_duration(size_bytes, participants)
        else:
            raise ConfigError(f"no cost model for {kind.value} collectives")
        check_collective(participants, duration)
        return collective_from_profile(
            kind, size_bytes, participants, duration, occupancy,
            memory_intensity, batch_id, layer, name, op,
        )

    @staticmethod
    def _comm_memory_intensity(size_bytes: float) -> float:
        """HBM pressure of a collective: meaningful only for large payloads."""
        if size_bytes <= 0:
            return 0.05
        # A collective streams its buffer a small constant number of times;
        # tiny messages are latency-bound and stress memory negligibly.
        return max(0.05, min(0.45, size_bytes / 64e6 * 0.45))
