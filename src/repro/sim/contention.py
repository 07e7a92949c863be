"""Hardware resource contention between concurrently-resident kernels.

§2.3.2 of the paper identifies two interference channels when computation and
communication kernels overlap on one GPU:

* **Compute:** collective kernels occupy SMs for reduction arithmetic and
  network driving, so co-running compute-intensive kernels slow each other.
* **Memory bandwidth:** both kernel classes stream through HBM; when the
  summed demand exceeds the device bandwidth, everybody stretches.

We model this with a pluggable :class:`ContentionModel`: given the kernels
resident on one device, it returns a *slowdown* ≥ 1 per kernel, in order.  The
machine integrates kernel progress piecewise — whenever the resident set
changes, elapsed progress is banked at the old rates and new slowdowns are
computed — so contention is *emergent*: Liger's offline contention-factor
profiling (§3.5) measures these effects the same way the authors measured
theirs, rather than reading back a constant we injected.

The default coefficients are phenomenological, calibrated so the profiled
factors land near the paper's (≈1.10 on the V100 node, ≈1.15 on the A100
node) and so same-type concurrency contends much harder than mixed-type
overlap — the failure mode Liger's Principle 1 exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigError
from repro.sim.kernel import Kernel

__all__ = ["ContentionModel", "NullContention", "DefaultContention", "default_contention_for"]


class ContentionModel:
    """Interface: map a device's resident kernel set to per-kernel slowdowns."""

    #: True when :meth:`slowdowns` reads nothing but each kernel's
    #: ``(kind, occupancy, memory_intensity)`` shape.  Lets the machine
    #: cache slowdown vectors by resident *shape* (identical shapes recur
    #: endlessly under steady-state decode) instead of recomputing on every
    #: resident-set change.  Leave False in a subclass that reads any other
    #: kernel attribute — the machine then asks the model on every change.
    pure_in_shape = False

    def slowdowns(self, resident: Sequence[Kernel]) -> List[float]:
        """Return one slowdown per resident kernel, in ``resident`` order.

        Slowdowns must be ≥ 1.  A kernel running alone must get exactly 1.0
        (profiled no-load durations are definitions, not approximations);
        the machine relies on this and never asks about a lone kernel.
        """
        raise NotImplementedError


class NullContention(ContentionModel):
    """No interference: every kernel always runs at its no-load duration.

    Used by unit tests and by the ``no-contention`` ablation, where Liger's
    contention factors should profile to exactly 1.0.
    """

    pure_in_shape = True

    def slowdowns(self, resident: Sequence[Kernel]) -> List[float]:
        return [1.0] * len(resident)


@dataclass
class DefaultContention(ContentionModel):
    """The calibrated interference model.

    Parameters
    ----------
    comm_on_compute:
        How strongly a resident COMM kernel slows compute kernels, per unit
        of the COMM kernel's SM occupancy.  NCCL rings with default channel
        counts occupy real SMs; shrinking channels (the §3.5 mitigation)
        shrinks ``occupancy`` and therefore this penalty, with no change to
        the model itself.
    compute_on_comm:
        How strongly resident compute occupancy slows a COMM kernel.  Higher
        on PCIe nodes, where the collective is latency-sensitive and loses
        more when its proxy/reduction blocks are descheduled.
    same_kind_compute:
        Mutual penalty between co-resident compute kernels (severe — the
        paper calls concurrent GEMMs "severely impeding each other").
    same_kind_comm:
        Mutual penalty between co-resident collectives (they share links).
    memory_pressure:
        Weight of the shared-HBM term: when the summed ``memory_intensity``
        of residents exceeds 1.0, everyone stretches proportionally.
    """

    comm_on_compute: float = 0.45
    compute_on_comm: float = 0.10
    same_kind_compute: float = 0.85
    same_kind_comm: float = 0.60
    memory_pressure: float = 0.35

    # Reads only kind/occupancy/memory_intensity below — eligible for the
    # machine's shape-keyed memo.
    pure_in_shape = True

    def __post_init__(self) -> None:
        for name in (
            "comm_on_compute",
            "compute_on_comm",
            "same_kind_compute",
            "same_kind_comm",
            "memory_pressure",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"contention coefficient {name} must be >= 0")

    def slowdowns(self, resident: Sequence[Kernel]) -> List[float]:
        if len(resident) <= 1:
            return [1.0] * len(resident)

        # Shared reductions, hoisted out of the per-kernel loop.  Each is
        # the sequential left-to-right sum over the resident order — the
        # association the per-kernel generator sums used to produce, which
        # must not change (reduction order is observable in the last ULP).
        # ``is_compute_like`` is the exact complement of ``is_comm``, so a
        # kernel never contributes to (or is excluded from) both classes.
        total_mem = sum(k.memory_intensity for k in resident)
        mem_overcommit = max(0.0, total_mem - 1.0)
        mem_scale = self.memory_pressure * mem_overcommit

        comp_occ: List[float] = []
        n_comm = 0
        comm_sum = 0.0
        for k in resident:
            if k.kind.is_comm:
                comm_sum += k.occupancy
                n_comm += 1
            else:
                comp_occ.append(k.occupancy)
        comp_sum = sum(comp_occ)
        # A comm kernel sees every compute kernel (no self to exclude) and
        # the other comm kernels; the counterpart holds for compute kernels.
        base_comm = (
            1.0 + self.compute_on_comm * comp_sum
        ) + self.same_kind_comm * float(n_comm - 1)
        base_comp = 1.0 + self.comm_on_compute * comm_sum

        # Compute-on-compute is the one genuinely per-kernel reduction: the
        # sequential sum over the *other* compute kernels restarts at a
        # different element for every kernel, so the chains share no
        # partial sums.  O(c²) over the co-resident compute kernels —
        # small, since Principle 1 exists to avoid stacking compute.
        skc = self.same_kind_compute
        c = len(comp_occ)
        excl: List[float] = []
        if c > 1:
            for j in range(c):
                s = 0.0
                for i in range(c):
                    if i != j:
                        s += comp_occ[i]
                excl.append(base_comp + skc * s)
        elif c == 1:
            excl.append(base_comp + skc * 0.0)

        # Per-kernel slowdown before the shared-HBM term, in resident order.
        pre: List[float] = []
        ci = 0
        for k in resident:
            if k.kind.is_comm:
                pre.append(base_comm)
            else:
                pre.append(excl[ci])
                ci += 1

        # Shared HBM pressure applies to everyone, scaled by how much of
        # the bandwidth the kernel itself needs.
        return [p + mem_scale * k.memory_intensity for k, p in zip(resident, pre)]


def default_contention_for(node_name: str) -> DefaultContention:
    """Calibrated coefficients per testbed.

    The A100-PCIe node profiles to a *larger* contention factor than the
    V100-NVLink node in the paper (1.15 vs 1.10) despite having more compute,
    because its PCIe collectives are more sensitive to losing SM timeslices;
    we reflect that with a higher ``compute_on_comm``.
    """
    if "a100" in node_name.lower():
        return DefaultContention(compute_on_comm=0.155, comm_on_compute=0.50)
    return DefaultContention()
