"""Binding a :class:`~repro.faults.plan.FaultPlan` to a running machine.

The injector is the only object the simulator hooks ever see.  It answers
point queries ("how inflated is this kernel right now?", "does this launch
fail?") by evaluating the plan at the engine's current time, and it owns the
boundary bookkeeping: at every fault-window edge it re-banks kernel progress
(:meth:`~repro.sim.gpu.Machine.refresh_rates`) so a fault that activates
mid-kernel stretches only the *remaining* portion — the same piecewise
integration the contention model uses.

Zero-cost contract: an unarmed machine (``machine.fault_injector is None``)
executes no fault code at all, and an armed injector with an empty plan
returns neutral factors everywhere, so fault support never perturbs a
healthy run.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError, FaultError
from repro.faults.plan import FaultPlan
from repro.sim.gpu import Machine
from repro.sim.kernel import Kernel

__all__ = ["FaultInjector"]


class FaultInjector:
    """Evaluates a fault plan against a machine's clock and hook sites.

    Counters (``launch_attempts``, ``launch_failures``) feed the
    :class:`~repro.faults.resilience.ResilienceReport`.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.machine: Optional[Machine] = None
        self.launch_attempts = 0
        self.launch_failures = 0

    # ------------------------------------------------------------------
    def arm(self, machine: Machine) -> None:
        """Attach to ``machine``.

        Schedules one rate-refresh event per fault-window boundary so
        in-flight kernels re-integrate at the new factors the instant a
        fault activates or clears.  A refresh is a background event: it
        only re-integrates in-flight kernels, each of which has its own
        completion event, so it never keeps a heartbeat (observability
        sampling) alive after the work is done.  Faults skew ranks, so an
        armed machine simulates every rank on its own
        (:meth:`~repro.sim.gpu.Machine.arm_fault_injector`).
        """
        if self.machine is not None:
            raise ConfigError("fault injector is already armed")
        for fault in self.plan.stragglers:
            if not 0 <= fault.gpu < len(machine.gpus):
                raise ConfigError(
                    f"straggler targets GPU {fault.gpu} but the machine has "
                    f"{len(machine.gpus)} GPUs (0..{len(machine.gpus) - 1})"
                )
        machine.arm_fault_injector(self)
        self.machine = machine
        now = machine.engine.now
        for t in self.plan.boundaries():
            if t > now:
                machine.engine.schedule_background_at(
                    t, machine.refresh_rates, priority=3
                )

    def _require_armed(self) -> Machine:
        if self.machine is None:
            raise ConfigError("fault injector used before arm()")
        return self.machine

    @property
    def now(self) -> float:
        """The armed machine's current simulation time."""
        return self._require_armed().engine.now

    # ------------------------------------------------------------------
    # Hook sites (called from repro.sim when armed)
    # ------------------------------------------------------------------
    def kernel_inflation(self, kernel: Kernel, gpu_id: int) -> float:
        """Multiplicative slowdown a fault imposes on one resident kernel.

        Stragglers inflate compute-like kernels only: an SM-clock throttle
        stretches arithmetic but leaves bandwidth-bound collective members
        (whose pace the link sets) untouched.
        """
        if kernel.kind.is_comm:
            return 1.0
        return self.plan.compute_inflation(gpu_id, self.now)

    def check_launch(self, batch_id: int) -> None:
        """Raise :class:`FaultError` when a launch-failure window is active.

        Called by the recovery layer before handing a batch to a strategy —
        the simulated analogue of the CUDA launch returning an error.
        """
        self.launch_attempts += 1
        if self.plan.launch_failing(self.now):
            self.launch_failures += 1
            raise FaultError(
                f"injected transient launch failure for batch {batch_id} "
                f"at t={self.now:.1f}us"
            )
