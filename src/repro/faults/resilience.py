"""Recovery policy: retry, shed, and count violations.

This module turns the raw fault machinery (:mod:`repro.faults.injector`,
:class:`repro.core.PrincipleMonitor`) into serving-level behaviour.  The
:class:`RecoveryManager` sits between the server's arrival loop and the
bound strategy and applies two policies:

1. **Retry with exponential backoff** — a batch submission that hits an
   injected :class:`~repro.errors.FaultError` (transient launch failure) is
   re-attempted after ``RETRY_BACKOFF_US · BACKOFF_MULTIPLIER^attempt`` µs.
   A batch that exhausts ``max_retries`` is *shed* (counted, dropped).
2. **Principle-1 accounting** — the monitor counts executed rounds whose
   secondary subset outlived the primary window, and each one is published
   as a :class:`~repro.obs.events.Principle1Violation`.  The schedule itself
   is never switched: the paper bounds such overruns with contention
   anticipation (§3.5) and has no runtime fallback.

Every decision is appended to the :class:`ResilienceReport`, the single
artifact a post-mortem needs: retry/shed counts, violation statistics, and
the faults that were injected.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.events import EventBus, Principle1Violation, RetryScheduled
from repro.parallel.base import ParallelStrategy
from repro.serving.request import Batch
from repro.sim.gpu import Machine

logger = logging.getLogger("repro.faults.resilience")

__all__ = [
    "ResilienceConfig",
    "ResilienceReport",
    "RecoveryManager",
]

#: First launch-retry delay (µs); grows by :data:`BACKOFF_MULTIPLIER` per
#: attempt.
RETRY_BACKOFF_US = 200.0
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunable knobs of the recovery policy.

    One field per ``repro faults`` flag.  The retry backoff is this
    module's :data:`RETRY_BACKOFF_US` and :data:`BACKOFF_MULTIPLIER`; the
    violation margins are constants of :mod:`repro.core.runtime`.
    """

    #: Launch retries per batch before shedding.
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class ResilienceReport:
    """What the recovery layer did during one serving run."""

    faults: List[str] = field(default_factory=list)
    #: Launch retries, read from the session's ServingMetrics at finalize().
    retries: int = 0
    shed_batches: List[int] = field(default_factory=list)
    violations: int = 0
    rounds_observed: int = 0
    launch_attempts: int = 0
    launch_failures: int = 0

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = ["resilience report:"]
        lines.append(
            f"  faults injected: {', '.join(self.faults) if self.faults else 'none'}"
        )
        lines.append(
            f"  principle-1: {self.violations} violation(s) over "
            f"{self.rounds_observed} executed round(s)"
        )
        lines.append(
            f"  launches: {self.launch_attempts} attempt(s), "
            f"{self.launch_failures} injected failure(s), {self.retries} "
            f"retr{'y' if self.retries == 1 else 'ies'}, "
            f"{len(self.shed_batches)} shed batch(es)"
        )
        return "\n".join(lines)


class RecoveryManager:
    """Routes submissions through the retry policy for one server.

    Builds the recovery stack around the bound ``strategy``: arms a
    :class:`~repro.faults.injector.FaultInjector` for ``fault_plan`` on
    ``machine`` and attaches a :class:`~repro.core.runtime.PrincipleMonitor`
    when the strategy carries a Liger runtime.

    Parameters
    ----------
    strategy:
        The bound strategy the server was configured with.
    machine:
        The serving machine the strategy is bound to.
    fault_plan:
        Faults to inject; ``None`` arms an empty plan.
    config:
        Policy knobs; defaults are sized for the bundled scenarios.
    metrics:
        The server's :class:`~repro.serving.metrics.ServingMetrics`;
        every scheduled retry is counted there, and :meth:`finalize` copies
        the count into the report.  Shed batches go to :attr:`on_shed`,
        which owns their terminal bookkeeping.
    bus:
        Optional event bus; retries and Principle-1 violations are
        published there.
    """

    def __init__(
        self,
        strategy: ParallelStrategy,
        machine: Machine,
        *,
        fault_plan: Optional[FaultPlan] = None,
        config: Optional[ResilienceConfig] = None,
        metrics,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.injector = FaultInjector(fault_plan)
        self.injector.arm(machine)
        self.strategy = strategy
        self.metrics = metrics
        self.bus = bus
        self.machine = machine
        self.report = ResilienceReport(
            faults=[f.describe() for f in self.injector.plan.faults]
        )
        self._finalized = False
        #: Called with each shed batch; the server sets it to its shed
        #: callback, which owns the batch's terminal bookkeeping.
        self.on_shed: Optional[Callable[[Batch], None]] = None
        # Principle-1 monitoring needs the Liger runtime's round hook; its
        # module is loaded whenever a strategy carries a runtime.
        runtime = getattr(strategy, "runtime", None)
        self.monitor = None
        if runtime is not None:
            from repro.core.runtime import PrincipleMonitor

            self.monitor = PrincipleMonitor(
                on_violation=self._on_violation if bus is not None else None
            )
            self.monitor.attach(runtime)

    # ------------------------------------------------------------------
    # Submission path: retry with backoff
    # ------------------------------------------------------------------
    def submit(self, batch: Batch) -> None:
        """Submit ``batch`` under the retry policy."""
        self._attempt(batch, 0)

    def _attempt(self, batch: Batch, attempt: int) -> None:
        try:
            self.injector.check_launch(batch.batch_id)
        except FaultError:
            self._on_launch_failure(batch, attempt)
            return
        self.strategy.submit_batch(batch)

    def _on_launch_failure(self, batch: Batch, attempt: int) -> None:
        if attempt >= self.config.max_retries:
            self._shed(batch)
            return
        delay = RETRY_BACKOFF_US * (BACKOFF_MULTIPLIER ** attempt)
        self.metrics.retries += 1
        now = self.machine.engine.now
        logger.info(
            "t=%.0fus batch %d launch failed (attempt %d), retrying in %.0fus",
            now,
            batch.batch_id,
            attempt + 1,
            delay,
        )
        if self.bus is not None:
            self.bus.publish(
                RetryScheduled(
                    time_us=now,
                    batch_id=batch.batch_id,
                    attempt=attempt + 1,
                    delay_us=delay,
                )
            )
        self.machine.engine.schedule(
            delay, lambda: self._attempt(batch, attempt + 1), priority=10
        )

    def _shed(self, batch: Batch) -> None:
        self.report.shed_batches.append(batch.batch_id)
        now = self.machine.engine.now
        logger.warning(
            "t=%.0fus batch %d shed after exhausting retries",
            now,
            batch.batch_id,
        )
        if self.on_shed is not None:
            self.on_shed(batch)

    def _on_violation(self, round_index: int, overshoot: float, time: float) -> None:
        self.bus.publish(
            Principle1Violation(
                time_us=time, round_index=round_index, overshoot_us=overshoot
            )
        )

    # ------------------------------------------------------------------
    def finalize(self) -> ResilienceReport:
        """Fold the collaborators' counters into the report and return it."""
        if not self._finalized:
            self._finalized = True
            if self.monitor is not None:
                self.report.violations = self.monitor.violations
                self.report.rounds_observed = self.monitor.rounds_observed
            self.report.retries = self.metrics.retries
            self.report.launch_attempts = self.injector.launch_attempts
            self.report.launch_failures = self.injector.launch_failures
        return self.report

