"""Recovery policy: retry, shed, degrade, and re-probe.

This module turns the raw fault machinery (:mod:`repro.faults.injector`,
:mod:`repro.faults.watchdog`, :mod:`repro.faults.monitor`) into serving-level
behaviour.  The :class:`RecoveryManager` sits between the server's arrival
loop and the bound strategy and applies three policies:

1. **Retry with exponential backoff** — a batch submission that hits an
   injected :class:`~repro.errors.FaultError` (transient launch failure) is
   re-attempted after ``RETRY_BACKOFF_US · BACKOFF_MULTIPLIER^attempt`` µs.
   A batch that exhausts ``max_retries`` is *shed* (counted, dropped).
2. **Graceful strategy degradation** — when the Principle-1 monitor counts
   ``violation_threshold`` executed-round violations, interleaving is no
   longer paying for itself: the manager *downgrades*, routing subsequent
   batches to the plain intra-op fallback strategy (which shares the machine
   but never overlaps, so a straggler merely slows it — it cannot break it).
   In-flight interleaved batches drain normally.
3. **Recovery probing** — while degraded, a heartbeat probes the fault plan
   every ``recovery_probe_us`` µs; once no fault window is active the manager
   *upgrades* back to the primary strategy and records the recovery time.

Every decision is appended to the :class:`ResilienceReport`, the single
artifact a post-mortem needs: strategy changes, retry/shed counts, violation
and watchdog statistics, and the faults that were active.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.monitor import PrincipleMonitor
from repro.faults.watchdog import Watchdog
from repro.obs.events import (
    EventBus,
    Principle1Violation,
    RetryScheduled,
    StrategyDowngraded,
    StrategyUpgraded,
)
from repro.parallel.base import ParallelStrategy
from repro.serving.request import Batch

logger = logging.getLogger("repro.faults.resilience")

__all__ = [
    "ResilienceConfig",
    "StrategyChange",
    "ResilienceReport",
    "RecoveryManager",
    "attach_recovery",
]

#: First launch-retry delay (µs); grows by :data:`BACKOFF_MULTIPLIER` per
#: attempt.
RETRY_BACKOFF_US = 200.0
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunable knobs of the recovery policy (times in µs).

    One field per ``repro faults`` flag.  The retry backoff is this
    module's :data:`RETRY_BACKOFF_US` and :data:`BACKOFF_MULTIPLIER`; the
    violation margins and the watchdog's timings are constants of
    :mod:`repro.faults.monitor` and :mod:`repro.faults.watchdog`.
    """

    #: Executed-round Principle-1 violations tolerated before downgrading.
    violation_threshold: int = 3
    #: Probe period while degraded: how often to check whether faults cleared.
    recovery_probe_us: float = 20_000.0
    #: Launch retries per batch before shedding.
    max_retries: int = 5
    #: Arm the livelock watchdog for the run.
    enable_watchdog: bool = True
    #: Allow downgrading to the fallback strategy at all.
    enable_fallback: bool = True

    def __post_init__(self) -> None:
        if self.violation_threshold < 1:
            raise ConfigError(
                f"violation_threshold must be >= 1, got {self.violation_threshold}"
            )
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.recovery_probe_us) and self.recovery_probe_us > 0):
            raise ConfigError(
                f"recovery_probe_us must be finite and > 0, "
                f"got {self.recovery_probe_us}"
            )


@dataclass(frozen=True)
class StrategyChange:
    """One recorded strategy transition (downgrade or upgrade)."""

    kind: str  #: ``"downgrade"`` or ``"upgrade"``
    time_us: float  #: simulation time of the transition
    strategy: str  #: name of the strategy active *after* the change
    reason: str  #: human-readable trigger

    def describe(self) -> str:
        """One-line rendering for the report."""
        return f"t={self.time_us:.0f}us {self.kind} -> {self.strategy}: {self.reason}"


@dataclass
class ResilienceReport:
    """What the recovery layer did during one serving run."""

    faults: List[str] = field(default_factory=list)
    changes: List[StrategyChange] = field(default_factory=list)
    downgrades: int = 0
    upgrades: int = 0
    recovery_times_us: List[float] = field(default_factory=list)
    #: Launch retries, read from the session's ServingMetrics at finalize().
    retries: int = 0
    shed_batches: List[int] = field(default_factory=list)
    batches_on_fallback: int = 0
    violations: int = 0
    rounds_observed: int = 0
    launch_attempts: int = 0
    launch_failures: int = 0
    jittered_commands: int = 0
    watchdog_checks: int = 0
    watchdog_tripped: bool = False

    @property
    def recovered(self) -> bool:
        """True when every downgrade was followed by an upgrade."""
        return self.downgrades > 0 and self.upgrades == self.downgrades

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
            f"  strategy: {self.downgrades} downgrade(s), {self.upgrades} "
            f"upgrade(s), {self.batches_on_fallback} batch(es) served on fallback"
        )
        for change in self.changes:
            lines.append(f"    {change.describe()}")
        for rt in self.recovery_times_us:
            lines.append(f"  recovery time: {rt / 1e3:.1f} ms")
        lines.append(
            f"  launches: {self.launch_attempts} attempt(s), "
            f"{self.launch_failures} injected failure(s), {self.retries} "
            f"retr{'y' if self.retries == 1 else 'ies'}, "
            f"{len(self.shed_batches)} shed batch(es)"
        )
        if self.jittered_commands:
            lines.append(f"  host jitter: {self.jittered_commands} command(s) delayed")
        lines.append(
            f"  watchdog: {self.watchdog_checks} check(s), "
            f"{'TRIPPED' if self.watchdog_tripped else 'clean'}"
        )
        return "\n".join(lines)


class RecoveryManager:
    """Routes submissions through retry/degradation policy for one server.

    Parameters
    ----------
    injector:
        Armed fault injector (its machine is the serving machine).
    primary:
        The bound strategy the server was configured with.
    fallback:
        Optional bound degradation target (plain intra-op).  ``None`` — or
        ``enable_fallback=False`` — disables downgrading; violations are
        still counted.
    config:
        Policy knobs; defaults are sized for the bundled scenarios.
    metrics:
        The server's :class:`~repro.serving.metrics.ServingMetrics`;
        every scheduled retry is counted there, and :meth:`finalize` copies
        the count into the report.  Shed batches go to :attr:`on_shed`,
        which owns their terminal bookkeeping.
    """

    def __init__(
        self,
        injector: FaultInjector,
        primary: ParallelStrategy,
        *,
        fallback: Optional[ParallelStrategy] = None,
        config: Optional[ResilienceConfig] = None,
        metrics,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.injector = injector
        self.primary = primary
        self.fallback = fallback if self.config.enable_fallback else None
        self.metrics = metrics
        self.bus = bus
        self.machine = injector._require_armed()
        self.report = ResilienceReport(
            faults=[f.describe() for f in injector.plan.faults]
        )
        self.degraded = False
        self._degraded_since = 0.0
        self._violations_since_ok = 0
        self._finalized = False
        #: Called with each shed batch; the server sets it to its shed
        #: callback, which owns the batch's terminal bookkeeping.
        self.on_shed: Optional[Callable[[Batch], None]] = None
        # Principle-1 monitoring needs the Liger runtime's round hook.
        runtime = getattr(primary, "runtime", None)
        self.monitor: Optional[PrincipleMonitor] = None
        if runtime is not None:
            self.monitor = PrincipleMonitor(
                self.machine, on_violation=self._on_violation
            )
            self.monitor.attach(runtime)
        self.watchdog: Optional[Watchdog] = None
        if self.config.enable_watchdog:
            self.watchdog = Watchdog(self.machine, context=self._watchdog_context)

    # ------------------------------------------------------------------
    # Server integration
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start the watchdog heartbeat (call once work is scheduled)."""
        if self.watchdog is not None:
            self.watchdog.arm()

    @property
    def active_strategy(self) -> ParallelStrategy:
        """The strategy new batches are currently routed to."""
        if self.degraded and self.fallback is not None:
            return self.fallback
        return self.primary

    def open_batch_ids(self) -> List[int]:
        """Batch ids submitted but not yet completed (for diagnostics)."""
        ids = set(self.primary.open_batch_ids())
        if self.fallback is not None:
            ids.update(self.fallback.open_batch_ids())
        return sorted(ids)

    def _watchdog_context(self) -> List[str]:
        open_ids = self.open_batch_ids()
        lines = [f"open batches: {open_ids if open_ids else 'none'}"]
        active = self.injector.describe_active()
        if active:
            lines.append(f"active faults: {', '.join(active)}")
        return lines

    # ------------------------------------------------------------------
    # Submission path: retry/backoff then route
    # ------------------------------------------------------------------
    def submit(self, batch: Batch) -> None:
        """Submit ``batch`` under the retry/degradation policy."""
        self._attempt(batch, 0)

    def _attempt(self, batch: Batch, attempt: int) -> None:
        try:
            self.injector.check_launch(batch.batch_id)
        except FaultError:
            self._on_launch_failure(batch, attempt)
            return
        strategy = self.active_strategy
        if strategy is not self.primary:
            self.report.batches_on_fallback += 1
        strategy.submit_batch(batch)

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

    # ------------------------------------------------------------------
    # Degradation and recovery
    # ------------------------------------------------------------------
    def _on_violation(self, round_index: int, overshoot: float, time: float) -> None:
        self._violations_since_ok += 1
        if self.bus is not None:
            self.bus.publish(
                Principle1Violation(
                    time_us=time, round_index=round_index, overshoot_us=overshoot
                )
            )
        if self.degraded or self.fallback is None:
            return
        if self._violations_since_ok >= self.config.violation_threshold:
            self._downgrade(
                time,
                f"round {round_index} secondary subset outlived its window by "
                f"{overshoot:.0f}us ({self._violations_since_ok} violations)",
            )

    def _downgrade(self, time: float, reason: str) -> None:
        assert self.fallback is not None
        self.degraded = True
        self._degraded_since = time
        self._violations_since_ok = 0
        self.report.downgrades += 1
        self.report.changes.append(
            StrategyChange("downgrade", time, self.fallback.name, reason)
        )
        logger.warning(
            "t=%.0fus strategy downgraded to %s: %s",
            time,
            self.fallback.name,
            reason,
        )
        if self.bus is not None:
            self.bus.publish(
                StrategyDowngraded(
                    time_us=time,
                    strategy=self.fallback.name,
                    reason=reason,
                )
            )
        self.machine.engine.heartbeat(
            self.config.recovery_probe_us, self._probe, priority=8
        )

    def _probe(self) -> bool:
        if not self.degraded:
            return False
        if self.injector.any_active():
            return True
        now = self.machine.engine.now
        self.degraded = False
        self.report.upgrades += 1
        self.report.recovery_times_us.append(now - self._degraded_since)
        self.report.changes.append(
            StrategyChange(
                "upgrade", now, self.primary.name, "no fault window active"
            )
        )
        logger.info(
            "t=%.0fus strategy upgraded back to %s: no fault window active",
            now,
            self.primary.name,
        )
        if self.bus is not None:
            self.bus.publish(
                StrategyUpgraded(
                    time_us=now,
                    strategy=self.primary.name,
                    reason="no fault window active",
                )
            )
        return False

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
            self.report.jittered_commands = self.injector.jittered_commands
            if self.watchdog is not None:
                self.report.watchdog_checks = self.watchdog.checks
                self.report.watchdog_tripped = self.watchdog.tripped
        return self.report


def attach_recovery(
    model,
    node,
    strategy: ParallelStrategy,
    machine,
    host,
    *,
    fault_plan=None,
    config: Optional[ResilienceConfig] = None,
    metrics,
    complete_callback=None,
    bus: Optional[EventBus] = None,
) -> RecoveryManager:
    """Build the full recovery stack around one bound strategy.

    Arms a :class:`~repro.faults.injector.FaultInjector` on the machine
    (wiring the strategy's collective cost model for link degradation) and —
    when the strategy carries a Liger runtime and the config allows it —
    binds a plain intra-op fallback on the *same* machine as the degradation
    target.  The fallback shares the primary's profiler (one cost model to
    degrade) and skips memory tracking, since the caller already accounts
    for HBM.  Both servers route their construction through here.
    """
    from repro.parallel.intra_op import IntraOpStrategy

    cfg = config or ResilienceConfig()
    injector = FaultInjector(fault_plan)
    injector.arm(machine, cost_models=[strategy.profiler.collectives])
    fallback: Optional[ParallelStrategy] = None
    if cfg.enable_fallback and getattr(strategy, "runtime", None) is not None:
        fallback = IntraOpStrategy(model, node, profiler=strategy.profiler)
        fallback.bind(machine, host, track_memory=False)
        if complete_callback is not None:
            fallback.on_batch_complete(complete_callback)
    return RecoveryManager(
        injector, strategy, fallback=fallback, config=cfg, metrics=metrics, bus=bus
    )

