"""The serving-session chassis shared by all four servers.

Three subsystems grew around the serving loop — faults/recovery, overload
protection, and observability — and each server used to wire them by hand:
engine/machine/host construction, strategy binding, recovery attachment,
gauge registration, the arm sequence, and the drain-or-deadlock check were
duplicated across :class:`~repro.serving.server.Server` and
:class:`~repro.serving.lifecycle.LifecycleServer`, while the generation
servers had none of it.  A :class:`ServingSession` owns all of that once:

* **construction** — ``Engine``/``Trace``/``Machine``/``Host``, strategy
  binding (including the bind-time memory-tracking mode), and a
  :class:`~repro.serving.metrics.ServingMetrics`, configured by the same
  six keywords every server takes (``contention``/``record_trace``/
  ``fault_plan``/``resilience``/``overload``/``observability``);
* **the submit path** — :meth:`ServingSession.submit` runs admission (the
  :class:`~repro.serving.overload.OverloadController`, when armed) or the
  ``RequestsAdmitted`` announcement, then stamps and publishes the
  dispatch and hands the batch to the recovery manager or the strategy;
* **the arm sequence** (recovery → overload → observability) and the
  drain-or-:class:`~repro.errors.DeadlockError` check with open-batch
  attribution.

The zero-cost convention survives the chassis: with every subsystem
keyword left at its default, a batch goes straight from the dispatch stamp
to the strategy, nothing is published, no heartbeat is armed, and the
timeline is bit-identical to the pre-chassis servers (pinned by the golden
fingerprints in ``tests/golden/serving_traces.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import ConfigError, DeadlockError
from repro.models.partition import check_placement
from repro.serving.metrics import ServingMetrics
from repro.serving.request import Batch
from repro.sim.contention import ContentionModel, default_contention_for
from repro.sim.engine import Engine
from repro.sim.gpu import Machine
from repro.sim.host import Host
from repro.sim.tracing import Trace

# The subsystems are imported on the branch that arms them, so a run that
# arms none never loads repro.obs, repro.faults or repro.serving.overload.
if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.faults.resilience import (
        RecoveryManager,
        ResilienceConfig,
        ResilienceReport,
    )
    from repro.hw.devices import NodeSpec
    from repro.models.specs import ModelSpec
    from repro.obs.observability import Observability
    from repro.parallel.base import ParallelStrategy
    from repro.serving.overload import (
        OverloadConfig,
        OverloadController,
        OverloadReport,
    )

__all__ = ["RunResult", "ServingSession"]


@dataclass
class RunResult:
    """Common base of every serving result.

    The cross-cutting subsystem summaries ride here so all four servers
    report them uniformly; each stays ``None`` unless its subsystem was
    enabled for the run.
    """

    strategy: str
    model: str
    node: str
    num_requests: int
    wall_events: int = field(default=0, kw_only=True)
    #: Recovery-layer summary; ``None`` unless faults/resilience were enabled.
    resilience: Optional["ResilienceReport"] = field(default=None, kw_only=True)
    #: Overload-layer summary; ``None`` unless admission control was enabled.
    overload: Optional["OverloadReport"] = field(default=None, kw_only=True)
    #: The observability object the run was served with (bus + registry +
    #: spans); ``None`` unless one was passed in.
    observability: Optional["Observability"] = field(default=None, kw_only=True)


# ----------------------------------------------------------------------
# The chassis
# ----------------------------------------------------------------------
class ServingSession:
    """Owns what every server used to duplicate.

    Parameters
    ----------
    complete_callback:
        Registered as the strategy's (and fallback's) batch-completion
        callback.
    contention:
        Contention model for the machine; ``None`` selects the node default.
    record_trace:
        Record the kernel timeline (:class:`~repro.sim.tracing.Trace`).
    fault_plan:
        Inject these faults and arm the recovery layer.
    resilience:
        Recovery-policy knobs; implies the recovery layer even without faults.
    overload:
        Admission control / deadlines / KV accounting / backpressure.
    observability:
        Event bus + metrics registry + span builder for the run.
    check_memory:
        Validate model placement against the node before serving.
    shed_callback:
        Invoked — after the overload controller — when the recovery layer
        drops a batch, so servers with per-batch state can clean it up.
    per_job:
        The one mode switch.  ``False`` (the batch server, whose requests
        live and die with one pre-packed batch): the session owns
        admission — an :class:`~repro.serving.overload.OverloadController`
        built from ``overload``, else a ``RequestsAdmitted`` announcement
        when observed — and a batch the recovery layer sheds is stamped
        into the session's :class:`~repro.serving.metrics.ServingMetrics`.
        ``True`` (the job servers, whose requests outlive individual
        batches): the server does admission, memory and terminal
        bookkeeping itself at job granularity, so the strategy binds with
        ``track_memory=False`` and recovery sheds reach only
        ``shed_callback``.
    """

    def __init__(
        self,
        model: "ModelSpec",
        node: "NodeSpec",
        strategy: "ParallelStrategy",
        *,
        complete_callback: Callable[[Batch, float], None],
        contention: Optional[ContentionModel] = None,
        record_trace: bool = False,
        fault_plan: Optional["FaultPlan"] = None,
        resilience: Optional["ResilienceConfig"] = None,
        overload: Optional["OverloadConfig"] = None,
        observability: Optional["Observability"] = None,
        check_memory: bool = True,
        shed_callback: Optional[Callable[[Batch], None]] = None,
        per_job: bool = False,
    ) -> None:
        if strategy.model is not model or strategy.node is not node:
            raise ConfigError("strategy was built for a different model/node")
        if check_memory:
            check_placement(model, node)
        self.model = model
        self.node = node
        self.strategy = strategy
        self.engine = Engine()
        self.trace = Trace() if record_trace else None
        self.machine = Machine(
            node,
            self.engine,
            contention=contention or default_contention_for(node.name),
            trace=self.trace,
        )
        self.host = Host(self.machine)
        self.metrics = ServingMetrics()
        self.obs = observability
        if self.obs is not None:
            self.obs.attach_metrics(self.metrics)
        #: The event bus, or ``None`` — every publish site is guarded by
        #: ``if bus is not None`` so an unobserved session allocates nothing
        #: (the zero-cost convention).
        self.bus = self.obs.bus if self.obs is not None else None
        # Job servers account memory at sequence granularity themselves.
        strategy.bind(
            self.machine, self.host, track_memory=False if per_job else None
        )
        strategy.on_batch_complete(complete_callback)
        self._per_job = per_job
        self._shed_callback = shed_callback
        #: Rids handed off at least once; a job server re-dispatches a
        #: request every decode iteration.  Only filled when a bus listens.
        self._dispatched_rids: set = set()

        self.recovery: Optional["RecoveryManager"] = None
        if fault_plan is not None or resilience is not None:
            from repro.faults.resilience import attach_recovery

            self.recovery = attach_recovery(
                model,
                node,
                strategy,
                self.machine,
                self.host,
                fault_plan=fault_plan,
                config=resilience,
                metrics=self.metrics,
                complete_callback=complete_callback,
                bus=self.bus,
            )

        self.overload_ctl: Optional["OverloadController"] = None
        if not per_job and overload is not None:
            from repro.serving.overload import OverloadController

            self.overload_ctl = OverloadController(
                overload,
                model,
                node,
                self.engine,
                self.metrics,
                self._dispatch,
                bus=self.bus,
            )
        if self.recovery is not None:
            if self.overload_ctl is not None:
                self.overload_ctl.attach_recovery(self.recovery)
            self.recovery.on_shed = self._on_recovery_shed

        if self.obs is not None:
            if fault_plan is not None:
                self.obs.note_fault_plan(fault_plan)
            self._register_overload_gauges(self.obs)
            self._register_perf_gauges(self.obs)

    def _on_recovery_shed(self, batch: Batch) -> None:
        """Recovery-shed fan-out: the batch server's terminal bookkeeping,
        then the overload controller, then the server's ``shed_callback``.

        Job servers requeue at job granularity, so their sheds skip the
        tally here and reach only ``shed_callback``.
        """
        if not self._per_job:
            batch.shed()  # terminal state: nothing is dropped silently
            self.metrics.note_shed(batch.requests)
            if self.bus is not None:
                from repro.obs.events import RequestsShed

                self.bus.publish(
                    RequestsShed.from_requests(
                        batch.requests,
                        self.engine.now,
                        batch_id=batch.batch_id,
                        where="retry-exhausted",
                    )
                )
        if self.overload_ctl is not None:
            self.overload_ctl.on_downstream_shed(batch)
        if self._shed_callback is not None:
            self._shed_callback(batch)

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def add_gauge(self, name: str, help: str, fn: Callable[[], float]) -> None:
        """Register a live gauge; no-op when observability is off."""
        if self.obs is not None:
            self.obs.register_gauge(name, help, fn)

    def _register_overload_gauges(self, obs: "Observability") -> None:
        """Expose the overload controller's live readings to the heartbeat."""
        ctl = self.overload_ctl
        if ctl is None:
            return
        obs.register_gauge(
            "repro_pending_queue_requests",
            "Requests waiting in the bounded pending queue.",
            lambda: float(ctl.queue_depth),
        )
        obs.register_gauge(
            "repro_inflight_batches",
            "Batches staged or dispatched downstream.",
            lambda: float(ctl.inflight_batches),
        )
        if ctl.accountant is not None:
            acct = ctl.accountant
            obs.register_gauge(
                "repro_kv_used_bytes",
                "Per-GPU KV bytes charged by in-flight batches.",
                lambda: float(acct.used),
            )

    #: The ``perf`` section of the Prometheus export: hot-path cache
    #: statistics, published only by strategies that expose
    #: ``perf_counters()`` (duck-typed — the session stays strategy-agnostic).
    _PERF_GAUGE_HELP = {
        "assembly_cache_hits": "Function-assembly cache hits (rebinds).",
        "assembly_cache_misses": "Function-assembly cache misses (rebuilds).",
        "assembly_cache_evictions": "Function-assembly cache LRU evictions.",
        "assembly_build_seconds": "Host seconds spent assembling on misses.",
    }

    def _register_perf_gauges(self, obs: "Observability") -> None:
        """Expose assembly-cache counters as ``repro_perf_*`` gauges."""
        counters = getattr(self.strategy, "perf_counters", None)
        if counters is None:
            return

        def _reader(key: str) -> Callable[[], float]:
            return lambda: float(counters().get(key, 0.0))

        for key, help_text in self._PERF_GAUGE_HELP.items():
            obs.register_gauge(f"repro_perf_{key}", help_text, _reader(key))

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def submit(self, batch: Batch) -> None:
        """Hand one arriving batch to admission, or announce and dispatch it.

        With an overload controller armed, the controller admits, queues or
        sheds the batch and dispatches it when its bounds allow.  Otherwise
        the batch server announces the arrival (``RequestsAdmitted``, when a
        bus listens; job servers announce their own jobs) and dispatches at
        once.
        """
        if self.overload_ctl is not None:
            self.overload_ctl.on_arrival(batch)
            return
        if self.bus is not None and not self._per_job:
            from repro.obs.events import RequestsAdmitted

            self.bus.publish(RequestsAdmitted.from_batch(batch, self.engine.now))
        self._dispatch(batch)

    def _dispatch(self, batch: Batch) -> None:
        """Stamp the hand-off, publish it, and submit to recovery or strategy.

        Stamping :attr:`~repro.serving.request.Request.dispatched_at` is what
        makes pending time exact.  The published event names the members
        handed off before, so queue-wait readers observe each request once.
        """
        now = self.engine.now
        batch.mark_dispatched(now)
        if self.bus is not None:
            from repro.obs.events import BatchDispatched

            seen = self._dispatched_rids
            rids = [r.rid for r in batch.requests]
            again = tuple(rid for rid in rids if rid in seen)
            seen.update(rids)
            self.bus.publish(
                BatchDispatched.from_batch(batch, now, redispatched=again)
            )
        if self.recovery is not None:
            self.recovery.submit(batch)
        else:
            self.strategy.submit_batch(batch)

    def notify_complete(self, batch: Batch, time: float) -> None:
        """Release what the overload controller holds for a retired batch."""
        if self.overload_ctl is not None:
            self.overload_ctl.on_complete(batch, time)

    def run_machine(self) -> None:
        """Arm every subsystem (recovery → overload → observability) and
        drive the simulation to quiescence."""
        if self.recovery is not None:
            self.recovery.arm()
        if self.overload_ctl is not None:
            self.overload_ctl.arm()
        if self.obs is not None:
            self.obs.arm(self.engine)
        self.machine.run()

    # ------------------------------------------------------------------
    # Drain check
    # ------------------------------------------------------------------
    def open_batch_ids(self) -> List[int]:
        """Ids of batches submitted but never completed (diagnostics)."""
        if self.recovery is not None:
            return self.recovery.open_batch_ids()
        return self.strategy.open_batch_ids()

    def check_drained(
        self,
        *,
        expected: int,
        completed: int,
        shed: int = 0,
        timed_out: int = 0,
    ) -> None:
        """Raise :class:`~repro.errors.DeadlockError` unless every request
        reached a terminal state — a simulation that returns without
        resolving its work is a wedge, not a configuration mistake, so the
        error names the batches that never completed."""
        if completed + shed + timed_out == expected:
            return
        open_ids = self.open_batch_ids()
        raise DeadlockError(
            f"served {completed} of {expected} requests"
            f"{f' ({shed} shed)' if shed else ''}"
            f"{f' ({timed_out} timed out)' if timed_out else ''} — "
            f"batches never completed: "
            f"{open_ids if open_ids else 'none open (lost)'}"
        )

    # ------------------------------------------------------------------
    # Result plumbing
    # ------------------------------------------------------------------
    def finalize_resilience(self) -> Optional["ResilienceReport"]:
        """The recovery layer's end-of-run report, or ``None`` if unarmed."""
        return self.recovery.finalize() if self.recovery is not None else None

    def overload_report(self) -> Optional["OverloadReport"]:
        """The overload controller's report, or ``None`` if unarmed."""
        return self.overload_ctl.report if self.overload_ctl is not None else None
