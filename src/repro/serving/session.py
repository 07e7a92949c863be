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
  :class:`~repro.serving.metrics.ServingMetrics`;
* **configuration** — one :class:`ServingConfig` bundles the cross-cutting
  knobs (``fault_plan``/``resilience``/``overload``/``observability``/
  ``contention``/``record_trace``) that used to travel as six separate
  keyword arguments;
* **the submission pipeline** — the path a batch takes from arrival to the
  strategy is an explicit chain of :class:`SubmissionStage` objects
  (admission → dispatch bookkeeping → recovery → strategy), each with
  ``on_arrival``/``on_complete``/``on_shed`` hooks, replacing the scattered
  ``if self.recovery is not None`` / ``if self.bus is not None`` ladders;
* **the arm sequence** (recovery → overload → observability) and the
  drain-or-:class:`~repro.errors.DeadlockError` check with open-batch
  attribution.

The zero-cost convention survives the chassis: with an empty
:class:`ServingConfig` the pipeline contains exactly the dispatch and
strategy stages, nothing is published, no heartbeat is armed, and the
timeline is bit-identical to the pre-chassis servers (pinned by the golden
fingerprints in ``tests/golden/serving_traces.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import ConfigError, DeadlockError
from repro.models.partition import check_placement
from repro.obs.events import BatchDispatched, RequestsAdmitted, RequestsShed
from repro.obs.observability import Observability
from repro.serving.metrics import ServingMetrics
from repro.serving.overload import OverloadConfig, OverloadController, OverloadReport
from repro.serving.request import Batch
from repro.sim.contention import ContentionModel, default_contention_for
from repro.sim.engine import Engine
from repro.sim.gpu import Machine
from repro.sim.host import Host
from repro.sim.tracing import Trace

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.faults.plan import FaultPlan
    from repro.faults.resilience import (
        RecoveryManager,
        ResilienceConfig,
        ResilienceReport,
    )
    from repro.hw.devices import NodeSpec
    from repro.models.specs import ModelSpec
    from repro.parallel.base import ParallelStrategy

__all__ = [
    "ServingConfig",
    "RunResult",
    "SubmissionStage",
    "AnnounceStage",
    "AdmissionStage",
    "DispatchStage",
    "RecoveryStage",
    "StrategyStage",
    "SubmissionPipeline",
    "ServingSession",
]


@dataclass(frozen=True)
class ServingConfig:
    """Cross-cutting serving configuration, bundled.

    An *empty* config (the default) arms nothing: the session it builds is
    bit-identical to a server without any of the subsystems.  Each field
    maps to the keyword argument of the same name that the servers still
    accept for backward compatibility; pass either the config or the
    individual kwargs, not both.
    """

    #: Contention model for the machine; ``None`` selects the node default.
    contention: Optional[ContentionModel] = None
    #: Record the kernel timeline (:class:`~repro.sim.tracing.Trace`).
    record_trace: bool = False
    #: Inject these faults and arm the recovery layer.
    fault_plan: Optional["FaultPlan"] = None
    #: Recovery-policy knobs; implies the recovery layer even without faults.
    resilience: Optional["ResilienceConfig"] = None
    #: Admission control / deadlines / KV accounting / backpressure.
    overload: Optional[OverloadConfig] = None
    #: Event bus + metrics registry + span builder for the run.
    observability: Optional[Observability] = None

    @property
    def wants_recovery(self) -> bool:
        return self.fault_plan is not None or self.resilience is not None

    @staticmethod
    def resolve(
        config: Optional["ServingConfig"],
        *,
        contention: Optional[ContentionModel] = None,
        record_trace: bool = False,
        fault_plan: Optional["FaultPlan"] = None,
        resilience: Optional["ResilienceConfig"] = None,
        overload: Optional[OverloadConfig] = None,
        observability: Optional[Observability] = None,
    ) -> "ServingConfig":
        """Fold legacy per-subsystem kwargs and ``config`` into one config.

        When ``config`` is given it governs the run; mixing it with any of
        the legacy subsystem kwargs is a :class:`~repro.errors.ConfigError`
        (silently preferring one over the other would hide a typo).
        """
        if config is not None and not isinstance(config, ServingConfig):
            raise ConfigError(
                f"config= takes a ServingConfig, not {type(config).__name__}; "
                "build a configured strategy with make_strategy(..., config=...)"
            )
        if config is None:
            return ServingConfig(
                contention=contention,
                record_trace=record_trace,
                fault_plan=fault_plan,
                resilience=resilience,
                overload=overload,
                observability=observability,
            )
        legacy = {
            "contention": contention,
            "fault_plan": fault_plan,
            "resilience": resilience,
            "overload": overload,
            "observability": observability,
        }
        clashes = [name for name, value in legacy.items() if value is not None]
        if clashes:
            raise ConfigError(
                "pass subsystems either via config= or as keyword arguments, "
                f"not both (got config plus {', '.join(clashes)})"
            )
        return config


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
    overload: Optional[OverloadReport] = field(default=None, kw_only=True)
    #: The observability object the run was served with (bus + registry +
    #: spans); ``None`` unless one was passed in.
    observability: Optional[Observability] = field(default=None, kw_only=True)


# ----------------------------------------------------------------------
# The submission pipeline
# ----------------------------------------------------------------------
class SubmissionStage:
    """One stage of the submission pipeline.

    A stage receives each batch on its way to the strategy via
    :meth:`on_arrival` and hands it to ``downstream`` (the next stage) when
    it passes.  :meth:`on_complete` and :meth:`on_shed` flow back through
    every stage when a batch retires or is dropped downstream, so a stage
    can release whatever it holds for the batch (dispatch slots, KV
    charges) without the server knowing which stages exist.
    """

    name = "stage"

    def __init__(self) -> None:
        self.downstream: Optional[Callable[[Batch], None]] = None

    def wire(self) -> None:
        """Hook called once the pipeline has linked ``downstream``."""

    def on_arrival(self, batch: Batch) -> None:
        """Process one batch; the default passes it straight downstream."""
        assert self.downstream is not None
        self.downstream(batch)

    def on_complete(self, batch: Batch, time: float) -> None:
        """The batch retired downstream at simulated ``time``."""

    def on_shed(self, batch: Batch) -> None:
        """The batch was dropped downstream (retry exhaustion)."""


class AnnounceStage(SubmissionStage):
    """Publish ``RequestsAdmitted`` for servers without admission control.

    Only present when a bus is attached and no :class:`AdmissionStage`
    filters arrivals (the admission controller publishes its own verdicts).
    """

    name = "announce"

    def __init__(self, engine: Engine, bus) -> None:
        super().__init__()
        self.engine = engine
        self.bus = bus

    def on_arrival(self, batch: Batch) -> None:
        """Publish the admission event, then pass the batch downstream."""
        self.bus.publish(RequestsAdmitted.from_batch(batch, self.engine.now))
        self.downstream(batch)


class AdmissionStage(SubmissionStage):
    """Admission control, deadlines, KV accounting, and backpressure.

    Adapts the :class:`~repro.serving.overload.OverloadController` (which
    owns the bounded pending → staged → dispatched pipeline, the KV-cache
    accountant, and the circuit breaker) to the stage interface.
    """

    name = "admission"

    def __init__(self, controller: OverloadController) -> None:
        super().__init__()
        self.controller = controller

    def wire(self) -> None:
        self.controller.downstream = self.downstream

    def arm(self) -> None:
        """Start the controller's deadline sweeps and breaker timers."""
        self.controller.arm()

    def on_arrival(self, batch: Batch) -> None:
        """Admit, queue, or shed the batch per the overload policy."""
        self.controller.on_arrival(batch)

    def on_complete(self, batch: Batch, time: float) -> None:
        """Release the batch's KV charge and pull queued work forward."""
        self.controller.on_complete(batch, time)

    def on_shed(self, batch: Batch) -> None:
        """Account a downstream (retry-exhaustion) shed to the controller."""
        self.controller.on_downstream_shed(batch)


class DispatchStage(SubmissionStage):
    """Dispatch bookkeeping: first-hand-off stamping and bus publish.

    Always present — stamping :attr:`~repro.serving.request.Request.
    dispatched_at` is what makes pending time exact.  With
    ``track_first=True`` (servers that re-dispatch the same request every
    decode iteration) the published event marks only a request's *first*
    hand-off as ``first``, so queue-wait derivations skip re-dispatches.
    """

    name = "dispatch"

    def __init__(self, engine: Engine, bus=None, *, track_first: bool = False) -> None:
        super().__init__()
        self.engine = engine
        self.bus = bus
        self._dispatched_rids: Optional[set] = set() if track_first else None

    def on_arrival(self, batch: Batch) -> None:
        """Stamp the dispatch time, publish it, and pass downstream."""
        now = self.engine.now
        batch.mark_dispatched(now)
        if self.bus is not None:
            if self._dispatched_rids is None:
                self.bus.publish(BatchDispatched.from_batch(batch, now))
            else:
                rids = set(r.rid for r in batch.requests)
                first = not (rids & self._dispatched_rids)
                self._dispatched_rids.update(rids)
                self.bus.publish(
                    BatchDispatched.from_batch(batch, now, first=first)
                )
        self.downstream(batch)


class RecoveryStage(SubmissionStage):
    """Route submissions through the retry/degradation policy.

    Terminal when present: the :class:`~repro.faults.resilience.
    RecoveryManager` owns the hand-off to whichever strategy is active
    (primary or fallback).
    """

    name = "recovery"

    def __init__(self, recovery: "RecoveryManager") -> None:
        super().__init__()
        self.recovery = recovery

    def on_arrival(self, batch: Batch) -> None:
        """Hand the batch to the recovery manager's active strategy."""
        self.recovery.submit(batch)


class StrategyStage(SubmissionStage):
    """Terminal stage: hand the batch to the bound parallel strategy."""

    name = "strategy"

    def __init__(self, strategy: "ParallelStrategy") -> None:
        super().__init__()
        self.strategy = strategy

    def on_arrival(self, batch: Batch) -> None:
        """Submit the batch to the strategy at the current instant."""
        self.strategy.submit_batch(batch)


class SubmissionPipeline:
    """An ordered chain of :class:`SubmissionStage` objects."""

    def __init__(self, stages: List[SubmissionStage]) -> None:
        if not stages:
            raise ConfigError("a submission pipeline needs at least one stage")
        self.stages = list(stages)
        for stage, nxt in zip(self.stages, self.stages[1:]):
            stage.downstream = nxt.on_arrival
        for stage in self.stages:
            stage.wire()

    def submit(self, batch: Batch) -> None:
        """Feed one batch into the head of the pipeline."""
        self.stages[0].on_arrival(batch)

    def on_complete(self, batch: Batch, time: float) -> None:
        """Notify every stage that ``batch`` retired at ``time``."""
        for stage in self.stages:
            stage.on_complete(batch, time)

    def on_shed(self, batch: Batch) -> None:
        """Notify every stage that ``batch`` was dropped downstream."""
        for stage in self.stages:
            stage.on_shed(batch)

    def describe(self) -> str:
        """Human-readable stage order, e.g. ``admission → dispatch → strategy``."""
        return " → ".join(stage.name for stage in self.stages)


# ----------------------------------------------------------------------
# The chassis
# ----------------------------------------------------------------------
class ServingSession:
    """Owns what every server used to duplicate.

    Parameters
    ----------
    config:
        The cross-cutting :class:`ServingConfig`.
    check_memory:
        Validate model placement against the node before serving.
    complete_callback:
        Registered as the strategy's (and fallback's) batch-completion
        callback.
    shed_callback:
        Invoked — after the pipeline stages — when the recovery layer drops
        a batch, so servers with per-batch state can clean it up.
    per_job:
        The one mode switch.  ``False`` (the batch server, whose requests
        live and die with one pre-packed batch): the session owns
        admission — an :class:`~repro.serving.overload.OverloadController`
        head stage built from ``config.overload``, else a
        ``RequestsAdmitted`` announcement stage when observed — and a batch
        the recovery layer sheds is stamped into the session's
        :class:`~repro.serving.metrics.ServingMetrics`.  ``True`` (the job
        servers, whose requests outlive individual batches): the server
        does admission, memory and terminal bookkeeping itself at job
        granularity, so the strategy binds with ``track_memory=False``,
        recovery sheds reach only ``shed_callback``, and dispatch events
        flag a request's first hand-off (see :class:`DispatchStage`).
    """

    def __init__(
        self,
        model: "ModelSpec",
        node: "NodeSpec",
        strategy: "ParallelStrategy",
        *,
        config: ServingConfig,
        check_memory: bool = True,
        complete_callback: Callable[[Batch, float], None],
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
        self.config = config
        self.engine = Engine()
        self.trace = Trace() if config.record_trace else None
        self.machine = Machine(
            node,
            self.engine,
            contention=config.contention or default_contention_for(node.name),
            trace=self.trace,
        )
        self.host = Host(self.machine)
        self.metrics = ServingMetrics()
        self.obs = config.observability
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

        self.recovery: Optional["RecoveryManager"] = None
        if config.wants_recovery:
            # Imported lazily: repro.faults pulls in the parallel
            # strategies, which import the serving layer for type context.
            from repro.faults.resilience import attach_recovery

            self.recovery = attach_recovery(
                model,
                node,
                strategy,
                self.machine,
                self.host,
                fault_plan=config.fault_plan,
                config=config.resilience,
                metrics=self.metrics,
                complete_callback=complete_callback,
                bus=self.bus,
            )

        # Assemble the pipeline head → tail.
        stages: List[SubmissionStage] = []
        self.overload_ctl: Optional[OverloadController] = None
        self._admission: Optional[AdmissionStage] = None
        if not per_job and config.overload is not None:
            self.overload_ctl = OverloadController(
                config.overload,
                model,
                node,
                self.engine,
                self.metrics,
                self._reject_unwired,
                bus=self.bus,
            )
            self._admission = AdmissionStage(self.overload_ctl)
            stages.append(self._admission)
        elif not per_job and self.bus is not None:
            stages.append(AnnounceStage(self.engine, self.bus))
        stages.append(DispatchStage(self.engine, self.bus, track_first=per_job))
        if self.recovery is not None:
            stages.append(RecoveryStage(self.recovery))
        else:
            stages.append(StrategyStage(strategy))
        self.pipeline = SubmissionPipeline(stages)

        if self.recovery is not None:
            if self.overload_ctl is not None:
                self.overload_ctl.attach_recovery(self.recovery)
            self._per_job = per_job
            self._shed_callback = shed_callback
            self.recovery.on_shed = self._on_recovery_shed

        if self.obs is not None:
            if config.fault_plan is not None:
                self.obs.note_fault_plan(config.fault_plan)
            self._register_overload_gauges(self.obs)
            self._register_perf_gauges(self.obs)

    @staticmethod
    def _reject_unwired(batch: Batch) -> None:  # pragma: no cover - guard
        raise ConfigError("overload controller used before pipeline wiring")

    def _on_recovery_shed(self, batch: Batch) -> None:
        """Recovery-shed fan-out: the batch server's terminal bookkeeping,
        then the pipeline stages, then the server's ``shed_callback``.

        Job servers requeue at job granularity, so their sheds skip the
        tally here and reach only ``shed_callback``.
        """
        if not self._per_job:
            batch.shed()  # terminal state: nothing is dropped silently
            self.metrics.note_shed(batch.requests)
            if self.bus is not None:
                self.bus.publish(
                    RequestsShed.from_requests(
                        batch.requests,
                        self.engine.now,
                        batch_id=batch.batch_id,
                        where="retry-exhausted",
                    )
                )
        self.pipeline.on_shed(batch)
        if self._shed_callback is not None:
            self._shed_callback(batch)

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def add_gauge(self, name: str, help: str, fn: Callable[[], float]) -> None:
        """Register a live gauge; no-op when observability is off."""
        if self.obs is not None:
            self.obs.register_gauge(name, help, fn)

    def _register_overload_gauges(self, obs: Observability) -> None:
        """Expose live pipeline readings for the sampling heartbeat."""
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

    def _register_perf_gauges(self, obs: Observability) -> None:
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
        """Feed one batch into the submission pipeline."""
        self.pipeline.submit(batch)

    def notify_complete(self, batch: Batch, time: float) -> None:
        """Flow a downstream completion back through the pipeline stages."""
        self.pipeline.on_complete(batch, time)

    def run_machine(self) -> None:
        """Arm every subsystem (recovery → overload → observability) and
        drive the simulation to quiescence."""
        if self.recovery is not None:
            self.recovery.arm()
        if self._admission is not None:
            self._admission.arm()
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

    def overload_report(self) -> Optional[OverloadReport]:
        """The overload controller's report, or ``None`` if unarmed."""
        return self.overload_ctl.report if self.overload_ctl is not None else None
