"""The serving chassis every server stands on.

:class:`JobServer` is the one serving loop all four servers share.  It
owns the simulation plumbing — ``Engine``/``Trace``/``Machine``/``Host``
construction, strategy binding (with the bind-time memory-tracking mode),
a :class:`~repro.serving.metrics.ServingMetrics`, the optional recovery
layer and observability — and the run around it: one arrival callback per
job, the one admission rule (default-deadline stamp, a pending bound
counted in requests, the victim :func:`~repro.serving.overload.shed_victim`
picks), the submit path (dispatch stamp, publish, hand to the recovery
manager or the strategy), arming observability, terminal bookkeeping in
the one tally, the drain-or-
:class:`~repro.errors.DeadlockError` check with open-batch attribution,
and the run's result.  A *job* is whatever a server queues: one
pre-packed batch for :class:`~repro.serving.server.Server`, one
generation or chat job for the continuous and lifecycle servers, one
static group for the static server.

The zero-cost convention survives the chassis: with every subsystem
keyword left at its default, a batch goes straight from the dispatch stamp
to the strategy, nothing is published, no heartbeat is armed, and the
timeline is bit-identical to the pre-chassis servers (pinned by the golden
fingerprints in ``tests/golden/serving_traces.json``).

Batch ids are local to the run: the server numbers the batches it serves
from 0, so a run's kernel names, trace rows and ``Request.batch_id`` do not
depend on what the process served before it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import ConfigError, DeadlockError
from repro.models.partition import check_placement
from repro.serving.metrics import LatencyStats, ServingMetrics
from repro.serving.request import Batch, Phase, Request, RequestState
from repro.sim.contention import ContentionModel, default_contention_for
from repro.sim.engine import Engine
from repro.sim.gpu import Machine
from repro.sim.host import Host
from repro.sim.memory import NodeMemoryModel
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
    from repro.serving.overload import OverloadConfig, OverloadReport

__all__ = ["RunResult", "ServingResult", "JobServer"]


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


@dataclass
class ServingResult(RunResult):
    """Outcome of one serving run."""

    metrics: ServingMetrics = field(default=None)  # type: ignore[assignment]
    trace: Optional[Trace] = None

    @property
    def avg_latency_ms(self) -> float:
        return self.metrics.avg_latency_ms

    @property
    def throughput(self) -> float:
        return self.metrics.throughput()

    def latency_stats(self) -> LatencyStats:
        """Latency percentile summary (milliseconds)."""
        return self.metrics.latency_stats()

    def summary(self) -> str:
        """One-line human summary."""
        stats = self.latency_stats()
        return (
            f"{self.strategy:>8s} | {self.model} on {self.node}: "
            f"{self.num_requests} reqs, avg latency {stats.mean:.1f} ms "
            f"(p99 {stats.p99:.1f} ms), throughput {self.throughput:.2f} req/s"
        )


# ----------------------------------------------------------------------
# The serving loop
# ----------------------------------------------------------------------
class JobServer:
    """The serving loop all four servers share (see the module docstring).

    Every job ends in exactly one terminal state in :attr:`metrics`, with
    the matching bus event when observed.  Memory is reserved at job
    granularity in :attr:`memory`, a
    :class:`~repro.sim.memory.NodeMemoryModel`.

    Subclasses keep their waiting jobs in ``_queue`` and implement
    ``_on_arrival``, ``_waiting`` (the queued jobs the admission bound
    counts, oldest first), ``_on_batch_complete`` and ``_on_shed``; one
    whose job holds several requests overrides ``_requests_of``.

    Parameters
    ----------
    contention:
        Contention model for the machine; ``None`` selects the node default.
    record_trace:
        Record the kernel timeline (:class:`~repro.sim.tracing.Trace`).
    check_memory:
        Validate model placement against the node before serving.
    fault_plan:
        Inject these faults and arm the recovery layer.
    resilience:
        Recovery-policy knobs; implies the recovery layer even without faults.
    overload:
        Admission control: a pending bound, default deadlines, a shed policy.
    observability:
        Event bus + metrics registry + span builder for the run.
    """

    discipline = "generation"
    #: The strategy's bind-time memory-tracking mode: job servers leave
    #: memory to the server, which reserves it at job granularity.
    _bind_track_memory = False

    def __init__(
        self,
        model: "ModelSpec",
        node: "NodeSpec",
        strategy: "ParallelStrategy",
        *,
        contention: Optional[ContentionModel] = None,
        record_trace: bool = False,
        check_memory: bool = True,
        fault_plan: Optional["FaultPlan"] = None,
        resilience: Optional["ResilienceConfig"] = None,
        overload: Optional["OverloadConfig"] = None,
        observability: Optional["Observability"] = None,
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
        #: ``if bus is not None`` so an unobserved server allocates nothing
        #: (the zero-cost convention).
        self.bus = self.obs.bus if self.obs is not None else None
        strategy.bind(self.machine, self.host, track_memory=self._bind_track_memory)
        strategy.on_batch_complete(self._on_batch_complete)
        #: Rids handed off at least once; a job server re-dispatches a
        #: request every decode iteration.  Only filled when a bus listens.
        self._dispatched_rids: set = set()

        self.recovery: Optional["RecoveryManager"] = None
        if fault_plan is not None or resilience is not None:
            from repro.faults.resilience import RecoveryManager

            self.recovery = RecoveryManager(
                strategy,
                self.machine,
                fault_plan=fault_plan,
                config=resilience,
                metrics=self.metrics,
                bus=self.bus,
            )
            self.recovery.on_shed = self._on_shed

        if self.obs is not None:
            if fault_plan is not None:
                self.obs.note_fault_plan(fault_plan)
            self._register_perf_gauges(self.obs)
        self.overload = overload
        self.memory: Optional[NodeMemoryModel] = self._memory_model()
        #: Iteration tokens put through the strategy.
        self.total_tokens = 0
        self._admitted = 0
        self._peak_pending = 0
        #: Set once :meth:`run` schedules: a server serves one run.
        self._ran = False
        #: The run's batch ids, 0 upwards (:meth:`Batch.number`); one run
        #: per server keeps them local to that run.
        self._batch_ids = itertools.count()

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def add_gauge(self, name: str, help: str, fn: Callable[[], float]) -> None:
        """Register a live gauge; no-op when observability is off."""
        if self.obs is not None:
            self.obs.register_gauge(name, help, fn)

    #: The ``perf`` section of the Prometheus export: hot-path cache
    #: statistics, published only by strategies that expose
    #: ``perf_counters()`` (duck-typed — the server stays strategy-agnostic).
    #: The help texts are pinned by the ``.prom`` goldens; a cache hit now
    #: shares the shape's launch list rather than copying it.
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

    def _memory_model(self) -> Optional[NodeMemoryModel]:
        """The ledger job reservations go to (one per server)."""
        return NodeMemoryModel(self.model, self.node)

    def _on_arrival(self, job) -> None:
        raise NotImplementedError

    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        raise NotImplementedError

    def _on_shed(self, batch: Batch) -> None:
        """The recovery layer dropped ``batch`` (faults/resilience armed)."""
        raise NotImplementedError

    def _waiting(self) -> list:
        raise NotImplementedError

    def _requests_of(self, job) -> Sequence:
        """The requests ``job`` carries (a job is one request by default)."""
        return (job,)

    def _num_requests(self, jobs: Sequence) -> int:
        """Requests carried by the queued ``jobs``."""
        return sum(len(self._requests_of(job)) for job in jobs)

    def _requests_in(self, inputs: Sequence) -> Sequence:
        """The requests :meth:`run`'s inputs carry (one per job)."""
        return inputs

    def run(self, jobs: Sequence) -> RunResult:
        """Serve the jobs to completion and return the run's result.

        Arms observability, drives the simulation to quiescence, and raises
        :class:`~repro.errors.DeadlockError` unless every request reached a
        terminal state — a simulation that returns without resolving its
        work is a wedge, not a configuration mistake, so the error names
        the batches that never completed.
        """
        if self._ran:
            raise ConfigError(
                f"a {type(self).__name__} serves one run; build a new "
                "server for another workload"
            )
        ordered = sorted(jobs, key=lambda j: j.arrival)
        if not ordered:
            raise ConfigError("no requests to serve")
        # Servers key per-request state by rid.
        requests = self._requests_in(ordered)
        seen: set = set()
        for r in requests:
            if r.rid in seen:
                raise ConfigError(f"duplicate request id {r.rid}")
            seen.add(r.rid)
        self._ran = True
        self._schedule_arrivals(ordered)
        if self.obs is not None:
            self.obs.arm(self.engine)
        self.machine.run()
        m = self.metrics
        completed, shed, timed_out = m.num_completed, m.shed_requests, m.timed_out_requests
        if completed + shed + timed_out != len(requests):
            open_ids = self.strategy.open_batch_ids()
            raise DeadlockError(
                f"served {completed} of {len(requests)} requests"
                f"{f' ({shed} shed)' if shed else ''}"
                f"{f' ({timed_out} timed out)' if timed_out else ''} — "
                f"batches never completed: "
                f"{open_ids if open_ids else 'none open (lost)'}"
            )
        return self._result(requests)

    def _schedule_arrivals(self, ordered: Sequence) -> None:
        """One ``_on_arrival(job)`` callback per job at its arrival time."""
        for job in ordered:
            self.engine.schedule_at(
                job.arrival,
                lambda j=job: self._on_arrival(j),
                priority=10,  # arrivals fire after same-time device events
            )

    def submit(self, batch: Batch) -> None:
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

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, job) -> bool:
        """Admit an arriving ``job``; False = the arrival was shed.

        Stamps the default deadline, enforces the pending bound (counted in
        requests), counts the admission and announces it; the caller
        enqueues.
        """
        requests = self._requests_of(job)
        cfg = self.overload
        if cfg is not None:
            if cfg.default_deadline_us is not None:
                for r in requests:
                    if r.deadline is None:
                        r.deadline = r.arrival + cfg.default_deadline_us
            while (
                self._num_requests(self._waiting()) + len(requests)
                > cfg.max_pending_requests
            ):
                if not self._evict_victim():
                    self._shed(job)
                    return False
        self._admitted += len(requests)
        self._peak_pending = max(
            self._peak_pending,
            self._num_requests(self._waiting()) + len(requests),
        )
        if self.bus is not None:
            self._announce(job)
        return True

    def _announce(self, job) -> None:
        """Publish ``RequestsAdmitted`` for each of ``job``'s requests."""
        from repro.obs.events import RequestsAdmitted

        for r in self._requests_of(job):
            self.bus.publish(
                RequestsAdmitted(
                    time_us=self.engine.now,
                    batch_id=-1,
                    rids=(r.rid,),
                    arrivals_us=(r.arrival,),
                )
            )

    def _evict_victim(self) -> bool:
        """Shed the waiting job the admission policy picks; False if none."""
        from repro.serving.overload import shed_victim

        waiting = self._waiting()
        i = shed_victim(self.overload.policy, waiting, self._deadline_of)
        if i is None:
            return False
        victim = waiting[i]
        self._queue.remove(victim)
        self._shed(victim)
        return True

    def _deadline_of(self, job) -> Optional[float]:
        """The tightest deadline among ``job``'s requests, if any has one."""
        return min(
            (r.deadline for r in self._requests_of(job) if r.deadline is not None),
            default=None,
        )

    def _overload_report(self) -> Optional[OverloadReport]:
        """Summarise this server's admission layer."""
        if self.overload is None:
            return None
        from repro.serving.overload import OverloadReport

        m = self.metrics
        return OverloadReport(
            policy=self.overload.policy.value,
            admitted_requests=self._admitted,
            shed_requests=m.shed_requests,
            timed_out_requests=m.timed_out_requests,
            preempted_batches=m.preemptions,
            peak_pending_requests=self._peak_pending,
        )

    # ------------------------------------------------------------------
    # Terminal bookkeeping (every job ends in exactly one terminal state)
    # ------------------------------------------------------------------
    def _retire(self, batch: Batch, time: float, finished: Sequence) -> None:
        """Publish ``batch``'s retirement; complete its ``finished`` jobs."""
        if self.bus is not None:
            from repro.obs.events import BatchCompleted

            self.bus.publish(BatchCompleted.from_batch(batch, time, finished))
        for job in finished:
            job.completion = time
            job.state = RequestState.COMPLETED
            record = Request(
                rid=job.rid, arrival=job.arrival, seq_len=job.gen_tokens,
                phase=Phase.DECODE, deadline=job.deadline,
            )
            record.mark_completed(time)
            self.metrics.record([record])

    def _shed(self, job, *, where: str = "admission") -> None:
        """Shed every request of ``job``."""
        for r in self._requests_of(job):
            self._shed_job(r, where=where)

    def _shed_job(self, job, *, where: str = "admission") -> None:
        job.state = RequestState.SHED
        self.metrics.note_shed([job])
        if self.bus is not None:
            from repro.obs.events import RequestsShed

            self.bus.publish(
                RequestsShed.from_requests(
                    [job], self.engine.now, batch_id=-1, where=where
                )
            )

    def _time_out_job(self, job, *, where: str = "pending") -> None:
        job.state = RequestState.TIMED_OUT
        self.metrics.note_timed_out([job])
        if self.bus is not None:
            from repro.obs.events import RequestsTimedOut

            self.bus.publish(
                RequestsTimedOut.from_requests(
                    [job], self.engine.now, batch_id=-1, where=where
                )
            )

    # ------------------------------------------------------------------
    def _result_fields(self) -> dict:
        """The result fields every server reports the same way."""
        name = self.strategy.name
        return dict(
            strategy=f"{name}+{self.discipline}" if self.discipline else name,
            model=self.model.name,
            node=self.node.name,
            wall_events=self.engine.events_processed,
            resilience=(
                self.recovery.finalize() if self.recovery is not None else None
            ),
            overload=self._overload_report(),
            observability=self.obs,
        )

    def _result(self, requests: Sequence) -> ServingResult:
        """The run's result; ``requests`` are those :meth:`run` served."""
        return ServingResult(
            num_requests=len(requests),
            metrics=self.metrics,
            trace=self.trace,
            **self._result_fields(),
        )
