"""The serving loop: arrivals → strategy → metrics.

The :class:`Server` owns the simulation clock.  It schedules one engine
callback per batch at that batch's arrival time (the moment the serving
front-end hands the packed batch to the runtime, Fig. 5), lets the bound
strategy turn it into kernels, and records request completions as batches
drain.  The result bundles the paper's two metrics plus the execution trace
for overlap analysis.

Construction, subsystem wiring, and the submit path live in the
:class:`~repro.serving.session.ServingSession` chassis; this module is the
batch-granularity policy on top: one arrival per pre-packed batch, metrics
recorded as batches retire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigError
from repro.hw.devices import NodeSpec
from repro.models.specs import ModelSpec
from repro.obs.events import BatchCompleted
from repro.obs.observability import Observability
from repro.serving.metrics import LatencyStats, ServingMetrics
from repro.serving.overload import OverloadConfig
from repro.serving.request import Batch
from repro.serving.session import RunResult, ServingConfig, ServingSession
from repro.sim.contention import ContentionModel
from repro.sim.tracing import Trace

if TYPE_CHECKING:  # avoid a circular import; the server only type-hints it
    from repro.faults.plan import FaultPlan
    from repro.faults.resilience import ResilienceConfig
    from repro.parallel.base import ParallelStrategy
    from repro.sim.engine import Engine

__all__ = ["Server", "ServingResult"]


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


class Server:
    """Drives one strategy over one workload on a simulated node."""

    def __init__(
        self,
        model: ModelSpec,
        node: NodeSpec,
        strategy: ParallelStrategy,
        *,
        config: Optional[ServingConfig] = None,
        contention: Optional[ContentionModel] = None,
        record_trace: bool = True,
        check_memory: bool = True,
        fault_plan: Optional["FaultPlan"] = None,
        resilience: Optional["ResilienceConfig"] = None,
        overload: Optional[OverloadConfig] = None,
        observability: Optional[Observability] = None,
        engine: Optional["Engine"] = None,
    ) -> None:
        config = ServingConfig.resolve(
            config,
            contention=contention,
            record_trace=record_trace,
            fault_plan=fault_plan,
            resilience=resilience,
            overload=overload,
            observability=observability,
        )
        self.session = ServingSession(
            model,
            node,
            strategy,
            config=config,
            check_memory=check_memory,
            complete_callback=self._on_batch_complete,
            engine=engine,
        )
        s = self.session
        self.model = model
        self.node = node
        self.strategy = strategy
        self.engine = s.engine
        self.trace = s.trace
        self.machine = s.machine
        self.host = s.host
        self.metrics = s.metrics
        self.obs = s.obs
        self.bus = s.bus
        self.recovery = s.recovery
        self.overload_ctl = s.overload_ctl

    # ------------------------------------------------------------------
    def _on_batch_complete(self, batch: Batch, time: float) -> None:
        batch.complete(time)
        self.metrics.record(batch.requests)
        if self.bus is not None:
            self.bus.publish(BatchCompleted.from_batch(batch, time))
        self.session.notify_complete(batch, time)

    def _on_arrival(self, batch: Batch) -> None:
        """Entry point at a batch's arrival time: the submission pipeline."""
        self.session.submit(batch)

    def run(self, batches: Sequence[Batch]) -> ServingResult:
        """Serve ``batches`` to completion and return metrics."""
        if not batches:
            raise ConfigError("no batches to serve")
        ordered: List[Batch] = sorted(batches, key=lambda b: b.arrival)
        for batch in ordered:
            self.engine.schedule_at(
                batch.arrival,
                lambda b=batch: self._on_arrival(b),
                priority=10,  # arrivals fire after same-time device events
            )
        self.session.run_machine()
        expected = sum(b.size for b in ordered)
        self.session.check_drained(
            expected=expected,
            completed=self.metrics.num_completed,
            shed=self.metrics.shed_requests,
            timed_out=self.metrics.timed_out_requests,
        )
        return ServingResult(
            strategy=self.strategy.name,
            model=self.model.name,
            node=self.node.name,
            num_requests=expected,
            metrics=self.metrics,
            trace=self.trace,
            wall_events=self.engine.events_processed,
            resilience=self.session.finalize_resilience(),
            overload=self.session.overload_report(),
            observability=self.obs,
        )
