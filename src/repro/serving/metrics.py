"""Serving metrics: latency and throughput, as the paper defines them (§4.1).

* **Latency**: per request, "the time interval between a job's arrival to
  its completion", i.e. pending time (queueing + batching) plus execution.
* **Throughput**: "the number of requests a system can handle within a given
  time" — completed requests divided by the span from first arrival to last
  completion.

Under overload the outcome of a request is no longer binary, so the metrics
additionally account every terminal state (:class:`~repro.serving.request.
RequestState`): shed, timed out, deadline-missed-but-completed — and derive
**SLO attainment**, the fraction of deadline-carrying requests that
completed on time.  :class:`ServingMetrics` is the only count of these
outcomes: reports and the metrics registry read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError, IncompleteRequestError
from repro.serving.request import Request
from repro.units import us_to_s

__all__ = ["LatencyStats", "ServingMetrics"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over request latencies (all in milliseconds).

    ``count`` is the number of latencies summarized; an empty input yields
    the all-zero summary with ``count == 0`` rather than raising, so a run
    that shed or timed out every request still reports cleanly.
    """

    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    count: int = 0

    @staticmethod
    def from_latencies_us(latencies: Sequence[float]) -> "LatencyStats":
        if not len(latencies):
            return LatencyStats(
                mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0, count=0
            )
        arr = np.asarray(latencies, dtype=float) / 1e3  # µs → ms
        ordered = np.sort(arr).tolist()
        return LatencyStats(
            mean=float(arr.mean()),
            p50=_percentile(ordered, 50),
            p95=_percentile(ordered, 95),
            p99=_percentile(ordered, 99),
            max=ordered[-1],
            count=len(arr),
        )


def _percentile(ordered: List[float], q: float) -> float:
    """``np.percentile(ordered, q)`` of an ascending list, bit for bit.

    The same "linear" interpolation arithmetic as numpy's, without its
    call path: on numpy 2.4 that path imports ``numpy.ma`` (17 ms, 1.3 MiB)
    the first time a run reports latencies.
    """
    n = len(ordered)
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        return ordered[-1]
    below = int(index)
    t = index - below
    a, b = ordered[below], ordered[below + 1]
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


@dataclass
class ServingMetrics:
    """Accumulates terminal request outcomes and derives the paper's metrics.

    This is the run's one tally of request outcomes, retries and
    preemptions: the recovery layer (:mod:`repro.faults.resilience`) counts
    ``retries`` here, the servers record every terminal state,
    and the lifecycle server counts ``preemptions``.  The reports and the
    obs metrics registry read these fields instead of keeping their own
    counts.  Everything but ``completed`` stays 0 on a healthy run.
    """

    completed: List[Request] = field(default_factory=list)
    retries: int = 0
    #: Requests dropped without service (admission control, retry exhaustion).
    shed_requests: int = 0
    #: Requests whose deadline expired before they could complete.
    timed_out_requests: int = 0
    #: Decode chats preempted and requeued for recompute under KV pressure.
    preemptions: int = 0
    #: Completed requests whose completion came after their deadline.
    deadline_misses: int = 0
    #: Deadline-carrying requests that reached a terminal state.
    slo_tracked: int = 0
    #: Deadline-carrying requests that completed on time.
    slo_met: int = 0

    def record(self, requests: Sequence[Request]) -> None:
        """Add completed requests to the tally (must carry completions)."""
        for r in requests:
            if r.completion is None:
                raise IncompleteRequestError(
                    f"request {r.rid} recorded without completion"
                )
            self.completed.append(r)
            if r.deadline is not None:
                self.slo_tracked += 1
                if r.completion <= r.deadline:
                    self.slo_met += 1
                else:
                    self.deadline_misses += 1

    def note_shed(self, requests: Sequence[Request]) -> None:
        """Account requests dropped without service (terminal SHED)."""
        self.shed_requests += len(requests)
        for r in requests:
            if r.deadline is not None:
                self.slo_tracked += 1

    def note_timed_out(self, requests: Sequence[Request]) -> None:
        """Account requests whose deadline expired (terminal TIMED_OUT)."""
        self.timed_out_requests += len(requests)
        for r in requests:
            if r.deadline is not None:
                self.slo_tracked += 1

    @property
    def num_completed(self) -> int:
        return len(self.completed)

    @property
    def num_terminal(self) -> int:
        """Requests that reached any terminal state."""
        return self.num_completed + self.shed_requests + self.timed_out_requests

    def slo_attainment(self) -> Optional[float]:
        """Fraction of deadline-carrying requests that completed on time.

        ``None`` when no request carried a deadline (no SLO to attain).
        Shed and timed-out deadline requests count against attainment.
        """
        if self.slo_tracked == 0:
            return None
        return self.slo_met / self.slo_tracked

    def latency_stats(self) -> LatencyStats:
        """Latency summary in milliseconds."""
        return LatencyStats.from_latencies_us([r.latency for r in self.completed])

    @property
    def avg_latency_ms(self) -> float:
        """The paper's headline 'average latency'."""
        return self.latency_stats().mean

    def throughput(self) -> float:
        """Requests per second over the serving span."""
        if not self.completed:
            return 0.0
        first_arrival = min(r.arrival for r in self.completed)
        last_completion = max(r.completion for r in self.completed)  # type: ignore[arg-type]
        span = us_to_s(last_completion - first_arrival)
        if span <= 0:
            raise ConfigError("degenerate serving span")
        return len(self.completed) / span

    def pending_time_ms(self) -> float:
        """Mean pending time (queueing + batching) of completed requests, ms.

        Exact: every request is stamped with its first hand-off to the
        strategy (:attr:`~repro.serving.request.Request.dispatched_at`), so
        pending time is ``dispatched_at - arrival`` per request — no longer
        the old "latency minus minimum latency" heuristic.
        """
        waits = [
            r.dispatched_at - r.arrival
            for r in self.completed
            if r.dispatched_at is not None
        ]
        if not waits:
            return 0.0
        return float(np.mean(waits)) / 1e3
