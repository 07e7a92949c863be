"""Post-run timeline claims: the per-GPU attribution and the request spans."""

from __future__ import annotations

import pytest

from repro.core import LigerConfig
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.obs import Observability, gpu_attribution
from repro.parallel import InterleavedStrategy, IntraOpStrategy
from repro.profiling.contention_profiler import ContentionFactors
from repro.serving import Server
from repro.serving.workload import general_trace
from repro.sim.kernel import KernelKind

MODEL = OPT_30B.scaled_layers(6)
NODE = v100_nvlink_node(4)
FACTORS = ContentionFactors(compute=1.05, comm=1.10)


def _serve(strat):
    obs = Observability()
    server = Server(MODEL, NODE, strat, record_trace=True, check_memory=False,
                    observability=obs)
    return server.run(general_trace(24, 300.0, 2, seed=9)), obs.spans()


@pytest.fixture(scope="module")
def liger_run():
    return _serve(
        InterleavedStrategy(MODEL, NODE, config=LigerConfig(contention_factors=FACTORS))
    )


@pytest.fixture(scope="module")
def intra_run():
    return _serve(IntraOpStrategy(MODEL, NODE))


def _first_starts(trace):
    """Each batch's first kernel start (µs), keyed by batch id."""
    starts = {}
    for r in trace.rows:
        starts[r.batch_id] = min(starts.get(r.batch_id, r.start), r.start)
    return starts


def _pending_us(span, starts):
    """Arrival until the request's first batch started running."""
    return starts[span.batch_ids[0]] - span.arrival_us


class TestUtilization:
    def test_per_gpu_rows(self, liger_run):
        result, _ = liger_run
        lanes = gpu_attribution(result.trace)
        assert [a.gpu for a in lanes] == [0, 1, 2, 3]
        for a in lanes:
            assert 0 < (a.total_us - a.idle_us) / a.total_us <= 1.0
            assert 0 <= a.comm_fraction <= 1.0
            assert 0 <= a.comm_hidden_fraction <= 1.0

    def test_liger_hides_more_comm_than_intra(self, liger_run, intra_run):
        liger_hidden = gpu_attribution(liger_run[0].trace)[0].comm_hidden_fraction
        intra_hidden = gpu_attribution(intra_run[0].trace)[0].comm_hidden_fraction
        assert liger_hidden > intra_hidden + 0.2


class TestBreakdown:
    """Pending vs execution time: request spans joined to kernel starts."""

    def test_pending_plus_execution_equals_total(self, liger_run):
        result, spans = liger_run
        starts = _first_starts(result.trace)
        assert spans
        for s in spans:
            assert s.state == "completed"
            pending = _pending_us(s, starts)
            execution = s.end_us - starts[s.batch_ids[0]]
            assert pending >= -1e-6
            assert execution > 0
            assert s.latency_us == pytest.approx(pending + execution)

    def test_overloaded_run_accumulates_pending(self, intra_run):
        result, spans = intra_run
        starts = _first_starts(result.trace)
        # At 300 req/s this little node queues: later requests pend longer.
        assert _pending_us(spans[-1], starts) > _pending_us(spans[0], starts)

    def test_batch_ids_match_requests(self, liger_run):
        result, spans = liger_run
        ids_in_spans = {b for s in spans for b in s.batch_ids}
        ids_in_metrics = {r.batch_id for r in result.metrics.completed}
        assert ids_in_spans == ids_in_metrics
        assert ids_in_spans <= set(_first_starts(result.trace))


class TestLagAndReport:
    def test_comm_start_lag_bounded(self, liger_run):
        result, _ = liger_run
        comm = [r for r in result.trace.rows if r.kind is KernelKind.COMM]
        lagged = [r for r in comm if r.queueing_delay > 20.0]
        # Hybrid sync keeps lag rare: well under half of comm kernels.
        assert len(lagged) < len(comm) / 2
