"""Overload layer: admission control, deadlines, KV pressure.

Every server admits through the one chassis rule
(:meth:`repro.serving.session.JobServer._admit`): the default-deadline
stamp, a pending bound counted in requests, and the victim
:func:`~repro.serving.overload.shed_victim` picks.  One parametrized test
checks that rule on all four servers under all three policies; the rest pin
the batch :class:`~repro.serving.server.Server`'s queue, deadlines and KV
budget, and the lifecycle server's recompute preemption, end to end.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, OutOfMemoryError
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.models.kvcache import batch_kv_bytes
from repro.serving import (
    AdmissionPolicy,
    Batch,
    BurstyProcess,
    ChatRequest,
    ContinuousBatchingServer,
    LifecycleServer,
    OverloadConfig,
    Phase,
    Request,
    RequestState,
    Server,
    StaticBatchingServer,
    chat_workload,
    generation_workload,
)
from repro.serving.api import make_strategy
from repro.serving.overload import shed_victim
from repro.serving.server import MAX_INFLIGHT_BATCHES
from repro.serving.workload import general_trace, generative_trace
from repro.sim.memory import NodeMemoryModel, activation_bytes
from serving_goldens import pinned_rows

MODEL = OPT_30B.scaled_layers(6)
NODE = v100_nvlink_node(4)
PER_TOKEN = MODEL.kv_cache_bytes(1, 1, tp=4)


def _batch(rid0, arrival, *, size=1, seq=8, phase=Phase.PREFILL,
           context=0, deadline=None):
    reqs = [
        Request(rid=rid0 + i, arrival=arrival, seq_len=seq, phase=phase,
                context_len=context, deadline=deadline)
        for i in range(size)
    ]
    return Batch(reqs)


def _server(strategy="intra", **overload):
    return Server(
        MODEL, NODE, make_strategy(strategy, MODEL, NODE),
        check_memory=False, record_trace=False,
        overload=OverloadConfig(**overload) if overload else None,
    )


def _states(batch):
    return [r.state for r in batch.requests]


class TestConfig:
    def test_policy_coercion_from_string(self):
        cfg = OverloadConfig(policy="shed-oldest")
        assert cfg.policy is AdmissionPolicy.SHED_OLDEST

    def test_validation(self):
        with pytest.raises(ConfigError):
            OverloadConfig(max_pending_requests=0)
        with pytest.raises(ConfigError):
            OverloadConfig(default_deadline_us=0.0)
        with pytest.raises(ConfigError):
            OverloadConfig(kv_capacity_frac=1.5)
        with pytest.raises(ConfigError):
            OverloadConfig(kv_capacity_frac=0.0)
        with pytest.raises(ConfigError):
            OverloadConfig(policy="drop-table")


# ----------------------------------------------------------------------
# The one admission rule, on every server
# ----------------------------------------------------------------------
def _loose_deadlines(requests):
    """Mixed deadlines, loose enough that shedding comes from admission."""
    for r in requests:
        r.deadline = r.arrival + (400_000.0 if r.rid % 3 else 100_000.0)


def _admission_case(kind, policy):
    """(server, run inputs, requests, bound) for one cross-server case."""
    strat = make_strategy("intra", MODEL, NODE)
    kw = dict(check_memory=False, record_trace=False)
    if kind == "server":
        batches = generative_trace(
            48, 8000.0, batch_size=4, context_len=64, seed=1,
            arrival=BurstyProcess(8000.0, burstiness=6.0, phase_requests=16),
        )
        requests = [r for b in batches for r in b.requests]
        bound = 8
        srv = Server(MODEL, NODE, strat, overload=OverloadConfig(
            max_pending_requests=bound, policy=policy), **kw)
        _loose_deadlines(requests)
        return srv, batches, requests, bound
    bound = 3
    cfg = OverloadConfig(max_pending_requests=bound, policy=policy)
    if kind == "lifecycle":
        jobs = chat_workload(16, 4000.0, seed=1)
        srv = LifecycleServer(MODEL, NODE, strat, overload=cfg, **kw)
        # Room for ~300 KV tokens, so prompts queue behind resident chats.
        srv.memory.reserve(
            "squeeze", srv.memory.min_available() - 300 * PER_TOKEN
        )
    elif kind == "continuous":
        jobs = generation_workload(20, 8000.0, seed=1)
        srv = ContinuousBatchingServer(
            MODEL, NODE, strat, max_batch=4, overload=cfg, **kw
        )
    else:
        jobs = generation_workload(24, 16000.0, seed=1)
        bound = 4
        srv = StaticBatchingServer(
            MODEL, NODE, strat, batch_size=2,
            overload=OverloadConfig(max_pending_requests=bound, policy=policy),
            **kw,
        )
        # Room for one static group at a time, so groups queue.
        srv.memory.reserve("squeeze", srv.memory.min_available() - (
            MODEL.kv_cache_bytes(1, 80, tp=4) + activation_bytes(MODEL, 2, 1, 4)
        ))
    _loose_deadlines(jobs)
    return srv, jobs, jobs, bound


@pytest.mark.parametrize("policy", [p.value for p in AdmissionPolicy])
@pytest.mark.parametrize("kind", ["server", "static", "continuous", "lifecycle"])
def test_admission_rule_on_every_server(kind, policy):
    """Pending stays within the bound, every request reaches exactly one
    terminal state, and each shed victim is ``shed_victim``'s pick."""
    srv, inputs, requests, bound = _admission_case(kind, policy)
    cfg = srv.overload
    admit = srv._admit
    evictions = []
    peaks = []

    def watched(job):
        waiting = list(srv._waiting())
        admitted = admit(job)
        need = len(srv._requests_of(job))
        # Replay the rule on the snapshot: the entries it evicts, in order,
        # and whether the arrival itself is shed.
        expect, queue = [], list(waiting)
        arrival_shed = False
        while srv._num_requests(queue) + need > bound:
            i = shed_victim(cfg.policy, queue, srv._deadline_of)
            if i is None:
                arrival_shed = True
                break
            expect.append(queue.pop(i))
        assert admitted is not arrival_shed
        gone = [e for e in waiting if not any(e is w for w in srv._waiting())]
        assert [id(e) for e in gone] == [id(e) for e in expect]
        evictions.extend(expect)
        peaks.append(
            srv._num_requests(srv._waiting()) + (need if admitted else 0)
        )
        return admitted

    srv._admit = watched
    result = srv.run(inputs)
    m = srv.metrics

    assert max(peaks) <= bound
    assert result.overload.peak_pending_requests <= bound
    assert all(r.state.terminal for r in requests)
    assert m.num_completed + m.shed_requests + m.timed_out_requests == len(requests)
    completed = [r.rid for r in m.completed]
    assert len(set(completed)) == len(completed)
    assert sorted(completed) == sorted(
        r.rid for r in requests if r.state is RequestState.COMPLETED
    )
    for victim in evictions:
        assert all(r.state is RequestState.SHED for r in srv._requests_of(victim))
    assert m.shed_requests > 0, "the case must exercise admission"
    if policy == "reject":
        assert not evictions
    else:
        assert evictions


# ----------------------------------------------------------------------
# The batch server's queue
# ----------------------------------------------------------------------
class TestAdmissionPolicies:
    """Same-instant arrivals: the first ``MAX_INFLIGHT_BATCHES`` dispatch,
    the next two queue (bound 2), and the rest meet the policy."""

    N = MAX_INFLIGHT_BATCHES + 4

    def _serve(self, policy, batches):
        srv = _server(max_pending_requests=2, policy=policy,
                      enable_kv_accounting=False)
        result = srv.run(batches)
        assert result.metrics.num_terminal == sum(b.size for b in batches)
        return result

    def test_reject_sheds_the_arrival(self):
        batches = [_batch(i, 0.0) for i in range(self.N)]
        result = self._serve("reject", batches)
        assert result.metrics.shed_requests == 2
        assert [_states(b) for b in batches[-2:]] == [[RequestState.SHED]] * 2
        assert all(_states(b) == [RequestState.COMPLETED] for b in batches[:-2])

    def test_shed_oldest_keeps_the_newest(self):
        batches = [_batch(i, 0.0) for i in range(self.N)]
        result = self._serve("shed-oldest", batches)
        assert result.metrics.shed_requests == 2
        queued_first = batches[MAX_INFLIGHT_BATCHES:MAX_INFLIGHT_BATCHES + 2]
        assert [_states(b) for b in queued_first] == [[RequestState.SHED]] * 2
        assert all(_states(b) == [RequestState.COMPLETED] for b in batches[-2:])

    def test_shed_by_deadline_drops_tightest_slo(self):
        blockers = [_batch(i, 0.0) for i in range(MAX_INFLIGHT_BATCHES)]
        tight = _batch(10, 0.0, deadline=1e6)
        loose = _batch(11, 0.0, deadline=1e8)
        newcomer = _batch(12, 0.0, deadline=1e7)
        result = self._serve(
            "shed-by-deadline", blockers + [tight, loose, newcomer]
        )
        # The tightest-deadline queued batch was sacrificed for the newcomer.
        assert _states(tight) == [RequestState.SHED]
        assert _states(loose) == _states(newcomer) == [RequestState.COMPLETED]
        assert result.metrics.shed_requests == 1

    def test_shed_by_deadline_falls_back_to_reject(self):
        batches = [_batch(i, 0.0) for i in range(MAX_INFLIGHT_BATCHES + 2)]
        extra = _batch(99, 0.0)  # no deadlines anywhere: nothing to sacrifice
        self._serve("shed-by-deadline", batches + [extra])
        assert _states(extra) == [RequestState.SHED]
        assert all(_states(b) == [RequestState.COMPLETED] for b in batches)

    def test_queue_is_always_bounded(self):
        for policy in AdmissionPolicy:
            srv = _server(max_pending_requests=2, policy=policy,
                          enable_kv_accounting=False)
            for i in range(20):
                srv._on_arrival(_batch(i, 0.0, deadline=1e9))
                assert srv._num_requests(srv._queue) <= 2
                assert len(srv._open) <= MAX_INFLIGHT_BATCHES


class TestDeadlines:
    def test_default_deadline_stamped_at_arrival(self):
        srv = _server(default_deadline_us=500.0)
        b = _batch(0, 10.0)
        srv._on_arrival(b)
        assert b.requests[0].deadline == 510.0

    def test_expired_pending_batch_is_timed_out_cheaply(self):
        # Four blockers fill the window; `late` expires while queued.
        blockers = [_batch(i, 0.0, seq=512) for i in range(MAX_INFLIGHT_BATCHES)]
        late = _batch(9, 0.0, deadline=100.0)
        srv = _server(enable_kv_accounting=False)
        result = srv.run(blockers + [late])
        # `late` was never dispatched — dropped from the queue at zero cost.
        assert late.requests[0].dispatched_at is None
        assert late.requests[0].state is RequestState.TIMED_OUT
        assert result.metrics.timed_out_requests == 1
        assert result.metrics.num_completed == MAX_INFLIGHT_BATCHES

    def test_mixed_batch_expiry_splits_terminal_states(self):
        blockers = [_batch(i, 0.0, seq=512) for i in range(MAX_INFLIGHT_BATCHES)]
        reqs = [
            Request(rid=10, arrival=0.0, seq_len=8, deadline=100.0),
            Request(rid=11, arrival=0.0, seq_len=8, deadline=1e9),
        ]
        srv = _server(enable_kv_accounting=False)
        result = srv.run(blockers + [Batch(reqs)])
        assert reqs[0].state is RequestState.TIMED_OUT
        assert reqs[1].state is RequestState.SHED  # collateral of its batch
        assert result.metrics.timed_out_requests == 1
        assert result.metrics.shed_requests == 1


class TestKVAccountant:
    """The batch server's KV budget: a ledger capped at
    ``kv_capacity_frac`` of the memory left after weights."""

    def test_capacity_is_free_memory_after_weights(self):
        srv = _server(kv_capacity_frac=0.5)
        free = NODE.gpu.memory_capacity - MODEL.weight_bytes_per_device(4)
        report = srv.run([_batch(0, 0.0)]).overload
        assert report.kv_capacity_bytes == pytest.approx(0.5 * free)
        assert _server(enable_kv_accounting=False).memory is None
        assert _server().memory is None  # overload off: no ledger at all

    def test_weights_too_big_rejected(self):
        big = OPT_30B.scaled_layers(96)
        with pytest.raises(OutOfMemoryError):
            Server(
                big, NODE, make_strategy("intra", big, NODE),
                check_memory=False, overload=OverloadConfig(),
            )

    def test_charge_release_cycle(self):
        srv = _server(max_pending_requests=64)
        batches = [
            _batch(4 * i, 10.0 * i, size=4, phase=Phase.DECODE, seq=1, context=64)
            for i in range(6)
        ]
        result = srv.run(batches)
        assert result.metrics.num_completed == 24
        per_batch = batch_kv_bytes(MODEL, batches[0], 4)
        assert result.overload.peak_kv_bytes >= per_batch
        # Every reservation was released: only weights and headroom remain.
        assert srv.memory.devices[0].used == srv._kv_floor

    def test_charge_refuses_to_oversubscribe(self):
        # Room for one 300-token batch at a time: the rest wait their turn.
        srv = _server(max_pending_requests=64)
        srv.memory.reserve(
            "squeeze", srv.memory.min_available() - 400 * PER_TOKEN
        )
        batches = [_batch(i, 0.0, seq=300) for i in range(3)]
        result = srv.run(batches)
        assert result.metrics.num_completed == 3
        assert srv.memory.peak_used <= NODE.gpu.memory_capacity
        starts = sorted(b.requests[0].dispatched_at for b in batches)
        assert starts[0] < starts[1] < starts[2]

    def test_unpadded_accounting_sums_members(self):
        reqs = [
            Request(rid=0, arrival=0.0, seq_len=1, phase=Phase.DECODE,
                    context_len=16),
            Request(rid=1, arrival=0.0, seq_len=1, phase=Phase.DECODE,
                    context_len=64),
        ]
        # Per-request (context+1) tokens, NOT padded to the max context.
        assert batch_kv_bytes(MODEL, Batch(reqs), 4) == pytest.approx(
            PER_TOKEN * (17 + 65)
        )


# ----------------------------------------------------------------------
# Preemption: the lifecycle server's recompute preemption
# ----------------------------------------------------------------------
def _squeezed_lifecycle(chats, budget_tokens, workspaces=2):
    strat = make_strategy("intra", MODEL, NODE)
    srv = LifecycleServer(
        MODEL, NODE, strat, check_memory=False, prefill_batch=1,
        overload=OverloadConfig(
            max_pending_requests=64, policy="shed-by-deadline"
        ),
    )
    budget = budget_tokens * PER_TOKEN + workspaces * activation_bytes(
        MODEL, 1, 1, 4
    )
    srv.memory.reserve("test-squeeze", srv.memory.min_available() - budget)
    return srv


def _passing_chats():
    """Z admits at once; O (loose deadline) blocks; A (tight) passes O via
    EDF, so O later finds the younger A holding its KV."""
    z = ChatRequest(rid=0, arrival=0.0, prompt_len=92, gen_tokens=8,
                    deadline=500_000.0)
    o = ChatRequest(rid=1, arrival=10.0, prompt_len=180, gen_tokens=20,
                    deadline=5_000_000.0)
    a = ChatRequest(rid=2, arrival=20.0, prompt_len=72, gen_tokens=40,
                    deadline=400_000.0)
    return z, o, a


class TestPreemption:
    def test_young_staged_decode_is_preempted_for_older_work(self):
        z, o, a = _passing_chats()
        evicted = []
        srv = _squeezed_lifecycle([z, o, a], 245)
        queue = srv._queue

        class Watched(list):
            def append(self, chat):  # preemption requeues its victim
                if chat.prefill_done is not None:
                    evicted.append(chat.rid)
                super().append(chat)

        srv._queue = Watched(queue)
        res = srv.run([z, o, a])
        assert res.preemptions == len(evicted) >= 1
        # Only the younger chat was evicted, and the older one completed.
        assert set(evicted) == {a.rid}
        assert o.state is RequestState.COMPLETED

    def test_never_preempts_older_batches(self):
        # The older chat holds the KV; the younger one must wait, not evict.
        old = ChatRequest(rid=0, arrival=0.0, prompt_len=200, gen_tokens=20,
                          deadline=5_000_000.0)
        young = ChatRequest(rid=1, arrival=10.0, prompt_len=100, gen_tokens=8,
                            deadline=400_000.0)
        srv = _squeezed_lifecycle([old, young], 245)
        res = srv.run([old, young])
        assert res.preemptions == 0
        assert young.prefill_done > old.completion

    def test_impossible_batch_raises_instead_of_wedging(self):
        srv = _server(max_pending_requests=4)
        budget_tokens = srv._kv_budget / PER_TOKEN
        giant = _batch(0, 0.0, phase=Phase.PREFILL, seq=int(budget_tokens) + 8)
        with pytest.raises(OutOfMemoryError, match="needs .* GB of KV but the budget"):
            srv.run([giant])  # nothing in flight could ever free room

    def test_preempted_batch_eventually_dispatches(self):
        z, o, a = _passing_chats()
        res = _squeezed_lifecycle([z, o, a], 245).run([z, o, a])
        assert res.preemptions >= 1
        assert res.num_requests == 3  # everyone completed despite eviction
        for r in (z, o, a):
            assert r.state is RequestState.COMPLETED


class TestServerOverload:
    N = 512

    def _overloaded_workload(self):
        # Decode-heavy traffic at ~2× the sustainable rate, in bursts:
        # batch-8 decode steps over a 256-token context at 4000 req/s mean.
        return generative_trace(
            self.N, 4000.0, batch_size=8, context_len=256, seed=0,
            arrival=BurstyProcess(4000.0, burstiness=6.0, phase_requests=64),
        )

    def _run(self, overload, workload=None, record_trace=False):
        strat = make_strategy("intra", MODEL, NODE)
        server = Server(
            MODEL, NODE, strat, check_memory=False, record_trace=record_trace,
            overload=overload,
        )
        return server.run(workload or self._overloaded_workload())

    def test_overload_run_is_bounded_and_fully_accounted(self):
        cfg = OverloadConfig(
            max_pending_requests=32, policy="shed-oldest",
            default_deadline_us=100_000.0,
        )
        result = self._run(cfg)
        m = result.metrics
        rpt = result.overload
        assert m.num_terminal == self.N  # every request reached a terminal state
        assert m.shed_requests + m.timed_out_requests > 0  # it really shed
        assert rpt.peak_pending_requests <= cfg.max_pending_requests
        assert rpt.peak_kv_bytes <= rpt.kv_capacity_bytes
        assert rpt.admitted_requests + rpt.shed_requests \
            + rpt.timed_out_requests >= self.N

    def test_admission_control_beats_unbounded_queueing(self):
        # Same overloaded trace with and without admission control: the
        # unprotected server serves everything but its completed-request
        # latency collapses; the protected one keeps served latency bounded
        # by shedding the excess.
        unprotected = self._run(None)
        protected = self._run(
            OverloadConfig(max_pending_requests=32, policy="shed-oldest")
        )
        assert unprotected.metrics.num_completed == self.N
        assert protected.metrics.shed_requests > 0
        p_lat = protected.latency_stats()
        u_lat = unprotected.latency_stats()
        assert p_lat.p99 < u_lat.p99
        assert p_lat.mean < u_lat.mean

    def test_tight_deadlines_shed_queued_work_cheaply(self):
        cfg = OverloadConfig(
            max_pending_requests=256, default_deadline_us=15_000.0
        )
        result = self._run(cfg)
        m = result.metrics
        att = m.slo_attainment()
        assert m.timed_out_requests > 0  # expired while pending: never ran
        assert att is not None and 0.0 <= att <= 1.0
        assert m.slo_tracked > 0
        assert m.num_terminal == self.N

    def test_two_unarmed_runs_give_identical_rows_and_completions(self):
        """Two runs without overload in one process: the same raw trace
        rows (batch ids and kernel names included) and completions."""
        base, again = (
            self._run(
                None, workload=general_trace(32, 40.0, 2, seed=3),
                record_trace=True,
            )
            for _ in range(2)
        )
        assert pinned_rows(base.trace) == pinned_rows(again.trace)
        assert (
            [r.completion for r in base.metrics.completed]
            == [r.completion for r in again.metrics.completed]
        )


class TestLifecycleOverload:
    def test_deadline_misses_and_timeouts_under_pressure(self):
        reqs = chat_workload(
            48, 600.0, prompt_range=(32, 128), gen_tokens=(8, 24),
            seed=1, deadline_us=250_000.0,
        )
        strat = make_strategy("intra", MODEL, NODE)
        srv = LifecycleServer(
            MODEL, NODE, strat, check_memory=False,
            overload=OverloadConfig(
                max_pending_requests=6, policy="shed-by-deadline"
            ),
        )
        res = srv.run(reqs)
        assert res.timed_out_requests > 0
        assert res.slo_attainment is not None
        total = res.num_requests + res.shed_requests + res.timed_out_requests
        assert total == 48
        for r in reqs:  # terminal-state invariant: nobody left pending
            assert r.state.terminal

    def test_bounded_admission_queue_under_kv_pressure(self):
        reqs = chat_workload(
            40, 3000.0, prompt_range=(64, 256), gen_tokens=(16, 32), seed=2,
        )
        strat = make_strategy("intra", MODEL, NODE)
        srv = LifecycleServer(
            MODEL, NODE, strat, check_memory=False,
            overload=OverloadConfig(max_pending_requests=8, policy="reject"),
        )
        # Memory for ~600 KV tokens: prompts back up behind resident chats.
        srv.memory.reserve(
            "test-squeeze", srv.memory.min_available() - 600 * PER_TOKEN
        )
        res = srv.run(reqs)
        assert res.shed_requests > 0
        total = res.num_requests + res.shed_requests + res.timed_out_requests
        assert total == 40
        for r in reqs:
            assert r.state.terminal

    def test_prefill_timeout_retries_blocked_prompts(self):
        # Chats time out as their prefill retires and free their KV, while
        # a memory-blocked prompt waits with nothing else running.  The
        # freed memory must retry (or expire) it, not strand it.
        model = OPT_30B.scaled_layers(4)
        chats = chat_workload(10, 2000.0, seed=0)
        srv = LifecycleServer(
            model, NODE, make_strategy("intra", model, NODE),
            prefill_batch=2, max_decode_batch=8, check_memory=False,
            record_trace=False,
            overload=OverloadConfig(
                max_pending_requests=3, policy="shed-by-deadline",
                default_deadline_us=30_000.0,
            ),
        )
        srv.memory.reserve(
            "test-squeeze",
            srv.memory.min_available()
            - 300 * model.kv_cache_bytes(1, 1, tp=4),
        )
        res = srv.run(chats)
        total = res.num_requests + res.shed_requests + res.timed_out_requests
        assert total == 10
        for chat in chats:
            assert chat.state.terminal

    def test_kv_pressure_triggers_recompute_preemption(self):
        # Three chats and room for ~245 KV tokens: Z (100 tokens) admits
        # immediately; O (200 tokens, loose deadline) blocks; A (80 tokens,
        # tight deadline) passes O via EDF.  When Z finishes, O still does
        # not fit — until it preempts the younger A, which re-prefills its
        # accumulated context and completes afterwards.
        z, o, a = _passing_chats()
        srv = _squeezed_lifecycle([z, o, a], 245)
        res = srv.run([z, o, a])
        assert res.preemptions >= 1
        assert res.num_requests == 3  # everyone completed despite eviction
        for r in (z, o, a):
            assert r.state is RequestState.COMPLETED
        # Every chat's reservation was released: only weights and the
        # squeeze remain.
        clean = NodeMemoryModel(MODEL, NODE)
        clean.reserve("test-squeeze", srv.memory.devices[0]._reservations[
            "test-squeeze"
        ])
        assert [d.used for d in srv.memory.devices] == [
            d.used for d in clean.devices
        ]
