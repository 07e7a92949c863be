"""Schedule-plan cache: bit-identity, fingerprint keys, LRU, counters.

The load-bearing guarantee is **bit-identity**: a cache-off run (plan
cache, assembly cache, and simulator memos all disabled) must fingerprint
identically to the committed golden traces that the default cache-on
configuration reproduces (``test_session.py``) — so cache-on ≡ golden ≡
cache-off across all four servers × liger/intra.

The fingerprint unit tests pin the key's *separating* power: inputs that
would plan differently (different contention factors, division factor,
packing, shapes) must produce different keys, and unfingerprintable state
must be reported uncacheable rather than guessed at.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.contention import ContentionAnticipator
from repro.core.plan_cache import SchedulePlanCache
from repro.profiling.contention_profiler import ContentionFactors
from serving_goldens import GOLDEN_PATH, SCENARIOS, fingerprint, run_scenario


def _load_goldens():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Cache-off ≡ golden ≡ cache-on (the bit-identity contract)
# ----------------------------------------------------------------------
class TestCacheOffEquivalence:
    @pytest.mark.parametrize("server,strategy", SCENARIOS)
    def test_cache_off_matches_golden(self, server, strategy):
        """Disabling every hot-path cache must not move a single float."""
        goldens = _load_goldens()
        _, trace = run_scenario(server, strategy, cache_off=True)
        assert fingerprint(trace) == goldens[f"{server}/{strategy}"], (
            f"{server}/{strategy}: cache-off timeline diverged from the "
            "golden — a cache is not bit-identical"
        )


class TestLinkFaultEquivalence:
    """A replayed round must see the link health at its own launch time."""

    @staticmethod
    def _decode_trace(*, plan_cache: bool, link_fault: bool):
        from repro.core import LigerConfig
        from repro.faults.plan import FaultPlan, LinkDegradation
        from repro.hw import v100_nvlink_node
        from repro.models import OPT_30B
        from repro.serving import (
            ContinuousBatchingServer,
            ServingConfig,
            generation_workload,
        )
        from repro.serving.api import make_strategy
        from serving_goldens import reset_batch_ids

        reset_batch_ids()
        model = OPT_30B.scaled_layers(2)
        node = v100_nvlink_node(4)
        strat = make_strategy(
            "liger", model, node,
            config=LigerConfig(
                max_inflight=6, division_factor=16,
                enable_plan_cache=plan_cache,
            ),
        )
        plan = (
            FaultPlan([LinkDegradation(start=5_000.0, end=20_000.0, fraction=0.3)])
            if link_fault
            else None
        )
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=8, pipeline_depth=2,
            config=ServingConfig(fault_plan=plan, record_trace=True),
        )
        jobs = generation_workload(
            120, 3770.0, context_len=16, gen_tokens=(1, 1), seed=0
        )
        result = srv.run(jobs)
        if plan_cache:
            assert strat.perf_counters()["plan_cache_hits"] > 0
        return fingerprint(result.trace)

    def test_cache_on_matches_cache_off_under_link_degradation(self):
        cache_on = self._decode_trace(plan_cache=True, link_fault=True)
        cache_off = self._decode_trace(plan_cache=False, link_fault=True)
        fault_free = self._decode_trace(plan_cache=True, link_fault=False)
        assert cache_on == cache_off
        assert cache_on != fault_free


# ----------------------------------------------------------------------
# Fingerprint separation
# ----------------------------------------------------------------------
def _scheduler_stub(
    *,
    sigs=("sig-a", "sig-b"),
    factors=(1.2, 1.3),
    division=8,
    packing="first_fit",
):
    anticipator = ContentionAnticipator(
        ContentionFactors(compute=factors[0], comm=factors[1])
    )
    return SimpleNamespace(
        processing=[SimpleNamespace(sig=s) for s in sigs],
        anticipator=anticipator,
        decomposer=None if division is None else SimpleNamespace(
            division_factor=division
        ),
        packing=packing,
    )


class TestFingerprint:
    def test_identical_inputs_share_a_key(self):
        cache = SchedulePlanCache()
        assert cache.fingerprint(_scheduler_stub()) == cache.fingerprint(
            _scheduler_stub()
        )

    def test_same_shapes_different_contention_factors_miss(self):
        """The §3.5 scales live in the key: a changed factor changes plans."""
        cache = SchedulePlanCache()
        base = cache.fingerprint(_scheduler_stub(factors=(1.2, 1.3)))
        bumped = cache.fingerprint(_scheduler_stub(factors=(1.2, 1.4)))
        assert base != bumped

    def test_division_factor_and_packing_separate(self):
        cache = SchedulePlanCache()
        base = cache.fingerprint(_scheduler_stub())
        assert base != cache.fingerprint(_scheduler_stub(division=16))
        assert base != cache.fingerprint(_scheduler_stub(division=None))
        assert base != cache.fingerprint(_scheduler_stub(packing="best_fit"))

    def test_shapes_separate(self):
        cache = SchedulePlanCache()
        base = cache.fingerprint(_scheduler_stub(sigs=("sig-a", "sig-b")))
        assert base != cache.fingerprint(_scheduler_stub(sigs=("sig-a",)))
        assert base != cache.fingerprint(
            _scheduler_stub(sigs=("sig-a", "sig-c"))
        )

    def test_unfingerprintable_funcvec_is_uncacheable(self):
        cache = SchedulePlanCache()
        stub = _scheduler_stub()
        stub.processing[1].sig = None
        assert cache.fingerprint(stub) is None
        assert cache.uncacheable == 1

    def test_anticipator_without_fingerprint_is_uncacheable(self):
        cache = SchedulePlanCache()
        stub = _scheduler_stub()
        stub.anticipator = object()
        assert cache.fingerprint(stub) is None
        assert cache.uncacheable == 1

    def test_empty_processing_is_not_counted_uncacheable(self):
        cache = SchedulePlanCache()
        assert cache.fingerprint(_scheduler_stub(sigs=())) is None
        assert cache.uncacheable == 0

    def test_adaptive_anticipator_drift_invalidates(self):
        """Learned-scale drift changes the key — stale replays can't match."""
        from repro.core.contention import AdaptiveAnticipator

        cache = SchedulePlanCache()
        stub = _scheduler_stub()
        stub.anticipator = AdaptiveAnticipator()
        before = cache.fingerprint(stub)
        stub.anticipator.observe(
            SimpleNamespace(is_comm=False), 10.0, 19.0
        )
        assert cache.fingerprint(stub) != before


# ----------------------------------------------------------------------
# LRU bookkeeping
# ----------------------------------------------------------------------
class TestLru:
    def _put(self, cache, key):
        round_ = SimpleNamespace(
            subset0=[], primary_kind=None, window=1.0, secondary_fill=0.0
        )
        cache.put(key, round_, actions=[])

    def test_eviction_counts_and_caps(self):
        cache = SchedulePlanCache(max_entries=2)
        for key in ("a", "b", "c"):
            self._put(cache, key)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("b") is not None

    def test_get_bumps_lru_age(self):
        cache = SchedulePlanCache(max_entries=2)
        self._put(cache, "a")
        self._put(cache, "b")
        assert cache.get("a") is not None  # refresh "a"
        self._put(cache, "c")  # evicts "b", not "a"
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_hit_miss_counters(self):
        cache = SchedulePlanCache()
        assert cache.get("missing") is None
        self._put(cache, "k")
        assert cache.get("k") is not None
        assert (cache.hits, cache.misses) == (1, 1)


# ----------------------------------------------------------------------
# End-to-end: counters flow to perf_counters() and the Prometheus export
# ----------------------------------------------------------------------
class TestCountersEndToEnd:
    def _serve(self, **strategy_cfg):
        from repro.core import LigerConfig
        from repro.hw import v100_nvlink_node
        from repro.models import MODELS
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy
        from serving_goldens import reset_batch_ids

        reset_batch_ids()
        model = MODELS["OPT-13B"].scaled_layers(2)
        node = v100_nvlink_node(2)
        strat = make_strategy(
            "liger", model, node, config=LigerConfig(**strategy_cfg)
        )
        jobs = generation_workload(
            24, 1200.0, context_len=16, gen_tokens=(1, 1), seed=0
        )
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2,
            record_trace=False, check_memory=False,
        )
        return srv, strat, jobs

    def test_steady_decode_hits_and_counters(self):
        srv, strat, jobs = self._serve()
        srv.run(jobs)
        counters = strat.perf_counters()
        assert counters["plan_cache_hits"] > 0
        assert counters["plan_cache_misses"] > 0
        assert counters["plan_cache_uncacheable"] == 0
        assert counters["assembly_cache_hits"] > 0
        assert counters["plan_build_seconds"] > 0.0
        assert counters["plan_cache_entries"] == len(
            strat.runtime.plan_cache
        )

    def test_disabled_cache_never_builds(self):
        srv, strat, jobs = self._serve(enable_plan_cache=False)
        srv.run(jobs)
        assert strat.runtime.plan_cache is None
        assert "plan_cache_hits" not in strat.perf_counters()

    def test_perf_gauges_in_prometheus_export(self):
        """Satellite: the ``repro_perf_*`` section rides observability."""
        from repro.obs import Observability
        from repro.serving import ServingConfig

        from repro.core import LigerConfig
        from repro.hw import v100_nvlink_node
        from repro.models import MODELS
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy
        from serving_goldens import reset_batch_ids

        reset_batch_ids()
        model = MODELS["OPT-13B"].scaled_layers(2)
        node = v100_nvlink_node(2)
        strat = make_strategy("liger", model, node, config=LigerConfig())
        jobs = generation_workload(
            12, 1200.0, context_len=16, gen_tokens=(1, 1), seed=0
        )
        obs = Observability()
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2,
            check_memory=False,
            config=ServingConfig(observability=obs, record_trace=False),
        )
        srv.run(jobs)
        text = obs.to_prometheus()
        assert "repro_perf_plan_cache_hits" in text
        assert "repro_perf_assembly_cache_hits" in text
        assert "repro_perf_plan_build_seconds" in text
        # The gauges carry the live counter values, not zeros.
        hits = strat.perf_counters()["plan_cache_hits"]
        assert hits > 0
        assert f"repro_perf_plan_cache_hits {hits}" in text

    def test_intra_strategy_exports_no_perf_gauges(self):
        """Duck-typing: strategies without perf_counters stay gauge-free."""
        from repro.obs import Observability
        from repro.serving import ServingConfig

        from repro.hw import v100_nvlink_node
        from repro.models import MODELS
        from repro.serving import ContinuousBatchingServer, generation_workload
        from repro.serving.api import make_strategy
        from serving_goldens import reset_batch_ids

        reset_batch_ids()
        model = MODELS["OPT-13B"].scaled_layers(2)
        node = v100_nvlink_node(2)
        strat = make_strategy("intra", model, node)
        jobs = generation_workload(6, 400.0, seed=0)
        obs = Observability()
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=4, pipeline_depth=2,
            check_memory=False,
            config=ServingConfig(observability=obs, record_trace=False),
        )
        srv.run(jobs)
        assert "repro_perf_" not in obs.to_prometheus()
