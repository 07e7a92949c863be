"""Standardized perf scenarios.

Every scenario is a *builder*: it constructs a fresh server + workload pair
for one measured run, so repeated timings never share mutable state.  Two
families:

* **Matrix cells** — every Table-1 model on every server, liger strategy,
  a short golden-style workload.  Tracked cache-on only; their events/sec
  is the regression surface the CI perf job guards.
* **Ablations** — ``steady_decode`` (the acceptance scenario: recurring
  decode shapes on the continuous-batching server, where the plan cache
  replays nearly every round) and ``bursty_overload``.  Measured twice,
  caches on vs caches off, and reported with the speedup.

Scales:

* ``smoke`` — layer-reduced models and short workloads; seconds total (CI);
* ``full``  — the committed-baseline scale (minutes total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigError

__all__ = ["PerfScenario", "SCENARIOS", "ablation_config", "bench_scale"]

#: Steady-decode tuning: division factor and processing-list size chosen to
#: maximize round recurrence (gen_tokens=(1,1) keeps every decode shape
#: identical, so the plan cache hits on >95% of rounds after warmup).
_STEADY_DIVISION = 16
_STEADY_INFLIGHT = 6


def bench_scale(scale: str) -> str:
    """Validate and return a perf scale (``smoke`` or ``full``)."""
    if scale not in ("smoke", "full"):
        raise ConfigError(f"perf scale must be smoke/full, got {scale!r}")
    return scale


def ablation_config(cache_on: bool, **overrides):
    """The A/B arms: every PR-introduced cache toggled as one unit.

    The off arm disables the schedule-plan cache, the assembly cache and
    the simulator memos (machine slowdown-shape memo + profiler occupancy/
    memory memos) together — the harness measures "all hot-path caches" vs
    "none", and the golden suite pins both arms to identical timelines.
    """
    from repro.core import LigerConfig

    return LigerConfig(
        enable_plan_cache=cache_on,
        enable_assembly_cache=cache_on,
        enable_sim_memos=cache_on,
        **overrides,
    )


@dataclass(frozen=True)
class PerfScenario:
    """One standardized measurement target.

    ``build(scale, cache_on)`` returns ``(server, jobs)`` ready for one
    ``server.run(jobs)`` call.  ``ablate`` marks the scenario as an A/B
    (measured with caches on *and* off); matrix cells are cache-on only.
    """

    name: str
    description: str
    build: Callable[[str, bool], Tuple[object, object]]
    ablate: bool = False


def _reset_batch_ids() -> None:
    # The process-global batch-id counter must rebase between measured runs
    # so repeated builds produce identical kernel names (and identical
    # fingerprints for the plan cache to hit on).
    import itertools

    from repro.serving import request as request_mod

    request_mod._batch_ids = itertools.count()


# ----------------------------------------------------------------------
# Ablation scenarios
# ----------------------------------------------------------------------
def _build_steady_decode(scale: str, cache_on: bool):
    """The acceptance scenario: steady decode on continuous batching.

    Single-token generations at a fixed context length arriving above the
    service rate keep the processing list saturated with recurring shapes —
    the workload the plan cache is built for.
    """
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.serving.api import make_strategy
    from repro.serving.generation import (
        ContinuousBatchingServer,
        generation_workload,
    )

    _reset_batch_ids()
    model = OPT_30B.scaled_layers(4)
    node = v100_nvlink_node(2)
    cfg = ablation_config(
        cache_on,
        max_inflight=_STEADY_INFLIGHT,
        division_factor=_STEADY_DIVISION,
    )
    strat = make_strategy("liger", model, node, config=cfg)
    n = 1440 if scale == "full" else 240
    jobs = generation_workload(
        n, 1200.0, context_len=16, gen_tokens=(1, 1), seed=0
    )
    srv = ContinuousBatchingServer(
        model, node, strat, max_batch=8, pipeline_depth=2,
        record_trace=False, check_memory=False,
    )
    return srv, jobs


def _build_bursty_overload(scale: str, cache_on: bool):
    """Bursty arrivals: alternating burst/lull phases above the mean rate.

    Bursts mix queue depths, so round fingerprints recur less than in
    steady decode — the cache's hit rate (and speedup) is expected to be
    lower here; the scenario exists to keep that regime measured.
    """
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.serving.api import make_strategy
    from repro.serving.arrival import BurstyProcess
    from repro.serving.generation import (
        ContinuousBatchingServer,
        generation_workload,
    )

    _reset_batch_ids()
    model = OPT_30B.scaled_layers(4)
    node = v100_nvlink_node(2)
    cfg = ablation_config(
        cache_on,
        max_inflight=_STEADY_INFLIGHT,
        division_factor=_STEADY_DIVISION,
    )
    strat = make_strategy("liger", model, node, config=cfg)
    n = 720 if scale == "full" else 160
    jobs = generation_workload(
        n, 1200.0, context_len=16, gen_tokens=(1, 2), seed=0,
        arrival=BurstyProcess(1200.0, burstiness=4.0, phase_requests=32),
    )
    srv = ContinuousBatchingServer(
        model, node, strat, max_batch=8, pipeline_depth=2,
        record_trace=False, check_memory=False,
    )
    return srv, jobs


def _build_obs_overhead(scale: str, cache_on: bool):
    """Telemetry ablation: the bursty-overload run with and without obs.

    Unlike the cache ablations, both arms keep every cache on; the toggled
    unit is observability itself.  The ``True`` arm (the one the regression
    gate guards) runs bare — no Observability at all, the zero-cost
    contract's hot path — and the ``False`` arm arms the full telemetry
    store plus two SLO policies, so the reported "speedup" is the wall-time
    overhead factor of sampling, windowing, and burn-rate evaluation.
    """
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B
    from repro.serving.api import make_strategy
    from repro.serving.arrival import BurstyProcess
    from repro.serving.generation import (
        ContinuousBatchingServer,
        generation_workload,
    )

    _reset_batch_ids()
    model = OPT_30B.scaled_layers(4)
    node = v100_nvlink_node(2)
    cfg = ablation_config(
        True,  # caches stay on in BOTH arms; obs is the toggled unit
        max_inflight=_STEADY_INFLIGHT,
        division_factor=_STEADY_DIVISION,
    )
    strat = make_strategy("liger", model, node, config=cfg)
    obs = None
    if not cache_on:
        from repro.obs import Observability, ObservabilityConfig
        from repro.obs.slo import SloPolicy

        obs = Observability(
            ObservabilityConfig(
                telemetry=True,
                window_us=20_000.0,
                slo_policies=(
                    SloPolicy("availability", target=0.95),
                    SloPolicy(
                        "latency-p99",
                        objective="latency",
                        target=0.99,
                        latency_threshold_ms=50.0,
                    ),
                ),
            )
        )
    n = 720 if scale == "full" else 160
    jobs = generation_workload(
        n, 1200.0, context_len=16, gen_tokens=(1, 2), seed=0,
        arrival=BurstyProcess(1200.0, burstiness=4.0, phase_requests=32),
    )
    srv = ContinuousBatchingServer(
        model, node, strat, max_batch=8, pipeline_depth=2,
        record_trace=False, check_memory=False, observability=obs,
    )
    return srv, jobs


def _build_moe_prefill(scale: str, cache_on: bool):
    """MoE expert-parallel prefill: expert overlap vs no overlap.

    Like ``obs_overhead``, both arms keep every cache on; the toggled unit
    is cross-batch interleaving itself.  The ``True`` arm serves with the
    ``expert_overlap`` policy and a deep processing list; the ``False``
    arm pins ``max_inflight=1`` — one batch in flight, so dispatch/combine
    all-to-alls have nothing to hide behind (the Intra-Op regime).  The
    ``sim_s`` gap between the arms is the makespan reduction expert
    overlap buys; ``speedup`` stays the host-time ratio like every cell.
    """
    from repro.hw import v100_nvlink_node
    from repro.models import MOE_16E
    from repro.serving.api import make_strategy
    from repro.serving.server import Server
    from repro.serving.workload import general_trace

    _reset_batch_ids()
    layers = 4 if scale == "full" else 2
    model = MOE_16E.scaled_layers(layers)
    node = v100_nvlink_node(4)
    cfg = ablation_config(
        True,  # caches stay on in BOTH arms; overlap is the toggled unit
        policy="expert_overlap",
        max_inflight=(_STEADY_INFLIGHT if cache_on else 1),
    )
    strat = make_strategy("liger", model, node, config=cfg)
    # The rate must outrun service so batches pile into the processing
    # list — with nothing queued, both arms degenerate to intra-op.
    n = 48 if scale == "full" else 12
    batches = general_trace(n, 2000.0, 2, seed=0)
    srv = Server(model, node, strat, record_trace=False, check_memory=False)
    return srv, batches


# ----------------------------------------------------------------------
# Table-1 matrix cells
# ----------------------------------------------------------------------
def _matrix_builder(model_name: str, server: str):
    def _build(scale: str, cache_on: bool):
        from repro.hw import v100_nvlink_node
        from repro.models import MODELS
        from repro.serving.api import make_strategy

        _reset_batch_ids()
        layers = 4 if scale == "full" else 2
        model = MODELS[model_name].scaled_layers(layers)
        node = v100_nvlink_node(4)
        strat = make_strategy(
            "liger", model, node, config=ablation_config(cache_on)
        )
        if server == "server":
            from repro.serving.server import Server
            from repro.serving.workload import general_trace

            batches = general_trace(12, 40.0, 2, seed=0)
            srv = Server(
                model, node, strat, record_trace=False, check_memory=False
            )
            return srv, batches
        if server == "lifecycle":
            from repro.serving.lifecycle import LifecycleServer, chat_workload

            chats = chat_workload(6, 120.0, seed=0)
            srv = LifecycleServer(
                model, node, strat, prefill_batch=2, max_decode_batch=8,
                record_trace=False, check_memory=False,
            )
            return srv, chats
        from repro.serving.generation import (
            ContinuousBatchingServer,
            StaticBatchingServer,
            generation_workload,
        )

        jobs = generation_workload(16, 200.0, seed=0)
        if server == "static":
            srv = StaticBatchingServer(
                model, node, strat, batch_size=4,
                record_trace=False, check_memory=False,
            )
        elif server == "continuous":
            srv = ContinuousBatchingServer(
                model, node, strat, max_batch=8, pipeline_depth=2,
                record_trace=False, check_memory=False,
            )
        else:  # pragma: no cover - registry is static
            raise ConfigError(f"unknown matrix server {server!r}")
        return srv, jobs

    return _build


_TABLE1_MODELS = ("OPT-30B", "OPT-66B", "GLM-130B")
_SERVERS = ("server", "static", "continuous", "lifecycle")


def _all_scenarios() -> Dict[str, PerfScenario]:
    scenarios: List[PerfScenario] = [
        PerfScenario(
            name="steady_decode",
            description=(
                "Single-token decode at a saturating constant rate on the "
                "continuous-batching server (the plan cache's home turf)"
            ),
            build=_build_steady_decode,
            ablate=True,
        ),
        PerfScenario(
            name="bursty_overload",
            description=(
                "Burst/lull arrivals above the service rate on the "
                "continuous-batching server"
            ),
            build=_build_bursty_overload,
            ablate=True,
        ),
        PerfScenario(
            name="moe_prefill",
            description=(
                "16-expert MoE prefill under expert parallelism: "
                "expert_overlap policy vs single-batch no-overlap serving"
            ),
            build=_build_moe_prefill,
            ablate=True,
        ),
        PerfScenario(
            name="obs_overhead",
            description=(
                "Bursty overload with full telemetry + SLO policies armed "
                "vs no observability (speedup = obs overhead factor)"
            ),
            build=_build_obs_overhead,
            ablate=True,
        ),
    ]
    for model_name in _TABLE1_MODELS:
        for server in _SERVERS:
            key = model_name.replace("-", "_").lower()
            scenarios.append(
                PerfScenario(
                    name=f"{key}/{server}",
                    description=f"{model_name} on the {server} server, liger",
                    build=_matrix_builder(model_name, server),
                )
            )
    return {s.name: s for s in scenarios}


#: Every standardized scenario, keyed by name.
SCENARIOS: Dict[str, PerfScenario] = _all_scenarios()
