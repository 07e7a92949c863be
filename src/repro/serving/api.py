"""One-call serving API: build the whole stack and run a workload.

This is the library's front door::

    from repro import serve, v100_nvlink_node, OPT_30B
    result = serve(model=OPT_30B, node=v100_nvlink_node(4),
                   strategy="liger", arrival_rate=8.0, num_requests=64)
    print(result.summary())

``strategy`` selects among the paper's four systems:

* ``"intra"`` — Megatron tensor parallelism (Intra-Op baseline),
* ``"inter"`` — equal-stage pipeline (Inter-Op baseline),
* ``"inter_th"`` — pipeline over partitioned kernels (Inter-Th baseline),
* ``"liger"`` — interleaved parallelism (the paper's contribution).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import repro.parallel
from repro.errors import ConfigError
from repro.hw.devices import NodeSpec
from repro.models.specs import ModelSpec
from repro.parallel.base import ParallelStrategy
from repro.profiling.profiler import OpProfiler
from repro.serving.server import Server, ServingResult
from repro.serving.workload import general_trace, generative_trace
from repro.sim.interconnect import NcclConfig

__all__ = ["serve", "make_strategy", "STRATEGIES"]


#: Each strategy name → its class in :mod:`repro.parallel`, which imports
#: only the module of the strategy a run names.
_STRATEGY_CLASSES: Dict[str, str] = {
    "intra": "IntraOpStrategy",
    "inter": "InterOpStrategy",
    "inter_th": "InterTheoreticalStrategy",
    "liger": "InterleavedStrategy",
}

#: Public names of the available strategies.
STRATEGIES: Tuple[str, ...] = tuple(_STRATEGY_CLASSES)


def make_strategy(
    name: str,
    model: ModelSpec,
    node: NodeSpec,
    *,
    profiler: Optional[OpProfiler] = None,
    policy: Optional[str] = None,
    **kwargs,
) -> ParallelStrategy:
    """Instantiate a strategy by name.

    ``policy`` selects the Liger operator-scheduling policy (see
    :mod:`repro.core.policy`); it applies to ``"liger"`` only and merges
    into the strategy's :class:`~repro.core.config.LigerConfig` (so it can
    be combined with an explicit ``config=`` keyword).
    """
    if name not in _STRATEGY_CLASSES:
        raise ConfigError(f"unknown strategy {name!r}; choose from {STRATEGIES}")
    if policy is not None:
        if name != "liger":
            raise ConfigError(
                f"policy={policy!r} selects a Liger scheduling policy; "
                f"strategy {name!r} does not schedule with policies"
            )
        from repro.core.config import LigerConfig

        config = kwargs.get("config")
        if config is None:
            kwargs["config"] = LigerConfig(policy=policy)
        else:
            kwargs["config"] = dataclasses.replace(config, policy=policy)
    if profiler is None and name != "liger":
        # Baselines profile with NCCL library defaults.  Liger builds its
        # own profiler so its config governs the reduced NCCL footprint
        # (§3.5 mitigation) and the profiler-memo toggle — pre-building one
        # here would silently override both flags.
        profiler = OpProfiler(node, nccl=NcclConfig())
    cls = getattr(repro.parallel, _STRATEGY_CLASSES[name])
    return cls(model, node, profiler=profiler, **kwargs)


def serve(
    model: ModelSpec,
    node: NodeSpec,
    *,
    strategy: str = "liger",
    arrival_rate: float = 4.0,
    num_requests: int = 64,
    batch_size: int = 2,
    workload: str = "general",
    policy: Optional[str] = None,
    seq_range: Tuple[int, int] = (16, 128),
    context_len: int = 16,
    seed: int = 0,
    record_trace: bool = False,
    check_memory: bool = True,
    fault_plan=None,
    resilience=None,
    overload=None,
    deadline_us: Optional[float] = None,
    observability=None,
    **strategy_kwargs,
) -> ServingResult:
    """Serve a synthetic workload and return latency/throughput metrics.

    Parameters mirror the paper's experimental setup: ``workload="general"``
    gives the §4.2 random traces (seq 16–128), ``workload="generative"`` the
    §4.3 decode steps (context 16, batch 32 by default).

    ``policy`` picks the Liger operator-scheduling policy (see
    :func:`~repro.core.policy.policy_names`); ``None`` keeps the strategy's
    configured default, and non-``"liger"`` strategies reject it.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) injects faults
    into the run and arms the recovery layer; ``resilience`` (a
    :class:`~repro.faults.resilience.ResilienceConfig`) tunes its policy.
    When both are ``None`` no fault machinery is constructed and the run is
    bit-identical to one without fault support.

    ``overload`` (a :class:`~repro.serving.overload.OverloadConfig`) arms
    admission control, deadline enforcement, and KV-cache accounting in
    front of the strategy; ``deadline_us`` gives every request an
    arrival-relative deadline (it implies a default ``OverloadConfig``
    when ``overload`` is not given).

    ``observability`` (a :class:`~repro.obs.Observability`) attaches the
    event bus, metrics registry, and span builder to the run; afterwards
    export with ``observability.save_prometheus(...)`` and
    ``observability.save_merged_trace(..., trace=result.trace)``.  When
    ``None``, nothing is published and the run is bit-identical to one
    without the observability subsystem.

    Every other keyword goes to :func:`make_strategy`, so
    ``config=LigerConfig(...)`` configures the Liger strategy.
    """
    if deadline_us is not None:
        from repro.serving.overload import OverloadConfig

        if overload is None:
            overload = OverloadConfig(default_deadline_us=deadline_us)
        elif overload.default_deadline_us is None:
            overload = dataclasses.replace(
                overload, default_deadline_us=deadline_us
            )
    strat = make_strategy(strategy, model, node, policy=policy, **strategy_kwargs)
    if workload == "general":
        batches = general_trace(
            num_requests, arrival_rate, batch_size, seq_range=seq_range, seed=seed
        )
    elif workload == "generative":
        batches = generative_trace(
            num_requests,
            arrival_rate,
            batch_size=batch_size,
            context_len=context_len,
            seed=seed,
        )
    else:
        raise ConfigError(f"unknown workload {workload!r}")
    server = Server(
        model,
        node,
        strat,
        record_trace=record_trace,
        check_memory=check_memory,
        fault_plan=fault_plan,
        resilience=resilience,
        overload=overload,
        observability=observability,
    )
    return server.run(batches)
