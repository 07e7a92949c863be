"""Golden-trace scenarios for the serving chassis equivalence tests.

Each unarmed scenario runs one of the four servers with an *empty* serving
configuration (no faults, no overload, no observability) and fingerprints
the resulting kernel timeline.  Their fingerprints in
``tests/golden/serving_traces.json`` were captured from the pre-chassis
servers; ``tests/test_session.py`` asserts the rebased servers reproduce
them bit-for-bit (the zero-cost convention).

The ``*-overload`` scenarios arm admission control on a denser workload
and a squeezed KV budget, so requests are shed, time out and, on the
lifecycle server, are preempted.
Their fingerprints also pin what the run's
:class:`~repro.serving.overload.OverloadReport` counted.

The ``server-moe`` scenario serves MoE-16E on a PCIe node under the
``expert_overlap`` policy, so expert GEMMs and all-to-all kernels are
packed by resource class rather than by the compute/comm dichotomy.

The mechanism scenarios (:data:`MECHANISM_SCENARIOS`) each serve a dense
batch trace on :class:`~repro.serving.server.Server` with one paper
mechanism off its default: the CPU-GPU sync mode (Fig. 13),
decomposition off (§3.6), full NCCL channels (§3.5), the
non-default runtime knobs, and the Inter-Op and Inter-Th baselines
(Fig. 10).  :func:`liger_config` names the configuration each one serves.

The recovery scenarios (:data:`RECOVERY_SCENARIOS`, suffix ``-faults``) arm
the recovery layer.  The continuous and lifecycle ones inject a short
launch-failure window, so decode iterations and a lifecycle prefill are
shed and their jobs requeued or shed.  ``server-full-nccl-faults`` serves
the full-NCCL ablation under the default recovery stack with an empty
:class:`~repro.faults.plan.FaultPlan`: its secondaries outlive their
windows, so the monitor counts violations, but the schedule is the same as
``server-full-nccl``'s.  ``server-straggler-faults`` serves the dense
trace on the default configuration with GPU 1 at half speed for the first
20 ms, so the ranks skew and the monitor counts violations on a healthy
schedule.  Their fingerprints also pin what the run's
:class:`~repro.faults.resilience.ResilienceReport` counted.  They stay out
of :data:`SCENARIOS`, whose per-rank reference arm arms an empty fault plan
of its own (``tests/test_rank_mirroring.py``).

:data:`METRICS_SCENARIOS` name the observed runs whose Prometheus text is
pinned in ``tests/golden/<scenario>.prom``.

Regenerate with ``PYTHONPATH=src python tests/serving_goldens.py`` — but
only from a revision whose timelines are known-good; the whole point of
the file is to pin behaviour across refactors.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "serving_traces.json")

#: Suffix of the scenarios that arm admission control.
ARMED = "-overload"

#: Suffix of the scenario that serves an MoE model under expert_overlap.
MOE = "-moe"

#: (server, strategy) pairs the goldens cover.
SCENARIOS = [
    (server, strategy)
    for server in ("server", "lifecycle", "static", "continuous")
    for strategy in ("liger", "intra")
] + [
    (server + ARMED, "liger")
    for server in ("lifecycle", "continuous", "static", "server")
] + [("server" + MOE, "liger")]

#: Dense-trace ``Server`` scenarios that each pin one paper mechanism.
MECHANISM_SCENARIOS = [
    ("server-cpu-gpu-sync", "liger"),
    ("server-no-decomposition", "liger"),
    ("server-full-nccl", "liger"),
    ("server-knobs", "liger"),
    ("server-dense", "inter"),
    ("server-dense", "inter_th"),
]
SCENARIOS += MECHANISM_SCENARIOS

#: Suffix of the scenarios that arm the recovery layer.
FAULTS = "-faults"

#: Scenarios served under a fault plan and the recovery layer.
RECOVERY_SCENARIOS = [
    ("continuous" + FAULTS, "liger"),
    ("lifecycle" + FAULTS, "liger"),
    ("server-full-nccl" + FAULTS, "liger"),
    ("server-straggler" + FAULTS, "liger"),
]

#: Every scenario with a fingerprint in :data:`GOLDEN_PATH`.
GOLDEN_SCENARIOS = SCENARIOS + RECOVERY_SCENARIOS

#: Observed runs whose Prometheus text is pinned, gauges included.
METRICS_SCENARIOS = [
    ("lifecycle" + ARMED, "liger"),
    ("continuous", "liger"),
]

#: The :class:`~repro.serving.overload.OverloadReport` fields an armed
#: scenario's fingerprint pins.
REPORT_FIELDS = (
    "admitted_requests",
    "shed_requests",
    "timed_out_requests",
    "preempted_batches",
    "peak_pending_requests",
)

#: The :class:`~repro.faults.resilience.ResilienceReport` counts a
#: recovery scenario's fingerprint pins.
RESILIENCE_FIELDS = (
    "retries",
    "shed_batches",
    "violations",
    "rounds_observed",
)


def _model_node():
    from repro.hw import v100_nvlink_node
    from repro.models import OPT_30B

    return OPT_30B.scaled_layers(4), v100_nvlink_node(4)


def run_scenario(server: str, strategy: str, keep=None, **extra):
    """Serve one golden workload; returns (result, trace).

    ``**extra`` goes to the server (its subsystem keywords).  A ``keep``
    list receives the server object, for tests that read its metrics or
    machine.
    """
    from repro.serving.api import make_strategy

    if server.endswith(FAULTS):
        server = server[: -len(FAULTS)]
        _arm_faults(server, extra)
    if (
        server.endswith(MOE)
        or server == "server-straggler"
        or (server, strategy) in MECHANISM_SCENARIOS
    ):
        return _run_dense(server, strategy, keep, **extra)
    model, node = _model_node()
    strat = make_strategy(strategy, model, node)
    armed = server.endswith(ARMED)
    if armed:
        from repro.serving.overload import OverloadConfig

        server = server[: -len(ARMED)]
    #: Free device memory left to the server's own KV reservations.
    squeeze = None

    def _run(srv, payload):
        if keep is not None:
            keep.append(srv)
        if squeeze is not None:
            srv.memory.reserve("squeeze", srv.memory.min_available() - squeeze)
        return srv.run(payload)

    if server == "server":
        from repro.serving.server import Server
        from repro.serving.workload import general_trace

        batches = general_trace(12, 40.0, 2, seed=0)
        if armed:
            # Tight deadlines and a KV budget of about two batches.
            batches = general_trace(16, 2000.0, 2, seed=0)
            extra.setdefault("overload", OverloadConfig(
                max_pending_requests=6, policy="shed-oldest",
                default_deadline_us=5_000.0, kv_capacity_frac=0.001,
            ))
        srv = Server(
            model, node, strat, record_trace=True, check_memory=False, **extra
        )
        result = _run(srv, batches)
        return result, result.trace
    if server == "lifecycle":
        from repro.serving.lifecycle import LifecycleServer, chat_workload

        chats = chat_workload(6, 120.0, seed=0)
        if armed:
            # Every third chat has a loose deadline, so shed-by-deadline's
            # earliest-deadline-first order lets tight chats pass it, and
            # a squeezed KV budget makes the passed chat preempt one.
            chats = chat_workload(8, 1000.0, seed=0)
            for chat in chats:
                loose = chat.rid % 3 == 0
                chat.deadline = chat.arrival + (160_000.0 if loose else 40_000.0)
            extra.setdefault("overload", OverloadConfig(
                max_pending_requests=4, policy="shed-by-deadline",
            ))
            squeeze = 250 * model.kv_cache_bytes(1, 1, tp=node.num_gpus)
        srv = LifecycleServer(
            model, node, strat, prefill_batch=2, max_decode_batch=8,
            record_trace=True, check_memory=False, **extra,
        )
        result = _run(srv, chats)
        return result, srv.trace
    from repro.serving.generation import (
        ContinuousBatchingServer,
        StaticBatchingServer,
        generation_workload,
    )

    jobs = generation_workload(8, 200.0, seed=0)
    if server == "static":
        if armed:
            from repro.sim.memory import activation_bytes

            jobs = generation_workload(12, 8000.0, seed=0)
            extra.setdefault("overload", OverloadConfig(
                max_pending_requests=4, policy="reject",
                default_deadline_us=20_000.0,
            ))
            # Room for one static group at a time.
            tp = node.num_gpus
            squeeze = model.kv_cache_bytes(1, 150, tp=tp) + activation_bytes(
                model, 4, 1, tp
            )
        srv = StaticBatchingServer(
            model, node, strat, batch_size=4, record_trace=True,
            check_memory=False, **extra,
        )
    elif server == "continuous":
        max_batch = 8
        if armed:
            jobs = generation_workload(10, 4000.0, seed=0)
            extra.setdefault("overload", OverloadConfig(
                max_pending_requests=2, policy="shed-oldest",
                default_deadline_us=20_000.0,
            ))
            max_batch = 4
        srv = ContinuousBatchingServer(
            model, node, strat, max_batch=max_batch, pipeline_depth=2,
            record_trace=True, check_memory=False, **extra,
        )
    else:
        raise ValueError(f"unknown scenario server {server!r}")
    result = _run(srv, jobs)
    return result, result.trace


def _arm_faults(server: str, extra: dict) -> None:
    """Arm the recovery layer the way ``server``'s ``-faults`` scenario does.

    The job servers see a 2 ms launch-failure window.  Under the lifecycle
    server's ``max_retries=0`` each shed batch's chats are shed at once:
    one prefill and one decode iteration.  The continuous server keeps one
    retry, so a shed iteration's jobs are first requeued and shed only when
    their next iteration is shed too (``max_retries + 1`` in a row).
    """
    from repro.faults.plan import FaultPlan, GpuStraggler, LaunchFailure
    from repro.faults.resilience import ResilienceConfig

    if server == "server-full-nccl":
        extra.setdefault("fault_plan", FaultPlan())
        return
    if server == "server-straggler":
        extra.setdefault("fault_plan", FaultPlan(
            [GpuStraggler(start=0, end=20_000, gpu=1, factor=2.0)]
        ))
        return
    start, retries = {
        "continuous": (10_000.0, 1),
        "lifecycle": (16_000.0, 0),
    }[server]
    extra.setdefault(
        "fault_plan", FaultPlan([LaunchFailure(start=start, end=start + 2_000.0)])
    )
    extra.setdefault("resilience", ResilienceConfig(max_retries=retries))


def liger_config(server: str):
    """The :class:`~repro.core.config.LigerConfig` a scenario's Liger
    strategy serves with; ``None`` keeps the default."""
    from repro.core import LigerConfig, SyncMode
    from repro.profiling.contention_profiler import ContentionFactors

    fields = {
        "server" + MOE: dict(policy="expert_overlap"),
        "server-cpu-gpu-sync": dict(sync_mode=SyncMode.CPU_GPU),
        "server-no-decomposition": dict(enable_decomposition=False),
        "server-full-nccl": dict(reduce_nccl_channels=False),
        "server-knobs": dict(
            max_inflight=2, division_factor=4,
            contention_factors=ContentionFactors(1.0, 1.0),
        ),
    }.get(server)
    return None if fields is None else LigerConfig(**fields)


def scenario_strategy(server: str, strategy: str):
    """The (model, node, strategy) a dense-trace scenario serves: MoE-16E
    on four PCIe A100s for ``server-moe``, else OPT-30B at 4 layers."""
    from repro.serving.api import make_strategy

    if server.endswith(MOE):
        from repro.hw import a100_pcie_node
        from repro.models import MOE_16E

        model, node = MOE_16E.scaled_layers(4), a100_pcie_node(4)
    else:
        model, node = _model_node()
    config = liger_config(server)
    kw = {} if config is None else {"config": config}
    return model, node, make_strategy(strategy, model, node, **kw)


def _run_dense(server: str, strategy: str, keep, **extra):
    """16 requests in batches of two at 2000 req/s on ``Server``."""
    from repro.serving.server import Server
    from repro.serving.workload import general_trace

    model, node, strat = scenario_strategy(server, strategy)
    srv = Server(
        model, node, strat, record_trace=True, check_memory=False, **extra
    )
    if keep is not None:
        keep.append(srv)
    result = srv.run(general_trace(16, 2000.0, 2, seed=0))
    return result, result.trace


def pinned_rows(trace):
    """The trace row fields a fingerprint pins, as JSON-able tuples.

    Batch ids are local to a run, so ids and kernel names are pinned as
    they are.
    """
    return [
        (
            r.gpu, r.stream, r.name, r.kind.value, r.batch_id,
            r.layer, r.op, repr(r.ready), repr(r.start), repr(r.end),
            repr(r.noload_duration),
        )
        for r in trace.rows
    ]


def fingerprint(trace, overload=None, resilience=None) -> dict:
    """Bit-exact digest of a timeline plus human-debuggable aggregates;
    with an ``overload`` or ``resilience`` report, also the counts it
    holds."""
    rows = pinned_rows(trace)
    blob = json.dumps(rows, separators=(",", ":")).encode()
    out = {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "num_rows": len(rows),
        "last_end_us": repr(max((r.end for r in trace.rows), default=0.0)),
    }
    if overload is not None:
        out["overload"] = {name: getattr(overload, name) for name in REPORT_FIELDS}
    if resilience is not None:
        counts = {name: getattr(resilience, name) for name in RESILIENCE_FIELDS}
        counts["shed_batches"] = len(counts["shed_batches"])
        out["resilience"] = counts
    return out


def metrics_path(server: str, strategy: str) -> str:
    """Where the pinned Prometheus text of a metrics scenario lives."""
    return os.path.join(
        os.path.dirname(GOLDEN_PATH), f"{server}-{strategy}_metrics.prom"
    )


def observed_prometheus(server: str, strategy: str) -> str:
    """The Prometheus text of one observed scenario run, without the
    ``repro_perf_*_seconds`` family, which samples host wall time."""
    from repro.obs import Observability

    obs = Observability()
    run_scenario(server, strategy, observability=obs)
    text = obs.to_prometheus()
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not re.search(r"repro_perf_\w*_seconds", line)
    )


def generate() -> dict:
    goldens = {}
    for server, strategy in GOLDEN_SCENARIOS:
        result, trace = run_scenario(server, strategy)
        goldens[f"{server}/{strategy}"] = fingerprint(
            trace, result.overload, result.resilience
        )
    return goldens


if __name__ == "__main__":
    goldens = generate()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} fingerprint(s) to {GOLDEN_PATH}")
    for server, strategy in METRICS_SCENARIOS:
        path = metrics_path(server, strategy)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(observed_prometheus(server, strategy))
        print(f"wrote {path}")
