"""The five benchmark workloads: seeded inputs and the servers that run them.

Every workload is an open loop in simulated time.  The benchmark draws the
inputs itself from its own ``numpy`` generator and builds the request
objects itself; ``repro``'s workload generators are never called, so
changing one of them cannot change the benchmark.  No real-time generator
exists, so generator lateness is zero by construction.

Arrivals put one request uniformly inside each ``1 / rate`` slot, and
lengths are stratified (:func:`_stratified`), so the offered load and the
total work are nearly the same on every seed.  With independent Poisson
arrivals and lengths, the few hundred requests a two-second run can afford
moved p50 latency by 15-25% between seeds, wider than any bound the
benchmark could hold.

``repro`` is imported inside the functions that need it, so the parent
process can read workload names and sizes without importing the program.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Workload", "WORKLOADS", "make_inputs", "build", "flat_requests"]


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the deployment that serves it."""

    name: str
    why: str
    #: Workloads with the same ``inputs`` key receive identical inputs.
    inputs: str
    requests: int
    #: Mean offered load, requests per simulated second.
    rate: float
    #: Latency limit for ``sim_slo_attainment`` (simulated ms).
    latency_limit_ms: float


# Models are reduced to a few layers, as the paper does for its scaling runs
# ("reducing layer number will not impact the computational and
# communication features", §2.2): per-layer shapes are unchanged, and the
# host cost per request drops enough to simulate a few hundred requests in
# a couple of seconds.  Rates were sized against each deployment's measured
# saturation throughput (see README.md).
_DECODE_LAYERS = 4
_PREFILL_LAYERS = 6
_MOE_LAYERS = 4
_CHAT_LAYERS = 2

#: Per-chat deadline of ``chat_slo`` (simulated ms).
CHAT_DEADLINE_MS = 50.0

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decode_steady",
            why=(
                "recurring decode shapes: plan and assembly caches hit, so "
                "engine, machine and timeline replay carry the host time"
            ),
            inputs="decode",
            requests=1600,
            rate=3770.0,
            latency_limit_ms=9.0,
        ),
        Workload(
            name="prefill_mixed",
            why=(
                "a new shape every round: the plan cache never hits, so "
                "scheduler, policy, decomposition and assembly do the work"
            ),
            inputs="prefill",
            requests=600,
            rate=200.0,
            latency_limit_ms=90.0,
        ),
        Workload(
            name="prefill_intra",
            why=(
                "prefill_mixed's inputs on the Intra-Op baseline: bypasses "
                "the Liger runtime, and sets the Liger-vs-Intra-Op ratio"
            ),
            inputs="prefill",
            requests=600,
            rate=200.0,
            latency_limit_ms=1000.0,
        ),
        Workload(
            name="moe_a2a",
            why=(
                "MoE all-to-all over PCIe under the expert_overlap policy: "
                "the largest replay windows and the most timeline bails"
            ),
            inputs="moe",
            requests=200,
            rate=560.0,
            latency_limit_ms=12.0,
        ),
        Workload(
            name="chat_slo",
            why=(
                "bursty chats with deadlines: prefill and decode mix, and "
                "admission control, KV accounting and telemetry do real work"
            ),
            inputs="chat",
            requests=128,
            rate=150.0,
            latency_limit_ms=CHAT_DEADLINE_MS,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _rng(seed: int, family: str) -> np.random.Generator:
    # The family name is part of the seed so that workloads with different
    # inputs never share a random stream; masking admits negative seeds.
    salt = [ord(c) for c in family]
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *salt])


def _arrivals_us(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """One arrival drawn uniformly inside each ``1 / rate`` slot."""
    return (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) / rate * 1e6


def _stratified(
    rng: np.random.Generator, n: int, lo: int, hi: int, block: int
) -> np.ndarray:
    """Integers uniform on ``[lo, hi]``, stratified in blocks of ``block``.

    Each block holds one draw from each of ``block`` equal-width strata, in
    random order, so the marginal stays uniform while the total work of a
    block barely varies between seeds.
    """
    edges = np.linspace(lo, hi + 1, block + 1)
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, block):
        draws = np.floor(rng.uniform(edges[:-1], edges[1:])).astype(np.int64)
        rng.shuffle(draws)
        out[start : start + block] = draws[: n - start]
    return out


def _bursty_arrivals_us(
    rng: np.random.Generator, n: int, rate: float, *, ratio: float = 4.0,
    phase: int = 32,
) -> np.ndarray:
    """Alternating burst/lull phases of ``phase`` arrivals each.

    The burst rate is ``ratio`` times the lull rate; with equal counts per
    phase the long-run mean is ``rate``.
    """
    burst = rate * (1.0 + ratio) / 2.0
    lull = burst / ratio
    out: List[np.ndarray] = []
    start = 0.0
    for k, lo in enumerate(range(0, n, phase)):
        count = min(phase, n - lo)
        phase_rate = burst if k % 2 == 0 else lull
        out.append(start + _arrivals_us(rng, count, phase_rate))
        start += count / phase_rate * 1e6
    return np.concatenate(out)


def make_inputs(workload: Workload, seed: int, requests: Optional[int] = None):
    """The workload's input objects, a pure function of ``seed``."""
    from repro.serving.generation import GenRequest
    from repro.serving.lifecycle import ChatRequest
    from repro.serving.request import Batch, Request

    n = requests or workload.requests
    rng = _rng(seed, workload.inputs)
    if workload.inputs == "decode":
        at = _arrivals_us(rng, n, workload.rate)
        return [
            GenRequest(rid=i, arrival=float(at[i]), context_len=16, gen_tokens=1)
            for i in range(n)
        ]
    if workload.inputs in ("prefill", "moe"):
        per_batch = 4 if workload.inputs == "prefill" else 2
        at = _arrivals_us(rng, n, workload.rate)
        seqs = _stratified(rng, n, 16, 128, per_batch)
        reqs = [
            Request(rid=i, arrival=float(at[i]), seq_len=int(seqs[i]))
            for i in range(n)
        ]
        return [
            Batch(requests=reqs[i : i + per_batch])
            for i in range(0, n, per_batch)
        ]
    if workload.inputs == "chat":
        at = _bursty_arrivals_us(rng, n, workload.rate)
        prompts = _stratified(rng, n, 16, 128, 4)
        gens = _stratified(rng, n, 4, 16, 13)
        deadline_us = CHAT_DEADLINE_MS * 1e3
        return [
            ChatRequest(
                rid=i, arrival=float(at[i]), prompt_len=int(prompts[i]),
                gen_tokens=int(gens[i]), deadline=float(at[i]) + deadline_us,
            )
            for i in range(n)
        ]
    raise ValueError(f"unknown input family {workload.inputs!r}")


def flat_requests(inputs) -> List:
    """Every request object of a workload's inputs (batches are unpacked)."""
    out: List = []
    for item in inputs:
        out.extend(getattr(item, "requests", (item,)))
    return out


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
def _liger_config(overrides: Dict[str, object], **fields):
    from repro.core import LigerConfig

    return dataclasses.replace(LigerConfig(**fields), **overrides)


def build(workload: Workload, overrides: Dict[str, object]) -> Tuple[object, object]:
    """A fresh ``(server, strategy)`` pair; binding happens here.

    ``overrides`` replace fields of every Liger workload's ``LigerConfig``;
    ``prefill_intra`` has no Liger runtime and ignores them.
    """
    from repro.hw import a100_pcie_node, v100_nvlink_node
    from repro.models import GLM_130B, MOE_16E, OPT_30B
    from repro.serving.api import make_strategy

    name = workload.name
    if name == "decode_steady":
        from repro.serving.generation import ContinuousBatchingServer

        model = OPT_30B.scaled_layers(_DECODE_LAYERS)
        node = v100_nvlink_node(4)
        cfg = _liger_config(overrides, max_inflight=6, division_factor=16)
        strategy = make_strategy("liger", model, node, config=cfg)
        server = ContinuousBatchingServer(
            model, node, strategy, max_batch=8, pipeline_depth=2,
            record_trace=False,
        )
        return server, strategy
    if name in ("prefill_mixed", "prefill_intra"):
        from repro.serving.server import Server

        model = GLM_130B.scaled_layers(_PREFILL_LAYERS)
        node = a100_pcie_node(4)
        if name == "prefill_mixed":
            strategy = make_strategy(
                "liger", model, node, config=_liger_config(overrides)
            )
        else:
            strategy = make_strategy("intra", model, node)
        return Server(model, node, strategy, record_trace=False), strategy
    if name == "moe_a2a":
        from repro.serving.server import Server

        model = MOE_16E.scaled_layers(_MOE_LAYERS)
        node = a100_pcie_node(4)
        cfg = _liger_config(overrides, policy="expert_overlap", max_inflight=6)
        strategy = make_strategy("liger", model, node, config=cfg)
        return Server(model, node, strategy, record_trace=False), strategy
    if name == "chat_slo":
        from repro.obs import Observability, ObservabilityConfig, SloPolicy
        from repro.serving.lifecycle import LifecycleServer
        from repro.serving.overload import AdmissionPolicy, OverloadConfig

        model = OPT_30B.scaled_layers(_CHAT_LAYERS)
        node = v100_nvlink_node(4)
        strategy = make_strategy(
            "liger", model, node, config=_liger_config(overrides)
        )
        obs = Observability(
            ObservabilityConfig(
                telemetry=True,
                window_us=20_000.0,
                slo_policies=(
                    SloPolicy("availability", target=0.95),
                    SloPolicy(
                        "latency", objective="latency", target=0.9,
                        latency_threshold_ms=CHAT_DEADLINE_MS,
                    ),
                ),
            )
        )
        server = LifecycleServer(
            model, node, strategy, prefill_batch=4, max_decode_batch=16,
            record_trace=False,
            overload=OverloadConfig(
                max_pending_requests=32,
                policy=AdmissionPolicy.SHED_BY_DEADLINE,
                enable_kv_accounting=True,
            ),
            observability=obs,
        )
        return server, strategy
    raise ValueError(f"unknown workload {name!r}")
