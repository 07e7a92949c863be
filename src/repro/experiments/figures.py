"""Per-figure experiment definitions: regenerate every table and figure.

Each ``figN`` function reproduces the data behind one figure of the paper's
evaluation (§4) and returns a :class:`FigureResult` with structured records
plus a printable text rendering.  The ``scale`` parameter trades fidelity
for wall-clock:

* ``"smoke"`` — layer-reduced models, tiny sweeps; seconds.  Used by tests.
* ``"quick"`` — full models, the paper's headline panels, compact rate
  grids; the default for the benchmark suite.
* ``"full"``  — every panel of the paper (all 12 of Fig. 10), wider grids,
  more requests; minutes.

Arrival-rate grids are specified as fractions of the *estimated intra-op
saturation throughput* so one grid fits every model/node combination (the
paper likewise tunes rates per node, §D).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import LigerConfig, SyncMode
from repro.errors import ConfigError
from repro.experiments.harness import ExperimentRecord, ExperimentRunner
from repro.experiments.reporting import format_kv, format_table
from repro.hw.devices import NodeSpec, a100_pcie_node, v100_nvlink_node
from repro.models.specs import (
    GLM_130B,
    MODELS,
    OPT_8B,
    OPT_13B,
    OPT_30B,
    OPT_66B,
    OPT_175B,
    ModelSpec,
)
from repro.models.transformer import prefill_ops
from repro.obs.analysis import gpu_attribution
from repro.profiling.contention_profiler import ContentionFactors
from repro.profiling.profiler import OpProfiler
from repro.serving.api import make_strategy
from repro.serving.request import Batch, Phase, Request
from repro.serving.server import Server
from repro.sim.interconnect import NcclConfig

__all__ = [
    "FigureResult",
    "table1",
    "fig3",
    "fig4",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "headline",
    "ablations",
    "fluctuating",
    "continuous_batching",
    "lifecycle",
    "ALL_FIGURES",
]

ALL_STRATEGIES = ("intra", "inter", "inter_th", "liger")

#: Pinned contention factors per node flavour (the §4.2 values); figure runs
#: use these instead of re-profiling to keep sweeps fast and deterministic.
PINNED_FACTORS = {
    "v100": ContentionFactors(compute=1.05, comm=1.10),
    "a100": ContentionFactors(compute=1.05, comm=1.15),
}


@dataclass
class FigureResult:
    """Structured output of one figure regeneration."""

    figure: str
    title: str
    records: List[ExperimentRecord] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _memoized(fn):
    """Cache figure results per scale (figure runs are deterministic).

    Several benchmark tests assert different shapes against the same figure;
    the cache lets them share one regeneration instead of re-sweeping.
    """
    cache: Dict[str, FigureResult] = {}

    def wrapper(scale: str = "quick") -> FigureResult:
        if scale not in cache:
            cache[scale] = fn(scale=scale)
        return cache[scale]

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


# ----------------------------------------------------------------------
# Scale handling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Scale:
    requests: int
    rate_fracs: Tuple[float, ...]
    all_panels: bool
    all_batches: bool
    reduce_layers: Optional[int]  # None = full model


_SCALES: Dict[str, _Scale] = {
    "smoke": _Scale(16, (0.5, 1.15), False, False, 8),
    "quick": _Scale(32, (0.3, 0.7, 1.0, 1.2), False, False, None),
    "full": _Scale(80, (0.25, 0.6, 0.9, 1.1, 1.3), True, True, None),
}


def _scale(name: str) -> _Scale:
    if name not in _SCALES:
        raise ConfigError(f"unknown scale {name!r}; choose from {sorted(_SCALES)}")
    return _SCALES[name]


def _maybe_reduce(model: ModelSpec, sc: _Scale) -> ModelSpec:
    if sc.reduce_layers is None or model.num_layers <= sc.reduce_layers:
        return model
    return model.scaled_layers(sc.reduce_layers)


def _factors_for(node: NodeSpec) -> ContentionFactors:
    return PINNED_FACTORS["a100" if "a100" in node.name else "v100"]


def _fixed_seq_batch(size: int, seq: int, arrival: float = 1.0) -> Batch:
    return Batch(
        requests=[
            Request(rid=i, arrival=arrival, seq_len=seq, phase=Phase.PREFILL)
            for i in range(size)
        ]
    )


# ----------------------------------------------------------------------
# Table 1 — model specifications
# ----------------------------------------------------------------------
def table1() -> FigureResult:
    """Table 1: the served models."""
    rows = []
    for name in ("OPT-30B", "OPT-66B", "GLM-130B"):
        m = MODELS[name]
        rows.append(
            [m.name, f"{m.weight_bytes/1e9:.0f}GB", m.num_layers, m.num_heads,
             m.hidden_size, "FP16"]
        )
    text = format_table(
        ["Name", "Parameters", "Layers", "Heads", "Hidden Size", "Prec."], rows
    )
    return FigureResult(figure="table1", title="Model Specifications", text=text)


# ----------------------------------------------------------------------
# Fig. 3 — intra-op strong scaling + communication share
# ----------------------------------------------------------------------
def _fit_layers(model: ModelSpec, node: NodeSpec) -> int:
    """Largest layer count whose sharded weights fit one device (§2.2)."""
    usable = node.gpu.memory_capacity * 0.95
    frac = usable / model.weight_bytes
    return max(1, min(model.num_layers, int(model.num_layers * frac)))


@_memoized
def fig3(scale: str = "quick") -> FigureResult:
    """Fig. 3: strong scaling of the intra-op approach on both testbeds.

    Paper: OPT-30B/V100 speeds up 2.58× from 1→4 GPUs with communication at
    20.7% of total time; GLM-130B/A100 manages only 1.91× with 47.1% comm.
    """
    sc = _scale(scale)
    seq = 72  # mid-range of the paper's 16–128 trace
    batch = 2
    rows = []
    records: List[ExperimentRecord] = []
    summary: Dict[str, float] = {}
    for model, make_node in ((OPT_30B, v100_nvlink_node), (GLM_130B, a100_pcie_node)):
        reduced = model.scaled_layers(
            min(_fit_layers(model, make_node(1)), sc.reduce_layers or 10**9)
        )
        base_latency = None
        for p in (1, 2, 4):
            node = make_node(p)
            runner = ExperimentRunner(
                reduced, node, figure="fig3",
                panel=f"{model.name}/{node.name}",
                contention_factors=_factors_for(node),
            )
            b = _fixed_seq_batch(batch, seq)
            record, result = _single_batch_point(runner, b)
            comm_frac = (
                gpu_attribution(result.trace)[0].comm_fraction
                if p > 1 and result.trace else 0.0
            )
            latency = record.avg_latency_ms
            if p == 1:
                base_latency = latency
            speedup = base_latency / latency if base_latency else 1.0
            rows.append([f"{model.name}", p, latency, speedup, comm_frac * 100])
            records.append(record)
            if p == 4:
                key = "v100" if "v100" in node.name else "a100"
                summary[f"{key}_speedup_4gpu"] = speedup
                summary[f"{key}_comm_pct"] = comm_frac * 100
    text = format_table(
        ["model", "gpus", "lat(ms)", "speedup", "comm(%)"], rows
    )
    return FigureResult(
        figure="fig3", title="Intra-op strong scaling", records=records,
        summary=summary, text=text,
    )


def _single_batch_point(runner: ExperimentRunner, batch: Batch):
    """Serve exactly one batch and return its execution record."""
    strat = make_strategy(
        "intra", runner.model, runner.node,
        profiler=OpProfiler(runner.node, nccl=NcclConfig()),
    )
    server = Server(runner.model, runner.node, strat, check_memory=False)
    result = server.run([batch])
    stats = result.latency_stats()
    record = ExperimentRecord(
        figure=runner.figure, panel=runner.panel, strategy="intra",
        rate=0.0, num_requests=batch.size, batch_size=batch.size,
        avg_latency_ms=stats.mean, p99_latency_ms=stats.p99,
        throughput=result.throughput,
    )
    return record, result


# ----------------------------------------------------------------------
# Fig. 4 — kernel-duration variance across models and inputs
# ----------------------------------------------------------------------
def fig4(scale: str = "quick") -> FigureResult:
    """Fig. 4: widely-varied kernel durations.

    (a) across model sizes 8B→175B the duration distribution grows more
    skewed ("few kernels take up most of the time"); (b) durations shift
    with input size.
    """
    del scale  # analytic — cheap at every scale
    node = v100_nvlink_node(4)
    prof = OpProfiler(node)
    rows_a = []
    skews = []
    for model in (OPT_8B, OPT_13B, OPT_30B, OPT_66B, OPT_175B):
        ops = [o for o in prefill_ops(model, 2, 64, 1) if not o.is_comm]
        durations = np.array([prof.duration(o) for o in ops])
        cv = float(durations.std() / durations.mean())
        top_share = float(np.sort(durations)[::-1][: max(1, len(durations) // 10)].sum()
                          / durations.sum())
        skews.append(cv)
        rows_a.append([model.name, len(durations), cv, top_share * 100,
                       float(durations.max() / durations.min())])
    rows_b = []
    base: Dict[str, float] = {}
    for seq in (16, 32, 64, 128):
        ops = prefill_ops(OPT_30B, 2, seq, 1, layers=[0])
        for o in ops:
            if o.is_comm:
                continue
            d = prof.duration(o)
            key = o.name
            if seq == 16:
                base[key] = d
            rows_b.append([seq, o.name, d, d / base[key]])
    text = (
        "(a) kernel duration spread across model sizes\n"
        + format_table(
            ["model", "kernels", "cv", "top10%share(%)", "max/min"], rows_a
        )
        + "\n\n(b) kernel durations vs input size (layer 0, normalized to seq=16)\n"
        + format_table(["seq", "kernel", "dur(us)", "vs seq16"], rows_b)
    )
    return FigureResult(
        figure="fig4",
        title="Kernel duration variance",
        summary={"cv_monotone": float(all(b >= a for a, b in zip(skews, skews[1:])))},
        text=text,
    )



def _series_view(records: List[ExperimentRecord]) -> str:
    """Render latency-vs-rate per strategy as aligned sparkbars.

    A text rendition of the paper's line plots: one block per panel, one row
    per (rate, strategy) with a bar proportional to average latency, so the
    crossover structure is visible straight from the terminal.
    """
    from repro.experiments.reporting import bar

    lines: List[str] = []
    for panel in sorted({r.panel for r in records}):
        sub = [r for r in records if r.panel == panel]
        max_lat = max(r.avg_latency_ms for r in sub)
        lines.append(f"[{panel}] latency vs arrival rate (bar ∝ avg latency)")
        for rate in sorted({r.rate for r in sub}):
            for r in sorted(
                (x for x in sub if x.rate == rate), key=lambda x: x.strategy
            ):
                lines.append(
                    f"  rate {rate:8.1f}  {r.strategy:>8s} "
                    f"{bar(r.avg_latency_ms, max_lat, 36):<36s} "
                    f"{r.avg_latency_ms:7.1f} ms  {r.throughput:7.1f} req/s"
                )
            lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Fig. 10 — general serving: latency & throughput vs arrival rate
# ----------------------------------------------------------------------
def _fig10_panels(sc: _Scale) -> List[Tuple[ModelSpec, NodeSpec]]:
    panels = [
        (OPT_30B, v100_nvlink_node(4)),
        (OPT_30B, a100_pcie_node(4)),
    ]
    if sc.all_panels:
        panels += [(OPT_66B, a100_pcie_node(4)), (GLM_130B, a100_pcie_node(4))]
    return panels


@_memoized
def fig10(scale: str = "quick") -> FigureResult:
    """Fig. 10: the headline serving comparison on random traces (§4.2).

    Expected shapes: Liger tracks Intra-Op latency at low rates, exceeds its
    throughput at high rates (more on the PCIe node), and stays below
    Inter-Op/Inter-Th latency before its own saturation.
    """
    sc = _scale(scale)
    batches = (2, 4, 8) if sc.all_batches else (2,)
    records: List[ExperimentRecord] = []
    for model, node in _fig10_panels(sc):
        model_r = _maybe_reduce(model, sc)
        for batch_size in batches:
            runner = ExperimentRunner(
                model_r, node, figure="fig10",
                panel=f"{model.name}/{'v100' if 'v100' in node.name else 'a100'}/b{batch_size}",
                contention_factors=_factors_for(node),
            )
            rates = runner.relative_rates(sc.rate_fracs, batch_size)
            records += runner.sweep(
                ALL_STRATEGIES, rates,
                num_requests=sc.requests, batch_size=batch_size,
            )
    summary = _liger_gains(records)
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + _series_view(records)
    text += "\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="fig10", title="General serving vs arrival rate",
        records=records, summary=summary, text=text,
    )


def _liger_gains(records: List[ExperimentRecord]) -> Dict[str, float]:
    """Cross-strategy gains per panel: Liger vs the baselines."""
    out: Dict[str, float] = {}
    panels = sorted({r.panel for r in records})
    thr_gains, lat_red_inter, lat_red_inter_th = [], [], []
    for panel in panels:
        sub = [r for r in records if r.panel == panel]
        by = lambda s: [r for r in sub if r.strategy == s]
        if not by("liger") or not by("intra"):
            continue
        max_liger = max(r.throughput for r in by("liger"))
        max_intra = max(r.throughput for r in by("intra"))
        out[f"{panel}:liger_thr_vs_intra"] = max_liger / max_intra
        thr_gains.append(max_liger / max_intra)
        # latency vs the pipelines at pre-saturation rates
        for name, acc in (("inter", lat_red_inter), ("inter_th", lat_red_inter_th)):
            pairs = [
                (l, i)
                for l in by("liger")
                for i in by(name)
                if abs(l.rate - i.rate) < 1e-9 and l.throughput >= l.rate * 0.9
            ]
            if pairs:
                red = float(
                    np.mean([1 - l.avg_latency_ms / i.avg_latency_ms for l, i in pairs])
                )
                out[f"{panel}:liger_lat_red_vs_{name}"] = red
                acc.append(red)
    if thr_gains:
        out["mean_thr_gain_vs_intra"] = float(np.mean(thr_gains))
    if lat_red_inter:
        out["mean_lat_reduction_vs_inter"] = float(np.mean(lat_red_inter))
    if lat_red_inter_th:
        out["mean_lat_reduction_vs_inter_th"] = float(np.mean(lat_red_inter_th))
    return out


# ----------------------------------------------------------------------
# Fig. 11 — generative (incremental sampling) serving
# ----------------------------------------------------------------------
@_memoized
def fig11(scale: str = "quick") -> FigureResult:
    """Fig. 11: decode-phase serving (context 16, batch 32, §4.3).

    Liger still wins on both metrics but by less — decode kernels are
    latency-bound, so there is less communication time to hide.
    """
    sc = _scale(scale)
    records: List[ExperimentRecord] = []
    batch_size = 32
    for model, node in _fig10_panels(sc):
        model_r = _maybe_reduce(model, sc)
        runner = ExperimentRunner(
            model_r, node, figure="fig11",
            panel=f"{model.name}/{'v100' if 'v100' in node.name else 'a100'}",
            contention_factors=_factors_for(node),
        )
        cap = runner.saturation_rate(batch_size, workload="generative")
        rates = [round(cap * f, 2) for f in sc.rate_fracs]
        # Generative "requests" are single tokens: size the trace in batches
        # (decode steps) so throughput reaches steady state.
        num_steps = max(6, sc.requests // 4)
        records += runner.sweep(
            ALL_STRATEGIES, rates,
            num_requests=num_steps * batch_size,
            batch_size=batch_size, workload="generative",
        )
    summary = _liger_gains(records)
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="fig11", title="Generative-task serving",
        records=records, summary=summary, text=text,
    )


# ----------------------------------------------------------------------
# Fig. 12 — strong scaling of serving (1/2/4 A100 GPUs)
# ----------------------------------------------------------------------
@_memoized
def fig12(scale: str = "quick") -> FigureResult:
    """Fig. 12: OPT-30B served on 1, 2, and 4 A100 GPUs.

    Liger's gains grow with the device count (more communication to hide);
    the paper notes the 2-GPU effect is muted by the lower comm ratio.
    """
    sc = _scale(scale)
    records: List[ExperimentRecord] = []
    model = _maybe_reduce(OPT_30B, sc)
    for p in (1, 2, 4):
        node = a100_pcie_node(p)
        runner = ExperimentRunner(
            model, node, figure="fig12", panel=f"OPT-30B/a100x{p}",
            contention_factors=_factors_for(node),
        )
        rates = runner.relative_rates(sc.rate_fracs, 2)
        strategies = ALL_STRATEGIES if p > 1 else ("intra", "liger")
        records += runner.sweep(
            strategies, rates, num_requests=sc.requests, batch_size=2
        )
    summary: Dict[str, float] = {}
    for p in (2, 4):
        sub = [r for r in records if r.panel.endswith(f"x{p}")]
        liger = [r for r in sub if r.strategy == "liger"]
        intra = [r for r in sub if r.strategy == "intra"]
        if liger and intra:
            summary[f"thr_gain_x{p}"] = max(r.throughput for r in liger) / max(
                r.throughput for r in intra
            )
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="fig12", title="Serving strong scaling",
        records=records, summary=summary, text=text,
    )


# ----------------------------------------------------------------------
# Fig. 13 — hybrid synchronization benefit
# ----------------------------------------------------------------------
@_memoized
def fig13(scale: str = "quick") -> FigureResult:
    """Fig. 13: Liger with hybrid vs CPU-GPU synchronization (V100, batch 2)."""
    sc = _scale(scale)
    model = _maybe_reduce(OPT_30B, sc)
    node = v100_nvlink_node(4)
    records: List[ExperimentRecord] = []
    factors = _factors_for(node)
    runner = ExperimentRunner(
        model, node, figure="fig13", panel="OPT-30B/v100",
        contention_factors=factors,
    )
    rates = runner.relative_rates(sc.rate_fracs, 2)
    for mode in (SyncMode.HYBRID, SyncMode.CPU_GPU):
        for rate in rates:
            record, _ = runner.run_point(
                "liger", rate, num_requests=sc.requests, batch_size=2,
                config=LigerConfig(sync_mode=mode, contention_factors=factors),
            )
            records.append(replace(record, panel=f"sync={mode.value}"))
    summary = _panel_vs_panel(records, "sync=hybrid", "sync=cpu_gpu")
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="fig13", title="Hybrid synchronization benefit",
        records=records, summary=summary, text=text,
    )


def _panel_vs_panel(
    records: List[ExperimentRecord], a: str, b: str
) -> Dict[str, float]:
    pa = [r for r in records if r.panel == a]
    pb = [r for r in records if r.panel == b]
    out: Dict[str, float] = {}
    pairs = [
        (x, y) for x in pa for y in pb if abs(x.rate - y.rate) < 1e-9
    ]
    if pairs:
        out[f"{a}_lat_vs_{b}"] = float(
            np.mean([x.avg_latency_ms / y.avg_latency_ms for x, y in pairs])
        )
        out[f"{a}_thr_vs_{b}"] = max(x.throughput for x in pa) / max(
            y.throughput for y in pb
        )
    return out


# ----------------------------------------------------------------------
# Fig. 14 — decomposition-factor sensitivity
# ----------------------------------------------------------------------
@_memoized
def fig14(scale: str = "quick") -> FigureResult:
    """Fig. 14: division factors 2/4/8/16 (V100, OPT-30B, batch 2).

    Larger factors match subset durations more precisely — better latency
    and throughput with diminishing returns.
    """
    sc = _scale(scale)
    model = _maybe_reduce(OPT_30B, sc)
    node = v100_nvlink_node(4)
    factors = _factors_for(node)
    runner = ExperimentRunner(
        model, node, figure="fig14", panel="OPT-30B/v100",
        contention_factors=factors,
    )
    rates = runner.relative_rates(sc.rate_fracs[-2:], 2)  # near saturation
    records: List[ExperimentRecord] = []
    for d in (2, 4, 8, 16):
        for rate in rates:
            record, _ = runner.run_point(
                "liger", rate, num_requests=sc.requests, batch_size=2,
                config=LigerConfig(division_factor=d, contention_factors=factors),
            )
            records.append(replace(record, panel=f"d={d}"))
    lat_by_d = {
        d: float(np.mean([r.avg_latency_ms for r in records if r.panel == f"d={d}"]))
        for d in (2, 4, 8, 16)
    }
    summary = {f"lat_d{d}": v for d, v in lat_by_d.items()}
    summary["monotone_improvement"] = float(
        lat_by_d[2] >= lat_by_d[4] >= lat_by_d[8] * 0.999
    )
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="fig14", title="Decomposition factor sensitivity",
        records=records, summary=summary, text=text,
    )


# ----------------------------------------------------------------------
# §4 headline numbers
# ----------------------------------------------------------------------
@_memoized
def headline(scale: str = "quick") -> FigureResult:
    """The abstract's 4-device claim: −36.0% latency vs Inter-Op at equal
    throughput; 1.34× throughput vs Intra-Op with better latency.

    Measured on GLM-130B over the A100-PCIe node — the weakest-interconnect,
    highest-communication configuration, where the paper's headline numbers
    land (our full-scale panel: −38.8 % latency vs Inter-Op, 1.47× throughput
    vs Intra-Op)."""
    sc = _scale(scale)
    model = _maybe_reduce(GLM_130B, sc)
    node = a100_pcie_node(4)  # the weaker interconnect shows the full effect
    runner = ExperimentRunner(
        model, node, figure="headline", panel="GLM-130B/a100",
        contention_factors=_factors_for(node),
    )
    fracs = sorted(set(tuple(sc.rate_fracs) + (1.0, 1.15, 1.3)))
    rates = runner.relative_rates(fracs, 2)
    records = runner.sweep(ALL_STRATEGIES, rates, num_requests=sc.requests, batch_size=2)
    summary = _liger_gains(records)
    rows = [r.row() for r in records]
    text = format_table(ExperimentRecord.ROW_HEADERS, rows)
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="headline", title="Headline claims (4-device case)",
        records=records, summary=summary, text=text,
    )


# ----------------------------------------------------------------------
# Ablations (ours): each design component of §3.4–§3.6
# ----------------------------------------------------------------------
@_memoized
def ablations(scale: str = "quick") -> FigureResult:
    """Component ablations: contention anticipation, decomposition, NCCL
    footprint reduction, and sync mode, at a saturating rate."""
    sc = _scale(scale)
    model = _maybe_reduce(OPT_30B, sc)
    node = v100_nvlink_node(4)
    factors = _factors_for(node)
    runner = ExperimentRunner(
        model, node, figure="ablations", panel="OPT-30B/v100",
        contention_factors=factors,
    )
    rate = runner.relative_rates((1.15,), 2)[0]
    no_factors = ContentionFactors(compute=1.0, comm=1.0)
    variants = {
        "liger(default)": LigerConfig(contention_factors=factors),
        "no-decomposition": LigerConfig(
            contention_factors=factors, enable_decomposition=False
        ),
        "no-anticipation": LigerConfig(contention_factors=no_factors),
        "full-nccl-channels": LigerConfig(
            contention_factors=factors, reduce_nccl_channels=False
        ),
        "cpu-gpu-sync": LigerConfig(
            contention_factors=factors, sync_mode=SyncMode.CPU_GPU
        ),
    }
    records: List[ExperimentRecord] = []
    for name, cfg in variants.items():
        record, _ = runner.run_point(
            "liger", rate, num_requests=sc.requests, batch_size=2, config=cfg
        )
        records.append(replace(record, panel=name))
    base = records[0]
    summary = {
        f"{r.panel}:lat_vs_default": r.avg_latency_ms / base.avg_latency_ms
        for r in records[1:]
    }
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="ablations", title="Component ablations",
        records=records, summary=summary, text=text,
    )


# ----------------------------------------------------------------------
# Fluctuating arrivals (extension; the paper's §4.2 caveat)
# ----------------------------------------------------------------------
@_memoized
def fluctuating(scale: str = "quick") -> FigureResult:
    """Bursty traffic: the workload the paper's constant-rate sweep avoids.

    §4.2 notes that "since we use a constant request rate instead of a
    fluctuated request rate, our approach simultaneously advances over the
    best of intra- and inter-operator approaches in a relatively narrow
    arrival rate window".  We compare constant and bursty arrivals at the
    same *mean* rate near the intra-op saturation knee.  Empirical finding
    (recorded in EXPERIMENTS.md): Liger dominates under **both** patterns,
    and the gap is *largest* under sustained constant load — a knee-rate
    constant stream is the adversarial case for intra-op (persistent
    queueing), while burst lulls give intra-op recovery windows.  Bursty
    traffic therefore narrows, but never closes, Liger's latency advantage.
    """
    from repro.serving.arrival import BurstyProcess

    sc = _scale(scale)
    model = _maybe_reduce(OPT_30B, sc)
    node = v100_nvlink_node(4)
    factors = _factors_for(node)
    runner = ExperimentRunner(
        model, node, figure="fluctuating", panel="OPT-30B/v100",
        contention_factors=factors,
    )
    mean_rate = runner.relative_rates((0.95,), 2)[0]
    records: List[ExperimentRecord] = []
    for label, arrival in (
        ("constant", None),
        ("bursty", BurstyProcess(mean_rate, burstiness=4.0, phase_requests=16)),
    ):
        for strategy in ("intra", "liger"):
            record, _ = runner.run_point(
                strategy, mean_rate,
                num_requests=max(sc.requests, 48), batch_size=2,
                arrival=arrival,
            )
            records.append(replace(record, panel=label))

    def lat(panel, strategy):
        return next(
            r.avg_latency_ms
            for r in records
            if r.panel == panel and r.strategy == strategy
        )

    summary = {
        "constant_liger_lat_vs_intra": lat("constant", "liger") / lat("constant", "intra"),
        "bursty_liger_lat_vs_intra": lat("bursty", "liger") / lat("bursty", "intra"),
    }
    summary["liger_better_under_both"] = float(
        summary["bursty_liger_lat_vs_intra"] < 1.0
        and summary["constant_liger_lat_vs_intra"] < 1.0
    )
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="fluctuating", title="Bursty vs constant arrivals (extension)",
        records=records, summary=summary, text=text,
    )


# ----------------------------------------------------------------------
# Continuous batching (extension; Orca-style iteration-level scheduling)
# ----------------------------------------------------------------------
@_memoized
def continuous_batching(scale: str = "quick") -> FigureResult:
    """Static vs continuous batching for multi-token generation, each under
    Intra-Op and Liger.

    Expected shapes: continuous batching beats static batching on latency
    (no padding to the batch's longest sequence, no full-batch release),
    and Liger composes with both disciplines — interleaved parallelism
    overlaps one iteration's collectives with another's compute.
    """
    from repro.serving.generation import (
        ContinuousBatchingServer,
        StaticBatchingServer,
        generation_workload,
    )

    sc = _scale(scale)
    model = _maybe_reduce(OPT_30B, sc)
    node = v100_nvlink_node(4)
    factors = _factors_for(node)
    n = max(sc.requests * 2, 48)
    # Rate sized against a decode-iteration estimate at the mean batch.
    runner = ExperimentRunner(
        model, node, figure="continuous", contention_factors=factors,
    )
    rate = runner.saturation_rate(16, workload="generative") * 0.9

    records: List[ExperimentRecord] = []
    for server_cls, label in (
        (StaticBatchingServer, "static"),
        (ContinuousBatchingServer, "continuous"),
    ):
        for strategy in ("intra", "liger"):
            kwargs = {}
            if strategy == "liger":
                kwargs["config"] = LigerConfig(contention_factors=factors)
            strat = make_strategy(strategy, model, node, **kwargs)
            size_kw = (
                {"batch_size": 16}
                if server_cls is StaticBatchingServer
                else {"max_batch": 16, "pipeline_depth": 3}
            )
            server = server_cls(model, node, strat, check_memory=False, **size_kw)
            result = server.run(
                generation_workload(
                    n, rate, context_len=16, gen_tokens=(4, 16), seed=13
                )
            )
            stats = result.latency_stats()
            records.append(
                ExperimentRecord(
                    figure="continuous", panel=f"{label}/{strategy}",
                    strategy=strategy, rate=rate, num_requests=n, batch_size=16,
                    avg_latency_ms=stats.mean, p99_latency_ms=stats.p99,
                    throughput=result.throughput,
                    extra={"tokens": float(server.total_tokens)},
                )
            )

    def lat(panel):
        return next(r.avg_latency_ms for r in records if r.panel == panel)

    summary = {
        "continuous_vs_static_intra": lat("continuous/intra") / lat("static/intra"),
        "continuous_vs_static_liger": lat("continuous/liger") / lat("static/liger"),
        "liger_vs_intra_continuous": lat("continuous/liger") / lat("continuous/intra"),
        "static_padding_overhead_tokens": next(
            r.extra["tokens"] for r in records if r.panel == "static/intra"
        )
        / next(r.extra["tokens"] for r in records if r.panel == "continuous/intra"),
    }
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="continuous", title="Static vs continuous batching (extension)",
        records=records, summary=summary, text=text,
    )



# ----------------------------------------------------------------------
# Full chat lifecycle (extension; prefill + decode through one runtime)
# ----------------------------------------------------------------------
@_memoized
def lifecycle(scale: str = "quick") -> FigureResult:
    """Full chat requests (prompt prefill + token decode) under Intra-Op vs
    Liger.

    With both phases in flight at once, Liger overlaps one request's prefill
    GEMMs with other requests' decode all-reduces — an interleaving
    opportunity neither §4.2 nor §4.3 alone exposes.  Reported: TTFT
    (arrival → first token), full latency, and token throughput.
    """
    from repro.serving.lifecycle import LifecycleServer, chat_workload

    sc = _scale(scale)
    model = _maybe_reduce(OPT_30B, sc)
    node = a100_pcie_node(4)
    factors = _factors_for(node)
    n = max(sc.requests, 32)
    # Arrival rate sized to load the node: prefill dominates per-request
    # work, so scale from the prefill saturation estimate.
    runner = ExperimentRunner(
        model, node, figure="lifecycle", contention_factors=factors,
    )
    rate = runner.saturation_rate(4) * 0.9

    records: List[ExperimentRecord] = []
    extras: Dict[str, Dict[str, float]] = {}
    for strategy in ("intra", "liger"):
        kwargs = {}
        if strategy == "liger":
            kwargs["config"] = LigerConfig(contention_factors=factors)
        strat = make_strategy(strategy, model, node, **kwargs)
        server = LifecycleServer(
            model, node, strat, check_memory=False,
            prefill_batch=4, max_decode_batch=16, decode_pipeline_depth=3,
        )
        result = server.run(chat_workload(n, rate, seed=17))
        extras[strategy] = {
            "ttft_ms": result.ttft.mean,
            "tokens_per_s": result.tokens_per_second,
        }
        records.append(
            ExperimentRecord(
                figure="lifecycle", panel=f"chat/{strategy}", strategy=strategy,
                rate=rate, num_requests=n, batch_size=4,
                avg_latency_ms=result.latency.mean,
                p99_latency_ms=result.latency.p99,
                throughput=result.tokens_per_second,
                extra=extras[strategy],
            )
        )
    summary = {
        "liger_ttft_vs_intra": extras["liger"]["ttft_ms"] / extras["intra"]["ttft_ms"],
        "liger_lat_vs_intra": records[1].avg_latency_ms / records[0].avg_latency_ms,
        "liger_tokens_vs_intra": extras["liger"]["tokens_per_s"]
        / extras["intra"]["tokens_per_s"],
    }
    text = format_table(ExperimentRecord.ROW_HEADERS, [r.row() for r in records])
    text += "\n\n" + format_kv(sorted(summary.items()))
    return FigureResult(
        figure="lifecycle", title="Full chat lifecycle (extension)",
        records=records, summary=summary, text=text,
    )


#: Registry used by the CLI/bench harness.
ALL_FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "table1": lambda scale="quick": table1(),
    "fig3": fig3,
    "fig4": fig4,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "headline": headline,
    "ablations": ablations,
    "fluctuating": fluctuating,
    "continuous": continuous_batching,
    "lifecycle": lifecycle,
}


def _timed_figure(task: Tuple[str, str]) -> Tuple[str, str, str, float]:
    # ``python -m repro.experiments --workers N`` sends this to spawned
    # workers by import path, so it cannot live in the CLI's ``__main__``.
    name, scale = task
    start = time.perf_counter()
    result = ALL_FIGURES[name](scale=scale)
    return result.figure, result.title, result.text, time.perf_counter() - start
