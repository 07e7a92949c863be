"""The parent process: runs children one at a time and summarises them.

Each repeat of each workload runs in a fresh child (:mod:`bench.child`), one
child at a time.  Repeats go round-robin across the selected workloads, so
a slow phase of the host hits every workload.  After the untraced repeats,
one traced child per workload gives the per-layer split.  The parent never
imports ``repro``; it only spawns children and reads their JSON records.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: name → (unit, better).
END_TO_END: Dict[str, tuple] = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_makespan_s": ("s", "lower"),
    "sim_throughput_rps": ("1/s", "higher"),
    "sim_latency_p50_ms": ("ms", "lower"),
    "sim_latency_p90_ms": ("ms", "lower"),
    "sim_ttft_p50_ms": ("ms", "lower"),
    "sim_ttft_p90_ms": ("ms", "lower"),
    "sim_slo_attainment": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
}

#: Metrics of the simulated run: identical on every repeat of one seed.
SIMULATED = frozenset(m for m in END_TO_END if m.startswith("sim_")) | {
    "failed_frac"
}

#: Layers whose share of self time is reported.  ``overload``, ``faults``,
#: ``cluster``, ``tooling`` and ``common`` do no measurable work inside
#: ``server.run`` on any workload (see README.md).
SELF_TIME_LAYERS = (
    "engine", "machine", "timeline", "scheduler", "plan_cache", "assembly",
    "runtime", "strategy", "models", "profiling", "serving", "obs",
    "external",
)

#: Per-layer metrics: name → unit.  Self time is reported as a share of
#: the traced run's self time, not in seconds: a layer that a workload
#: never enters (the Liger layers on ``prefill_intra``, ``obs`` outside
#: ``chat_slo``) has no time to measure, and its share is simply 0.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_share": "ratio" for layer in SELF_TIME_LAYERS},
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "timeline.bail_ratio": "ratio",
    "timeline.batched_frac": "ratio",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.misses": "count",
    "plan_cache.evictions": "count",
    "assembly.hit_ratio": "ratio",
    "runtime.rounds": "count",
    "runtime.kernels": "count",
    "runtime.fill_fraction": "ratio",
    "runtime.decomposed_pieces": "count",
    "overload.shed": "count",
    "overload.timed_out": "count",
    "overload.preemptions": "count",
    "obs.bus_events": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead": "x",
}

_CHILD_TIMEOUT_S = 120.0
#: Fewest untraced rounds in a ``seconds``-bounded run, without and with
#: the traced children.
_MIN_REPEATS = 4
_MIN_REPEATS_TRACED = 1
#: A traced child takes about this many untraced rounds of wall time
#: (cProfile overhead 2.5-4x on ``server.run``, set-up unchanged).
_TRACED_ROUNDS = 3


class BenchError(RuntimeError):
    """A child failed to run; no result can be reported."""


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_child(
    workload: str,
    seed: int,
    *,
    trace: bool = False,
    requests: Optional[int] = None,
    config: Sequence[str] = (),
) -> Dict:
    """Spawn one child, wait for it, and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    # numpy's thread pools would otherwise start one thread per core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if requests is not None:
        cmd += ["--requests", str(requests)]
    for pair in config:
        cmd += ["--config", pair]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=_CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child ran past {_CHILD_TIMEOUT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(records: List[Dict], traced: Optional[Dict]) -> Dict:
    """One workload's metrics from its untraced records and traced record."""
    everyone = records + ([traced] if traced else [])
    problems = [m for r in everyone for m in r["oracle_messages"]]
    failures = sum(r["oracle_failures"] for r in everyone)
    digests = {r["digest"] for r in everyone}
    if len(digests) > 1:
        problems.append(f"outcome digest differs between runs: {sorted(digests)}")
    if any(r["counts"] != records[0]["counts"] for r in everyone):
        problems.append("work counts differ between runs")

    samples: Dict[str, List[float]] = {
        name: [r[name] for r in records]
        for name in ("run_s", "setup_s", "peak_rss_mb", "run_raw_s",
                     "setup_raw_s", "host_calib_s")
    }
    for name in SIMULATED:
        samples[name] = [r["sim"][name] for r in records]
    metrics = {}
    for name, (unit, _) in END_TO_END.items():
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "q1": q1, "q3": q3,
                         "n": len(samples[name]), "unit": unit}

    out = {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in everyone),
        "failed": failures,
        "digest": records[0]["digest"],
        "samples": samples,
        "metrics": metrics,
        "counts": records[0]["counts"],
        "host_calib_s": statistics.median(r["host_calib_s"] for r in everyone),
    }
    if traced is not None:
        out["layers_traced_s"] = traced["layers"]
        out["layer_metrics"] = _layer_metrics(records, traced)
    return out


def _layer_metrics(records: List[Dict], traced: Dict) -> Dict[str, Dict]:
    run_s = statistics.median(r["run_s"] for r in records)
    spent = traced["layers"]
    total = sum(spent.values())
    c = traced["counts"]
    values = {
        f"{layer}.self_share": _ratio(spent[layer], total)
        for layer in SELF_TIME_LAYERS
    }
    values.update({
        "engine.events": c["engine.events"],
        "engine.events_per_s": c["engine.events"] / run_s,
        "timeline.bail_ratio": _ratio(c["timeline.bails"], c["timeline.builds"]),
        "timeline.batched_frac": _ratio(
            c["timeline.batched_events"], c["engine.events"]
        ),
        "plan_cache.hit_ratio": _ratio(
            c["plan_cache.hits"], c["plan_cache.hits"] + c["plan_cache.misses"]
        ),
        "plan_cache.misses": c["plan_cache.misses"],
        "plan_cache.evictions": c["plan_cache.evictions"],
        "assembly.hit_ratio": _ratio(
            c["assembly.hits"], c["assembly.hits"] + c["assembly.misses"]
        ),
        "runtime.rounds": c["runtime.rounds"],
        "runtime.kernels": c["runtime.kernels"],
        "runtime.fill_fraction": c["runtime.fill_fraction"],
        "runtime.decomposed_pieces": c["runtime.decomposed_pieces"],
        "overload.shed": c["overload.shed"],
        "overload.timed_out": c["overload.timed_out"],
        "overload.preemptions": c["overload.preemptions"],
        "obs.bus_events": c["obs.bus_events"],
        "setup.import_s": statistics.median(r["import_s"] for r in records),
        "setup.build_s": statistics.median(r["build_s"] for r in records),
        "trace.overhead": traced["run_s"] / run_s,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def run(
    workloads: Sequence[str],
    seed: int,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = True,
    config: Sequence[str] = (),
    requests: Optional[int] = None,
    progress=None,
) -> Dict[str, Dict]:
    """Measure ``workloads`` round-robin; return each one's summary.

    With ``repeats`` every workload runs exactly that many untraced
    children.  With ``seconds`` a new round starts only while it, and
    the traced children after it, are expected to end within ``seconds``
    per workload (the last round's time is the estimate).  At least four
    rounds run without tracing, so set-up and run time are always medians
    of several children; with tracing, whose metrics have no bound, at
    least one.
    """
    records: Dict[str, List[Dict]] = {w: [] for w in workloads}
    min_rounds = _MIN_REPEATS_TRACED if trace else _MIN_REPEATS
    traced_rounds = _TRACED_ROUNDS if trace else 0
    budget_s = (seconds or 0.0) * len(workloads)
    start = time.monotonic()
    rounds = 0
    round_s = 0.0
    while True:
        if repeats is not None and rounds >= repeats:
            break
        elapsed = time.monotonic() - start
        if repeats is None and rounds >= min_rounds and (
            elapsed + round_s * (1 + traced_rounds) > budget_s
        ):
            break
        for name in workloads:
            rec = run_child(name, seed, requests=requests, config=config)
            records[name].append(rec)
            if progress is not None:
                progress(f"{name} repeat {rounds + 1}: run {rec['run_s']:.3f} s")
        rounds += 1
        round_s = time.monotonic() - start - elapsed
    traced = {}
    if trace:
        for name in workloads:
            traced[name] = run_child(
                name, seed, trace=True, requests=requests, config=config
            )
            if progress is not None:
                progress(f"{name} traced: run {traced[name]['run_s']:.3f} s")
    return {
        name: summarize(records[name], traced.get(name)) for name in workloads
    }


def lineage(seed: int, config: Sequence[str], summaries: Dict[str, Dict],
            **settings) -> Dict:
    """What produced a results file, for comparing files across hosts."""
    # --git-dir keeps git from searching above ROOT when it is no checkout.
    try:
        sha = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "config": list(config),
        "host_calib_s": statistics.median(
            s["host_calib_s"] for s in summaries.values()
        ),
        "generator_lateness_s": 0.0,
        "workloads": {
            name: {"requests": WORKLOADS[name].requests,
                   "rate_rps": WORKLOADS[name].rate,
                   "latency_limit_ms": WORKLOADS[name].latency_limit_ms}
            for name in summaries
        },
        **settings,
    }
