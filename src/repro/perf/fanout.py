"""Multiprocess fan-out for the perf and experiment harnesses.

Scenarios are independent — each builds its own server, workload, and
engine from fixed seeds — so a suite can be split across worker processes
with no shared state.  The contract that makes this safe to merge:

* **Seeded determinism.**  Every scenario derives all randomness from the
  seeds baked into its builder, and every worker starts from a fresh
  interpreter state, so a cell's deterministic fields (``events``,
  ``sim_s``, cache counters) are identical no matter which
  process — or how many processes — produced it.
* **Canonical merge order.**  The parent assembles the merged document in
  the same scenario order as the sequential :func:`~repro.perf.harness
  .run_suite`, so for the same seeds the merged BENCH output is
  byte-identical to a sequential run up to the wall-clock-derived fields
  (``wall_s`` / ``events_per_sec`` / ``wall_per_sim_s``) and the
  ``fanout_workers`` provenance counter.
* **Worker protocol.**  Workers are forked before any scenario runs; each
  receives ``(scenario name, scale, repeats)``, runs the standard
  :func:`~repro.perf.harness.measure` (same best-of-N, same interleaved
  ablation arms), and returns its finished cell.  ``LIGER_FANOUT_WORKERS``
  is set in every worker so the cell's counters record which parallelism
  produced them (0 = in-process sequential run).

Timing fidelity: workers run concurrently, so with more workers than idle
cores the per-cell wall times degrade even though the deterministic fields
do not.  Use fan-out to cut suite latency on idle multi-core hosts and for
the CI smoke lane; record committed full-scale baselines sequentially.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.perf.harness import SCHEMA_VERSION, measure
from repro.perf.scenarios import SCENARIOS, bench_scale

__all__ = ["run_suite_fanout", "fanout_map"]

#: Environment variable announcing fan-out worker membership (and width) to
#: the code running inside a worker; surfaced by ``strategy.perf_counters()``
#: as the ``fanout_workers`` counter / ``repro_perf_fanout_workers`` gauge.
ENV_WORKERS = "LIGER_FANOUT_WORKERS"


def _init_worker(workers: int) -> None:
    os.environ[ENV_WORKERS] = str(workers)


def _measure_task(args: Tuple[str, str, Optional[int]]) -> Tuple[str, Dict]:
    name, scale, repeats = args
    return name, measure(SCENARIOS[name], scale, repeats=repeats)


def _figure_task(args: Tuple[str, str]) -> Tuple[str, str, str]:
    # Lazy import: the experiments package pulls in the full figure stack,
    # which perf-only runs never need.
    from repro.experiments.figures import ALL_FIGURES

    name, scale = args
    result = ALL_FIGURES[name](scale=scale)
    return result.figure, result.title, result.text


def fanout_map(task, items: List, workers: int, *, progress=None) -> List:
    """Run ``task`` over ``items`` in a worker pool, results in item order.

    ``task`` must be a module-level callable (it crosses the process
    boundary by pickle).  Results are awaited — and ``progress`` called —
    in submission order regardless of completion order, so downstream
    consumers see the same sequence a sequential loop would produce.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(items)) or 1
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(workers,)
    ) as pool:
        futures = [pool.submit(task, item) for item in items]
        out = []
        for item, future in zip(items, futures):
            if progress is not None:
                progress(item)
            out.append(future.result())
    return out


def run_suite_fanout(
    scale: str,
    *,
    workers: int,
    only: Optional[List[str]] = None,
    repeats: Optional[int] = None,
    progress=None,
) -> Dict:
    """Fan the standardized scenarios across ``workers`` processes.

    Returns the same results document as
    :func:`~repro.perf.harness.run_suite` — same schema, same scenario
    order — so ``--out`` merging and ``--check`` gating are oblivious to
    which path produced it.
    """
    scale = bench_scale(scale)
    names = list(SCENARIOS) if not only else list(only)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}"
        )
    tasks = [(name, scale, repeats) for name in names]
    results = fanout_map(
        _measure_task,
        tasks,
        workers,
        progress=(lambda t: progress(t[0])) if progress is not None else None,
    )
    return {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "scenarios": {name: cell for name, cell in results},
    }
