"""One repeat of one workload, in a fresh process.

Run by the benchmark's parent process as ``python -m bench.child``; it
prints one JSON record on its last line of standard output.  The child
times its own set-up (from the parent's spawn, through importing
``repro``, building the inputs and the server, which binds the strategy),
then times ``server.run`` alone.  With ``--trace`` that call runs under
``cProfile`` and the record carries each layer's self time.

Times are wall-clock.  A shared host runs the same code up to twice as
fast at one moment as at another, and the speed drifts over tens of
seconds, so raw times moved 15-40% between runs of the benchmark.  The
child therefore times a fixed pure-Python loop (:func:`_calibrate`)
three times: when it starts, once set-up is done, and just after
``server.run``.  Each host time is scaled to a reference speed by the two
calibrations around it: ``raw × CALIB_REF_S / mean(before, after)``.  The
raw times and ``host_calib_s``, the mean of all three, go into the record
too.

After the run it checks the outcome (:func:`oracle`), hashes it, and reads
the deterministic counts from the program's public objects.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import pstats
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

from bench.layers import EXTERNAL, LAYERS, attribute
from bench.workloads import WORKLOADS, build, flat_requests, make_inputs


#: About what :func:`_calibrate` measured on the host of the seed baseline
#: (a 2-vCPU VM, Python 3.11).  Host times are reported at this speed.
CALIB_REF_S = 0.023


class _Cell:
    __slots__ = ("key", "value")


def _calibrate() -> float:
    """Median wall seconds of five passes of a fixed pure-Python loop.

    The loop allocates small objects and tuples, files them in a dict and
    drops them again, as the simulator does with its events.  Its working
    set stays small, so it never sets the peak RSS.  The cyclic garbage
    collector is off while it runs: a collection costs time in proportion
    to the objects alive in the process, which made the loop 30-50% slower
    once ``repro`` was loaded and tied the reference speed to the
    program's own heap.
    """
    times = []
    gc.disable()
    try:
        for _ in range(5):
            t0 = time.perf_counter()
            ring: List[object] = [None] * 4096
            table: Dict[int, Tuple[int, float]] = {}
            for i in range(50_000):
                cell = _Cell()
                cell.key = i & 4095
                cell.value = (i, i + 1.5)
                ring[cell.key] = cell  # frees the cell filed 4096 steps ago
                table[cell.key] = cell.value
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def oracle(requests: Sequence, server_tally: Tuple[int, int, int]) -> List[str]:
    """Everything wrong with a finished run; empty when the outcome is sound.

    Every attempted request must reach exactly one terminal state, a
    completion must come at or after its arrival (and, for a chat, after
    its first token), and the server's own completed/shed/timed-out tally
    must equal the count over the requests.
    """
    problems: List[str] = []
    seen = set()
    tally = {"completed": 0, "shed": 0, "timed_out": 0}
    for r in requests:
        if r.rid in seen:
            problems.append(f"request {r.rid} appears twice")
        seen.add(r.rid)
        state = r.state.value
        if state not in tally:
            problems.append(f"request {r.rid} ended in state {state!r}")
            continue
        tally[state] += 1
        if state != "completed":
            if r.completion is not None:
                problems.append(f"{state} request {r.rid} has a completion")
            continue
        if r.completion is None or r.completion < r.arrival:
            problems.append(
                f"request {r.rid} completed at {r.completion} before its "
                f"arrival {r.arrival}"
            )
        first = getattr(r, "prefill_done", r.completion)
        if first is None or not r.arrival <= first <= r.completion:
            problems.append(f"request {r.rid} has first token at {first}")
    ours = (tally["completed"], tally["shed"], tally["timed_out"])
    if ours != tuple(server_tally):
        problems.append(
            f"server reports completed/shed/timed out {tuple(server_tally)}, "
            f"the requests say {ours}"
        )
    return problems


def digest(requests: Sequence) -> str:
    """SHA-256 over ``(rid, state, completion)`` of every request."""
    h = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.rid):
        h.update(f"{r.rid},{r.state.value},{r.completion!r}\n".encode())
    return h.hexdigest()


def simulated(requests: Sequence, latency_limit_ms: float, failures: int) -> Dict:
    """The simulated end-to-end metrics of one run (deterministic)."""
    done = [r for r in requests if r.state.value == "completed"]
    attempted = len(requests)
    latency = sorted((r.completion - r.arrival) / 1e3 for r in done)
    ttft = sorted(
        (getattr(r, "prefill_done", r.completion) - r.arrival) / 1e3 for r in done
    )
    makespan_s = 0.0
    if done:
        first = min(r.arrival for r in requests)
        makespan_s = (max(r.completion for r in done) - first) / 1e6
    return {
        "sim_makespan_s": makespan_s,
        "sim_throughput_rps": len(done) / makespan_s if makespan_s > 0 else 0.0,
        "sim_latency_p50_ms": _percentile(latency, 0.5),
        "sim_latency_p90_ms": _percentile(latency, 0.9),
        "sim_ttft_p50_ms": _percentile(ttft, 0.5),
        "sim_ttft_p90_ms": _percentile(ttft, 0.9),
        "sim_slo_attainment": sum(1 for v in latency if v <= latency_limit_ms)
        / attempted,
        "failed_frac": (attempted - len(done) + failures) / attempted,
    }


def counts(server, strategy, result) -> Dict[str, float]:
    """Deterministic work counts, read from the program's public objects."""
    perf = strategy.perf_counters() if hasattr(strategy, "perf_counters") else {}
    stats = getattr(strategy, "stats", None)
    overload = result.overload
    obs = server.obs
    return {
        "engine.events": result.wall_events,
        "timeline.builds": perf.get("timeline_builds", 0),
        "timeline.bails": perf.get("timeline_bails", 0),
        "timeline.batched_events": perf.get("batched_events", 0),
        "plan_cache.hits": perf.get("plan_cache_hits", 0),
        "plan_cache.misses": perf.get("plan_cache_misses", 0),
        "plan_cache.evictions": perf.get("plan_cache_evictions", 0),
        "assembly.hits": perf.get("assembly_cache_hits", 0),
        "assembly.misses": perf.get("assembly_cache_misses", 0),
        "runtime.rounds": stats.rounds_launched if stats else 0,
        "runtime.kernels": stats.kernels_launched if stats else 0,
        "runtime.fill_fraction": stats.mean_fill_fraction if stats else 0.0,
        "runtime.decomposed_pieces": stats.decomposed_pieces if stats else 0,
        "overload.shed": overload.shed_requests if overload else 0,
        "overload.timed_out": overload.timed_out_requests if overload else 0,
        "overload.preemptions": overload.preempted_batches if overload else 0,
        "obs.bus_events": len(obs.bus) if obs is not None else 0,
    }


def _server_tally(result) -> Tuple[int, int, int]:
    metrics = getattr(result, "metrics", None)
    if metrics is not None:  # Server and the generation servers
        return (metrics.num_completed, metrics.shed_requests,
                metrics.timed_out_requests)
    return (result.num_requests, result.shed_requests, result.timed_out_requests)


def _parse_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_overrides(pairs: Sequence[str]) -> Dict[str, object]:
    """``["enable_plan_cache=false"]`` → ``{"enable_plan_cache": False}``."""
    out: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--config expects key=value, got {pair!r}")
        out[key] = _parse_value(value)
    return out


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--config", action="append", default=[])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned", type=float, required=True,
                        help="the parent's time.monotonic() just before spawn")
    args = parser.parse_args(argv)

    # The first calibration's time is taken out of set-up.
    t0 = time.monotonic()
    calib_start = _calibrate()
    calib_s = time.monotonic() - t0

    import repro
    import repro.core  # noqa: F401  (import cost belongs to set-up)
    import repro.obs  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.serving  # noqa: F401

    imported = time.monotonic()
    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed, args.requests)
    server, strategy = build(workload, parse_overrides(args.config))
    built = time.monotonic()
    calib_built = _calibrate()

    gc.collect()
    profile = cProfile.Profile() if args.trace else None
    t0 = time.perf_counter()
    if profile is not None:
        profile.enable()
    result = server.run(inputs)
    if profile is not None:
        profile.disable()
    run_raw_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calib_end = _calibrate()
    setup_scale = 2 * CALIB_REF_S / (calib_start + calib_built)
    run_scale = 2 * CALIB_REF_S / (calib_built + calib_end)
    setup_raw_s = built - args.spawned - calib_s
    import_raw_s = imported - args.spawned - calib_s

    requests = flat_requests(inputs)
    problems = oracle(requests, _server_tally(result))
    record = {
        "setup_s": setup_raw_s * setup_scale,
        "import_s": import_raw_s * setup_scale,
        "build_s": (built - imported) * setup_scale,
        "run_s": run_raw_s * run_scale,
        "setup_raw_s": setup_raw_s,
        "run_raw_s": run_raw_s,
        "host_calib_s": (calib_start + calib_built + calib_end) / 3,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(requests),
        "oracle_failures": len(problems),
        "oracle_messages": problems[:5],
        "digest": digest(requests),
        "sim": simulated(requests, workload.latency_limit_ms, len(problems)),
        "counts": counts(server, strategy, result),
    }
    if profile is not None:
        spent = attribute(pstats.Stats(profile).stats, repro.__path__[0])
        record["layers"] = {
            layer: spent.get(layer, 0.0) for layer in (*LAYERS, EXTERNAL)
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
