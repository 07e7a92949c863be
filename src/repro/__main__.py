"""Serving CLI.

Usage::

    python -m repro --model OPT-30B --node v100 --strategy liger \\
        --rate 50 --requests 64 --batch 2
    python -m repro --model GLM-130B --node a100 --strategy intra \\
        --workload generative --rate 800 --requests 256 --batch 32
    python -m repro --strategy liger --rate 55 --gantt   # ASCII timeline
    python -m repro faults --straggler 1:4.0:0:400       # fault injection
    python -m repro trace --out t.json --metrics-out m.prom  # observability
    python -m repro chaos --replicas 3 --crashes 1       # cluster chaos
    python -m repro telemetry --report --alerts          # series + SLO burn

For figure regeneration use ``python -m repro.experiments``; for fault
injection and recovery see ``python -m repro faults --help``; for the
merged Perfetto timeline see ``python -m repro trace --help``; for
replicated-cluster chaos testing see ``python -m repro chaos --help``;
for windowed time-series, SLO burn-rate alerts, and the critical-path
report see ``python -m repro telemetry --help``.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    install_log_handler,
    overload_config_from_args,
    overload_parent,
    resolve_model_node,
    workload_parent,
)
from repro.serving.api import serve
from repro.serving.session import ServingConfig


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "faults":
        from repro.faults.cli import main as faults_main

        return faults_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.cluster.cli import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "telemetry":
        from repro.obs.telemetry_cli import main as telemetry_main

        return telemetry_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Serve a large language model on a simulated multi-GPU node.",
        parents=[workload_parent(), overload_parent(kv_frac=True)],
    )
    parser.add_argument("--gantt", action="store_true",
                        help="print an ASCII timeline of GPU 0")
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="write a Chrome trace JSON of the run")
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--trace-out", metavar="PATH",
        help="write the merged Perfetto timeline (request spans + kernel "
        "slices + control instants) to PATH")
    obs_group.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the run's Prometheus text exposition to PATH")
    obs_group.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="emit repro.* logs at LEVEL (e.g. INFO, WARNING) to stderr")
    args = parser.parse_args(argv)

    install_log_handler(args.log_level, parser)

    model, node = resolve_model_node(args)
    want_trace = args.gantt or args.chrome_trace is not None or args.trace_out is not None
    observability = None
    if args.trace_out is not None or args.metrics_out is not None:
        from repro.obs import Observability

        observability = Observability()
    result = serve(
        model,
        node,
        strategy=args.strategy,
        workload=args.workload,
        policy=args.policy,
        arrival_rate=args.rate,
        num_requests=args.requests,
        batch_size=args.batch,
        seed=args.seed,
        config=ServingConfig(
            record_trace=want_trace,
            overload=overload_config_from_args(args),
            observability=observability,
        ),
    )
    print(result.summary())
    if result.overload is not None:
        print(result.overload.describe())
    stats = result.latency_stats()
    print(
        f"latency ms: mean={stats.mean:.1f} p50={stats.p50:.1f} "
        f"p95={stats.p95:.1f} p99={stats.p99:.1f} max={stats.max:.1f}"
    )
    if args.gantt:
        from repro.sim.gantt import render_gantt

        print()
        print(render_gantt(result.trace, gpus=[0], width=100))
    if args.chrome_trace:
        result.trace.save_chrome_trace(args.chrome_trace)
        print(f"chrome trace written to {args.chrome_trace}")
    if args.trace_out:
        counts = observability.save_merged_trace(args.trace_out, trace=result.trace)
        print(
            f"merged trace written to {args.trace_out}: "
            f"{counts['kernel']} kernel slice(s), {counts['span']} request "
            f"span segment(s), {counts['instant']} control instant(s)"
        )
    if args.metrics_out:
        observability.save_prometheus(args.metrics_out)
        print(f"prometheus metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
