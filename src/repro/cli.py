"""The ``python -m repro`` command line: one parser, five subcommands.

Usage::

    python -m repro --model OPT-30B --node v100 --strategy liger \\
        --rate 50 --requests 64 --batch 2            # same as `serve ...`
    python -m repro serve --strategy liger --rate 55 --gantt
    python -m repro faults --straggler 1:4.0:0:400   # fault injection
    python -m repro trace --out t.json --metrics-out m.prom  # observability
    python -m repro telemetry --report --alerts      # series + SLO burn
    python -m repro experiments table1 fig3 --scale smoke

With no subcommand, or when the first argument is an option, ``serve``
runs.  The serving subcommands share the model/node/workload flags
(:func:`workload_parent`) and differ in their defaults (``set_defaults``
on each subparser) and their own flags.  An invalid value, i.e. a
:class:`~repro.errors.ConfigError` from anywhere in the run, a model that
does not fit the node (:class:`~repro.errors.PartitionError`) and a KV
budget that cannot hold one batch (:class:`~repro.errors.OutOfMemoryError`)
become an argparse error: a one-line message on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from typing import TYPE_CHECKING, Optional

from repro.core.policy import policy_names
from repro.errors import ConfigError, OutOfMemoryError, PartitionError
from repro.hw.devices import TESTBEDS
from repro.models.specs import MODELS
from repro.serving import api

# Each subcommand imports what only it uses (the figures, faults and obs
# subsystems) in its handler, so a plain serve run loads none of them.
if TYPE_CHECKING:
    from repro.obs.observability import Observability

#: The figure names ``experiments --help`` lists: the keys of
#: :data:`repro.experiments.figures.ALL_FIGURES`, kept here so building the
#: parser does not import the figures (a test pins the two equal).
_FIGURE_NAMES = (
    "table1", "fig3", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14",
    "headline", "ablations", "fluctuating", "continuous", "lifecycle",
)

__all__ = [
    "main",
    "build_parser",
    "workload_parent",
    "overload_parent",
    "resolve_model_node",
    "overload_config_from_args",
    "build_policies",
    "install_log_handler",
]


# ----------------------------------------------------------------------
# Shared flags
# ----------------------------------------------------------------------
def workload_parent() -> argparse.ArgumentParser:
    """The model/node/strategy/workload flags every serving subcommand shares.

    The defaults are ``serve``'s; other subcommands override them with
    ``set_defaults``.  Build a fresh parent per subparser: ``set_defaults``
    rewrites the defaults on the (shared) action objects.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--model", default="OPT-30B", choices=sorted(MODELS))
    parent.add_argument("--node", default="v100", choices=sorted(TESTBEDS))
    parent.add_argument("--gpus", type=int, default=4)
    parent.add_argument("--strategy", default="liger", choices=api.STRATEGIES)
    parent.add_argument(
        "--policy", default=None, choices=policy_names(),
        help="operator scheduling policy (liger strategy only; "
        "default: dichotomy)")
    parent.add_argument("--workload", default="general",
                        choices=("general", "generative"))
    parent.add_argument("--rate", type=float, default=20.0,
                        help="arrival rate (requests/second)")
    parent.add_argument("--requests", type=int, default=64)
    parent.add_argument("--batch", type=int, default=2)
    parent.add_argument("--seed", type=int, default=0)
    return parent


class _NeedsAdmission(argparse.Action):
    """Store a flag that takes effect only with admission control armed,
    and note that it was given (its default cannot tell)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.needs_admission = (
            getattr(namespace, "needs_admission", ()) + (option_string,)
        )


def overload_parent(*, kv_frac: bool = False) -> argparse.ArgumentParser:
    """The admission-control flags (``--max-pending``/``--admission``/
    ``--deadline-ms``, plus ``--kv-frac`` where KV accounting applies)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("overload protection")
    group.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="enable admission control with a pending queue of N requests")
    group.add_argument(
        "--admission", default="reject", action=_NeedsAdmission,
        choices=("reject", "shed-oldest", "shed-by-deadline"),
        help="policy when the pending queue is full (with --max-pending)")
    group.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline in milliseconds after arrival")
    if kv_frac:
        group.add_argument(
            "--kv-frac", type=float, default=0.9, metavar="F",
            action=_NeedsAdmission,
            help="fraction of free HBM the KV accountant may use (default 0.9)")
    return parent


def _add_log_level(group) -> None:
    group.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="emit repro.* logs at LEVEL (e.g. INFO, WARNING) to stderr")


# ----------------------------------------------------------------------
# Parsed flags -> library objects
# ----------------------------------------------------------------------
def resolve_model_node(args: argparse.Namespace):
    """Turn the parsed ``--model``/``--node``/``--gpus`` flags (and
    ``telemetry``'s ``--layers``, 0 = the full model) into specs."""
    model = MODELS[args.model]
    layers = getattr(args, "layers", 0)
    if layers:
        model = model.scaled_layers(layers)
    return model, TESTBEDS[args.node](args.gpus)


def overload_config_from_args(args: argparse.Namespace):
    """Build the :class:`~repro.serving.overload.OverloadConfig` the parsed
    overload flags describe, or ``None`` when none were given.

    ``--admission`` and ``--kv-frac`` only shape admission control, which
    ``--max-pending`` or ``--deadline-ms`` arms; either one alone is an
    error rather than silently ignored."""
    max_pending = getattr(args, "max_pending", None)
    deadline_ms = getattr(args, "deadline_ms", None)
    if max_pending is None and deadline_ms is None:
        given = getattr(args, "needs_admission", ())
        if given:
            raise ConfigError(f"{given[0]} needs --max-pending or --deadline-ms")
        return None
    from repro.serving.overload import OverloadConfig

    kwargs = {}
    if getattr(args, "kv_frac", None) is not None:
        kwargs["kv_capacity_frac"] = args.kv_frac
    return OverloadConfig(
        max_pending_requests=max_pending if max_pending is not None else 64,
        policy=args.admission,
        default_deadline_us=(
            deadline_ms * 1000.0 if deadline_ms is not None else None
        ),
        **kwargs,
    )


def build_policies(args: argparse.Namespace) -> tuple:
    """Translate the ``--slo-*`` flags into :class:`SloPolicy` objects.

    With no flags given, a default availability policy is armed so the
    alert table always has an objective to judge.
    """
    from repro.obs.slo import SloPolicy

    policies = []
    if args.slo_availability is not None:
        policies.append(SloPolicy("availability", target=args.slo_availability))
    if args.slo_p99_ms is not None:
        policies.append(
            SloPolicy(
                "latency-p99",
                objective="latency",
                target=args.slo_latency_target,
                latency_threshold_ms=args.slo_p99_ms,
            )
        )
    if args.slo_deadline is not None:
        policies.append(
            SloPolicy("deadline", objective="deadline", target=args.slo_deadline)
        )
    if not policies:
        policies.append(SloPolicy("availability", target=0.95))
    return tuple(policies)


def install_log_handler(level_name: Optional[str]) -> None:
    """Attach a stderr handler to the ``repro.*`` logger hierarchy."""
    if level_name is None:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise ConfigError(f"unknown log level {level_name!r}")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    repro_logger = logging.getLogger("repro")
    repro_logger.addHandler(handler)
    repro_logger.setLevel(level)


# ----------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------
def _serve(args: argparse.Namespace, **subsystems):
    """Serve the workload the flags describe.  ``subsystems`` holds
    :func:`~repro.serving.api.serve` keywords (``record_trace``,
    ``fault_plan``, ``observability``, ...); the overload flags fill in
    ``overload``."""
    model, node = resolve_model_node(args)
    return api.serve(
        model,
        node,
        strategy=args.strategy,
        workload=args.workload,
        policy=args.policy,
        arrival_rate=args.rate,
        num_requests=args.requests,
        batch_size=args.batch,
        seed=args.seed,
        overload=overload_config_from_args(args),
        **subsystems,
    )


def _print_served(result) -> None:
    print(result.summary())
    if result.overload is not None:
        print(result.overload.describe())
    stats = result.latency_stats()
    print(
        f"latency ms: mean={stats.mean:.1f} p50={stats.p50:.1f} "
        f"p95={stats.p95:.1f} p99={stats.p99:.1f} max={stats.max:.1f}"
    )


#: The line printed after writing each kind of file; ``telemetry`` keeps its
#: own wording of the timeline line.
_WROTE = {
    "timeline": "merged trace written to {path}: {kernel} kernel slice(s), "
    "{span} request span segment(s), {instant} control instant(s)",
    "metrics": "prometheus metrics written to {path}",
    "snapshot": "metrics snapshot written to {path}",
    "series": "windowed series written to {path}",
}
_TELEMETRY_WROTE = {
    **_WROTE,
    "timeline": "merged timeline written to {path} "
    "({kernel} kernels, {span} span rows, {instant} instants)",
}


def _write_outputs(obs: "Observability", outputs, *, trace=None, wording=_WROTE):
    """Write each requested ``(kind, path)`` of ``outputs`` in order and
    print its ``wording`` line; an unset path is skipped."""
    save = {
        "metrics": obs.save_prometheus,
        "snapshot": obs.save_snapshot,
        "series": obs.save_series,
    }
    for kind, path in outputs:
        if not path:
            continue
        counts = {}
        if kind == "timeline":
            counts = obs.save_merged_trace(path, trace=trace)
        else:
            save[kind](path)
        print(wording[kind].format(path=path, **counts))


def _run_serve(args) -> int:
    install_log_handler(args.log_level)
    observability = None
    if args.trace_out is not None or args.metrics_out is not None:
        from repro.obs.observability import Observability

        observability = Observability()
    result = _serve(
        args,
        record_trace=args.gantt or args.trace_out is not None,
        observability=observability,
    )
    _print_served(result)
    if args.gantt:
        from repro.sim.gantt import render_gantt

        print()
        print(render_gantt(result.trace, gpus=[0], width=100))
    if observability is not None:
        _write_outputs(
            observability,
            [("timeline", args.trace_out), ("metrics", args.metrics_out)],
            trace=result.trace,
        )
    return 0


def _run_faults(args) -> int:
    from repro.faults.plan import build_plan
    from repro.faults.resilience import ResilienceConfig

    result = _serve(
        args,
        fault_plan=build_plan(args.straggler, args.launch_fail),
        resilience=ResilienceConfig(max_retries=args.max_retries),
    )
    _print_served(result)
    print()
    print(result.resilience.describe())
    return 0


def _run_trace(args) -> int:
    if args.summarize is not None:
        from repro.obs.export import summarize_trace

        try:
            print(summarize_trace(args.summarize))
        except (OSError, json.JSONDecodeError, ConfigError) as exc:
            raise ConfigError(f"cannot summarize {args.summarize}: {exc}") from exc
        return 0
    from repro.obs.observability import Observability

    obs = Observability()
    result = _serve(args, record_trace=True, observability=obs)
    print(result.summary())
    _write_outputs(
        obs,
        [("timeline", args.out), ("metrics", args.metrics_out),
         ("snapshot", args.snapshot_out)],
        trace=result.trace,
    )
    return 0


def _run_telemetry(args) -> int:
    from repro.obs.observability import Observability, ObservabilityConfig

    install_log_handler(args.log_level)
    obs = Observability(
        ObservabilityConfig(
            telemetry=True,
            window_us=args.window_ms * 1e3,
            slo_policies=build_policies(args),
        )
    )
    result = _serve(args, record_trace=True, observability=obs)
    print(result.summary())

    both = not (args.report or args.alerts)
    if args.report or both:
        print()
        print(obs.critical_path(result.trace).describe())
    if args.alerts or both:
        print()
        print(obs.slo.alert_table())
    _write_outputs(
        obs,
        [("series", args.series_out), ("metrics", args.metrics_out),
         ("timeline", args.timeline)],
        trace=result.trace, wording=_TELEMETRY_WROTE,
    )
    return 0


def _run_experiments(args) -> int:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.figures import ALL_FIGURES, _timed_figure

    names = args.figures or list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        raise ConfigError(f"unknown figure(s): {', '.join(unknown)}")
    if args.workers < 0:
        raise ConfigError(f"--workers must be >= 0, got {args.workers}")

    # Every figure reseeds its own workloads, so a freshly spawned worker
    # produces the same text as the in-process run; map() yields results in
    # request order.
    tasks = [(name, args.scale) for name in names]
    with contextlib.ExitStack() as stack:
        mapper = map
        if args.workers > 0:
            mapper = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(args.workers, len(names)),
                mp_context=multiprocessing.get_context("spawn"),
            )).map
        for figure, title, text, elapsed in mapper(_timed_figure, tasks):
            print(f"\n=== {figure}: {title} [{elapsed:.1f}s] ===")
            print(text)
    return 0


# ----------------------------------------------------------------------
# The parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser with its five subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Serve a large language model on a simulated multi-GPU "
        "node, under faults or overload, and regenerate the paper's figures.",
        epilog="With no command, or when the first argument is an option, "
        "`serve` runs: `python -m repro --rate 55` is "
        "`python -m repro serve --rate 55`.",
    )
    commands = parser.add_subparsers(
        dest="command", title="commands", metavar="COMMAND"
    )

    def command(name, run, summary, description=None, parents=(), **defaults):
        sub = commands.add_parser(
            name, help=summary, description=description or summary,
            parents=list(parents),
        )
        sub.set_defaults(run=run, parser=sub, **defaults)
        return sub

    serve = command(
        "serve", _run_serve, "serve a workload (the default command)",
        "Serve a large language model on a simulated multi-GPU node.",
        [workload_parent(), overload_parent(kv_frac=True)],
    )
    serve.add_argument("--gantt", action="store_true",
                       help="print an ASCII timeline of GPU 0")
    group = serve.add_argument_group("observability")
    group.add_argument(
        "--trace-out", metavar="PATH",
        help="write the merged Perfetto timeline (request spans + kernel "
        "slices + control instants) to PATH")
    group.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the run's Prometheus text exposition to PATH")
    _add_log_level(group)

    # Fault windows are in milliseconds of simulated time; repeat a flag to
    # inject several faults of one kind.
    faults = command(
        "faults", _run_faults, "serve under injected faults",
        "Serve a workload under injected faults and report the recovery "
        "layer's behaviour.",
        [workload_parent()],
        model="OPT-13B", rate=40.0, requests=32, seed=1,
    )
    faults.add_argument("--straggler", action="append", default=[],
                        metavar="GPU:FACTOR:START:END",
                        help="slow one GPU's compute kernels (window in ms)")
    faults.add_argument("--launch-fail", action="append", default=[],
                        metavar="START:END",
                        help="transient launch failures (window in ms)")
    faults.add_argument("--max-retries", type=int, default=5)

    trace = command(
        "trace", _run_trace, "serve and export the merged timeline + metrics",
        "Serve a workload with observability armed and export the merged "
        "Perfetto timeline (request spans + kernel slices + control "
        "instants) and metrics.",
        [workload_parent(), overload_parent()],
    )
    trace.add_argument("--summarize", metavar="PATH",
                       help="summarize an existing merged trace and exit")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="merged Chrome/Perfetto trace (default trace.json)")
    trace.add_argument("--metrics-out", metavar="PATH",
                       help="Prometheus text exposition of the run's metrics")
    trace.add_argument("--snapshot-out", metavar="PATH",
                       help="JSON metrics snapshot (counters + samples)")

    # With none of --report/--alerts given, both are printed.
    telemetry = command(
        "telemetry", _run_telemetry, "windowed series, SLO alerts, critical path",
        "Serve a workload with the telemetry store and SLO engine armed; "
        "render series, burn-rate alerts, and the critical-path report.",
        [workload_parent(), overload_parent()],
    )
    telemetry.add_argument("--layers", type=int, default=0, metavar="N",
                           help="scale the model to N layers (0 = full model)")
    group = telemetry.add_argument_group("SLO policies")
    group.add_argument("--slo-availability", type=float, default=None,
                       metavar="T", help="availability objective, e.g. 0.95")
    group.add_argument("--slo-p99-ms", type=float, default=None, metavar="MS",
                       help="latency objective: good = completed under MS")
    group.add_argument("--slo-latency-target", type=float, default=0.99,
                       metavar="T", help="good fraction for --slo-p99-ms "
                       "(default 0.99)")
    group.add_argument("--slo-deadline", type=float, default=None, metavar="T",
                       help="deadline-attainment objective, e.g. 0.9")
    group = telemetry.add_argument_group("outputs")
    group.add_argument("--report", action="store_true",
                       help="print the critical-path report")
    group.add_argument("--alerts", action="store_true",
                       help="print the burn-rate alert table")
    group.add_argument("--series-out", metavar="PATH", default=None,
                       help="write the windowed series (.prom = exposition "
                       "with timestamps, else JSON)")
    group.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the end-of-run Prometheus exposition")
    group.add_argument("--timeline", metavar="PATH", default=None,
                       help="write the merged Perfetto timeline JSON")
    group.add_argument("--window-ms", type=float, default=50.0, metavar="MS",
                       help="telemetry window width (default 50 ms)")
    _add_log_level(telemetry)

    experiments = command(
        "experiments", _run_experiments, "regenerate the paper's figures",
        "Regenerate the Liger paper's tables and figures.",
    )
    experiments.add_argument(
        "figures", nargs="*", default=[],
        help=f"figures to run (default: all). Choices: {', '.join(_FIGURE_NAMES)}")
    experiments.add_argument(
        "--scale", choices=("smoke", "quick", "full"), default="quick",
        help="experiment size (smoke: seconds; quick: default; full: paper grid)")
    experiments.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan figures across N worker processes (0 = in-process)")
    return parser


def main(argv=None) -> int:
    """Entry point for ``python -m repro``; returns the exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or (argv[0].startswith("-") and argv[0] not in ("-h", "--help")):
        argv.insert(0, "serve")
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, OutOfMemoryError, PartitionError) as exc:
        args.parser.error(str(exc))
