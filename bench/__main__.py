"""Command line of the benchmark.

    PYTHONPATH=src python -m bench [--seed S] [--repeats R | --seconds S]
        [--workload NAME] [--trace 0|1 | --no-trace] [--config key=value]...
        [--out PATH]
    python -m bench compare BASE.json NEW.json

Prints every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics named in ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics otherwise.  Exits non-zero when the correctness oracle or the
determinism check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, Sequence

from bench import compare
from bench.child import CALIB_REF_S
from bench.run import ROOT, BenchError, lineage, run
from bench.workloads import WORKLOADS


def _report(name: str, summary: Dict, seed: int) -> None:
    n = summary["metrics"]["run_s"]["n"]
    print(f"== {name}: seed {seed}, {n} repeats"
          f"{' + 1 traced' if 'layer_metrics' in summary else ''}, "
          f"outcome sha256 {summary['digest']}")
    print("   generator lateness 0 s: arrivals are fixed in simulated time")
    samples = summary["samples"]
    print(f"   host times are scaled to host_calib_s {CALIB_REF_S} s; "
          f"measured host_calib_s {statistics.median(samples['host_calib_s']):.4f}"
          f", raw run_s {statistics.median(samples['run_raw_s']):.4f} s, "
          f"raw setup_s {statistics.median(samples['setup_raw_s']):.4f} s")
    print(f"   {'metric':28s} {'unit':6s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s}")
    for metric, m in summary["metrics"].items():
        print(f"   {metric:28s} {m['unit']:6s} {m['value']:14.6g} "
              f"{m['q1']:14.6g} {m['q3']:14.6g}")
    for metric, m in summary.get("layer_metrics", {}).items():
        print(f"   {metric:28s} {m['unit']:6s} {m['value']:14.6g}")
    if summary["correct"]:
        print(f"   correct: oracle passed on all {summary['attempted']} "
              "attempted requests; outcome and counts repeat on every run")
    else:
        for problem in summary["problems"]:
            print(f"   INCORRECT: {problem}")


def _result_line(summaries: Dict[str, Dict], trace: bool) -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for workload, summary in summaries.items():
        source = summary["layer_metrics"] if trace else summary["metrics"]
        prefix = f"{workload}/" if len(summaries) > 1 else ""
        for name in names:
            m = source[name]
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--seed", type=int, default=0)
    amount = parser.add_mutually_exclusive_group()
    amount.add_argument("--repeats", type=int, default=None,
                        help="untraced children per workload (default 10)")
    amount.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long instead "
                             "(at least 3 repeats)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run only this workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add one cProfile-traced child per workload "
                             "and report per-layer metrics")
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const=0, help="same as --trace 0")
    parser.add_argument("--config", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a LigerConfig field (repeatable)")
    parser.add_argument("--out", default=None,
                        help="write the results file here (for compare)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    for pair in args.config:
        if "=" not in pair:
            parser.error(f"--config expects KEY=VALUE, got {pair!r}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = 10
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        summaries = run(
            workloads, args.seed, repeats=repeats, seconds=args.seconds,
            trace=bool(args.trace), config=args.config,
            progress=lambda line: print(line, file=sys.stderr, flush=True),
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, summary in summaries.items():
        _report(name, summary, args.seed)
    if args.out:
        doc = {
            "schema": 1,
            "lineage": lineage(
                args.seed, args.config, summaries, repeats=repeats,
                seconds=args.seconds,
            ),
            "workloads": summaries,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    line = _result_line(summaries, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
