"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments                 # every figure, quick scale
    python -m repro.experiments fig10 --scale full
    python -m repro.experiments table1 fig3 fig13
    python -m repro.experiments --workers 4     # figures across 4 processes
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

from repro.experiments.figures import ALL_FIGURES, _timed_figure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Liger paper's tables and figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=[],
        help=f"figures to run (default: all). Choices: {', '.join(ALL_FIGURES)}",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "quick", "full"),
        default="quick",
        help="experiment size (smoke: seconds; quick: default; full: paper grid)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan figures across N worker processes (0 = in-process)",
    )
    args = parser.parse_args(argv)

    names = args.figures or list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")

    # Every figure reseeds its own workloads, so a freshly spawned worker
    # produces the same text as the in-process run; map() yields results in
    # request order.
    tasks = [(name, args.scale) for name in names]
    if args.workers > 0:
        with ProcessPoolExecutor(
            max_workers=min(args.workers, len(names)),
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            _print_results(pool.map(_timed_figure, tasks))
    else:
        _print_results(map(_timed_figure, tasks))
    return 0


def _print_results(results) -> None:
    for figure, title, text, elapsed in results:
        print(f"\n=== {figure}: {title} [{elapsed:.1f}s] ===")
        print(text)


if __name__ == "__main__":
    sys.exit(main())
