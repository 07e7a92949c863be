"""``python -m bench compare BASE.json NEW.json``: verdicts per metric.

For each workload and end-to-end metric it prints both medians with their
quartiles and one verdict, using the bounds in ``BENCHMARK.json``:

* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the bound, unless every new sample beats every base sample;
* ``worse`` — the new median is worse than the base median by more than
  the bound;
* ``better`` — the new side wins at least nine tenths of the index-matched
  pairs of repeats (ties count for neither) and the medians differ by more
  than the base's own quartile distance;
* ``unchanged`` — otherwise.

Simulated metrics are deterministic for one seed, so when both files used
the same seed any difference at all is ``better`` or ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Sequence, Tuple

from bench.run import END_TO_END, ROOT, SIMULATED, quartiles


def load_bounds(path=ROOT / "BENCHMARK.json") -> Dict[str, float]:
    """Regression bound per end-to-end metric, from ``BENCHMARK.json``."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}


def _spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    base: List[float], new: List[float], *, higher_better: bool, bound: float,
    exact: bool,
) -> str:
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if higher_better else -1.0
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    if exact:
        if mn == mb:
            return "unchanged"
        return "better" if sign * (mn - mb) > 0 else "worse"
    if max(_spread(base), _spread(new)) > bound:
        if higher_better:
            all_better = min(new) > max(base)
        else:
            all_better = max(new) < min(base)
        return "better" if all_better else "unresolved"
    if sign * (mn - mb) < -bound * abs(mb):
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    q1, _, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and abs(mn - mb) > q3 - q1:
        return "better"
    return "unchanged"


def compare(base: Dict, new: Dict, bounds: Dict[str, float]) -> List[Tuple]:
    """Rows of ``(workload, metric, unit, base, new, verdict)``."""
    same_seed = base["lineage"]["seed"] == new["lineage"]["seed"]
    rows = []
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        for name, (unit, better) in END_TO_END.items():
            exact = name in SIMULATED and same_seed
            v = verdict(
                b["samples"][name], n["samples"][name],
                higher_better=better == "higher",
                bound=bounds.get(name, 0.0), exact=exact,
            )
            rows.append((workload, name, unit, b["metrics"][name],
                         n["metrics"][name], v))
    return rows


def _fmt(m: Dict) -> str:
    return f"{m['value']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("base", help="results file of the parent commit")
    parser.add_argument("new", help="results file of the change")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    rows = compare(base, new, load_bounds())
    print(f"{'workload':15s} {'metric':20s} {'unit':6s} "
          f"{'base median [q1, q3]':34s} {'new median [q1, q3]':34s} verdict")
    for workload, name, unit, b, n, v in rows:
        print(f"{workload:15s} {name:20s} {unit:6s} {_fmt(b):34s} "
              f"{_fmt(n):34s} {v}")
    for side, doc in (("base", base), ("new", new)):
        lin = doc["lineage"]
        print(f"{side}: sha {lin['git_sha'][:12]}, seed {lin['seed']}, "
              f"config {lin['config'] or 'none'}, "
              f"host_calib_s {lin['host_calib_s']:.4f}")
    digests_differ = [
        w for w in base["workloads"]
        if w in new["workloads"]
        and base["workloads"][w]["digest"] != new["workloads"][w]["digest"]
    ]
    if digests_differ:
        print(f"outcome digests differ on: {', '.join(digests_differ)}")
    flagged = [r for r in rows if r[-1] in ("worse", "unresolved")]
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
