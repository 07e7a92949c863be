#!/usr/bin/env python3
"""Look inside Liger: rounds, overlap, decomposition, and the timeline.

Serves a short saturating trace with full tracing enabled and reports the
runtime's internals — how many Algorithm-1 rounds ran, how full the overlap
windows were, how often runtime kernel decomposition fired, how much
communication wall time was hidden under computation — and writes the
merged timeline (`chrome://tracing` / https://ui.perfetto.dev) of the whole
schedule: kernel slices, request spans and control instants.

Run:
    python examples/schedule_inspection.py [trace.json]
"""

import json
import sys

from repro import OPT_30B, v100_nvlink_node
from repro.core import LigerConfig
from repro.experiments.figures import PINNED_FACTORS
from repro.obs import Observability, analyze_critical_path, validate_merged_trace
from repro.parallel import InterleavedStrategy
from repro.serving import Server
from repro.serving.workload import general_trace


def main() -> None:
    node = v100_nvlink_node(4)
    strat = InterleavedStrategy(
        OPT_30B,
        node,
        config=LigerConfig(contention_factors=PINNED_FACTORS["v100"]),
    )
    obs = Observability()
    server = Server(OPT_30B, node, strat, record_trace=True, observability=obs)
    batches = general_trace(num_requests=32, rate=55.0, batch_size=2, seed=1)
    result = server.run(batches)
    print(result.summary(), "\n")

    stats = strat.stats
    print("Liger runtime internals:")
    print(f"  rounds launched        : {stats.rounds_launched}")
    print(f"  kernels launched       : {stats.kernels_launched}")
    print(f"  mean window fill       : {stats.mean_fill_fraction:.1%}")
    print(f"  decomposed pieces      : {stats.decomposed_pieces}")

    trace = server.trace
    report = analyze_critical_path(trace, spans=obs.spans())
    print("\nPer-GPU overlap (from the timeline):")
    for lane in report.per_gpu:
        print(
            f"  {lane.lane}: comm wall {lane.comm_wall_us / 1e3:8.1f} ms, "
            f"hidden under compute {lane.overlap_us / 1e3:8.1f} ms "
            f"({lane.comm_hidden_fraction:.0%})"
        )
    assert all(lane.overlap_us > 0 for lane in report.per_gpu)

    print("\n" + report.describe())

    out = sys.argv[1] if len(sys.argv) > 1 else "liger_trace.json"
    timeline = obs.merged_chrome_trace(trace=trace)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(timeline, fh)
    counts = validate_merged_trace(timeline)
    print(
        f"Merged timeline written to {out}: {counts['kernel']} kernel "
        f"slice(s), {counts['span']} request span segment(s) "
        "(open in https://ui.perfetto.dev)"
    )


if __name__ == "__main__":
    main()
