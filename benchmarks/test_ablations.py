"""Component ablations (ours, motivated by §3.4–§3.6).

Each Liger mechanism is disabled in turn at a saturating arrival rate:

* no-decomposition (§3.6) — coarse kernels leave overlap windows unfilled;
* no-anticipation (§3.5) — secondary subsets sized with no-load durations
  may outlive the primary window (graceful in the simulator's mild
  contention regime, so the asserted band is wide);
* full-nccl-channels (§3.5 mitigation off) — fat collectives rarely fit
  beside a GEMM under the left-over policy, killing most overlap;
* cpu-gpu-sync (§3.4) — exposed multi-GPU launch gaps every round.
"""

from __future__ import annotations

from benchmarks.conftest import run_figure
from repro.experiments import ablations


def test_ablations(benchmark, scale):
    result = run_figure(benchmark, ablations, scale)
    s = result.summary

    # Decomposition earns real latency (the Fig. 14 mechanism).
    assert s["no-decomposition:lat_vs_default"] > 1.03
    # The NCCL footprint mitigation is load-bearing for overlap.
    assert s["full-nccl-channels:lat_vs_default"] > 1.05
    # CPU-GPU sync pays the exposed launch gap (the Fig. 13 mechanism).
    assert s["cpu-gpu-sync:lat_vs_default"] > 1.03
    # Anticipation is a safety property; its latency cost/benefit is small.
    assert 0.9 <= s["no-anticipation:lat_vs_default"] <= 1.2
