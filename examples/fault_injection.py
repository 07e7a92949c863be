#!/usr/bin/env python3
"""Fault injection: a straggling GPU breaks Principle 1; Liger rides it out.

Serves OPT-13B on a simulated 4×V100 node while GPU 1 runs its compute
kernels 4× slower for the first 400 ms (an SM-clock throttle: collectives,
being link-bound, are untouched).  That asymmetry is precisely what breaks
Liger's Principle 1 — compute secondary subsets outlive their
communication-primary windows — so the recovery layer detects the
executed-round violations (the plan still validated!) and counts them in a
ResilienceReport.  The schedule is never switched: like the paper, the run
keeps interleaving and relies on contention anticipation (§3.5).

Every request completes despite the fault; the same run with an empty fault
plan reproduces the clean timeline bit-for-bit.

Run:
    python examples/fault_injection.py
"""

from repro import FaultPlan, GpuStraggler, serve, v100_nvlink_node
from repro.models.specs import OPT_13B


def main() -> None:
    node = v100_nvlink_node(4)
    kwargs = dict(
        model=OPT_13B,
        node=node,
        strategy="liger",
        arrival_rate=40.0,  # enough overlap for interleaving to matter
        num_requests=32,
        batch_size=2,
        seed=1,
    )

    print(f"Serving {OPT_13B.name} on {node.name} ({node.num_gpus} GPUs)\n")

    clean = serve(**kwargs)
    print("clean:  ", clean.summary())

    # GPU 1's compute runs 4x slower for the first 400 ms of simulated time.
    plan = FaultPlan(
        [GpuStraggler(start=0.0, end=400_000.0, gpu=1, factor=4.0)]
    )
    faulted = serve(**kwargs, fault_plan=plan)
    print("faulted:", faulted.summary())

    report = faulted.resilience
    print()
    print(report.describe())

    assert faulted.metrics.num_completed == 32, "no request may be lost"
    assert report.violations >= 1, "the straggler must break Principle 1"
    print(
        f"\nThe run rode out the straggler: {report.violations} of "
        f"{report.rounds_observed} executed rounds overran their window, "
        "and every request was served."
    )


if __name__ == "__main__":
    main()
