"""Fig. 13: the benefit of hybrid synchronization (§4.5).

Paper: Liger with only CPU-GPU synchronization shows an obvious drop in
both latency and throughput versus the hybrid approach, because the exposed
multi-GPU launch gap exceeds 20 µs per round (vs ~5 µs for a null kernel on
one GPU).
"""

from __future__ import annotations

from benchmarks.conftest import run_figure
from repro.experiments import fig13


def test_fig13_hybrid_vs_cpu_gpu(benchmark, scale):
    result = run_figure(benchmark, fig13, scale)
    s = result.summary
    # Hybrid strictly dominates CPU-GPU sync on latency...
    assert s["sync=hybrid_lat_vs_sync=cpu_gpu"] < 0.98
    # ...and matches or beats it on throughput.
    assert s["sync=hybrid_thr_vs_sync=cpu_gpu"] >= 0.99


def test_multi_gpu_launch_gap_exceeds_single_gpu(benchmark, scale):
    """§4.5's microbenchmark: ~5 µs null-kernel launch on one GPU, >20 µs
    when the CPU must confirm completion across all GPUs."""
    del scale
    from repro.hw import v100_nvlink_node

    from repro.sim import Engine, Host, Machine

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    node = v100_nvlink_node(4)
    host = Host(Machine(node, Engine()))
    single = node.gpu.kernel_launch_overhead
    # The exposed CPU-GPU sync path: event visibility + multi-GPU
    # completion confirmation + the relaunch itself.
    multi = host.sync_visibility_latency + host.multi_gpu_launch_penalty + single
    assert single <= 6.0
    assert multi > 20.0
