"""Fig. 13: the benefit of hybrid synchronization (§4.5).

Paper: Liger with only CPU-GPU synchronization shows an obvious drop in
both latency and throughput versus the hybrid approach, because the exposed
multi-GPU launch gap exceeds 20 µs per round (vs ~5 µs for a null kernel on
one GPU).  We additionally check pure inter-stream sync (the §3.4 lag
failure mode the hybrid design replaces).
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

    # Pure inter-stream never beats hybrid: _advance launches every
    # plannable round at once, so each batch is planned alone.
    records = result.records
    hybrid = [r for r in records if r.panel == "sync=hybrid"]
    inter = [r for r in records if r.panel == "sync=inter_stream"]
    pairs = [(h, i) for h in hybrid for i in inter if abs(h.rate - i.rate) < 1e-9]
    assert pairs
    assert all(h.avg_latency_ms <= i.avg_latency_ms * 1.02 for h, i in pairs)


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
