"""Fig. 14: decomposition-factor sensitivity (§4.6).

Paper: larger division factors give better latency and throughput because
the scheduler matches subset durations more precisely; the benefit
diminishes because tiny kernels stop saturating the GPU.  (A factor-``2d``
decomposition can express every factor-``d`` split, so quality is monotone.)
"""

from __future__ import annotations

from benchmarks.conftest import run_figure
from repro.experiments import fig14


def test_fig14_division_factor(benchmark, scale):
    result = run_figure(benchmark, fig14, scale)
    s = result.summary
    # Larger factor helps: 8 is no worse than 2 (with small tolerance).
    assert s["lat_d8"] <= s["lat_d2"] * 1.01
    # Diminishing returns: 8 → 16 changes far less than 2 → 8.
    gain_2_to_8 = s["lat_d2"] - s["lat_d8"]
    gain_8_to_16 = abs(s["lat_d8"] - s["lat_d16"])
    assert gain_8_to_16 <= max(gain_2_to_8, 0.3)


def test_fig14_fine_division_profiles_monotone(benchmark):
    """The offline division table: piece duration grows with piece size,
    and the per-piece overhead makes the sum exceed the whole kernel."""
    from repro.core import DecompositionPlanner
    from repro.core.assembly import KernelFunc
    from repro.hw import v100_nvlink_node
    from repro.models.ops import gemm_op
    from repro.profiling import OpProfiler
    from repro.sim.kernel import KernelKind

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    prof = OpProfiler(v100_nvlink_node(4))
    op = gemm_op("mlp", 0, 144, 7168, 28672)
    func = KernelFunc.profiled(op, prof)
    assert func.kind is KernelKind.COMPUTE and func.decomposable
    for d in (2, 4, 8, 16):
        table = DecompositionPlanner(prof, d).profile_divisions(func)
        durs = [t for _, t in table]
        assert durs == sorted(durs)
        # 1/d piece is cheaper than the whole kernel but more than 1/d of it.
        assert durs[0] < func.duration
        assert durs[0] > func.duration / d * 0.999
