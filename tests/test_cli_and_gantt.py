"""Tests for the serving CLI, the experiments CLI, and the Gantt renderer."""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import ConfigError
from repro.hw import v100_nvlink_node
from repro.sim import Engine, Kernel, KernelKind, Machine, NullContention, Trace
from repro.sim.gantt import render_gantt


def traced_machine():
    m = Machine(v100_nvlink_node(1), Engine(), contention=NullContention(), trace=Trace())
    s0 = m.gpu(0).stream("s0")
    s1 = m.gpu(0).stream("s1")
    m.launch(s0, Kernel(name="gemm", kind=KernelKind.COMPUTE, duration=100.0,
                        occupancy=0.9), available_at=0.0)
    m.launch(s1, Kernel(name="ar", kind=KernelKind.COMM, duration=50.0,
                        occupancy=0.05), available_at=0.0)
    m.run()
    return m


class TestGantt:
    def test_renders_lanes_and_legend(self):
        m = traced_machine()
        text = render_gantt(m.trace, width=40)
        assert "g0/s0" in text and "g0/s1" in text
        assert "compute" in text and "communication" in text

    def test_compute_and_comm_glyphs_distinct(self):
        m = traced_machine()
        text = render_gantt(m.trace, width=40)
        lanes = {l.split("|")[0].strip(): l for l in text.splitlines() if "|" in l}
        assert "█" in lanes["g0/s0"]
        assert "▒" in lanes["g0/s1"]

    def test_comm_lane_half_filled(self):
        m = traced_machine()
        text = render_gantt(m.trace, width=40)
        comm_lane = next(l for l in text.splitlines() if l.startswith("g0/s1"))
        filled = comm_lane.count("▒")
        assert 15 <= filled <= 25  # 50 of 100 us

    def test_window_filter(self):
        m = traced_machine()
        text = render_gantt(m.trace, start=60.0, end=100.0, width=20)
        # The comm kernel (ends at 50us with contention off) is outside the
        # window, so no lane cell may show communication (legend aside).
        lanes = [l for l in text.splitlines() if l.startswith("g0/")]
        assert lanes
        assert all("▒" not in l for l in lanes)

    def test_gpu_filter_and_errors(self):
        m = traced_machine()
        with pytest.raises(ConfigError):
            render_gantt(m.trace, width=5)
        with pytest.raises(ConfigError):
            render_gantt(Trace())
        with pytest.raises(ConfigError):
            render_gantt(m.trace, start=10.0, end=10.0)


class TestServingCli:
    def test_basic_run(self, capsys):
        from repro.__main__ import main

        rc = main([
            "--model", "OPT-30B", "--node", "v100", "--strategy", "intra",
            "--rate", "30", "--requests", "8", "--batch", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OPT-30B on v100-nvlink" in out
        assert "p99" in out

    def test_gantt_and_chrome_trace(self, capsys, tmp_path):
        from repro.__main__ import main

        trace_path = tmp_path / "t.json"
        rc = main([
            "--strategy", "liger", "--rate", "40", "--requests", "8",
            "--gantt", "--chrome-trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "compute" in out
        assert json.loads(trace_path.read_text())["traceEvents"]

    def test_generative_workload(self, capsys):
        from repro.__main__ import main

        rc = main([
            "--workload", "generative", "--strategy", "intra",
            "--rate", "800", "--requests", "64", "--batch", "32",
        ])
        assert rc == 0
        assert "64 reqs" in capsys.readouterr().out


class TestExperimentsCli:
    def test_table1(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["table1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GLM-130B" in out

    def test_unknown_figure_rejected(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_smoke_figure(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["fig14", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Decomposition factor" in out

    def test_workers_match_sequential(self, capsys):
        from repro.experiments.__main__ import main

        def bodies(argv):
            assert main(argv) == 0
            # Headers carry per-figure wall time; everything else must match.
            return re.sub(r" \[[0-9.]+s\] ===", " ===", capsys.readouterr().out)

        argv = ["table1", "fig14", "--scale", "smoke"]
        sequential = bodies(argv)
        assert sequential.index("=== table1") < sequential.index("=== fig14")
        assert bodies(argv + ["--workers", "2"]) == sequential

    def test_negative_workers_rejected(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table1", "--workers", "-1"])
