"""Tests for the ``python -m repro`` CLI tree and the Gantt renderer."""

from __future__ import annotations

import argparse
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
            "--gantt", "--trace-out", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "compute" in out
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(str(e["pid"]).startswith("gpu") for e in events)

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


# Every subcommand's option strings and defaults: a change here is a change
# to the command line.
_WORKLOAD = {
    "--model": "OPT-30B", "--node": "v100", "--gpus": 4, "--strategy": "liger",
    "--policy": None, "--workload": "general", "--rate": 20.0,
    "--requests": 64, "--batch": 2, "--seed": 0,
}
_OVERLOAD = {"--max-pending": None, "--admission": "reject", "--deadline-ms": None}
OPTIONS = {
    "serve": {
        **_WORKLOAD, **_OVERLOAD, "--kv-frac": 0.9, "--gantt": False,
        "--trace-out": None, "--metrics-out": None,
        "--log-level": None,
    },
    "faults": {
        **_WORKLOAD, "--model": "OPT-13B", "--rate": 40.0, "--requests": 32,
        "--seed": 1, "--straggler": [], "--launch-fail": [], "--max-retries": 5,
    },
    "trace": {
        **_WORKLOAD, **_OVERLOAD, "--summarize": None, "--out": "trace.json",
        "--metrics-out": None, "--snapshot-out": None,
    },
    "telemetry": {
        **_WORKLOAD, **_OVERLOAD, "--layers": 0, "--slo-availability": None, "--slo-p99-ms": None,
        "--slo-latency-target": 0.99, "--slo-deadline": None,
        "--report": False, "--alerts": False, "--series-out": None,
        "--metrics-out": None, "--timeline": None, "--window-ms": 50.0,
        "--log-level": None,
    },
    "experiments": {"figures": [], "--scale": "quick", "--workers": 0},
}

# Bad user values and the one-line error each must produce (exit status 2).
_BAD_VALUES = [
    (["--gpus", "0"], "num_gpus must be >= 1"),
    # OPT-30B's weights do not fit two V100s.
    (["--gpus", "2", "--requests", "4"], "OPT-30B needs"),
    (["--requests", "0"], "num_requests must be >= 1"),
    (["--rate", "-1"], "rate must be finite and positive"),
    (["--batch", "0"], "batch_size must be >= 1"),
    (["--seed", "-1", "--requests", "4"], "seed must be >= 0, got -1"),
    (["--seed", "-1", "--workload", "generative"], "seed must be >= 0, got -1"),
    (["--deadline-ms", "-5"], "default_deadline_us must be finite and positive"),
    (["--max-pending", "4", "--kv-frac", "2"], "kv_capacity_frac"),
    (["--strategy", "intra", "--policy", "expert_overlap"],
     "does not schedule with policies"),
    (["faults", "--straggler", "9:4.0:0:400"], "targets GPU 9"),
    (["faults", "--straggler", "1:4.0:0"], "expects 4 colon-separated"),
    (["faults", "--straggler", "0:inf:0:100"], "straggler factor must be finite"),
    (["faults", "--launch-fail", "5:1"], "is empty or invalid"),
    (["faults", "--launch-fail", "nan:1"], "fault start must be finite"),
    (["faults", "--straggler", "1.7:4.0:0:400"], "GPU must be an integer"),
    # `=` keeps argparse from reading the leading minus as an option.
    (["faults", "--straggler=-0.5:4.0:0:400"], "GPU must be an integer"),
    # Non-finite floats are rejected where each value is validated.
    (["serve", "--rate", "nan"], "rate must be finite and positive, got nan"),
    (["serve", "--rate", "inf"], "rate must be finite and positive, got inf"),
    (["serve", "--rate", "nan", "--workload", "generative"],
     "rate must be finite and positive, got nan"),
    (["serve", "--max-pending", "8", "--deadline-ms", "nan"],
     "default_deadline_us must be finite and positive, got nan"),
    # Admission-only flags need admission control armed.
    (["serve", "--requests", "8", "--kv-frac", "0.01"],
     "--kv-frac needs --max-pending or --deadline-ms"),
    (["serve", "--requests", "8", "--admission", "shed-oldest"],
     "--admission needs --max-pending or --deadline-ms"),
    # A KV budget that cannot hold one batch.
    (["serve", "--requests", "8", "--max-pending", "8", "--kv-frac", "0.01"],
     "needs 0.068 GB of KV but the budget is 0.010 GB"),
    (["telemetry", "--window-ms", "nan"],
     "window_us must be finite and positive, got nan"),
    (["telemetry", "--window-ms", "inf"],
     "window_us must be finite and positive, got inf"),
    (["telemetry", "--slo-p99-ms", "nan"],
     "latency_threshold_ms must be finite and positive, got nan"),
]


class TestCliTree:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_options_and_defaults_unchanged(self, command):
        from repro.cli import build_parser

        args = build_parser().parse_args([command])
        table = {
            " ".join(a.option_strings) or a.dest: getattr(args, a.dest)
            for a in args.parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert table == OPTIONS[command]

    def test_help_lists_every_subcommand(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in OPTIONS:
            assert re.search(rf"^\s+{command}\b", out, re.MULTILINE), command

    def test_experiments_help_lists_every_figure(self, capsys):
        from repro.cli import _FIGURE_NAMES, main
        from repro.experiments.figures import ALL_FIGURES

        assert _FIGURE_NAMES == tuple(ALL_FIGURES)
        with pytest.raises(SystemExit):
            main(["experiments", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"Choices: {', '.join(ALL_FIGURES)}" in out

    def test_serve_spelling_matches_bare_flags(self, capsys):
        from repro.cli import main

        flags = ["--requests", "8", "--rate", "200", "--max-pending", "4",
                 "--admission", "shed-by-deadline", "--deadline-ms", "50"]
        assert main(["serve", *flags]) == 0
        spelled = capsys.readouterr().out
        assert main(flags) == 0
        assert capsys.readouterr().out == spelled
        assert "latency ms:" in spelled

    @pytest.mark.parametrize("argv, message", _BAD_VALUES,
                             ids=[" ".join(argv) for argv, _ in _BAD_VALUES])
    def test_bad_values_are_usage_errors(self, argv, message, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ": error: " in err.splitlines()[-1]
        assert message in err.splitlines()[-1]

    @pytest.mark.parametrize("argv, line", [
        (["serve", "--requests", "8", "--rate", "40"], "latency ms: mean="),
        (["faults", "--requests", "8", "--straggler", "1:4.0:0:400"],
         "resilience report:"),
        (["trace", "--requests", "8", "--out", "t.json",
          "--metrics-out", "m.prom", "--snapshot-out", "s.json"],
         "merged trace written to t.json: "),
        (["telemetry", "--requests", "8", "--series-out", "s.json"],
         "windowed series written to s.json"),
        (["experiments", "table1", "--scale", "smoke"], "=== table1: "),
    ], ids=["serve", "faults", "trace", "telemetry", "experiments"])
    def test_every_subcommand_runs(self, argv, line, capsys, tmp_path,
                                   monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert line in capsys.readouterr().out
