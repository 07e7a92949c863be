"""Smoke test of the benchmark itself; not part of the tier-1 suite.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

Runs every workload at a tiny request count (two repeats plus the traced
run, about a minute in all) and checks that the oracle passes, that the
outcome repeats, that every metric ``BENCHMARK.json`` names is emitted with
its unit, that every module of ``repro`` belongs to exactly one layer, and
that the benchmark fails, printing no result, where ``src/repro`` is
missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench.compare import verdict
from bench.layers import LAYERS, layer_of, module_name
from bench.run import ROOT, run
from bench.workloads import WORKLOADS


@pytest.fixture(scope="module")
def summaries():
    return run(list(WORKLOADS), seed=3, repeats=2, trace=True, requests=32)


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_oracle_passes_and_outcome_repeats(summaries):
    for name, summary in summaries.items():
        assert summary["correct"], (name, summary["problems"])
        assert summary["failed"] == 0
        # Two untraced repeats and the traced run: 3 × 32 requests.
        assert summary["attempted"] == 3 * 32
        for metric, values in summary["samples"].items():
            if metric.startswith("sim_"):
                assert len(set(values)) == 1, (name, metric, values)


def test_every_listed_metric_is_emitted_with_its_unit(summaries, spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for summary in summaries.values():
        for kind, emitted in (("end_to_end", summary["metrics"]),
                              ("per_layer", summary["layer_metrics"])):
            for metric in spec[kind]:
                assert metric["name"] in emitted, metric["name"]
                assert emitted[metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "decode_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_module_maps_to_exactly_one_layer():
    prefixes = [p for layer in LAYERS.values() for p in layer]
    assert len(prefixes) == len(set(prefixes)), "a prefix is listed twice"
    package = ROOT / "src" / "repro"
    modules = [module_name(str(p), str(package)) for p in package.rglob("*.py")]
    assert modules
    unmapped = [m for m in modules if layer_of(m) is None]
    assert not unmapped, f"modules outside every layer: {unmapped}"


@pytest.mark.parametrize(
    "base, new, expected",
    [
        ([1.0, 1.01, 0.99, 1.0], [1.02, 0.98, 1.0, 1.01], "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "worse"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "better"),
        ([1.0, 1.5, 0.6, 1.2], [1.0, 1.01, 0.99, 1.0], "unresolved"),
    ],
)
def test_compare_verdicts(base, new, expected):
    assert verdict(base, new, higher_better=False, bound=0.1,
                   exact=False) == expected
