"""Multiprocess perf fan-out: determinism contract + counter export.

The merge contract of :mod:`repro.perf.fanout` is that a fanned-out suite
differs from a sequential run *only* in wall-clock-derived fields and the
``fanout_workers`` provenance counter — every deterministic field (event
counts, simulated time, cache counters) must be identical,
because each scenario derives all randomness from its baked-in seeds and
workers start from fresh interpreter state.

These tests run a 2-scenario subset at smoke scale with one repeat per
arm: enough to cross the process boundary for real while staying inside
tier-1 time budgets.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.perf.fanout import ENV_WORKERS, fanout_map, run_suite_fanout
from repro.perf.harness import run_suite

#: Fields legitimately allowed to differ between sequential and fanned runs:
#: wall-clock measurements and counters derived from them, plus the fan-out
#: provenance marker itself.
WALL_DERIVED = frozenset(
    {
        "wall_s",
        "events_per_sec",
        "wall_per_sim_s",
        "speedup",
        "assembly_build_seconds",
        "plan_build_seconds",
        "fanout_workers",
    }
)

SUBSET = ["steady_decode", "moe_prefill"]


def _strip_wall(obj):
    """Recursively drop wall-derived fields from a results document."""
    if isinstance(obj, dict):
        return {
            k: _strip_wall(v) for k, v in obj.items() if k not in WALL_DERIVED
        }
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


@pytest.fixture(scope="module")
def suite_pair():
    sequential = run_suite("smoke", only=SUBSET, repeats=1)
    fanned = run_suite_fanout("smoke", workers=2, only=SUBSET, repeats=1)
    return sequential, fanned


class TestFanoutDeterminism:
    def test_deterministic_fields_identical(self, suite_pair):
        sequential, fanned = suite_pair
        assert _strip_wall(sequential) == _strip_wall(fanned)

    def test_scenario_order_canonical(self, suite_pair):
        sequential, fanned = suite_pair
        assert list(fanned["scenarios"]) == list(sequential["scenarios"]) == SUBSET

    def test_fanout_provenance_recorded(self, suite_pair):
        """Fanned cells record the worker count; sequential cells record 0."""
        sequential, fanned = suite_pair

        def workers_of(cell):
            arm = cell.get("cache_on", cell)
            return arm.get("counters", {}).get("fanout_workers")

        for name in SUBSET:
            assert workers_of(fanned["scenarios"][name]) == 2
            assert workers_of(sequential["scenarios"][name]) == 0


class TestFanoutValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_suite_fanout("smoke", workers=2, only=["no_such_scenario"])

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError):
            fanout_map(len, [()], workers=0)

    def test_workers_clamped_to_items(self):
        """More workers than items degrades gracefully (pool of len(items))."""
        out = fanout_map(len, [(1, 2), (3,)], workers=8)
        assert out == [2, 1]

    def test_env_var_name_stable(self):
        """The worker-announcement env var is API: counters and gauges key
        off it (``fanout_workers`` / ``repro_perf_fanout_workers``)."""
        assert ENV_WORKERS == "LIGER_FANOUT_WORKERS"
