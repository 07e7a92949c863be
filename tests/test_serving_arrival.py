"""Direct unit tests for the arrival processes.

The serving tests exercise arrivals only indirectly (through a server);
these pin down the contract of each process — count, sortedness,
non-negativity, and determinism under a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving import BurstyProcess, ConstantRate
from repro.units import seconds


def _check_arrival_invariants(times, n):
    assert len(times) == n
    assert all(t >= 0 for t in times)
    assert times == sorted(times)


class TestBurstyProcess:
    def test_invariants(self):
        proc = BurstyProcess(10.0, burstiness=4.0, phase_requests=8)
        times = proc.arrivals(64)
        _check_arrival_invariants(times, 64)
        # Strictly increasing: every gap is a positive inter-arrival.
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mean_rate_is_harmonic_mean_of_phases(self):
        proc = BurstyProcess(10.0, burstiness=4.0, phase_requests=8)
        times = proc.arrivals(160)  # whole number of phase pairs
        observed = len(times) / (times[-1] / seconds(1.0))
        assert observed == pytest.approx(10.0, rel=0.05)

    def test_phases_alternate(self):
        proc = BurstyProcess(10.0, burstiness=4.0, phase_requests=4)
        times = proc.arrivals(8)
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        burst_gaps, lull_gaps = gaps[:4], gaps[4:]
        assert max(burst_gaps) < min(lull_gaps)

    def test_deterministic_without_jitter(self):
        a = BurstyProcess(20.0, burstiness=3.0).arrivals(32)
        b = BurstyProcess(20.0, burstiness=3.0).arrivals(32)
        assert a == b

    def test_jitter_seed_determinism(self):
        kw = dict(burstiness=4.0, phase_requests=8, jitter_frac=0.3)
        a = BurstyProcess(10.0, seed=7, **kw).arrivals(64)
        b = BurstyProcess(10.0, seed=7, **kw).arrivals(64)
        c = BurstyProcess(10.0, seed=8, **kw).arrivals(64)
        assert a == b
        assert a != c
        _check_arrival_invariants(a, 64)
        _check_arrival_invariants(c, 64)

    def test_jitter_perturbs_but_preserves_order(self):
        base = BurstyProcess(10.0).arrivals(32)
        jittered = BurstyProcess(10.0, jitter_frac=0.4, seed=3).arrivals(32)
        assert base != jittered
        assert all(b > a for a, b in zip(jittered, jittered[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            BurstyProcess(0.0)
        with pytest.raises(ConfigError):
            BurstyProcess(10.0, burstiness=1.0)
        with pytest.raises(ConfigError):
            BurstyProcess(10.0, phase_requests=0)
        with pytest.raises(ConfigError):
            BurstyProcess(10.0, jitter_frac=1.0)
        with pytest.raises(ConfigError):
            BurstyProcess(10.0, jitter_frac=-0.1)
        with pytest.raises(ConfigError):
            BurstyProcess(10.0).arrivals(-1)


class TestOtherProcesses:
    def test_constant_rate_spacing(self):
        times = ConstantRate(100.0).arrivals(10)
        _check_arrival_invariants(times, 10)
        gaps = {round(b - a, 6) for a, b in zip(times, times[1:])}
        assert gaps == {round(seconds(1.0) / 100.0, 6)}
