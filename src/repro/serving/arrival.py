"""Arrival processes: when requests hit the serving system.

The paper sweeps a *constant* request rate ("we use a constant request rate
instead of a fluctuated request rate", §4.2); :class:`ConstantRate` is the
default everywhere.  :class:`BurstyProcess` is the fluctuating-rate
extension the paper mentions but does not evaluate.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.errors import ConfigError
from repro.units import seconds

__all__ = ["ArrivalProcess", "ConstantRate", "BurstyProcess"]


class ArrivalProcess:
    """Interface: produce ``n`` arrival timestamps (µs, sorted)."""

    def arrivals(self, n: int) -> List[float]:
        """Return the first ``n`` arrival times (µs, ascending)."""
        raise NotImplementedError


class ConstantRate(ArrivalProcess):
    """Deterministic arrivals at ``rate`` requests/second.

    The first request arrives at one inter-arrival interval, matching a
    system observed from steady state.
    """

    def __init__(self, rate: float) -> None:
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigError(f"rate must be finite and positive, got {rate}")
        self.rate = rate

    def arrivals(self, n: int) -> List[float]:
        """Evenly spaced arrivals at the configured rate."""
        if n < 0:
            raise ConfigError("n must be >= 0")
        gap = seconds(1.0) / self.rate
        return [gap * (i + 1) for i in range(n)]


class BurstyProcess(ArrivalProcess):
    """Alternating high/low-rate phases — the fluctuating workload the paper
    mentions but does not evaluate (§4.2: "we use a constant request rate
    instead of a fluctuated request rate").

    Real serving traffic bursts.  Interleaved parallelism's advantage window
    widens under bursts: during a burst Liger absorbs the backlog at
    intra-op latency by overlapping the queued batches, while intra-op's
    queue drains only at its lower saturation throughput.

    Parameters
    ----------
    mean_rate:
        Long-run average rate (requests/second).
    burstiness:
        Ratio of burst rate to lull rate (> 1).  Phases hold equal request
        *counts*, so the long-run mean is the harmonic mean of the two
        rates: burst = ``mean·(b+1)/2`` and lull = ``mean·(b+1)/(2b)``.
    phase_requests:
        Number of requests per phase before switching.
    jitter_frac:
        Optional multiplicative jitter on each inter-arrival gap: each gap
        is scaled by a uniform factor in ``[1-j, 1+j]`` drawn from the
        seeded RNG.  ``0.0`` (the default) keeps the process fully
        deterministic and bit-identical to builds without jitter support.
    seed:
        RNG seed for the jitter draws; unused when ``jitter_frac`` is 0.
    """

    def __init__(
        self,
        mean_rate: float,
        *,
        burstiness: float = 4.0,
        phase_requests: int = 8,
        jitter_frac: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not (math.isfinite(mean_rate) and mean_rate > 0):
            raise ConfigError(
                f"mean_rate must be finite and positive, got {mean_rate}"
            )
        if burstiness <= 1.0:
            raise ConfigError("burstiness must be > 1")
        if phase_requests < 1:
            raise ConfigError("phase_requests must be >= 1")
        if not 0.0 <= jitter_frac < 1.0:
            raise ConfigError("jitter_frac must be in [0, 1)")
        self.mean_rate = mean_rate
        self.burst_rate = mean_rate * (burstiness + 1.0) / 2.0
        self.lull_rate = mean_rate * (burstiness + 1.0) / (2.0 * burstiness)
        self.phase_requests = phase_requests
        self.jitter_frac = jitter_frac
        self.seed = seed

    def arrivals(self, n: int) -> List[float]:
        """Alternating burst/lull phases of ``phase_requests`` each."""
        if n < 0:
            raise ConfigError("n must be >= 0")
        rng = (
            np.random.default_rng(self.seed) if self.jitter_frac > 0.0 else None
        )
        out: List[float] = []
        t = 0.0
        in_burst = True
        since_switch = 0
        for _ in range(n):
            rate = self.burst_rate if in_burst else self.lull_rate
            gap = seconds(1.0) / rate
            if rng is not None:
                lo, hi = 1.0 - self.jitter_frac, 1.0 + self.jitter_frac
                gap *= rng.uniform(lo, hi)
            t += gap
            out.append(t)
            since_switch += 1
            if since_switch >= self.phase_requests:
                in_burst = not in_burst
                since_switch = 0
        return out
