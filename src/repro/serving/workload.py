"""Workload generators: the paper's evaluation traces.

* **General tasks** (§4.2): randomly generated traces with sequence lengths
  uniform in [16, 128], batch sizes 2/4/8, served at a swept constant rate.
* **Generative tasks** (§4.3): repeated single decode iterations with a
  context ("starting point") of 16 tokens and a batch size of 32.

Requests are grouped into fixed-size batches in arrival order; a batch forms
when its last member arrives (the batching delay lands in pending time).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.serving.arrival import ArrivalProcess, ConstantRate
from repro.serving.request import Batch, Phase, Request

__all__ = ["general_trace", "generative_trace", "pack_batches"]


def pack_batches(requests: Sequence[Request], batch_size: int) -> List[Batch]:
    """Group requests into consecutive fixed-size batches (arrival order).

    A trailing partial batch is kept — real systems don't drop stragglers.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    ordered = sorted(requests, key=lambda r: r.arrival)
    return [
        Batch(requests=list(ordered[i : i + batch_size]))
        for i in range(0, len(ordered), batch_size)
    ]


def general_trace(
    num_requests: int,
    rate: float,
    batch_size: int,
    *,
    seq_range: tuple = (16, 128),
    seed: int = 0,
    arrival: Optional[ArrivalProcess] = None,
) -> List[Batch]:
    """The §4.2 workload: random sequence lengths at a constant rate.

    Parameters
    ----------
    num_requests:
        Total requests in the trace (the paper uses 2000; benchmarks here
        use fewer — the simulator is deterministic, so steady state needs
        far fewer samples).
    rate:
        Request arrival rate (requests/second).
    batch_size:
        Serving batch size (2, 4, or 8 in the paper).
    seq_range:
        Inclusive uniform range of request sequence lengths.
    seed:
        RNG seed for sequence lengths (arrivals are deterministic).
    arrival:
        Override the arrival process (defaults to :class:`ConstantRate`).
    """
    if num_requests < 1:
        raise ConfigError("num_requests must be >= 1")
    lo, hi = seq_range
    if not 1 <= lo <= hi:
        raise ConfigError(f"invalid seq_range {seq_range}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    proc = arrival or ConstantRate(rate)
    times = proc.arrivals(num_requests)
    rng = np.random.default_rng(seed)
    seqs = rng.integers(lo, hi + 1, size=num_requests)
    requests = [
        Request(rid=i, arrival=times[i], seq_len=int(seqs[i]), phase=Phase.PREFILL)
        for i in range(num_requests)
    ]
    return pack_batches(requests, batch_size)


def generative_trace(
    num_requests: int,
    rate: float,
    *,
    batch_size: int = 32,
    context_len: int = 16,
    seed: int = 0,
    arrival: Optional[ArrivalProcess] = None,
) -> List[Batch]:
    """The §4.3 workload: single-token decode steps over a short context.

    Each request is one token of incremental sampling against a KV cache of
    ``context_len`` tokens (the paper's "sequence length of 16 as the
    starting point ... batch size of 32").
    """
    if num_requests < 1:
        raise ConfigError("num_requests must be >= 1")
    if context_len < 1:
        raise ConfigError("context_len must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    proc = arrival or ConstantRate(rate)
    times = proc.arrivals(num_requests)
    requests = [
        Request(
            rid=i,
            arrival=times[i],
            seq_len=1,
            phase=Phase.DECODE,
            context_len=context_len,
        )
        for i in range(num_requests)
    ]
    del seed  # decode traces have no random dimension today; kept for symmetry
    return pack_batches(requests, batch_size)
