#!/usr/bin/env python3
"""Observability: one merged Perfetto timeline plus Prometheus metrics.

Serves decode-heavy bursty traffic at roughly twice the sustainable rate
through a scaled OPT-30B on a simulated 4xV100 node, with admission
control armed so the run actually sheds — then exports everything the
observability layer saw:

* ``observability-trace.json`` — the merged Chrome/Perfetto timeline:
  kernel slices (one process per GPU), per-request spans
  (queued/prefill/decode, one thread per request), and control instants
  (sheds, timeouts) on a single time axis.  Load it at
  https://ui.perfetto.dev or chrome://tracing.
* ``observability-metrics.prom`` — Prometheus text exposition; its
  request-outcome counters read the run's ``ServingMetrics``.
* ``observability-snapshot.json`` — the JSON snapshot: counters,
  heartbeat-sampled gauges, histograms, and span summaries.

The run asserts its own outputs: both exports are non-empty and
JSON-valid, the trace contains all three event classes, and the
registry's terminal-request counters match the serving layer's.

Run:
    python examples/observability.py
"""

import json

from repro import OverloadConfig, v100_nvlink_node
from repro.models import OPT_30B
from repro.obs import Observability, validate_merged_trace
from repro.serving import BurstyProcess, Server
from repro.serving.api import make_strategy
from repro.serving.workload import generative_trace

MODEL = OPT_30B.scaled_layers(6)
NODE = v100_nvlink_node(4)
N = 512

TRACE_PATH = "observability-trace.json"
METRICS_PATH = "observability-metrics.prom"
SNAPSHOT_PATH = "observability-snapshot.json"


def main() -> None:
    print(f"Serving {N} bursty decode requests on {NODE.name} "
          f"({NODE.num_gpus} GPUs) with observability armed\n")

    # Batch-8 decode steps over a 256-token context at a 4000 req/s mean
    # rate, arriving in 6x-rate bursts: ~2x what the node can sustain.
    workload = generative_trace(
        N, 4000.0, batch_size=8, context_len=256, seed=0,
        arrival=BurstyProcess(4000.0, burstiness=6.0, phase_requests=64),
    )
    obs = Observability()
    server = Server(
        MODEL, NODE, make_strategy("intra", MODEL, NODE),
        check_memory=False, record_trace=True,
        overload=OverloadConfig(
            max_pending_requests=32,
            policy="shed-oldest",
            default_deadline_us=100_000.0,  # 100 ms SLO
        ),
        observability=obs,
    )
    result = server.run(workload)

    m = result.metrics
    print(f"served {m.num_completed}/{N}, {m.shed_requests} shed, "
          f"{m.timed_out_requests} timed out, "
          f"{len(obs.events)} events published\n")

    counts = obs.save_merged_trace(TRACE_PATH, trace=result.trace)
    obs.save_prometheus(METRICS_PATH)
    obs.save_snapshot(SNAPSHOT_PATH)
    print(f"{TRACE_PATH}: {counts['kernel']} kernel slice(s), "
          f"{counts['span']} request span segment(s), "
          f"{counts['instant']} control instant(s)")
    print(f"{METRICS_PATH}: Prometheus text exposition")
    print(f"{SNAPSHOT_PATH}: counters + gauge samples + spans")

    # The example doubles as a smoke test: validate everything it wrote.
    with open(TRACE_PATH) as fh:
        trace_obj = json.load(fh)  # JSON-valid
    assert trace_obj["traceEvents"], "merged trace must be non-empty"
    reread = validate_merged_trace(trace_obj)
    assert reread["kernel"] > 0, "kernel slices missing from the timeline"
    assert reread["span"] > 0, "request spans missing from the timeline"
    assert reread["instant"] > 0, "control instants missing from the timeline"

    with open(METRICS_PATH) as fh:
        prom = fh.read()
    assert "repro_requests_terminal_total" in prom

    with open(SNAPSHOT_PATH) as fh:
        snapshot = json.load(fh)  # JSON-valid
    assert snapshot["samples"], "heartbeat gauge samples missing"

    # The registry's terminal-request counters read the serving layer's
    # ServingMetrics.
    terminal = obs.registry._counters["repro_requests_terminal_total"]
    assert terminal.value(state="completed") == m.num_completed
    assert terminal.value(state="shed") == m.shed_requests
    assert terminal.value(state="timed_out") == m.timed_out_requests

    print("\nAll exports validated: one timeline, three event classes, "
          "and Prometheus counters that agree with ServingMetrics.")


if __name__ == "__main__":
    main()
