#!/usr/bin/env python3
"""Telemetry: SLO burn-rate alerts and critical-path analytics on an
overloaded single-node run.

Serves a seeded workload through an 8-layer OPT-30B on a simulated 4xV100
node at a request rate well past what the node can serve on time, with
the telemetry store and two SLO policies armed:

* ``latency-p99`` — completed requests must finish under 50 ms; under
  this overload nearly every window blows through it, so the fast
  burn-rate window (Google SRE style: long AND short spans over the
  threshold) must page.
* ``availability`` — sheds/timeouts burn the error budget.

Artifacts:

* ``telemetry-series.json`` — the windowed time-series dump.
* ``telemetry-metrics.prom`` — end-of-run Prometheus exposition
  (includes ``repro_slo_alerts_total``).
* ``telemetry-timeline.json`` — merged Perfetto timeline; the fired
  alerts appear as ``slo-burn-alert`` control instants.
* ``telemetry-report.txt`` — the critical-path report: per-GPU
  compute/comm/contention/idle attribution plus ranked top segments.

The run asserts its own outputs: at least one fast-burn alert fired, the
alert is visible in both the Prometheus export and the merged timeline,
and every lane's attribution sums to the run makespan.

Run:
    python examples/telemetry_alerts.py
"""

import json

from repro import v100_nvlink_node
from repro.models import OPT_30B
from repro.obs import Observability, ObservabilityConfig, validate_merged_trace
from repro.obs.slo import BurnRule, SloPolicy
from repro.serving.api import serve

MODEL = OPT_30B.scaled_layers(8)
NODE = v100_nvlink_node(4)
RATE = 2000.0  # req/s: well past the node's on-time capacity
N = 96

SERIES_PATH = "telemetry-series.json"
METRICS_PATH = "telemetry-metrics.prom"
TIMELINE_PATH = "telemetry-timeline.json"
REPORT_PATH = "telemetry-report.txt"


def main() -> None:
    policies = (
        SloPolicy(
            "latency-p99",
            objective="latency",
            target=0.99,
            latency_threshold_ms=50.0,
            fast=BurnRule("fast", long_windows=4, short_windows=2, threshold=10.0),
        ),
        SloPolicy("availability", target=0.99),
    )
    obs = Observability(
        ObservabilityConfig(telemetry=True, window_us=50_000.0, slo_policies=policies)
    )
    print(f"Serving {N} requests at {RATE:.0f} req/s on {NODE.name} "
          f"({NODE.num_gpus} GPUs), seed 7\n")
    result = serve(
        MODEL,
        NODE,
        strategy="intra",
        arrival_rate=RATE,
        num_requests=N,
        batch_size=2,
        seed=7,
        record_trace=True,
        observability=obs,
    )
    print(result.summary())

    # ------------------------------------------------------------------
    # Alerts: the overloaded node must page.
    # ------------------------------------------------------------------
    print()
    print(obs.slo.alert_table())
    fast_alerts = [a for a in obs.slo.alerts if a.severity == "fast"]
    assert fast_alerts, "expected at least one fast-window burn-rate alert"

    # ------------------------------------------------------------------
    # Critical path: attribution must partition the makespan exactly.
    # ------------------------------------------------------------------
    path_report = obs.critical_path(result.trace)
    with open(REPORT_PATH, "w", encoding="utf-8") as fh:
        fh.write(path_report.describe())
    print(path_report.describe())
    for lane in path_report.per_gpu:
        drift = abs(lane.total_us - path_report.makespan_us)
        assert drift < 1e-6 * max(1.0, path_report.makespan_us), (
            f"{lane.lane}: attribution {lane.total_us} != makespan "
            f"{path_report.makespan_us}"
        )

    # ------------------------------------------------------------------
    # Exports, validated.
    # ------------------------------------------------------------------
    obs.save_series(SERIES_PATH)
    obs.save_prometheus(METRICS_PATH)
    counts = obs.save_merged_trace(TIMELINE_PATH, trace=result.trace)
    print(f"{SERIES_PATH}: windowed time-series")
    print(f"{METRICS_PATH}: Prometheus text exposition")
    print(f"{TIMELINE_PATH}: {counts['kernel']} kernel slice(s), "
          f"{counts['span']} span segment(s), {counts['instant']} instant(s)")
    print(f"{REPORT_PATH}: critical-path report")

    with open(METRICS_PATH) as fh:
        prom = fh.read()
    assert 'repro_slo_alerts_total{policy="latency-p99",severity="fast"}' in prom, (
        "fast-burn alert missing from the Prometheus export"
    )

    with open(TIMELINE_PATH) as fh:
        timeline = json.load(fh)
    alert_instants = [
        ev for ev in timeline["traceEvents"] if ev.get("name") == "slo-burn-alert"
    ]
    assert alert_instants, "slo-burn-alert instant missing from the timeline"
    validate_merged_trace(timeline)

    with open(SERIES_PATH) as fh:
        series = json.load(fh)
    assert series["windows"], "telemetry store recorded no windows"
    burn_series = obs.telemetry.series(
        "repro_slo_burn_rate", policy="latency-p99", severity="fast"
    )
    assert burn_series, "burn-rate series missing from the store"

    print(
        f"\nAll checks passed: {len(fast_alerts)} fast-burn alert(s) fired, "
        f"visible in the Prometheus export and as {len(alert_instants)} "
        f"timeline instant(s); attribution sums to the makespan on "
        f"{len(path_report.per_gpu)} lane(s)."
    )


if __name__ == "__main__":
    main()
