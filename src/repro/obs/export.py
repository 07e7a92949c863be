"""One merged Chrome/Perfetto timeline: kernels + request spans + instants.

The paper's claims are timeline claims — overlap of comm and compute
kernels (Fig. 10), comm-time fraction (Fig. 3), Principle-1 windows (§3.5)
— and the serving story on top of them (queueing, shedding, preemption,
strategy changes) only makes sense on the *same* axis.  This module interleaves
three event classes into one ``traceEvents`` array that Perfetto /
``chrome://tracing`` loads directly:

* **kernel slices** — ``ph: "X"`` rows from the simulator's
  :class:`~repro.sim.tracing.Trace`, one process per GPU (its
  ``chrome_events``);
* **request spans** — ``ph: "X"`` rows from the span builder, process
  ``requests``, one thread per request, segments named
  ``queued``/``prefill``/``decode``;
* **control instants** — ``ph: "i"`` markers on process ``serving`` for
  every shed, timeout, preemption, retry, strategy change, and
  Principle-1 violation, plus ``X`` rows for the armed fault
  windows.

Timestamps are simulation microseconds throughout, which is exactly the
unit the Chrome trace format expects.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.events import Event
from repro.obs.spans import RequestSpan

__all__ = [
    "span_chrome_events",
    "instant_chrome_events",
    "fault_window_chrome_events",
    "merged_chrome_trace",
    "validate_merged_trace",
    "summarize_trace",
]

#: Event kinds rendered as control instants on the merged timeline.
INSTANT_KINDS = frozenset(
    {
        "shed",
        "timed-out",
        "preempted",
        "retry",
        "principle1-violation",
        "slo-burn-alert",
        "slo-alert-resolved",
    }
)

_SPAN_PID = "requests"
_CONTROL_PID = "serving"


def span_chrome_events(spans: Sequence[RequestSpan]) -> List[dict]:
    """Duration rows for every request-span segment, one thread per request."""
    events: List[dict] = []
    for span in spans:
        tid = f"req{span.rid}"
        for seg in span.segments:
            events.append(
                {
                    "name": seg.name,
                    "cat": "request",
                    "ph": "X",
                    "ts": seg.start_us,
                    "dur": seg.duration_us,
                    "pid": _SPAN_PID,
                    "tid": tid,
                    "args": {
                        "rid": span.rid,
                        "state": span.state,
                        "batches": span.batch_ids,
                    },
                }
            )
    return events


def instant_chrome_events(events: Iterable[Event]) -> List[dict]:
    """Instant markers for the control-plane events (sheds, trips, ...)."""
    out: List[dict] = []
    for ev in events:
        if ev.kind not in INSTANT_KINDS:
            continue
        args = ev.to_dict()
        args.pop("kind", None)
        args.pop("time_us", None)
        out.append(
            {
                "name": ev.kind,
                "cat": "control",
                "ph": "i",
                "ts": ev.time_us,
                "pid": _CONTROL_PID,
                "tid": "control",
                "s": "p",
                "args": args,
            }
        )
    return out


def fault_window_chrome_events(
    windows: Sequence[Tuple[str, float, float]]
) -> List[dict]:
    """Duration rows for armed fault windows (name, start_us, end_us)."""
    events: List[dict] = []
    for name, start, end in windows:
        if end <= start:
            raise ConfigError(f"fault window {name!r}: empty span [{start}, {end})")
        events.append(
            {
                "name": name,
                "cat": "control",
                "ph": "X",
                "ts": start,
                "dur": end - start,
                "pid": _CONTROL_PID,
                "tid": "faults",
                "args": {},
            }
        )
    return events


def merged_chrome_trace(
    *,
    spans: Sequence[RequestSpan] = (),
    events: Iterable[Event] = (),
    trace=None,
    fault_windows: Sequence[Tuple[str, float, float]] = (),
) -> Dict[str, object]:
    """Build the merged trace object (call ``json.dumps`` to serialize).

    ``trace`` is an optional :class:`~repro.sim.tracing.Trace`; kernel
    slices are taken from its :meth:`~repro.sim.tracing.Trace.chrome_events`.
    """
    rows: List[dict] = []
    if trace is not None:
        rows.extend(trace.chrome_events())
    rows.extend(span_chrome_events(spans))
    rows.extend(instant_chrome_events(events))
    rows.extend(fault_window_chrome_events(fault_windows))
    rows.sort(key=lambda e: (e["ts"], str(e["pid"]), str(e["tid"])))
    return {"traceEvents": rows, "displayTimeUnit": "ms"}


def validate_merged_trace(obj) -> Dict[str, int]:
    """Check a merged trace parses into the three event classes.

    Accepts the trace as a dict (already parsed) or a JSON string.  Returns
    counts per class — ``kernel`` (GPU slices), ``span`` (request
    segments), ``instant`` (control markers) — and raises
    :class:`~repro.errors.ConfigError` on malformed input.  Used by the
    example, the CI job, and the golden tests.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ConfigError("not a Chrome trace: missing 'traceEvents'")
    counts = {"kernel": 0, "span": 0, "instant": 0, "fault": 0}
    for row in obj["traceEvents"]:
        for key in ("name", "ph", "ts", "pid"):
            if key not in row:
                raise ConfigError(f"trace event missing {key!r}: {row!r}")
        pid = str(row["pid"])
        if pid.startswith("gpu"):
            counts["kernel"] += 1
        elif pid == _SPAN_PID:
            counts["span"] += 1
        elif pid == _CONTROL_PID and row["ph"] == "i":
            counts["instant"] += 1
        elif pid == _CONTROL_PID:
            counts["fault"] += 1
    return counts


def summarize_trace(path: str) -> str:
    """Parse an existing merged trace and render its per-class counts."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    counts = validate_merged_trace(obj)
    total = len(obj["traceEvents"])
    lines = [f"{path}: {total} event(s)"]
    lines.append(f"  kernel slices:    {counts['kernel']}")
    lines.append(f"  request spans:    {counts['span']}")
    lines.append(f"  control instants: {counts['instant']}")
    if counts["fault"]:
        lines.append(f"  fault windows:    {counts['fault']}")
    return "\n".join(lines)
