"""Declarative fault plans: *what* goes wrong, *where*, and *when*.

Liger's interleaving is only as good as its assumptions: Principle 1 (§3.5)
holds when the offline-profiled contention factors match reality, and the
hybrid synchronization schedule assumes launch overheads near the profiled
~5 µs.  A production node violates those assumptions routinely — a thermally
throttled GPU, a degraded NVLink/PCIe link, a driver hiccup failing a launch,
a jittery host.  A :class:`FaultPlan` describes such conditions as windows in
*simulated* time so the recovery layer (watchdog, retry/backoff, violation
accounting) can be exercised deterministically:

* :class:`GpuStraggler` — SM-clock throttling on one device: compute-like
  kernels on that GPU run ``factor``× slower.  Bandwidth-bound collectives
  are left untouched (NVLink/PCIe rates do not track the SM clock), which is
  precisely what breaks Principle 1: a compute secondary subset outlives its
  communication window.
* :class:`LinkDegradation` — the interconnect delivers only ``fraction`` of
  its nominal bandwidth; collectives issued during the window are costed at
  the reduced rate (hooked into
  :class:`~repro.sim.interconnect.CollectiveCostModel`).
* :class:`LaunchFailure` — transient kernel-launch failures: every batch
  submission attempted inside the window fails with
  :class:`~repro.errors.FaultError` and must be retried with backoff.
* :class:`HostJitter` — the host launch path becomes noisy: each submitted
  command's device visibility is delayed by a deterministic jitter of up to
  ``amplitude`` µs.

Every fault is a half-open window ``[start, end)`` in µs; plans carry no
randomness of their own, so a given plan replays identically — the property
all fault tests rely on.

Validation: besides per-fault parameter checks, :class:`FaultPlan` rejects
two windows that overlap *on the same target* (same GPU, the one shared
link, ...).  Overlapping same-target windows used to compose
silently (factors multiplied mid-window), which made injector behaviour
confusing to reason about and impossible to name in a report; now they are
a :class:`~repro.errors.ConfigError` naming both offending windows.
Windows on *different* targets may overlap freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "Fault",
    "GpuStraggler",
    "LinkDegradation",
    "LaunchFailure",
    "HostJitter",
    "FaultPlan",
    "plan_from_specs",
    "build_plan",
]

#: Deterministic jitter profile: fractions of the amplitude applied to
#: successive submissions (a fixed sawtooth — reproducible, mean ≈ 0.5).
_JITTER_PATTERN: Tuple[float, ...] = (0.25, 0.9, 0.5, 1.0, 0.1, 0.7, 0.35, 0.8)


@dataclass(frozen=True)
class Fault:
    """Base fault: an activity window ``[start, end)`` in simulated µs."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or self.start < 0:
            raise ConfigError(f"fault start must be finite and >= 0, got {self.start}")
        if math.isnan(self.end) or self.end <= self.start:
            raise ConfigError(
                f"fault window [{self.start}, {self.end}) is empty or invalid"
            )

    def active(self, now: float) -> bool:
        """True while the fault window covers ``now``."""
        return self.start <= now < self.end

    def targets(self) -> Tuple[Hashable, ...]:
        """The resources this fault occupies, for overlap validation.

        Two faults sharing any target key may not have overlapping windows.
        The base class claims a per-type singleton target (two windows of
        the same fault kind must be disjoint unless a subclass narrows the
        target to something finer, e.g. one GPU).
        """
        return (type(self).__name__,)

    def describe(self) -> str:
        """One-line human description (used by the ResilienceReport)."""
        return f"{type(self).__name__}[{self.start:.0f}..{self.end:.0f}us]"


@dataclass(frozen=True)
class GpuStraggler(Fault):
    """One device's compute-like kernels run ``factor``× slower.

    Models SM-clock throttling (thermal/power capping): arithmetic kernels
    stretch with the clock while bandwidth-bound collectives barely move —
    the asymmetry that silently breaks Liger's Principle 1.
    """

    gpu: int = 0
    factor: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gpu < 0:
            raise ConfigError(f"straggler gpu must be >= 0, got {self.gpu}")
        if not math.isfinite(self.factor) or self.factor < 1.0:
            raise ConfigError(
                "straggler factor must be finite and >= 1 (a slowdown), "
                f"got {self.factor}"
            )

    def targets(self) -> Tuple[Hashable, ...]:
        """One straggler window per GPU at a time."""
        return (("straggler", self.gpu),)

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"straggler(gpu={self.gpu}, x{self.factor:g})"
            f"[{self.start:.0f}..{self.end:.0f}us]"
        )


@dataclass(frozen=True)
class LinkDegradation(Fault):
    """The interconnect delivers only ``fraction`` of nominal bandwidth.

    Applied at collective-costing time: all-reduce and p2p operations issued
    while the window is active are costed with the degraded bandwidth (see
    ``CollectiveCostModel.bandwidth_scale``).
    """

    fraction: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(
                f"link fraction must be in (0, 1], got {self.fraction}"
            )

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"link(x{self.fraction:g} bw)[{self.start:.0f}..{self.end:.0f}us]"
        )


@dataclass(frozen=True)
class LaunchFailure(Fault):
    """Transient kernel-launch failures over the window.

    Every batch submission attempted while active raises
    :class:`~repro.errors.FaultError`; the retry layer backs off until the
    window passes (or the retry budget runs out).
    """

    def describe(self) -> str:
        """One-line human description."""
        return f"launch-fail[{self.start:.0f}..{self.end:.0f}us]"


@dataclass(frozen=True)
class HostJitter(Fault):
    """Noisy host launch path: per-command visibility delayed by ≤ amplitude µs.

    The delay follows a fixed sawtooth over successive submissions, so runs
    replay deterministically.
    """

    amplitude: float = 5.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ConfigError(
                f"jitter amplitude must be finite and >= 0, got {self.amplitude}"
            )

    def jitter(self, sequence: int) -> float:
        """The delay (µs) applied to the ``sequence``-th jittered submission."""
        return self.amplitude * _JITTER_PATTERN[sequence % len(_JITTER_PATTERN)]

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"jitter(±{self.amplitude:g}us)[{self.start:.0f}..{self.end:.0f}us]"
        )


class FaultPlan:
    """An immutable set of faults plus the time-indexed queries hooks need.

    The plan is pure data — it never touches the engine.  The
    :class:`~repro.faults.injector.FaultInjector` binds it to a machine and
    evaluates these queries at hook sites.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults: List[Fault] = list(faults)
        for f in self.faults:
            if not isinstance(f, Fault):
                raise ConfigError(f"not a Fault: {f!r}")
        self._check_overlaps()
        self._stragglers = [f for f in self.faults if isinstance(f, GpuStraggler)]
        self._links = [f for f in self.faults if isinstance(f, LinkDegradation)]
        self._launch = [f for f in self.faults if isinstance(f, LaunchFailure)]
        self._jitters = [f for f in self.faults if isinstance(f, HostJitter)]

    def _check_overlaps(self) -> None:
        """Reject two windows that overlap on the same target.

        Windows are half-open, so ``[0, 100)`` and ``[100, 200)`` on the
        same target are fine; ``[0, 100)`` and ``[50, 150)`` are not.  The
        error names both offending windows — the whole point over the old
        silent multiplicative composition.
        """
        by_target: Dict[Hashable, List[Fault]] = {}
        for f in self.faults:
            for key in f.targets():
                by_target.setdefault(key, []).append(f)
        for group in by_target.values():
            if len(group) < 2:
                continue
            ordered = sorted(group, key=lambda f: (f.start, f.end))
            for prev, cur in zip(ordered, ordered[1:]):
                if cur.start < prev.end:
                    raise ConfigError(
                        "fault windows overlap on the same target: "
                        f"{prev.describe()} and {cur.describe()}"
                    )

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        """True when the plan injects nothing."""
        return not self.faults

    @property
    def stragglers(self) -> List["GpuStraggler"]:
        """The plan's GPU-straggler faults (for target validation at arm)."""
        return list(self._stragglers)

    def boundaries(self) -> List[float]:
        """Sorted unique window edges — the instants rates must be refreshed."""
        edges = set()
        for f in self.faults:
            edges.add(f.start)
            if math.isfinite(f.end):
                edges.add(f.end)
        return sorted(edges)

    def active(self, now: float) -> List[Fault]:
        """All faults whose window covers ``now``."""
        return [f for f in self.faults if f.active(now)]

    def last_end(self) -> float:
        """Latest finite window edge (0.0 for an empty plan)."""
        ends = [f.end for f in self.faults if math.isfinite(f.end)]
        return max(ends) if ends else 0.0

    # ------------------------------------------------------------------
    # Hook-site queries (all O(#faults of that kind); plans are tiny)
    # ------------------------------------------------------------------
    def compute_inflation(self, gpu: int, now: float) -> float:
        """Combined straggler factor for compute-like kernels on ``gpu``."""
        factor = 1.0
        for f in self._stragglers:
            if f.gpu == gpu and f.active(now):
                factor *= f.factor
        return factor

    def bandwidth_fraction(self, now: float) -> float:
        """Fraction of nominal interconnect bandwidth available at ``now``."""
        fraction = 1.0
        for f in self._links:
            if f.active(now):
                fraction *= f.fraction
        return max(fraction, 1e-6)

    def launch_failing(self, now: float) -> bool:
        """True when a transient launch-failure window is active."""
        return any(f.active(now) for f in self._launch)

    def host_jitter(self, now: float, sequence: int) -> float:
        """Total jitter delay (µs) for the ``sequence``-th submission."""
        return sum(f.jitter(sequence) for f in self._jitters if f.active(now))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({', '.join(f.describe() for f in self.faults) or 'empty'})"


def plan_from_specs(
    stragglers: Sequence[Tuple[int, float, float, float]] = (),
    links: Sequence[Tuple[float, float, float]] = (),
    launch_windows: Sequence[Tuple[float, float]] = (),
    jitters: Sequence[Tuple[float, float, float]] = (),
) -> FaultPlan:
    """Build a plan from plain tuples (the CLI's parsing target).

    ``stragglers``: (gpu, factor, start, end); ``links``: (fraction, start,
    end); ``launch_windows``: (start, end); ``jitters``: (amplitude, start,
    end).
    """
    faults: List[Fault] = []
    faults += [
        GpuStraggler(start=s, end=e, gpu=g, factor=f) for g, f, s, e in stragglers
    ]
    faults += [LinkDegradation(start=s, end=e, fraction=f) for f, s, e in links]
    faults += [LaunchFailure(start=s, end=e) for s, e in launch_windows]
    faults += [HostJitter(start=s, end=e, amplitude=a) for a, s, e in jitters]
    return FaultPlan(faults)


_MS = 1e3  # CLI windows are in ms; the simulator runs in µs.


def _split(spec: str, n: int, flag: str) -> List[float]:
    parts = spec.split(":")
    if len(parts) != n:
        raise ConfigError(
            f"{flag} expects {n} colon-separated fields, got {spec!r}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{flag}: non-numeric field in {spec!r}") from exc


def build_plan(
    stragglers: Sequence[str],
    links: Sequence[str],
    launch_fails: Sequence[str],
    jitters: Sequence[str],
) -> FaultPlan:
    """Parse the CLI fault specs (windows in ms) into a :class:`FaultPlan`.

    Spec formats — ``--straggler GPU:FACTOR:START:END``,
    ``--link FRACTION:START:END``, ``--launch-fail START:END``,
    ``--jitter AMPLITUDE_US:START:END``.
    """
    s_specs = []
    for spec in stragglers:
        gpu, factor, start, end = _split(spec, 4, "--straggler")
        if not gpu.is_integer():
            raise ConfigError(f"--straggler: GPU must be an integer, got {spec!r}")
        s_specs.append((int(gpu), factor, start * _MS, end * _MS))
    l_specs = []
    for spec in links:
        fraction, start, end = _split(spec, 3, "--link")
        l_specs.append((fraction, start * _MS, end * _MS))
    f_specs = []
    for spec in launch_fails:
        start, end = _split(spec, 2, "--launch-fail")
        f_specs.append((start * _MS, end * _MS))
    j_specs = []
    for spec in jitters:
        amplitude, start, end = _split(spec, 3, "--jitter")
        j_specs.append((amplitude, start * _MS, end * _MS))
    return plan_from_specs(
        stragglers=s_specs,
        links=l_specs,
        launch_windows=f_specs,
        jitters=j_specs,
    )
