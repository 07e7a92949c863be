"""Declarative fault plans: *what* goes wrong, *where*, and *when*.

Liger's interleaving is only as good as its assumptions: Principle 1 (§3.5)
holds when the offline-profiled contention factors match reality, and the
hybrid synchronization schedule assumes launch overheads near the profiled
~5 µs.  A production node violates those assumptions routinely — a thermally
throttled GPU, a driver hiccup failing a launch.  A :class:`FaultPlan`
describes such conditions as windows in *simulated* time so the recovery
layer (retry/backoff, violation accounting) can be exercised
deterministically:

* :class:`GpuStraggler` — SM-clock throttling on one device: compute-like
  kernels on that GPU run ``factor``× slower.  Bandwidth-bound collectives
  are left untouched (NVLink/PCIe rates do not track the SM clock), which is
  precisely what breaks Principle 1: a compute secondary subset outlives its
  communication window.
* :class:`LaunchFailure` — transient kernel-launch failures: every batch
  submission attempted inside the window fails with
  :class:`~repro.errors.FaultError` and must be retried with backoff.

Every fault is a half-open window ``[start, end)`` in µs; plans carry no
randomness of their own, so a given plan replays identically — the property
all fault tests rely on.

Validation: besides per-fault parameter checks, :class:`FaultPlan` rejects
two windows that overlap *on the same target* (same GPU, the launch path)
with a :class:`~repro.errors.ConfigError` naming both offending windows:
composed factors would be impossible to name in a report.  Windows on
*different* targets may overlap freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "Fault",
    "GpuStraggler",
    "LaunchFailure",
    "FaultPlan",
    "build_plan",
]


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
        if not isinstance(self.gpu, int) or isinstance(self.gpu, bool):
            raise ConfigError(f"straggler gpu must be an int, got {self.gpu!r}")
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
class LaunchFailure(Fault):
    """Transient kernel-launch failures over the window.

    Every batch submission attempted while active raises
    :class:`~repro.errors.FaultError`; the retry layer backs off until the
    window passes (or the retry budget runs out).
    """

    def describe(self) -> str:
        """One-line human description."""
        return f"launch-fail[{self.start:.0f}..{self.end:.0f}us]"


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
        self._launch = [f for f in self.faults if isinstance(f, LaunchFailure)]

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

    def launch_failing(self, now: float) -> bool:
        """True when a transient launch-failure window is active."""
        return any(f.active(now) for f in self._launch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({', '.join(f.describe() for f in self.faults) or 'empty'})"


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


def build_plan(stragglers: Sequence[str], launch_fails: Sequence[str]) -> FaultPlan:
    """Parse the CLI fault specs (windows in ms) into a :class:`FaultPlan`.

    Spec formats — ``--straggler GPU:FACTOR:START:END`` and
    ``--launch-fail START:END``.
    """
    faults: List[Fault] = []
    for spec in stragglers:
        gpu, factor, start, end = _split(spec, 4, "--straggler")
        if not gpu.is_integer():
            raise ConfigError(f"--straggler: GPU must be an integer, got {spec!r}")
        faults.append(
            GpuStraggler(start=start * _MS, end=end * _MS, gpu=int(gpu), factor=factor)
        )
    for spec in launch_fails:
        start, end = _split(spec, 2, "--launch-fail")
        faults.append(LaunchFailure(start=start * _MS, end=end * _MS))
    return FaultPlan(faults)
