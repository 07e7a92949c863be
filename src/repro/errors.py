"""Exception hierarchy for the Liger reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single type at an API boundary.  The subtypes mirror the subsystems:
simulator faults (deadlock, protocol misuse), configuration mistakes, and
scheduling failures (the condition Liger's contention factors exist to avoid).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeadlockError",
    "StreamProtocolError",
    "OutOfMemoryError",
    "SchedulingError",
    "PartitionError",
    "ProfileMissingError",
    "FaultError",
    "IncompleteRequestError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value (negative sizes, bad enum, ...)."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while work was still pending.

    Raised by :meth:`repro.sim.engine.Engine.run` when streams still hold
    unexecuted commands but no future event can make progress — typically an
    event-wait cycle, or a collective whose peer rank never launched.
    """


class StreamProtocolError(SimulationError):
    """A CUDA-like API was misused (e.g. waiting on an unrecorded event)."""


class OutOfMemoryError(SimulationError):
    """A device-memory reservation exceeded HBM capacity.

    Raised by :class:`repro.sim.memory.DeviceMemory` when weights +
    activations + KV cache no longer fit — the simulated analogue of a CUDA
    OOM during serving.
    """


class SchedulingError(ReproError, RuntimeError):
    """Liger's scheduler produced (or detected) an invalid schedule.

    The paper calls the condition where the secondary kernel subset outlives
    the primary subset a *scheduling failure* (§3.5); the scheduler raises
    this when asked to validate a plan that violates Principle 1.
    """


class PartitionError(ReproError, ValueError):
    """A model cannot be partitioned as requested (heads not divisible, ...)."""


class ProfileMissingError(ReproError, KeyError):
    """A kernel duration or contention factor was requested before profiling."""


class FaultError(SimulationError):
    """An injected fault fired on the path that observed it.

    Raised by :meth:`repro.faults.injector.FaultInjector.check_launch` when a
    transient launch-failure window is active — the simulated analogue of a
    ``cudaErrorLaunchFailure`` that the retry layer is expected to absorb.
    """


class IncompleteRequestError(ReproError, RuntimeError):
    """A per-request result was read before the request reached COMPLETED.

    Raised by :attr:`repro.serving.request.Request.latency` (and the chat
    equivalents) when the request is still pending, or finished in a
    non-completed terminal state (``SHED``/``TIMED_OUT``) — those requests
    have no latency to report.
    """
