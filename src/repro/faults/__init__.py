"""Fault injection and graceful recovery for the Liger reproduction.

Production inference violates the assumptions Liger's schedule is built on:
GPUs throttle, links degrade, launches fail, hosts jitter.  This package
makes those conditions first-class — deterministically injectable, observable,
and survivable:

* :mod:`repro.faults.plan` — declarative fault windows
  (:class:`GpuStraggler`, :class:`LinkDegradation`, :class:`LaunchFailure`,
  :class:`HostJitter`) grouped in a :class:`FaultPlan`.
* :mod:`repro.faults.injector` — :class:`FaultInjector` binds a plan to a
  machine's hook sites (kernel rates, interconnect bandwidth, launch path).
* :mod:`repro.faults.watchdog` — :class:`Watchdog` turns livelocks into
  diagnostic :class:`~repro.errors.DeadlockError`.
* :mod:`repro.faults.resilience` — :class:`RecoveryManager` applies retry
  with backoff and shedding, counts Principle-1 violations through
  :class:`repro.core.PrincipleMonitor`, and arms the watchdog, summarised
  in a :class:`ResilienceReport`.

Typical use goes through the serving layer::

    from repro import serve, FaultPlan, GpuStraggler
    result = serve(model, node, strategy="liger",
                   fault_plan=FaultPlan([GpuStraggler(start=0, end=50_000,
                                                      gpu=1, factor=3.0)]))
    print(result.resilience.describe())
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "Fault": "plan",
    "FaultPlan": "plan",
    "GpuStraggler": "plan",
    "LinkDegradation": "plan",
    "LaunchFailure": "plan",
    "HostJitter": "plan",
    "plan_from_specs": "plan",
    "FaultInjector": "injector",
    "Watchdog": "watchdog",
    "RecoveryManager": "resilience",
    "ResilienceConfig": "resilience",
    "ResilienceReport": "resilience",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
