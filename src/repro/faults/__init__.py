"""Fault injection and graceful recovery for the Liger reproduction.

Production inference violates the assumptions Liger's schedule is built on:
GPUs throttle and launches fail.  This package makes those conditions
first-class — deterministically injectable, observable, and survivable:

* :mod:`repro.faults.plan` — declarative fault windows
  (:class:`GpuStraggler`, :class:`LaunchFailure`) grouped in a
  :class:`FaultPlan`.
* :mod:`repro.faults.injector` — :class:`FaultInjector` binds a plan to a
  machine's hook sites (kernel rates, launch path).
* :mod:`repro.faults.resilience` — :class:`RecoveryManager` applies retry
  with backoff and shedding and counts Principle-1 violations through
  :class:`repro.core.PrincipleMonitor`, summarised in a
  :class:`ResilienceReport`.

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
    "LaunchFailure": "plan",
    "FaultInjector": "injector",
    "RecoveryManager": "resilience",
    "ResilienceConfig": "resilience",
    "ResilienceReport": "resilience",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
