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
* :mod:`repro.faults.monitor` — :class:`PrincipleMonitor` detects executed
  rounds whose secondary subset outlived the primary (Principle 1, §3.5).
* :mod:`repro.faults.resilience` — :class:`RecoveryManager` applies retry
  with backoff, strategy degradation, and recovery probing, summarised in a
  :class:`ResilienceReport`.

Typical use goes through the serving layer::

    from repro import serve, FaultPlan, GpuStraggler
    result = serve(model, node, strategy="liger",
                   fault_plan=FaultPlan([GpuStraggler(start=0, end=50_000,
                                                      gpu=1, factor=3.0)]))
    print(result.resilience.describe())
"""

from repro.faults.injector import FaultInjector
from repro.faults.monitor import PrincipleMonitor
from repro.faults.plan import (
    Fault,
    FaultPlan,
    GpuStraggler,
    HostJitter,
    LaunchFailure,
    LinkDegradation,
    plan_from_specs,
)
from repro.faults.resilience import (
    RecoveryManager,
    ResilienceConfig,
    ResilienceReport,
    StrategyChange,
)
from repro.faults.watchdog import Watchdog

__all__ = [
    "Fault",
    "FaultPlan",
    "GpuStraggler",
    "LinkDegradation",
    "LaunchFailure",
    "HostJitter",
    "plan_from_specs",
    "FaultInjector",
    "PrincipleMonitor",
    "Watchdog",
    "RecoveryManager",
    "ResilienceConfig",
    "ResilienceReport",
    "StrategyChange",
]
