"""Offline profiling: no-load kernel durations and contention factors (§3.5).

The preprocessing phase's offline procedure (Fig. 5): collect runtime traces
and contention factors once, before deployment.
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "OpProfiler": "profiler",
    "op_key": "profiler",
    "ContentionFactors": "contention_profiler",
    "ContentionProfiler": "contention_profiler",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
