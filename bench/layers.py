"""Layers of the simulator, named after its modules, and cProfile attribution.

A layer is a set of modules under ``src/repro``.  :data:`LAYERS` lists each
layer's module prefixes: a prefix ending in ``/`` covers a package, any
other names one module, and the longest matching prefix wins, so
``serving/overload`` belongs to ``overload`` and the rest of ``serving/`` to
``serving``.  ``external`` is everything outside ``repro``.

:func:`attribute` splits a profile's self time across layers.  A function
of ``repro`` keeps its own self time.  The self time of any other function
(stdlib, numpy, builtins) is charged to its callers in proportion to the
time each caller's calls took, following caller records upward until a
``repro`` function is reached; what cannot be traced to one stays in
``external``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "EXTERNAL", "layer_of", "module_name", "attribute"]

EXTERNAL = "external"

LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("sim/engine", "sim/events"),
    "machine": (
        "sim/__init__", "sim/gpu", "sim/stream", "sim/kernel", "sim/host",
        "sim/contention", "sim/interconnect", "sim/memory", "sim/tracing",
        "hw/",
    ),
    "timeline": ("sim/timeline",),
    "scheduler": (
        "core/scheduler", "core/policy", "core/decomposition",
        "core/contention",
    ),
    "plan_cache": ("core/plan_cache",),
    "assembly": ("core/assembly",),
    "runtime": ("core/__init__", "core/runtime", "core/config"),
    "strategy": ("parallel/",),
    "models": ("models/",),
    "profiling": ("profiling/",),
    "serving": ("serving/",),
    "overload": ("serving/overload",),
    "obs": ("obs/",),
    "faults": ("faults/",),
    "cluster": ("cluster/",),
    "tooling": ("__main__", "cli", "sim/gantt", "experiments/", "perf/"),
    "common": ("__init__", "errors", "units"),
}

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYERS.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)


def layer_of(module: str) -> Optional[str]:
    """The layer of ``module`` (``"sim/engine"``), or ``None`` if unmapped."""
    for prefix, layer in _PREFIXES:
        if module == prefix or (prefix.endswith("/") and module.startswith(prefix)):
            return layer
    return None


def module_name(filename: str, package_dir: str) -> Optional[str]:
    """``sim/engine`` for ``<package_dir>/sim/engine.py``; ``None`` outside."""
    rel = os.path.relpath(os.path.abspath(filename), package_dir)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    return rel[: -len(".py")].replace(os.sep, "/")


def attribute(stats: Dict, package_dir: str) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` mapping.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``,
    where ``callers`` maps each caller to the ``(cc, nc, tt, ct)`` of the
    calls it made.
    """
    own: Dict[Tuple, Optional[str]] = {}

    def own_layer(func: Tuple) -> Optional[str]:
        if func not in own:
            module = module_name(func[0], package_dir)
            own[func] = (
                (layer_of(module) or EXTERNAL) if module is not None else None
            )
        return own[func]

    shares: Dict[Tuple, Dict[str, float]] = {}

    def share_of(func: Tuple, visiting: frozenset) -> Dict[str, float]:
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {c: v[2] for c, v in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:  # calls too short to time: weigh by call count
            weights = {c: v[1] for c, v in callers.items() if c not in visiting}
            total = sum(weights.values())
        if total <= 0:
            return {EXTERNAL: 1.0}
        out: Dict[str, float] = {}
        inner = visiting | {func}
        for caller, weight in weights.items():
            for layer, frac in share_of(caller, inner).items():
                out[layer] = out.get(layer, 0.0) + frac * weight / total
        if not visiting:
            shares[func] = out
        return out

    totals: Dict[str, float] = {}
    for func, entry in stats.items():
        for layer, frac in share_of(func, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + entry[2] * frac
    return totals
