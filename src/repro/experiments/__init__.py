"""Experiment harness and per-figure reproductions of the paper's evaluation.

``repro.experiments.figures`` has one entry point per table/figure (see the
per-experiment index in DESIGN.md); ``python -m repro.experiments`` runs them
from the command line.
"""

from repro import _lazy_exports

#: Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "ExperimentRecord": "harness",
    "ExperimentRunner": "harness",
    "FigureResult": "figures",
    "ALL_FIGURES": "figures",
    "table1": "figures",
    "fig3": "figures",
    "fig4": "figures",
    "fig10": "figures",
    "fig11": "figures",
    "fig12": "figures",
    "fig13": "figures",
    "fig14": "figures",
    "headline": "figures",
    "ablations": "figures",
    "fluctuating": "figures",
    "continuous_batching": "figures",
    "lifecycle": "figures",
    "format_table": "reporting",
    "format_kv": "reporting",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
