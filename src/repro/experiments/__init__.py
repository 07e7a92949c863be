"""Experiment harness and per-figure reproductions of the paper's evaluation.

``repro.experiments.figures`` has one entry point per table/figure (see the
per-experiment index in DESIGN.md); ``python -m repro.experiments`` runs them
from the command line.
"""

from repro.experiments.figures import (
    ALL_FIGURES,
    FigureResult,
    ablations,
    continuous_batching,
    fig3,
    fig4,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fluctuating,
    headline,
    lifecycle,
    table1,
)
from repro.experiments.harness import ExperimentRecord, ExperimentRunner
from repro.experiments.reporting import format_kv, format_table

__all__ = [
    "ExperimentRecord",
    "ExperimentRunner",
    "FigureResult",
    "ALL_FIGURES",
    "table1",
    "fig3",
    "fig4",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "headline",
    "ablations",
    "fluctuating",
    "continuous_batching",
    "lifecycle",
    "format_table",
    "format_kv",
]
