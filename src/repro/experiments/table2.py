"""Table 2 — the global α/β comparison on the NAS workload.

α is each heuristic's makespan divided by the STGA's, β the same for
average response time.  The paper reports (NAS trace): secure ≈
(1.31, 2.0x), f-risky ≈ (1.16-1.18, 1.44-1.56), risky ≈ (1.09-1.10,
1.26-1.28), with ranking STGA > risky > f-risky > secure.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.experiments.fig8 import nas_spec
from repro.experiments.spec import ExperimentSpec
from repro.metrics.compare import (
    ComparisonRow,
    compare_to_reference,
    render_comparison,
)
from repro.metrics.report import PerformanceReport

__all__ = ["table2_rows", "table2_spec", "render_table2", "PAPER_TABLE2"]

#: the paper's published values, for side-by-side printing
PAPER_TABLE2 = {
    "Min-Min Secure": (1.314, 2.035, "4th"),
    "Min-Min f-Risky(f=0.5)": (1.157, 1.441, "3rd"),
    "Min-Min Risky": (1.094, 1.262, "2nd"),
    "Sufferage Secure": (1.307, 2.011, "4th"),
    "Sufferage f-Risky(f=0.5)": (1.181, 1.555, "3rd"),
    "Sufferage Risky": (1.102, 1.275, "2nd"),
    "STGA": (1.000, 1.000, "1st"),
}


def table2_rows(lineup: Sequence[PerformanceReport]) -> list[ComparisonRow]:
    """Compute the measured Table 2 from one seed's NAS lineup."""
    return compare_to_reference(list(lineup), reference="STGA")


def table2_spec(**kwargs) -> ExperimentSpec:
    """Table 2 as a declarative spec — the same runs as Figure 8
    (:func:`~repro.experiments.fig8.nas_spec`) under its own name."""
    return replace(nas_spec(**kwargs), name="table2-nas")


def render_table2(lineup: Sequence[PerformanceReport]) -> str:
    """Measured table plus the paper's values for comparison."""
    rows = table2_rows(lineup)
    measured = render_comparison(
        rows, title="Table 2 (measured): alpha/beta vs STGA, NAS workload"
    )
    paper_lines = ["", "Table 2 (paper):"]
    for name, (a, b, rank) in PAPER_TABLE2.items():
        paper_lines.append(f"  {name:<28} alpha={a:<6} beta={b:<6} {rank}")
    return measured + "\n" + "\n".join(paper_lines)
