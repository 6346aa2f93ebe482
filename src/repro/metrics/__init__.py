"""Performance metrics (Section 4.1) and Table 2 comparison machinery."""

from repro.metrics.compare import (
    ComparisonRow,
    RunDiffRow,
    compare_to_reference,
    render_comparison,
    render_run_diff,
)
from repro.metrics.report import PerformanceReport, evaluate
from repro.metrics.timeseries import due_date_violations

__all__ = [
    "PerformanceReport",
    "evaluate",
    "ComparisonRow",
    "RunDiffRow",
    "compare_to_reference",
    "render_comparison",
    "render_run_diff",
    "due_date_violations",
]
