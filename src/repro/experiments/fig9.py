"""Figure 9 — per-site utilization on the NAS workload.

Three panels: (a) Min-Min under the three modes, (b) Sufferage under
the three modes, (c) the two risky heuristics vs the STGA.  The
paper's qualitative findings: secure mode leaves the least-secure
sites completely idle; f-risky uses more of them; risky and the STGA
leave no site idle, with the STGA the most balanced.

This module only reshapes the Figure 8 reports — no new simulation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.experiments.fig8 import nas_lineups
from repro.experiments.runner import reports_by_name
from repro.experiments.sweep import SweepResult
from repro.metrics.report import PerformanceReport
from repro.util.tables import render_table

__all__ = ["UtilizationPanel", "utilization_panels", "render_fig9"]


@dataclass(frozen=True)
class UtilizationPanel:
    """One Figure 9 panel: some schedulers' per-site utilization."""

    title: str
    schedulers: tuple[str, ...]
    utilization: np.ndarray  # (A, S) percentages

    def idle_sites(self, scheduler: str) -> int:
        """Sites a scheduler left (essentially) unused."""
        i = self.schedulers.index(scheduler)
        return int((self.utilization[i] < 0.1).sum())

    def balance(self, scheduler: str) -> float:
        """Utilization imbalance: std dev across sites (lower = more
        balanced, the paper's 'much better balanced' claim)."""
        i = self.schedulers.index(scheduler)
        return float(self.utilization[i].std())

    def render(self) -> str:
        """Sites as columns, schedulers as rows."""
        n_sites = self.utilization.shape[1]
        headers = ["scheduler"] + [f"S{i + 1}" for i in range(n_sites)]
        rows = [
            [name] + [float(u) for u in self.utilization[i]]
            for i, name in enumerate(self.schedulers)
        ]
        return render_table(headers, rows, title=self.title, digits=3)


def _panel(
    title: str, picks: list[PerformanceReport]
) -> UtilizationPanel:
    return UtilizationPanel(
        title=title,
        schedulers=tuple(r.scheduler for r in picks),
        utilization=np.vstack([r.site_utilization for r in picks]),
    )


def utilization_panels(
    lineup: Sequence[PerformanceReport],
) -> tuple[UtilizationPanel, UtilizationPanel, UtilizationPanel]:
    """Build the three Figure 9 panels from one seed's NAS lineup."""
    by = reports_by_name(lineup)

    def pick(*fragments: str) -> list[PerformanceReport]:
        out = []
        for frag in fragments:
            matches = [r for name, r in by.items() if frag in name]
            if len(matches) != 1:
                raise KeyError(
                    f"fragment {frag!r} matches {len(matches)} schedulers"
                )
            out.append(matches[0])
        return out

    a = _panel(
        "Figure 9(a): Min-Min site utilization (%)",
        pick("Min-Min Secure", "Min-Min f-Risky", "Min-Min Risky"),
    )
    b = _panel(
        "Figure 9(b): Sufferage site utilization (%)",
        pick("Sufferage Secure", "Sufferage f-Risky", "Sufferage Risky"),
    )
    c = _panel(
        "Figure 9(c): risky heuristics vs STGA site utilization (%)",
        pick("Min-Min Risky", "Sufferage Risky", "STGA"),
    )
    return a, b, c


def render_fig9(result: SweepResult) -> str:
    """The three panels of the first seed's NAS run, each followed by
    a blank line."""
    panels = utilization_panels(nas_lineups(result)[0])
    return "\n\n".join(panel.render() for panel in panels) + "\n"
