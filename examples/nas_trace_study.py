#!/usr/bin/env python
"""NAS trace study: the paper's Figure 8 / Figure 9 / Table 2 pipeline.

Synthesizes a scaled-down NAS iPSC/860 trace (power-of-two node
requests, prime-time daily cycle, 92->46 day squeeze), runs the full
seven-algorithm line-up — Min-Min and Sufferage in secure / f-risky /
risky mode plus a trained STGA — and prints:

* the four Figure 8 panels as one metrics table,
* the three Figure 9 per-site utilization panels,
* the Table 2 alpha/beta ranking against the STGA.

All three come from one run of the Figure 8 spec (``nas_spec``)
through ``run_spec``, as ``repro-grid fig8``, ``fig9`` and ``table2``
do.

Run (about a minute at the default 5% scale):
    python examples/nas_trace_study.py [scale]
"""

import sys

from repro.experiments.config import RunSettings
from repro.experiments.fig8 import nas_lineups, nas_spec, render_fig8
from repro.experiments.fig9 import utilization_panels
from repro.experiments.spec import run_spec
from repro.experiments.table2 import render_table2


def main(scale: float = 0.05) -> None:
    settings = RunSettings(batch_interval=2000.0, seed=2005)
    print(f"running the NAS line-up at scale {scale} "
          f"({int(16000 * scale)} jobs)...")
    result = run_spec(nas_spec(scale=scale, settings=settings))
    (lineup,) = nas_lineups(result)

    print()
    print(render_fig8(result))

    for panel in utilization_panels(lineup):
        print()
        print(panel.render())

    print()
    print(render_table2(lineup))

    stga = lineup[-1]
    print(
        f"\nSTGA: {stga.n_batches} scheduling events, "
        f"{stga.scheduler_seconds:.2f} s total decision time "
        f"({stga.scheduler_seconds / stga.n_batches * 1e3:.1f} ms per "
        "batch) — the paper's online-suitability claim."
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.05)
