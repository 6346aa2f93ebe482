"""Figure 9 — per-site utilization on the NAS workload.

Paper claims:

* secure mode is unbalanced: several low-security sites are never used
  (3 of 12 idle in the paper), others run >95 %;
* f-risky uses more sites than secure (2 idle in the paper);
* risky and the STGA leave no site idle, and the STGA has the most
  balanced utilization of all.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments.fig8 import nas_lineups
from repro.experiments.fig9 import utilization_panels


def test_fig9_site_utilization(benchmark, nas_ensemble):
    panels_per_seed = run_once(
        benchmark,
        lambda: [utilization_panels(r) for r in nas_lineups(nas_ensemble)],
    )

    # Print the first seed's three panels (paper layout).
    for panel in panels_per_seed[0]:
        print()
        print(panel.render())

    idle = {"secure": [], "f-risky": [], "risky": [], "stga": []}
    balance = {"secure": [], "risky": [], "stga": []}
    for (a, b, c) in panels_per_seed:
        for panel, prefix in ((a, "Min-Min"), (b, "Sufferage")):
            idle["secure"].append(panel.idle_sites(f"{prefix} Secure"))
            idle["f-risky"].append(panel.idle_sites(f"{prefix} f-Risky(f=0.5)"))
            idle["risky"].append(panel.idle_sites(f"{prefix} Risky"))
            balance["secure"].append(panel.balance(f"{prefix} Secure"))
            balance["risky"].append(panel.balance(f"{prefix} Risky"))
        idle["stga"].append(c.idle_sites("STGA"))
        balance["stga"].append(c.balance("STGA"))

    mean_idle = {k: float(np.mean(v)) for k, v in idle.items()}
    mean_balance = {k: float(np.mean(v)) for k, v in balance.items()}
    print(f"\nmean idle sites: {mean_idle}")
    print(f"mean utilization std-dev (balance): {mean_balance}")

    # Secure leaves sites idle; risky/STGA leave none.
    assert mean_idle["secure"] >= 1.0, (
        "secure mode should leave low-SL sites unused"
    )
    assert mean_idle["f-risky"] <= mean_idle["secure"]
    assert mean_idle["risky"] < 0.5
    assert mean_idle["stga"] < 0.5

    # STGA is the most balanced (lowest cross-site std dev).
    assert mean_balance["stga"] <= mean_balance["secure"]
    assert mean_balance["stga"] <= mean_balance["risky"] * 1.1

    print("paper: secure idles 3/12 sites, risky/STGA idle none, "
          "STGA most balanced — measured shape matches" )
