"""Figure 8 — the seven-algorithm comparison on the NAS trace.

Paper claims (NAS, ensemble-robust shapes):

* (a) makespan: STGA best; secure modes worst (paper: STGA ~10 % under
  risky, ~15 % under f-risky, ~30 % under secure);
* (b) failures: secure modes have N_fail = 0; N_fail <= N_risk always;
  the f-risky heuristics fail (roughly half as) less often than risky;
* (c) slowdown: STGA and the risk-taking modes far below secure
  (paper: >46 % improvement over secure);
* (d) response: risk-taking modes beat secure by ~2x (paper: STGA
  roughly 50 % under secure).
"""

import numpy as np

from benchmarks.conftest import ENSEMBLE_SEEDS, ensemble_mean, run_once

from repro.experiments.fig8 import nas_lineups, nas_spec
from repro.experiments.spec import run_spec
from repro.util.tables import render_table

NAMES = [
    "Min-Min Secure",
    "Min-Min f-Risky(f=0.5)",
    "Min-Min Risky",
    "Sufferage Secure",
    "Sufferage f-Risky(f=0.5)",
    "Sufferage Risky",
    "STGA",
]


def test_fig8_nas_metrics(benchmark, settings, scale, nas_ensemble):
    # Timed: one representative full lineup run.
    run_once(
        benchmark,
        run_spec,
        nas_spec(seeds=(123,), scale=scale, settings=settings),
        max_workers=1,
    )

    means = {
        name: {
            m: ensemble_mean(nas_ensemble, name, m)
            for m in (
                "makespan",
                "avg_response_time",
                "slowdown_ratio",
                "n_risk",
                "n_fail",
            )
        }
        for name in NAMES
    }
    print()
    print(render_table(
        ["scheduler", "makespan", "avg_response", "slowdown", "N_risk",
         "N_fail"],
        [
            [n, v["makespan"], v["avg_response_time"], v["slowdown_ratio"],
             v["n_risk"], v["n_fail"]]
            for n, v in means.items()
        ],
        title=(
            f"Figure 8 (ensemble mean over seeds {ENSEMBLE_SEEDS}): "
            "NAS workload"
        ),
    ))

    stga = means["STGA"]
    secure = [means["Min-Min Secure"], means["Sufferage Secure"]]
    frisky = [means["Min-Min f-Risky(f=0.5)"],
              means["Sufferage f-Risky(f=0.5)"]]
    risky = [means["Min-Min Risky"], means["Sufferage Risky"]]

    # (a) makespan: STGA best overall (paper: 10-30% margins).
    best_heuristic_ms = min(
        v["makespan"] for n, v in means.items() if n != "STGA"
    )
    assert stga["makespan"] <= best_heuristic_ms * 1.02, (
        "STGA lost the makespan comparison"
    )
    for sec in secure:
        assert stga["makespan"] < sec["makespan"] * 0.9, (
            "STGA should beat secure modes by a clear margin"
        )

    # (b) failures: secure never fails; N_fail <= N_risk everywhere.
    for lineup in nas_lineups(nas_ensemble):
        for rep in lineup:
            assert rep.n_fail <= rep.n_risk
            if "Secure" in rep.scheduler:
                assert rep.n_fail == 0 and rep.n_risk == 0
    # f-risky heuristics fail at a lower *rate* than risky ones.
    frisky_rate = np.mean([v["n_fail"] / max(v["n_risk"], 1) for v in frisky])
    risky_rate = np.mean([v["n_fail"] / max(v["n_risk"], 1) for v in risky])
    assert frisky_rate < risky_rate, (
        "f-risky should fail less often per risk taken"
    )
    # STGA takes abundant risk (paper: among the largest N_risk).
    assert stga["n_risk"] > 0.5 * max(v["n_risk"] for v in risky)

    # (c) slowdown: risk-taking modes crush the secure modes.
    secure_slow = np.mean([v["slowdown_ratio"] for v in secure])
    assert stga["slowdown_ratio"] < 0.5 * secure_slow

    # (d) response: STGA & risk-takers at least ~2x under secure.
    secure_resp = np.mean([v["avg_response_time"] for v in secure])
    assert stga["avg_response_time"] < 0.6 * secure_resp
    # STGA within 15% of the best heuristic response.
    best_resp = min(v["avg_response_time"] for n, v in means.items()
                    if n != "STGA")
    assert stga["avg_response_time"] <= best_resp * 1.15, (
        "STGA response drifted too far from the best heuristic"
    )

    print(f"paper vs measured (makespan improvement of STGA): "
          f"vs risky ~10% -> "
          f"{(1 - stga['makespan'] / np.mean([v['makespan'] for v in risky])) * 100:.1f}%, "
          f"vs f-risky ~15% -> "
          f"{(1 - stga['makespan'] / np.mean([v['makespan'] for v in frisky])) * 100:.1f}%, "
          f"vs secure ~30% -> "
          f"{(1 - stga['makespan'] / np.mean([v['makespan'] for v in secure])) * 100:.1f}%")
