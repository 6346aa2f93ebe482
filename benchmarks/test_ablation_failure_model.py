"""Ablations of the failure model (the parameters the paper leaves
unspecified; DESIGN.md §3).

* λ — the Eq. 1 rate constant (our default 3.0): as λ grows, risky
  placements fail more and the secure mode's *relative* standing
  improves;
* failure point — whether a doomed attempt wastes a uniform fraction
  (default) or its full execution time;
* risk-penalised GA fitness (extension) — inflating ETC by expected
  rework trades failures against makespan.
"""

from benchmarks.conftest import first_seed_lineups, run_once
from repro.experiments.ablation import (
    failure_point_spec,
    lambda_spec,
    risk_penalty_spec,
)
from repro.experiments.spec import run_spec
from repro.util.tables import render_table


def test_lambda_sensitivity(benchmark, settings, scale):
    lams = (1.0, 3.0, 6.0, 12.0)
    spec = lambda_spec(lams, n_jobs=1000, scale=scale, settings=settings)
    res = run_once(benchmark, run_spec, spec, max_workers=1)
    out = {
        lam: dict(zip(("risky", "secure"), reports))
        for lam, reports in zip(lams, first_seed_lineups(res).values())
    }
    print()
    rows = []
    for lam, pair in out.items():
        rows.append([
            lam,
            pair["risky"].makespan,
            pair["secure"].makespan,
            pair["risky"].n_fail,
            pair["risky"].failure_rate,
        ])
    print(render_table(
        ["lambda", "risky makespan", "secure makespan", "risky N_fail",
         "risky fail rate"],
        rows,
        title="Ablation: failure-law steepness (our default lambda=3)",
    ))

    # Secure mode never fails and is lambda-invariant by construction.
    secure_ms = [p["secure"].makespan for p in out.values()]
    assert max(secure_ms) - min(secure_ms) < 1e-6 * max(secure_ms)
    for pair in out.values():
        assert pair["secure"].n_fail == 0
    # Risky failure *rate* grows with lambda (Eq. 1 is monotone).
    rates = [out[lam]["risky"].failure_rate for lam in sorted(out)]
    assert rates[0] <= rates[-1] + 1e-9


def test_failure_point(benchmark, settings, scale):
    def both_points():
        # the fail-stop point is a RunSettings field: one spec per point
        return {
            point: run_spec(
                failure_point_spec(
                    point, n_jobs=1000, scale=scale, settings=settings
                ),
                max_workers=1,
            )
            for point in ("uniform", "end")
        }

    out = {
        point: report
        for point, res in run_once(benchmark, both_points).items()
        for [report] in first_seed_lineups(res).values()
    }
    print()
    print(render_table(
        ["failure point", "makespan", "avg_response", "N_fail"],
        [[p, r.makespan, r.avg_response_time, r.n_fail]
         for p, r in out.items()],
        title="Ablation: fail-stop point ('uniform' default vs 'end')",
    ))
    assert set(out) == {"uniform", "end"}


def test_risk_penalty(benchmark, settings, scale):
    penalties = (0.0, 1.0, 4.0)
    spec = risk_penalty_spec(
        penalties, n_jobs=1000, scale=scale, settings=settings
    )
    res = run_once(benchmark, run_spec, spec, max_workers=1)
    [reports] = first_seed_lineups(res).values()
    out = dict(zip(penalties, reports))
    print()
    print(render_table(
        ["penalty", "makespan", "N_risk", "N_fail"],
        [[p, r.makespan, r.n_risk, r.n_fail] for p, r in out.items()],
        title="Ablation: risk-penalised GA fitness (extension)",
    ))
    # Penalising expected rework should push risk-taking down.
    n_risk = [out[p].n_risk for p in sorted(out)]
    assert n_risk[-1] <= n_risk[0] * 1.1
