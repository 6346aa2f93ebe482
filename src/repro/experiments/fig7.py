"""Figure 7 — the paper's two parameter-selection studies on PSA
workloads with N = 1000 jobs.

(a) Makespan of Min-Min f-risky and Sufferage f-risky as f sweeps from
    0 (secure) to 1 (risky).  The paper observes concave curves with
    minima around f = 0.5-0.6, justifying f = 0.5 everywhere else.
(b) Makespan of the STGA as a function of the GA generation budget.
    The paper sees fluctuation up to ~25 iterations, convergence
    around 40-50, and a flat curve beyond — justifying 100 iterations
    as a safe default.

Each panel is a spec builder plus a renderer over the
:class:`~repro.experiments.sweep.SweepResult` that
:func:`~repro.experiments.spec.run_spec` returns for it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.experiments.config import PaperDefaults, RunSettings
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import ScenarioVariant, SweepResult
from repro.util.tables import render_table

__all__ = [
    "frisky_sweep_spec",
    "frisky_series",
    "best_f",
    "render_fig7a",
    "stga_iteration_spec",
    "iteration_series",
    "converged_after",
    "render_fig7b",
    "DEFAULT_F_GRID",
    "DEFAULT_ITERATION_GRID",
]

DEFAULT_F_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 2))
DEFAULT_ITERATION_GRID = (0, 5, 10, 25, 40, 50, 75, 100, 150, 200)


def frisky_sweep_spec(
    *,
    n_jobs: int = 1000,
    f_values=DEFAULT_F_GRID,
    seeds: Sequence[int] | None = None,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
) -> ExperimentSpec:
    """Figure 7(a) as a declarative spec.

    The f-axis maps onto parameterized scheduler refs — one
    ``"...-f-risky?f=X"`` entry per grid point and heuristic (the
    report names stay distinct because f appears in them), on a single
    PSA variant with no STGA warm-up stream.
    """
    return ExperimentSpec(
        name="fig7a-frisky-sweep",
        schedulers=tuple(
            f"{algo}-f-risky?f={float(f):g}"
            for algo in ("min-min", "sufferage")
            for f in f_values
        ),
        variants=(
            ScenarioVariant(
                name=f"PSA N={n_jobs}",
                workload="psa",
                n_jobs=n_jobs,
                n_training_jobs=0,
            ),
        ),
        seeds=tuple(seeds) if seeds is not None else (settings.seed,),
        metrics=("makespan",),
        scale=scale,
        settings=settings,
    )


def frisky_series(
    result: SweepResult,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f_values, minmin, sufferage)`` of a Figure 7(a) run.

    The makespan arrays are ``(n_seeds, n_f)``.  The spec lists every
    Min-Min ref before every Sufferage ref, and each report name ends
    in ``(f=X)``, which is where the f axis is read back from.
    """
    variant = result.variants[0].name
    names = result.schedulers()
    half = len(names) // 2
    f_values = np.array(
        [float(name[name.rindex("(f=") + 3:-1]) for name in names[:half]]
    )

    def makespans(part: Sequence[str]) -> np.ndarray:
        return np.array(
            [[r.makespan for r in result.cell(variant, n)] for n in part]
        ).T

    return f_values, makespans(names[:half]), makespans(names[half:])


def best_f(result: SweepResult, which: str = "minmin") -> float:
    """f value attaining the minimum (seed-mean) makespan."""
    f_values, mm, sf = frisky_series(result)
    series = (mm if which == "minmin" else sf).mean(axis=0)
    return float(f_values[int(np.argmin(series))])


def render_fig7a(result: SweepResult) -> str:
    """Paper-style series table (mean ± std over several seeds) and
    each heuristic's best f."""
    f_values, mm, sf = frisky_series(result)
    n_seeds = len(result.seeds)
    if n_seeds == 1:
        rows = [[f, a, b] for f, a, b in zip(f_values, mm[0], sf[0])]
    else:
        rows = [
            [f, f"{a:.6g} ± {sa:.3g}", f"{b:.6g} ± {sb:.3g}"]
            for f, a, sa, b, sb in zip(
                f_values,
                mm.mean(axis=0),
                mm.std(axis=0, ddof=1),
                sf.mean(axis=0),
                sf.std(axis=0, ddof=1),
            )
        ]
    title = "Figure 7(a): makespan vs risk level f (PSA)"
    if n_seeds > 1:
        title += f", {n_seeds} seeds"
    table = render_table(
        ["f", "Min-Min f-Risky makespan", "Sufferage f-Risky makespan"],
        rows,
        title=title,
    )
    return (
        f"{table}\n\nbest f (Min-Min): {best_f(result, 'minmin'):.2f}   "
        f"best f (Sufferage): {best_f(result, 'sufferage'):.2f}"
    )


def stga_iteration_spec(
    *,
    n_jobs: int = 1000,
    generations=DEFAULT_ITERATION_GRID,
    seeds: Sequence[int] | None = None,
    scale: float = 1.0,
    settings: RunSettings = RunSettings(),
    defaults: PaperDefaults = PaperDefaults(),
) -> ExperimentSpec:
    """Figure 7(b) as a declarative spec.

    The generation-budget axis maps onto scenario variants carrying
    per-variant ``ga_overrides`` — same PSA workload, same warm-up,
    only the STGA's iteration budget changes.  The figure studies
    Table 1's GA, so the spec pins ``defaults.ga_config()`` (makespan
    fitness, no stall exit) in place of ``settings.ga``.
    """
    gens = sorted(set(int(g) for g in generations))
    if any(g < 0 for g in gens):
        raise ValueError("generation budgets must be non-negative")
    return ExperimentSpec(
        name="fig7b-stga-iterations",
        schedulers=("stga",),
        variants=tuple(
            ScenarioVariant(
                name=f"generations={g}",
                workload="psa",
                n_jobs=n_jobs,
                n_training_jobs=defaults.n_training_jobs,
                ga_overrides={"generations": g},
            )
            for g in gens
        ),
        seeds=tuple(seeds) if seeds is not None else (settings.seed,),
        metrics=("makespan",),
        scale=scale,
        settings=replace(settings, ga=defaults.ga_config()),
    )


def iteration_series(result: SweepResult) -> tuple[np.ndarray, np.ndarray]:
    """``(generations, makespan)`` of a Figure 7(b) run, one point per
    budget variant; the makespan is the seed mean."""
    (stga,) = result.schedulers()
    generations = np.array(
        [dict(v.ga_overrides)["generations"] for v in result.variants]
    )
    makespan = np.array(
        [
            np.mean([r.makespan for r in result.cell(v.name, stga)])
            for v in result.variants
        ]
    )
    return generations, makespan


def converged_after(result: SweepResult, *, rel_tol: float = 0.01) -> int:
    """First generation budget whose makespan is within ``rel_tol`` of
    the best over the grid (the paper's "converges at ~50")."""
    generations, makespan = iteration_series(result)
    ok = makespan <= makespan.min() * (1 + rel_tol)
    return int(generations[int(np.argmax(ok))])


def render_fig7b(result: SweepResult) -> str:
    """Paper-style series table and the convergence point."""
    table = render_table(
        ["generations", "STGA makespan"],
        list(zip(*iteration_series(result))),
        title="Figure 7(b): STGA makespan vs iteration budget (PSA)",
    )
    return (
        f"{table}\n\nconverged after ~{converged_after(result)} generations"
    )
