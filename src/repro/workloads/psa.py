"""Parameter-Sweep Application (PSA) workload (paper Section 4.2).

A PSA is N independent sequential jobs — one per parameter point —
dispatched to M sites with N >> M.  Table 1 fixes: 5 000 jobs, 20
sites, Poisson arrivals at 0.008 jobs/s, job workloads drawn from 20
discrete levels spanning (0, 300 000] node-seconds, site speeds from
10 discrete levels, SL ~ U(0.4, 1.0) and SD ~ U(0.6, 0.9).

"10 levels (0-10)" is read as speeds {1, ..., 10} — a zero-speed site
could execute nothing — and the workload levels as an evenly spaced
ladder {max/20, 2·max/20, ..., max} (a zero workload is no job).

**Calibration note (DESIGN.md §3).**  Table 1 prints the workload
range as "(0-300000)", but that value is irreconcilable with the
paper's own results: it implies an offered load ≈ 11x the grid's
aggregate capacity, whereas the makespans reported in Figures 7(a)
and 10(a) (≈1.5-2.5e5 s for N = 1000 arriving over 1.25e5 s) imply a
load ratio of ~1.2-1.5 — exactly what "(0-30000)" produces.  We treat
the printed value as a typo: ``max_workload`` defaults to the
calibrated 30 000 (reproducing the paper's magnitudes and shapes);
pass ``max_workload=300_000`` for the literal reading.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.grid.job import Job
from repro.grid.site import Grid
from repro.registry import register_workload
from repro.util.rng import as_generator
from repro.util.validation import check_positive
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.base import TRAINING_SEED_OFFSET, Scenario, scale_jobs
from repro.workloads.security import (
    SD_RANGE,
    SL_RANGE,
    sample_security_demands,
    sample_security_levels,
)

__all__ = ["PSAConfig", "psa_scenario"]


@dataclass(frozen=True)
class PSAConfig:
    """PSA generator knobs; defaults reproduce Table 1."""

    n_jobs: int = 5000
    n_sites: int = 20
    arrival_rate: float = 0.008  # jobs per second
    n_workload_levels: int = 20
    max_workload: float = 30_000.0  # node-seconds; see calibration note
    n_speed_levels: int = 10
    sd_range: tuple[float, float] = SD_RANGE
    sl_range: tuple[float, float] = SL_RANGE
    ensure_feasible: bool = True

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        check_positive("arrival_rate", self.arrival_rate)
        if self.n_workload_levels < 1:
            raise ValueError("n_workload_levels must be >= 1")
        check_positive("max_workload", self.max_workload)
        if self.n_speed_levels < 1:
            raise ValueError("n_speed_levels must be >= 1")


def psa_scenario(
    config: PSAConfig = PSAConfig(),
    *,
    rng: int | np.random.Generator | None = 0,
) -> Scenario:
    """Generate a PSA scenario (grid + job stream)."""
    rng = as_generator(rng)

    speed_levels = np.arange(1, config.n_speed_levels + 1, dtype=float)
    speeds = rng.choice(speed_levels, size=config.n_sites)
    sls = sample_security_levels(
        config.n_sites,
        rng,
        lo=config.sl_range[0],
        hi=config.sl_range[1],
        ensure_cover=config.sd_range[1] if config.ensure_feasible else None,
    )
    grid = Grid.from_arrays(speeds, sls)

    level_size = config.max_workload / config.n_workload_levels
    levels = level_size * np.arange(1, config.n_workload_levels + 1)
    workloads = rng.choice(levels, size=config.n_jobs)
    arrivals = poisson_arrivals(config.n_jobs, config.arrival_rate, rng)
    sds = sample_security_demands(
        config.n_jobs, rng, lo=config.sd_range[0], hi=config.sd_range[1]
    )

    jobs = tuple(
        Job(
            job_id=i,
            arrival=float(arrivals[i]),
            workload=float(workloads[i]),
            security_demand=float(sds[i]),
        )
        for i in range(config.n_jobs)
    )
    return Scenario(name=f"PSA(N={config.n_jobs})", grid=grid, jobs=jobs)


@register_workload(
    "psa",
    description="Parameter-Sweep Application stream, Poisson arrivals "
    "(Table 1: 5000 jobs on 20 sites)",
)
def _psa_variant_scenarios(variant, seed: int, scale: float = 1.0):
    """Build (scenario, training) for one sweep replication.

    The one place a PSA replication is built (figures, sweeps and the
    ablation helpers all come here): workload rng = ``seed``, training
    rng = ``seed + TRAINING_SEED_OFFSET``, job counts through
    :func:`~repro.workloads.base.scale_jobs`.  The training stream
    inherits the variant's overrides (same arrival intensity etc.) so
    the warm-up resembles the live workload; only the grid of the live
    scenario matters downstream (``warmup_history`` trains on it).
    """
    n = scale_jobs(variant.n_jobs, scale)
    n_train = (
        scale_jobs(variant.n_training_jobs, scale)
        if variant.n_training_jobs
        else 0
    )
    cfg = PSAConfig(n_jobs=n)
    if variant.n_sites is not None:
        cfg = replace(cfg, n_sites=variant.n_sites)
    if variant.arrival_rate is not None:
        cfg = replace(cfg, arrival_rate=variant.arrival_rate)
    scenario = psa_scenario(cfg, rng=seed)
    training = (
        psa_scenario(
            replace(cfg, n_jobs=n_train), rng=seed + TRAINING_SEED_OFFSET
        )
        if n_train
        else None
    )
    return scenario, training
