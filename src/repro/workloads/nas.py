"""Synthetic NAS iPSC/860 trace (paper Section 4.2) — a substitution.

The paper replays three months (92 days, ~16 000 jobs) of accounting
records from the 128-node iPSC/860 at NASA Ames, squeezed to 46 days,
on a grid of 12 sites (4 x 16 nodes + 8 x 8 nodes).  The sanitized
trace itself is not available offline, so this module *synthesizes* a
stream with the characteristics documented by Feitelson & Nitzberg
(1994) for that machine:

* node requests are powers of two from 1 to 128, heavily weighted
  towards small sizes (sequential and <=8-node jobs dominate counts)
  with a non-trivial tail of 64/128-node runs;
* runtimes are roughly log-uniform over several orders of magnitude
  (seconds to hours), mildly increasing with job size;
* arrivals follow a strong daily cycle (prime-time peak) modulated by
  a weekday/weekend effect.

The schedulers only ever observe (arrival, workload = nodes x runtime,
SD), so matching these marginals and the arrival burstiness preserves
the contention structure the paper's NAS experiments exercise.  See
DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.grid.job import Job
from repro.grid.site import Grid
from repro.registry import register_workload
from repro.util.rng import as_generator
from repro.util.validation import check_positive
from repro.workloads.arrivals import cyclic_arrivals, hourly_rate_profile
from repro.workloads.base import TRAINING_SEED_OFFSET, Scenario, scale_jobs
from repro.workloads.security import (
    SD_RANGE,
    SL_RANGE,
    sample_security_demands,
    sample_security_levels,
)

__all__ = ["NASConfig", "nas_scenario", "nas_grid", "nas_site_plan"]

#: Power-of-two node requests on the 128-node iPSC/860 and their
#: approximate share of job *counts* per Feitelson & Nitzberg (1994):
#: small jobs dominate, with a visible 32/64-node tail.
_NODE_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
_NODE_WEIGHTS = (0.26, 0.14, 0.16, 0.15, 0.12, 0.09, 0.06, 0.02)


@dataclass(frozen=True)
class NASConfig:
    """NAS synthesizer knobs; defaults reproduce the paper's setup."""

    n_jobs: int = 16_000
    trace_days: int = 92
    squeeze: float = 2.0  # 92 days -> 46 days
    #: site layout: 4 sites of 16 nodes + 8 sites of 8 nodes
    site_nodes: tuple[int, ...] = (16, 16, 16, 16, 8, 8, 8, 8, 8, 8, 8, 8)
    node_sizes: tuple[int, ...] = _NODE_SIZES
    node_weights: tuple[float, ...] = _NODE_WEIGHTS
    #: log10-runtime is uniform over [log_rt_lo, log_rt_hi] plus a
    #: size-dependent shift — bigger jobs run a bit longer.
    log_rt_lo: float = 0.5  # ~3 s
    log_rt_hi: float = 3.8  # ~6300 s
    size_rt_slope: float = 0.12  # added to log10 runtime per log2(nodes)
    sd_range: tuple[float, float] = SD_RANGE
    sl_range: tuple[float, float] = SL_RANGE
    ensure_feasible: bool = True
    profile_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.trace_days < 1:
            raise ValueError(f"trace_days must be >= 1, got {self.trace_days}")
        check_positive("squeeze", self.squeeze)
        if len(self.node_sizes) != len(self.node_weights):
            raise ValueError("node_sizes and node_weights must align")
        if abs(sum(self.node_weights) - 1.0) > 1e-9:
            raise ValueError("node_weights must sum to 1")
        if not self.site_nodes:
            raise ValueError("site_nodes must be non-empty")
        if self.log_rt_hi <= self.log_rt_lo:
            raise ValueError("log_rt_hi must exceed log_rt_lo")


def nas_site_plan(
    n_sites: int, *, big_nodes: int = 16, small_nodes: int = 8
) -> tuple[int, ...]:
    """Site-node plan for an ``n_sites`` NAS grid-layout variant.

    The paper's layout is 4 x 16-node + 8 x 8-node sites; this keeps
    that 1:2 big:small site ratio for any grid size — ``round(n/3)``
    big sites, the rest small — so ``nas_site_plan(12)`` reproduces
    the paper plan exactly and other sizes scale the same mix.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    check_positive("big_nodes", big_nodes)
    check_positive("small_nodes", small_nodes)
    n_big = round(n_sites / 3)
    return (big_nodes,) * n_big + (small_nodes,) * (n_sites - n_big)


def nas_grid(
    config: NASConfig = NASConfig(),
    *,
    rng: int | np.random.Generator | None = 0,
) -> Grid:
    """The 12-site grid: speed = node count, SL ~ U(0.4, 1.0)."""
    rng = as_generator(rng)
    nodes = np.asarray(config.site_nodes, dtype=int)
    sls = sample_security_levels(
        nodes.size,
        rng,
        lo=config.sl_range[0],
        hi=config.sl_range[1],
        ensure_cover=config.sd_range[1] if config.ensure_feasible else None,
    )
    return Grid.from_arrays(nodes.astype(float), sls, nodes=nodes)


def nas_scenario(
    config: NASConfig = NASConfig(),
    *,
    rng: int | np.random.Generator | None = 0,
) -> Scenario:
    """Generate the synthetic NAS scenario (grid + job stream)."""
    rng = as_generator(rng)
    grid = nas_grid(config, rng=rng)

    sizes = rng.choice(
        np.asarray(config.node_sizes, dtype=int),
        size=config.n_jobs,
        p=np.asarray(config.node_weights, dtype=float),
    )
    log_rt = rng.uniform(config.log_rt_lo, config.log_rt_hi, size=config.n_jobs)
    log_rt = log_rt + config.size_rt_slope * np.log2(sizes)
    runtimes = 10.0**log_rt
    workloads = sizes * runtimes  # node-seconds

    profile = hourly_rate_profile(config.trace_days, **config.profile_kwargs)
    arrivals = cyclic_arrivals(
        config.n_jobs,
        config.trace_days,
        rng,
        profile=profile,
        squeeze=config.squeeze,
    )
    sds = sample_security_demands(
        config.n_jobs, rng, lo=config.sd_range[0], hi=config.sd_range[1]
    )

    jobs = tuple(
        Job(
            job_id=i,
            arrival=float(arrivals[i]),
            workload=float(workloads[i]),
            security_demand=float(sds[i]),
            nodes=int(sizes[i]),
        )
        for i in range(config.n_jobs)
    )
    days_eff = config.trace_days / config.squeeze
    return Scenario(
        name=f"NAS(N={config.n_jobs}, {days_eff:g}d)", grid=grid, jobs=jobs
    )


def _validate_nas_variant(variant) -> None:
    """NAS arrivals follow the trace's daily-cycle profile."""
    if variant.arrival_rate is not None:
        raise ValueError(
            "arrival_rate is a PSA-only knob (NAS arrivals follow "
            "the trace's daily-cycle profile); use n_sites for NAS "
            "grid-layout variants"
        )


@register_workload(
    "nas",
    description="synthetic NAS iPSC/860 trace, daily-cycle arrivals "
    "(Table 1: 16000 jobs on 4x16 + 8x8 node sites)",
    validate=_validate_nas_variant,
)
def _nas_variant_scenarios(variant, seed: int, scale: float = 1.0):
    """Build (scenario, training) for one sweep replication.

    The one place a NAS replication is built (Figures 8/9 and Table 2
    run through it).  Scaling squeezes the horizon: the trace-day
    count shrinks with ``scale`` so arrival pressure per day is
    preserved.
    """
    n = scale_jobs(variant.n_jobs, scale)
    n_train = (
        scale_jobs(variant.n_training_jobs, scale)
        if variant.n_training_jobs
        else 0
    )
    base = NASConfig(n_jobs=variant.n_jobs)
    if variant.n_sites is not None:
        base = replace(base, site_nodes=nas_site_plan(variant.n_sites))
    days = max(2, int(round(base.trace_days * scale)))
    scenario = nas_scenario(
        replace(base, n_jobs=n, trace_days=days), rng=seed
    )
    training = None
    if n_train:
        train_days = max(1, int(round(days * n_train / max(n, 1))))
        training = nas_scenario(
            replace(base, n_jobs=n_train, trace_days=train_days),
            rng=seed + TRAINING_SEED_OFFSET,
        )
    return scenario, training
