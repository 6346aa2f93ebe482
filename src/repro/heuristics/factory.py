"""Registry entries for the security-driven heuristics.

Every (algorithm, risk mode) pair registers as a scheduler-
registry entry named ``"<algorithm>-<mode>"`` (``"min-min-risky"``,
``"sufferage-f-risky"``, ...), with the bare algorithm name aliased to
its secure mode — the same default :func:`make_heuristic` uses.  Refs
accept an ``f`` parameter (``"min-min-f-risky?f=0.3"``) overriding the
defaults' f = 0.5.

The registry refs are the construction surface:
``repro.registry.bind_scheduler("min-min-risky", settings)`` also
gives the unified ``ScheduleFn`` call protocol.  The paper's lineup is
the ref tuple :data:`repro.experiments.runner.PAPER_LINEUP`.
:func:`make_heuristic`, which the entries call, builds one heuristic
by algorithm name.
"""

from __future__ import annotations

from repro.grid.security import DEFAULT_LAMBDA, RiskMode
from repro.heuristics.base import BatchScheduler
from repro.heuristics.duplex import DuplexScheduler
from repro.heuristics.maxmin import MaxMinScheduler
from repro.heuristics.mct import MCTScheduler
from repro.heuristics.met import METScheduler
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.olb import OLBScheduler
from repro.heuristics.random_sched import RandomScheduler
from repro.heuristics.sufferage import SufferageScheduler
from repro.registry import register_scheduler

__all__ = [
    "HEURISTIC_CLASSES",
    "HEURISTIC_MODES",
    "make_heuristic",
]

HEURISTIC_CLASSES = {
    "min-min": MinMinScheduler,
    "max-min": MaxMinScheduler,
    "duplex": DuplexScheduler,
    "sufferage": SufferageScheduler,
    "mct": MCTScheduler,
    "met": METScheduler,
    "olb": OLBScheduler,
    "random": RandomScheduler,
}

#: registry-name suffix -> risk mode, in the paper's column order
HEURISTIC_MODES = {
    "secure": RiskMode.SECURE,
    "f-risky": RiskMode.F_RISKY,
    "risky": RiskMode.RISKY,
}


def _register_heuristics() -> None:
    """One registry entry per (algorithm, risk mode) pair."""
    for algo in HEURISTIC_CLASSES:
        for mode_key, mode in HEURISTIC_MODES.items():

            def _build(
                settings,
                rng,
                *,
                defaults=None,
                scenario=None,  # per-run context, unused by heuristics
                training=None,
                ga_config=None,
                f=None,
                _algo=algo,
                _mode=mode,
                **params,
            ):
                """Build one (algorithm, risk mode) heuristic scheduler."""
                if f is None:
                    f = defaults.f_risky if defaults is not None else 0.5
                if _algo == "random":
                    params.setdefault(
                        "rng", rng.stream("random-scheduler")
                    )
                return make_heuristic(
                    _algo, _mode, f=float(f), lam=settings.lam, **params
                )

            register_scheduler(
                f"{algo}-{mode_key}",
                description=(
                    f"{HEURISTIC_CLASSES[algo].algorithm} heuristic, "
                    f"{mode_key} mode"
                ),
                # the bare algorithm name means secure mode, matching
                # make_heuristic's default
                aliases=(algo,) if mode is RiskMode.SECURE else (),
            )(_build)


_register_heuristics()


def make_heuristic(
    algorithm: str,
    mode: RiskMode | str = RiskMode.SECURE,
    *,
    f: float = 0.5,
    lam: float = DEFAULT_LAMBDA,
    **kwargs,
) -> BatchScheduler:
    """Instantiate a heuristic by name, e.g. ``make_heuristic("min-min",
    "risky")``.

    The registry entries above build through this; callers outside
    the registry should prefer ``bind_scheduler("min-min-risky",
    settings)``, which adds ref parameters and the unified call
    protocol.
    """
    key = algorithm.lower()
    if key not in HEURISTIC_CLASSES:
        raise KeyError(
            f"unknown heuristic {algorithm!r}; "
            f"choose from {sorted(HEURISTIC_CLASSES)}"
        )
    return HEURISTIC_CLASSES[key](mode, f=f, lam=lam, **kwargs)
