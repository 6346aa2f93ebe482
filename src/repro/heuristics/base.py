"""Scheduler interfaces.

Two layers:

* :class:`BatchScheduler` — the minimal engine contract: a name and a
  pure ``schedule(Batch) -> ScheduleResult`` method.
* :class:`SecurityDrivenScheduler` — adds the paper's risk-mode
  machinery (secure / risky / f-risky eligibility, Figure 3) shared by
  every heuristic and by the GA schedulers.  Jobs flagged
  ``secure_only`` (previously failed) are always restricted to
  absolutely safe sites regardless of the scheduler's own mode.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.grid.batch import Batch, ScheduleResult
from repro.grid.security import (
    DEFAULT_LAMBDA,
    RiskMode,
    eligibility_kernel,
    risk_tolerance,
)
from repro.util.validation import check_positive, check_probability

__all__ = ["BatchScheduler", "SecurityDrivenScheduler"]


class BatchScheduler(abc.ABC):
    """Anything that can map a batch of jobs to grid sites."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable scheduler name used in reports."""

    @abc.abstractmethod
    def schedule(self, batch: Batch) -> ScheduleResult:
        """Map the batch to sites.  Must not mutate ``batch``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SecurityDrivenScheduler(BatchScheduler):
    """Base class adding risk-mode eligibility to a scheduler.

    Parameters
    ----------
    mode:
        ``"secure"``, ``"risky"`` or ``"f-risky"`` (or a
        :class:`RiskMode`).
    f:
        Tolerated failure probability for f-risky mode (paper default
        0.5, justified by Figure 7(a)).
    lam:
        Eq. 1 failure-rate constant, used to convert ``f`` into a
        tolerable SD-SL gap.

    ``mode``, ``f`` and ``lam`` are read-only after construction: the
    tolerance they imply is computed once, here, not per batch.
    """

    #: short algorithm label, overridden by subclasses ("Min-Min", ...)
    algorithm: str = "?"

    def __init__(
        self,
        mode: RiskMode | str = RiskMode.SECURE,
        *,
        f: float = 0.5,
        lam: float = DEFAULT_LAMBDA,
    ) -> None:
        self._mode = RiskMode.parse(mode)
        self._f = check_probability("f", f)
        self._lam = check_positive("lam", lam)
        self._tol = risk_tolerance(self._mode, self._f)
        #: optional report-name override; registry refs set it via the
        #: reserved ``label`` parameter so two parameterizations of one
        #: algorithm can share a lineup without name collisions
        self.label: str | None = None

    @property
    def mode(self) -> RiskMode:
        """The risk mode (read-only)."""
        return self._mode

    @property
    def f(self) -> float:
        """Tolerated failure probability in f-risky mode (read-only)."""
        return self._f

    @property
    def lam(self) -> float:
        """Eq. 1 failure-rate constant (read-only)."""
        return self._lam

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        if self.mode is RiskMode.F_RISKY:
            return f"{self.algorithm} f-Risky(f={self.f:g})"
        return f"{self.algorithm} {self.mode.value.capitalize()}"

    def eligibility(self, batch: Batch) -> np.ndarray:
        """Boolean (B, S) matrix of allowed placements for ``batch``.

        Bit-equal to :func:`~repro.grid.security.eligibility_matrix`
        with this scheduler's parameters.
        """
        return eligibility_kernel(
            np.asarray(batch.security_demands, dtype=float),
            np.asarray(batch.site_security, dtype=float),
            neg_lam=-self._lam,
            tol=self._tol,
            secure_only=np.asarray(batch.secure_only, dtype=bool),
        )

    def masked_completion(self, batch: Batch) -> np.ndarray:
        """Expected-completion matrix with ineligible entries at +inf."""
        comp = batch.completion()
        comp[~self.eligibility(batch)] = np.inf
        return comp
