"""Security and risk model (paper Section 2, Eq. 1; Figure 3).

The failure law: a job with security demand ``SD`` executing on a site
with security level ``SL`` fails with probability::

    P(fail) = 0                        if SD <= SL
    P(fail) = 1 - exp(-lambda (SD-SL)) if SD >  SL

The paper leaves the rate constant lambda unspecified; we default to
``DEFAULT_LAMBDA = 3.0`` (see DESIGN.md §3) and expose it everywhere.

The three *risk modes* of Figure 3 translate into per-(job, site)
eligibility:

* ``SECURE``  — only sites with ``SD <= SL`` (zero risk),
* ``RISKY``   — every site (tolerated failure probability 1),
* ``F_RISKY`` — sites whose failure probability is at most ``f``.

``SECURE`` equals ``F_RISKY`` with f = 0 and ``RISKY`` equals f = 1, so
all eligibility reduces to one vectorised threshold test.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.util.validation import check_positive, check_probability

__all__ = [
    "DEFAULT_LAMBDA",
    "RiskMode",
    "failure_probability",
    "risk_tolerance",
    "eligibility_matrix",
    "eligibility_kernel",
]

DEFAULT_LAMBDA = 3.0


class RiskMode(enum.Enum):
    """Operational risk mode of a security-driven scheduler."""

    SECURE = "secure"
    RISKY = "risky"
    F_RISKY = "f-risky"

    @classmethod
    def parse(cls, value: "RiskMode | str") -> "RiskMode":
        """Accept a mode or its string name (``'secure'`` etc.)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown risk mode {value!r}; expected one of {names}")


def failure_probability(
    security_demand, security_level, *, lam: float = DEFAULT_LAMBDA
):
    """Eq. 1 failure probability, broadcasting over array inputs.

    Parameters
    ----------
    security_demand, security_level:
        Scalars or arrays; broadcast against each other.
    lam:
        Exponential rate constant (> 0).

    Returns
    -------
    Array (or scalar) of probabilities in [0, 1).
    """
    check_positive("lam", lam)
    sd = np.asarray(security_demand, dtype=float)
    sl = np.asarray(security_level, dtype=float)
    gap = np.maximum(sd - sl, 0.0)
    out = -np.expm1(-lam * gap)  # 1 - exp(-lam*gap), accurate for small gap
    if out.ndim == 0:
        return float(out)
    return out


def risk_tolerance(mode: "RiskMode | str", f: float = 0.5) -> float:
    """Map a risk mode to its tolerated failure probability."""
    mode = RiskMode.parse(mode)
    if mode is RiskMode.SECURE:
        return 0.0
    if mode is RiskMode.RISKY:
        return 1.0
    return check_probability("f", f)


def eligibility_matrix(
    security_demands,
    security_levels,
    *,
    mode: "RiskMode | str" = RiskMode.SECURE,
    f: float = 0.5,
    lam: float = DEFAULT_LAMBDA,
    secure_only=None,
) -> np.ndarray:
    """Boolean (J, S) matrix: may job j run on site s under ``mode``?

    Parameters
    ----------
    security_demands:
        Job SD vector, shape (J,).
    security_levels:
        Site SL vector, shape (S,).
    mode, f, lam:
        Risk mode and its parameters.
    secure_only:
        Optional boolean (J,) mask of jobs that *must* be placed on
        absolutely safe sites regardless of the mode — the paper's
        rule for re-scheduling previously failed jobs.
    """
    check_positive("lam", lam)
    return eligibility_kernel(
        np.asarray(security_demands, dtype=float).reshape(-1),
        np.asarray(security_levels, dtype=float).reshape(-1),
        neg_lam=-lam,
        tol=risk_tolerance(mode, f),
        secure_only=None
        if secure_only is None
        else np.asarray(secure_only, dtype=bool).reshape(-1),
    )


def eligibility_kernel(
    sd: np.ndarray,
    sl: np.ndarray,
    *,
    neg_lam: float,
    tol: float,
    secure_only: np.ndarray | None = None,
) -> np.ndarray:
    """The eligibility kernel behind :func:`eligibility_matrix`.

    ``sd`` (J,) and ``sl`` (S,) are float vectors, ``neg_lam`` is
    ``-lam`` and ``tol`` the mode's tolerated failure probability
    (:func:`risk_tolerance`); ``secure_only`` is an optional (J,) bool
    mask.  No argument is validated: schedulers check theirs once, at
    construction, and call this per batch.
    """
    sd = sd[:, None]
    gap = np.maximum(sd - sl[None, :], 0.0)
    # Eq. 1's pfail = -expm1(-lam * gap) <= tol, negated exactly (float
    # negation is exact); the tiny epsilon keeps a site whose failure
    # probability exactly attains f (boundary inclusive).
    elig = np.expm1(neg_lam * gap) >= -(tol + 1e-12)
    if secure_only is not None and secure_only.any():
        elig = np.where(secure_only[:, None], sd <= sl[None, :], elig)
    return elig
