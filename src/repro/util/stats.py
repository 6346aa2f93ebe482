"""The Student-t critical value behind the sweeps' confidence intervals.

Nothing here is paper-specific; :func:`t_critical` is a dependency-free
replacement for ``scipy.stats.t.ppf``.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = ["t_critical"]


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta function
    (modified Lentz's method, Numerical Recipes §6.4)."""
    max_iter, eps, fpmin = 200, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


@lru_cache(maxsize=256)
def t_critical(df: int, *, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value: ``P(|T_df| <= t) = confidence``.

    Dependency-free replacement for ``scipy.stats.t.ppf``: the
    two-sided tail mass ``P(|T_df| > t) = I_{df/(df+t^2)}(df/2, 1/2)``
    is monotone decreasing in ``t``, so we invert it by bisection on
    the incomplete beta function.  Accurate to ~1e-10 against scipy
    for the df range the sweeps use (e.g. ``t_critical(4)`` ≈ 2.776445,
    vs the 1.959964 normal limit).
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence

    def tail(t: float) -> float:
        return _betainc(df / 2.0, 0.5, df / (df + t * t))

    hi = 1.0
    while tail(hi) > alpha:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail(mid) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
