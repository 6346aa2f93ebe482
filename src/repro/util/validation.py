"""Small argument-validation helpers shared across the library.

These raise uniform, descriptive errors so that public API misuse is
caught at the boundary rather than deep inside a vectorised kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_1d",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return float(value)


def check_1d(name: str, arr: np.ndarray) -> np.ndarray:
    """Coerce to a 1-D float array."""
    out = np.asarray(arr, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {out.shape}")
    return out
