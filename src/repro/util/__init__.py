"""Shared utilities: deterministic RNG streams, validation, statistics,
table rendering, timing, atomic writes and the provenance clock."""

from repro.util.atomic import atomic_write_text
from repro.util.clock import utc_now_iso, utc_timestamp
from repro.util.rng import RngFactory, as_generator
from repro.util.tables import format_number, render_table
from repro.util.timing import Stopwatch
from repro.util.validation import (
    check_1d,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RngFactory",
    "as_generator",
    "atomic_write_text",
    "utc_now_iso",
    "utc_timestamp",
    "render_table",
    "format_number",
    "Stopwatch",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_1d",
]
