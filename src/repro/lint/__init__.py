"""``repro.lint``: an AST-based linter for the repo's own invariants.

General-purpose linters check style; this package checks the
*semantic* conventions the reproduction's correctness claims rest on —
single-point RNG construction, clock-free payload codecs, ordered
iteration before serialization, atomic persistence writes, registry
hygiene, parameterized append-only SQL, and no unused imports.  Rule
catalogue and suppression policy live in ``docs/LINT.md``; run it as
``repro-grid lint [PATHS]``.

Layout:

* :mod:`repro.lint.core` — rule-agnostic framework (``Rule``,
  ``FileContext``, ``Finding``, suppression pragmas, ``lint_paths``)
* :mod:`repro.lint.rules` — the seven shipped rules
* :mod:`repro.lint.locks` — pinned checksums for append-only artifacts
* :mod:`repro.lint.cli` — the ``repro-grid lint`` subcommand
"""

from repro.lint.core import (
    FileContext,
    Finding,
    LintReport,
    Rule,
    lint_paths,
)
from repro.lint.rules import default_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "default_rules",
    "lint_paths",
]
