"""The initial rule set: the repo's real invariants, mechanized.

Each rule below encodes a convention that the library's correctness
claims rest on (bit-identical sweeps, byte-stable run records,
crash-resume == uninterrupted run) but that used to live only in
docstrings.  ``docs/LINT.md`` carries the full catalogue with the
rationale and remediation per rule; the short form:

========  ==========================================================
rule id   invariant
========  ==========================================================
``D1``    no random-state construction outside ``util/rng.py``
``D2``    no wall-clock reads in payload-producing modules (use
          :mod:`repro.util.clock`)
``D3``    no unordered iteration (bare sets, ``os.listdir``) in
          serialization modules
``A1``    every write under ``experiments/store/`` and
          ``experiments/manifest.py`` goes through
          :func:`repro.util.atomic.atomic_write_text`
``R1``    registry entries carry a description, a docstring, and a
          ref-grammar-safe name
``Q1``    SQL in ``store/sqlite.py`` is parameterized; ``MIGRATIONS``
          is append-only (checksummed prefix)
``I1``    every imported name is used (or re-exported in
          ``__all__``)
========  ==========================================================
"""

from __future__ import annotations

import ast
import hashlib
import re
from collections.abc import Iterator

from repro.lint.core import FileContext, Finding, Rule
from repro.lint.locks import MIGRATIONS_LOCK

__all__ = [
    "RngConstructionRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "AtomicWriteRule",
    "RegistryHygieneRule",
    "SqlHygieneRule",
    "UnusedImportRule",
    "default_rules",
    "migration_checksum",
]

#: modules whose records/payloads must be pure functions of their
#: inputs — the D2/D3 blast radius.  The service tree is in scope:
#: everything it persists (job rows, run records) must stamp time via
#: repro.util.clock only, so stored state stays replayable.
_PAYLOAD_SUFFIXES = ("experiments/spec.py", "metrics/report.py")
_PAYLOAD_FRAGMENTS = ("/experiments/store/", "/service/")


def _walk_calls(ctx: FileContext) -> Iterator[ast.Call]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            yield node


class RngConstructionRule(Rule):
    """D1: generators are constructed in ``util/rng.py`` and nowhere
    else.

    Deterministic replication rests on every stochastic component
    drawing from an explicitly passed ``numpy.random.Generator`` (or
    :class:`~repro.util.rng.RngFactory` stream).  A stray
    ``default_rng()`` — or worse, stdlib ``random`` module state —
    creates a hidden stream that silently decouples a component from
    the root seed.
    """

    rule_id = "D1"
    title = (
        "no np.random/default_rng/random.* construction outside "
        "util/rng.py"
    )
    default_hint = (
        "take a numpy Generator or RngFactory parameter and derive "
        "streams via repro.util.rng (as_generator / RngFactory.stream)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.path_endswith("util/rng.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx):
            name = ctx.call_name(call)
            if name is None:
                continue
            if name.startswith("numpy.random.") or (
                name == "random" or name.startswith("random.")
            ):
                yield self.finding(
                    ctx,
                    call,
                    f"constructs or touches shared random state via "
                    f"{name}() — only repro/util/rng.py may build "
                    f"generators",
                )


class WallClockRule(Rule):
    """D2: payload-producing modules never read the wall clock
    directly.

    Provenance timestamps (``created_at`` et al.) are the *only*
    nondeterministic bytes a record may carry, and they all funnel
    through :mod:`repro.util.clock` so they stay auditable and
    monkeypatchable.  A direct ``datetime.now()`` in a codec module is
    a byte of nondeterminism the byte-identity tests cannot see.
    """

    rule_id = "D2"
    title = (
        "no direct wall-clock reads in payload-producing modules "
        "(store/, spec.py, metrics/report.py)"
    )
    default_hint = (
        "use repro.util.clock.utc_now_iso() / utc_timestamp(), the "
        "designated provenance helpers"
    )

    _BANNED = frozenset({
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    })

    def applies(self, ctx: FileContext) -> bool:
        return ctx.path_contains(*_PAYLOAD_FRAGMENTS) or ctx.path_endswith(
            *_PAYLOAD_SUFFIXES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx):
            name = ctx.call_name(call)
            if name in self._BANNED:
                yield self.finding(
                    ctx,
                    call,
                    f"wall-clock read {name}() in a payload-producing "
                    f"module (nondeterministic record bytes)",
                )


class UnorderedIterationRule(Rule):
    """D3: nothing with arbitrary order feeds JSON/CSV serialization.

    ``os.listdir`` order is filesystem-dependent and ``set`` iteration
    order is hash-seed-dependent; either one upstream of a record
    write makes "byte-identical" a coin flip.  Directory scans must be
    ``sorted(...)``-wrapped and sets sorted before iteration.
    """

    rule_id = "D3"
    title = (
        "no bare-set iteration or unsorted directory listings in "
        "serialization modules"
    )
    default_hint = "wrap the listing/set in sorted(...) before iterating"

    _LISTING_CALLS = frozenset({"os.listdir", "os.scandir"})
    _LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

    def applies(self, ctx: FileContext) -> bool:
        return (
            ctx.path_contains(*_PAYLOAD_FRAGMENTS)
            or ctx.path_endswith(
                *_PAYLOAD_SUFFIXES, "experiments/manifest.py"
            )
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx):
            name = ctx.call_name(call)
            method = (
                call.func.attr
                if isinstance(call.func, ast.Attribute)
                else None
            )
            if (
                name in self._LISTING_CALLS
                or method in self._LISTING_METHODS
            ) and not ctx.in_sorted(call):
                label = name if name is not None else f".{method}()"
                yield self.finding(
                    ctx,
                    call,
                    f"directory listing {label} has filesystem-"
                    f"dependent order; wrap it in sorted(...)",
                )
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call)
                    and ctx.call_name(it) == "set"
                ):
                    yield self.finding(
                        ctx,
                        it,
                        "iterating a bare set: hash-seed-dependent "
                        "order feeding a serialization module",
                    )


class AtomicWriteRule(Rule):
    """A1: durable writes in store/manifest code are atomic.

    Crash-resume's core guarantee — a record that exists is complete —
    holds only if every ``run.json`` / ``manifest.json`` / ``grid.csv``
    write is a temp-file + rename.  All writes in the persistence
    layer must go through
    :func:`repro.util.atomic.atomic_write_text`; a direct
    ``open(..., "w")`` is a truncation window.
    """

    rule_id = "A1"
    title = (
        "writes under experiments/store/ and experiments/manifest.py "
        "go through the atomic temp+rename helper"
    )
    default_hint = (
        "serialize to a string and write it with "
        "repro.util.atomic.atomic_write_text(path, text)"
    )

    _WRITE_METHODS = frozenset({"write_text", "write_bytes"})

    def applies(self, ctx: FileContext) -> bool:
        return ctx.path_contains(*_PAYLOAD_FRAGMENTS) or ctx.path_endswith(
            "experiments/manifest.py"
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx):
            name = ctx.call_name(call)
            method = (
                call.func.attr
                if isinstance(call.func, ast.Attribute)
                else None
            )
            if method in self._WRITE_METHODS:
                yield self.finding(
                    ctx,
                    call,
                    f"direct .{method}() in the persistence layer — a "
                    f"crash mid-write leaves a truncated file",
                )
            elif name == "open" or method == "open":
                mode = self._mode_argument(call)
                if mode is not None and any(c in mode for c in "wxa+"):
                    yield self.finding(
                        ctx,
                        call,
                        f"direct open(..., {mode!r}) in the "
                        f"persistence layer — a crash mid-write "
                        f"leaves a truncated file",
                    )

    @staticmethod
    def _mode_argument(call: ast.Call) -> str | None:
        """The constant mode string of an ``open`` call, if any."""
        mode: ast.expr | None = None
        if call.args:
            # builtin open(path, mode) / Path.open(mode)
            index = 1 if isinstance(call.func, ast.Name) else 0
            if len(call.args) > index:
                mode = call.args[index]
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None


class RegistryHygieneRule(Rule):
    """R1: registry entries are documented and ref-grammar-safe.

    Specs address schedulers/workloads by *ref* strings
    (``name?key=value``), so an entry name containing ``?``, ``&``,
    ``=`` or upper case would be unaddressable or ambiguous; and the
    ``repro-grid registry`` table is only as useful as the
    descriptions and docstrings behind it.
    """

    rule_id = "R1"
    title = (
        "@register_scheduler/@register_workload sites carry a "
        "description, a docstring, and a grammar-safe name"
    )
    default_hint = (
        "pass description=\"...\", give the factory a docstring, and "
        "keep names to lowercase [a-z0-9._-] (the ref grammar)"
    )

    _TARGETS = frozenset({
        "repro.registry.register_scheduler",
        "repro.registry.register_workload",
        "register_scheduler",
        "register_workload",
    })
    _NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        seen: set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for deco in node.decorator_list:
                if (
                    isinstance(deco, ast.Call)
                    and self._target(ctx, deco) is not None
                ):
                    seen.add(id(deco))
                    yield from self._check_call(ctx, deco)
                    if not ast.get_docstring(node):
                        yield self.finding(
                            ctx,
                            node,
                            f"registered factory {node.name}() has no "
                            f"docstring",
                        )
        for call in _walk_calls(ctx):
            if id(call) in seen or self._target(ctx, call) is None:
                continue
            yield from self._check_call(ctx, call)
            yield from self._check_applied_function(ctx, call, functions)

    def _target(self, ctx: FileContext, call: ast.Call) -> str | None:
        name = ctx.call_name(call)
        return name if name in self._TARGETS else None

    def _check_call(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterator[Finding]:
        kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        description = kwargs.get("description")
        if description is None:
            yield self.finding(
                ctx,
                call,
                "registry entry has no description= (the 'repro-grid "
                "registry' table would show an empty row)",
            )
        elif (
            isinstance(description, ast.Constant)
            and isinstance(description.value, str)
            and not description.value.strip()
        ):
            yield self.finding(
                ctx, call, "registry entry has an empty description="
            )
        names: list[ast.expr] = []
        if call.args:
            names.append(call.args[0])
        elif "name" in kwargs:
            names.append(kwargs["name"])
        aliases = kwargs.get("aliases")
        if isinstance(aliases, (ast.Tuple, ast.List)):
            names.extend(aliases.elts)
        for name_node in names:
            if isinstance(name_node, ast.Constant) and isinstance(
                name_node.value, str
            ):
                if not self._NAME_RE.match(name_node.value):
                    yield self.finding(
                        ctx,
                        name_node,
                        f"registry name {name_node.value!r} violates "
                        f"the ref grammar (lowercase [a-z0-9._-], no "
                        f"'?'/'&'/'=')",
                    )

    def _check_applied_function(
        self,
        ctx: FileContext,
        call: ast.Call,
        functions: dict,
    ) -> Iterator[Finding]:
        """Docstring check for the ``register_x(...)(fn)`` call form."""
        parent = ctx.parents.get(call)
        if not (isinstance(parent, ast.Call) and parent.func is call):
            return
        if not parent.args:
            return
        target = parent.args[0]
        if isinstance(target, ast.Lambda):
            yield self.finding(
                ctx,
                target,
                "registering a lambda: a registry factory needs a "
                "docstring",
            )
        elif isinstance(target, ast.Name):
            func = functions.get(target.id)
            if func is not None and not ast.get_docstring(func):
                yield self.finding(
                    ctx,
                    func,
                    f"registered factory {func.name}() has no "
                    f"docstring",
                )


def migration_checksum(segment: str) -> str:
    """Whitespace-insensitive checksum of one ``MIGRATIONS`` entry.

    Every whitespace character is stripped before hashing, so
    reformatting an entry does not change its checksum but touching a
    single character of its SQL does.  16 hex digits of SHA-256 —
    plenty against accidental edits, which is the threat model.
    """
    canonical = "".join(segment.split())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class SqlHygieneRule(Rule):
    """Q1: the SQLite backend's SQL is parameterized and its
    migration history immutable.

    String-built SQL is how injection and quoting bugs arrive, so any
    dynamically composed query (f-string, concatenation, ``%``,
    ``.format``) is flagged — genuinely dynamic clauses carry a
    justified ``allow[Q1]`` pragma instead.  The ``MIGRATIONS`` list
    is released schema history: editing an applied entry makes fresh
    databases silently diverge from upgraded ones, so each released
    entry's checksum is pinned in
    :data:`repro.lint.locks.MIGRATIONS_LOCK` and verified here.
    """

    rule_id = "Q1"
    title = (
        "sqlite backend: parameterized queries only; MIGRATIONS is "
        "append-only against a checksummed prefix"
    )
    default_hint = (
        "pass values through '?' placeholders; for structurally "
        "dynamic SQL add '# repro: allow[Q1] -- <why it is safe>'"
    )

    _EXECUTE_METHODS = frozenset({"execute", "executemany", "executescript"})

    def __init__(self, migrations_lock: tuple[str, ...] | None = None):
        self.migrations_lock = (
            migrations_lock if migrations_lock is not None
            else MIGRATIONS_LOCK
        )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.path_endswith(
            "experiments/store/sqlite.py", "service/queue.py"
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in self._EXECUTE_METHODS
                and call.args
                and self._dynamic_sql(call.args[0])
            ):
                yield self.finding(
                    ctx,
                    call,
                    f".{call.func.attr}() with dynamically built SQL "
                    f"— use parameterized queries (? placeholders)",
                )
        yield from self._check_migrations(ctx)

    @staticmethod
    def _dynamic_sql(node: ast.expr) -> bool:
        if isinstance(node, ast.JoinedStr):
            return any(
                isinstance(part, ast.FormattedValue) for part in node.values
            )
        if isinstance(node, ast.BinOp):
            return True
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"
        ):
            return True
        return False

    def _check_migrations(self, ctx: FileContext) -> Iterator[Finding]:
        entries = self._migration_entries(ctx)
        if entries is None:
            return
        lock = self.migrations_lock
        lock_hint = (
            "released MIGRATIONS entries are immutable history: add "
            "new behaviour as a *new* appended migration"
        )
        for i, (node, checksum) in enumerate(entries):
            if i < len(lock) and checksum != lock[i]:
                yield self.finding(
                    ctx,
                    node,
                    f"released migration #{i + 1} was edited or "
                    f"reordered (checksum {checksum} != locked "
                    f"{lock[i]})",
                    hint=lock_hint,
                )
            elif i >= len(lock):
                yield self.finding(
                    ctx,
                    node,
                    f"new migration #{i + 1} is not pinned yet",
                    hint=(
                        f"append \"{checksum}\" to MIGRATIONS_LOCK in "
                        f"src/repro/lint/locks.py to release it"
                    ),
                )
        if len(entries) < len(lock):
            yield self.finding(
                ctx,
                ctx.tree,
                f"MIGRATIONS lists {len(entries)} entr(ies) but "
                f"{len(lock)} are locked — released migrations were "
                f"removed",
                hint=lock_hint,
            )

    @staticmethod
    def _migration_entries(
        ctx: FileContext,
    ) -> list[tuple[ast.expr, str]] | None:
        """(node, checksum) per entry of the MIGRATIONS tuple, or None
        when the file has no module-level MIGRATIONS assignment."""
        for node in ctx.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not (
                isinstance(target, ast.Name)
                and target.id == "MIGRATIONS"
                and value is not None
            ):
                continue
            if not isinstance(value, ast.Tuple):
                return []
            out: list[tuple[ast.expr, str]] = []
            for elt in value.elts:
                segment = ast.get_source_segment(ctx.source, elt) or ""
                out.append((elt, migration_checksum(segment)))
            return out
        return None


class UnusedImportRule(Rule):
    """I1: every name an import binds is read somewhere in the file.

    An unused import is a dependency nobody has: it costs import time,
    can close an import cycle, and sends a reader looking for a use
    that is not there.  A name read inside a quoted annotation or
    listed in ``__all__`` (a package's re-export) counts as used;
    ``from __future__`` imports never count.
    """

    rule_id = "I1"
    title = "no unused imports"
    default_hint = (
        "delete the import, or list a deliberate re-export in __all__"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        used = _read_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                bound = [
                    (a.asname or a.name.split(".", 1)[0], a.name)
                    for a in node.names
                ]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                bound = [(a.asname or a.name, a.name) for a in node.names]
            else:
                continue
            for local, name in bound:
                if local not in used and name != "*":
                    shown = name if local == name else f"{name} as {local}"
                    yield self.finding(
                        ctx, node, f"{shown!r} is imported but never used"
                    )


def _read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, plus the names inside quoted
    annotations and the strings of an ``__all__`` list."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            used.update(_strings(node.value))
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None
        )
        for text in _strings(annotation) if annotation is not None else ():
            try:
                used |= _read_names(ast.parse(text, mode="eval"))
            except SyntaxError:
                pass
    return used


def _strings(node: ast.AST) -> list[str]:
    return [
        c.value for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]


def default_rules() -> tuple[Rule, ...]:
    """Fresh instances of the full rule set, in catalogue order."""
    return (
        RngConstructionRule(),
        WallClockRule(),
        UnorderedIterationRule(),
        AtomicWriteRule(),
        RegistryHygieneRule(),
        SqlHygieneRule(),
        UnusedImportRule(),
    )
