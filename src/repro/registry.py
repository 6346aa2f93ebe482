"""Scheduler and workload plugin registries.

The paper's whole methodology is "evaluate N algorithms on identical
event streams", so the algorithm lineup and the workload generators
are *data*, not code: every scheduler and every workload generator is
a named registry entry, and a declarative
:class:`~repro.experiments.spec.ExperimentSpec` crosses scheduler refs
x scenario variants x seeds (the FuzzBench experiment-config shape).

Schedulers
----------
A :class:`SchedulerSpec` wraps a factory with signature ::

    build(settings: RunSettings, rng: RngFactory, **context) -> BatchScheduler

``settings`` carries the engine parameters (λ, batch interval, seed,
GA config), ``rng`` is an :class:`~repro.util.rng.RngFactory` rooted
at ``settings.seed`` (its named streams are order-independent, so
factories may also root their own — bit-identical either way), and
``context`` supplies per-run objects that only stateful schedulers
need: ``scenario``, ``training`` (the warm-up stream), ``defaults``
(:class:`~repro.experiments.config.PaperDefaults`) and ``ga_config``.
Factories that need none of it declare ``**_`` and ignore it — this is
what makes stateful, per-run schedulers (the STGA with its history
warm-up) first-class registry citizens instead of a special case in
the experiment runner.

Registering a scheduler::

    from repro.registry import register_scheduler

    @register_scheduler("my-sched", description="...")
    def _build(settings, rng, **_):
        return MySched(lam=settings.lam)

Ref grammar
-----------
Scheduler *refs* — the strings an experiment spec, lineup, or CLI
carries — address a registry entry plus optional factory parameters::

    ref    := name [ "?" param ( "&" param )* ]
    param  := key "=" value

with these rules (see :func:`parse_scheduler_ref`):

* ``name`` is a canonical entry name or one of its aliases; unknown
  names raise ``KeyError`` listing every available entry, at
  :meth:`ExperimentSpec.validate`/build time rather than construction
  time (so specs can be authored without the plugin that defines
  them).
* Each ``key=value`` is forwarded to the factory as a keyword
  argument, e.g. ``"min-min-f-risky?f=0.3"`` calls the ``min-min-f-
  risky`` factory with ``f=0.3``.  A parameter whose key collides
  with an argument the factory fixes itself (e.g. ``lam``, which
  comes from the settings) raises ``TypeError`` at build time.
* ``value`` parses as a JSON scalar when possible — ``f=0.3`` is the
  float 0.3, ``strict=true`` the boolean True, ``cap=50`` an int,
  ``mode=null`` None — and falls back to the raw string otherwise
  (``eviction=fifo`` is the string ``"fifo"``).  There is no quoting
  mechanism: a string value cannot contain ``&`` or ``=``.
* The key ``label`` is *reserved*: it never reaches the factory and
  instead overrides the scheduler's report name, so two
  parameterizations of one algorithm can share a lineup
  (``"stga?eviction=fifo&label=STGA-FIFO"``).  Works for any
  ``BatchScheduler`` — schedulers that ignore a ``label`` attribute
  are wrapped in a rename proxy.
* A malformed parameter segment (missing ``=``, empty key) and an
  empty name raise ``ValueError``.
* Refs are compared as plain strings (a spec's ``schedulers`` must be
  distinct *as refs*), so ``"stga?a=1&b=2"`` and ``"stga?b=2&a=1"``
  are different refs that build identical schedulers.

Unified invocation (``ScheduleFn``)
-----------------------------------
:func:`bind_scheduler` (or :meth:`SchedulerSpec.bind`) wraps the built
scheduler in a :class:`BoundScheduler` exposing one call signature ::

    bound(snapshot, sites, now) -> ScheduleResult

where ``snapshot`` is the residual job set (a
:class:`~repro.workloads.base.Scenario` or any iterable of jobs) and
``sites`` a :class:`~repro.grid.site.Grid`.  The engine's batch
protocol (``bound.schedule(batch)``) and the report name
(``bound.name``) delegate unchanged, so a bound scheduler drops into
``GridSimulator`` *and* the online rescheduling / replay loops — STGA
and all heuristic refs through the same surface.

Workloads
---------
A :class:`WorkloadSpec` wraps a scenario builder ::

    build(variant, seed: int, scale: float, **params)
        -> (Scenario, Scenario | None)

returning the live scenario and the (optional) training stream for one
replication of a :class:`~repro.experiments.sweep.ScenarioVariant`.
An optional ``validate(variant)`` hook lets a generator reject knobs
it does not support (e.g. NAS rejects ``arrival_rate``), keeping the
policy next to the generator instead of hard-coded in the sweep.

Workload refs use the same grammar as scheduler refs
(:func:`parse_workload_ref`): ``variant.workload`` may be a bare name
(``"psa"``) or carry parameters (``"replay?path=run.jsonl"``).  The
dynamic-scenario keys (``dynamics``, ``cancel``, ``breakdown``,
``repair``, ``ptvar``, ``due``, ``online`` — see
:mod:`repro.workloads.dynamics`) are split off and applied by the
event director *on top of* whatever the named generator built, so
``"nas?dynamics=poisson&breakdown=0.01"`` is just another ref; any
other key is forwarded to the generator itself.

Built-in entries register where they are defined (the six paper
heuristics and the extra baselines in
:mod:`repro.heuristics.factory`, the conventional GA in
:mod:`repro.core.stga`, the STGA in
:mod:`repro.experiments.runner`, the PSA/NAS generators in
:mod:`repro.workloads`); lookups lazily import those modules, so
``build_scheduler("stga", ...)`` works without manual imports.
"""

from __future__ import annotations

import inspect
import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

__all__ = [
    "SchedulerSpec",
    "WorkloadSpec",
    "register_scheduler",
    "register_workload",
    "unregister_scheduler",
    "unregister_workload",
    "scheduler_spec",
    "workload_spec",
    "available_schedulers",
    "available_workloads",
    "parse_scheduler_ref",
    "parse_workload_ref",
    "build_scheduler",
    "bind_scheduler",
    "BoundScheduler",
    "build_workload",
    "validate_variant",
]


@dataclass(frozen=True)
class SchedulerSpec:
    """One registered scheduler: a name, a factory, documentation."""

    name: str
    build: Callable
    description: str = ""
    aliases: tuple[str, ...] = ()
    #: carries per-run state (history tables, RNG streams); informational
    stateful: bool = False

    def bind(self, settings, rng=None, **context) -> "BoundScheduler":
        """Build this entry and wrap it in the unified ``ScheduleFn``
        surface (see :class:`BoundScheduler`).

        ``rng`` defaults to a fresh
        :class:`~repro.util.rng.RngFactory` rooted at
        ``settings.seed``, exactly as :func:`build_scheduler` does.
        """
        from repro.util.rng import RngFactory

        if rng is None:
            rng = RngFactory(settings.seed)
        return BoundScheduler(self.build(settings, rng, **context))


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload generator."""

    name: str
    build: Callable
    description: str = ""
    #: optional hook rejecting ScenarioVariant knobs the generator
    #: does not support; raises ValueError on bad variants
    validate: Callable | None = field(default=None, compare=False)


_SCHEDULERS: dict[str, SchedulerSpec] = {}
_SCHEDULER_ALIASES: dict[str, str] = {}
_WORKLOADS: dict[str, WorkloadSpec] = {}

#: modules whose import registers the built-in entries
_BUILTIN_MODULES = (
    "repro.heuristics.factory",
    "repro.core.stga",
    "repro.experiments.runner",
    "repro.workloads.psa",
    "repro.workloads.nas",
    "repro.workloads.dynamics",
)
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the modules that register the built-in entries (once)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import importlib

    for mod in _BUILTIN_MODULES:
        importlib.import_module(mod)


def register_scheduler(
    name: str,
    *,
    description: str = "",
    aliases: Iterable[str] = (),
    stateful: bool = False,
) -> Callable:
    """Decorator registering a scheduler factory under ``name``.

    Duplicate names (including alias collisions) raise ``ValueError``
    — silently shadowing an algorithm would corrupt every spec that
    references it.
    """

    aliases = tuple(aliases)

    def _register(build: Callable) -> Callable:
        spec = SchedulerSpec(
            name=name,
            build=build,
            description=description,
            aliases=aliases,
            stateful=stateful,
        )
        for key in (name, *aliases):
            if key in _SCHEDULERS or key in _SCHEDULER_ALIASES:
                raise ValueError(
                    f"scheduler {key!r} is already registered"
                )
        _SCHEDULERS[name] = spec
        for alias in aliases:
            _SCHEDULER_ALIASES[alias] = name
        return build

    return _register


def register_workload(
    name: str, *, description: str = "", validate: Callable | None = None
) -> Callable:
    """Decorator registering a workload scenario builder under ``name``."""

    def _register(build: Callable) -> Callable:
        if name in _WORKLOADS:
            raise ValueError(f"workload {name!r} is already registered")
        _WORKLOADS[name] = WorkloadSpec(
            name=name, build=build, description=description, validate=validate
        )
        return build

    return _register


def unregister_scheduler(name: str) -> None:
    """Remove a registered scheduler (for plugin tests).

    Given an alias, only the alias mapping is removed (the canonical
    entry stays); given a canonical name, the entry and all its
    aliases go.  An unknown name is a no-op.
    """
    if name in _SCHEDULER_ALIASES:
        _SCHEDULER_ALIASES.pop(name)
        return
    spec = _SCHEDULERS.pop(name, None)
    if spec is not None:
        for alias in spec.aliases:
            _SCHEDULER_ALIASES.pop(alias, None)


def unregister_workload(name: str) -> None:
    """Remove a registered workload (for plugin tests); missing is a no-op."""
    _WORKLOADS.pop(name, None)


def scheduler_spec(name: str) -> SchedulerSpec:
    """Look up a scheduler entry by name or alias.

    Unknown names raise ``KeyError`` listing every available entry.
    """
    _ensure_builtins()
    canonical = _SCHEDULER_ALIASES.get(name, name)
    try:
        return _SCHEDULERS[canonical]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: "
            f"{', '.join(available_schedulers())}"
        ) from None


def workload_spec(name: str) -> WorkloadSpec:
    """Look up a workload entry; unknown names list the alternatives."""
    _ensure_builtins()
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(available_workloads())}"
        ) from None


def available_schedulers() -> tuple[str, ...]:
    """Registered scheduler names (canonical, sorted)."""
    _ensure_builtins()
    return tuple(sorted(_SCHEDULERS))


def available_workloads() -> tuple[str, ...]:
    """Registered workload names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_WORKLOADS))


def _parse_scalar(raw: str):
    """JSON scalar if possible (int/float/bool/null), else the string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_ref(ref: str, what: str) -> tuple[str, dict]:
    name, sep, query = ref.partition("?")
    if not name:
        raise ValueError(f"{what} ref {ref!r} has an empty name")
    params: dict = {}
    if sep and query:
        for item in query.split("&"):
            key, eq, raw = item.partition("=")
            if not eq or not key:
                raise ValueError(
                    f"bad parameter {item!r} in {what} ref {ref!r} "
                    "(expected key=value)"
                )
            params[key] = _parse_scalar(raw)
    return name, params


def parse_scheduler_ref(ref: str) -> tuple[str, dict]:
    """Split ``"name?key=value&..."`` into (name, params).

    The full grammar lives in the module docstring ("Ref grammar");
    operationally: the bare name passes through with empty params;
    values are JSON-scalar parsed with a plain-string fallback
    (``f=0.3`` → ``0.3``, ``eviction=fifo`` → ``"fifo"``); the
    reserved ``label`` key is returned like any other and stripped by
    :func:`build_scheduler`.  Malformed parameter segments (missing
    ``=``, empty keys) and an empty name raise ``ValueError``.  The
    name is *not* resolved here — pass it to :func:`scheduler_spec`
    for that.
    """
    return _parse_ref(ref, "scheduler")


def parse_workload_ref(ref: str) -> tuple[str, dict]:
    """Split a workload ref into (name, params) — same grammar as
    :func:`parse_scheduler_ref`.

    The dynamic-scenario keys among the params are consumed by
    :func:`build_workload` itself (handed to the event director);
    everything else reaches the generator's ``build``.
    """
    return _parse_ref(ref, "workload")


class _LabeledScheduler:
    """Rename proxy for schedulers whose ``name`` ignores ``label``.

    Delegates everything to the wrapped scheduler; only the report
    name changes.  Used by :func:`build_scheduler` so the reserved
    ``label`` ref parameter works for *any* ``BatchScheduler``, not
    just classes that consult a ``label`` attribute themselves.
    """

    def __init__(self, inner, label: str) -> None:
        self._inner = inner
        self._label = label

    @property
    def name(self) -> str:
        return self._label

    def schedule(self, batch):
        return self._inner.schedule(batch)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Labeled {self._label!r} of {self._inner!r}>"


def build_scheduler(ref: str, settings, rng=None, **context):
    """Instantiate the scheduler a ref names.

    ``ref`` may carry ``?key=value`` factory parameters; the reserved
    ``label`` parameter overrides the scheduler's report name (so two
    parameterizations of one algorithm can share a lineup).  ``rng``
    defaults to a fresh :class:`~repro.util.rng.RngFactory` rooted at
    ``settings.seed``.
    """
    from repro.util.rng import RngFactory

    name, params = parse_scheduler_ref(ref)
    spec = scheduler_spec(name)
    label = params.pop("label", None)
    if rng is None:
        rng = RngFactory(settings.seed)
    sched = spec.build(settings, rng, **context, **params)
    if label is not None:
        label = str(label)
        # the built-in base classes honour a `label` attribute; wrap
        # anything that doesn't so the rename never silently drops
        try:
            sched.label = label
        except AttributeError:  # e.g. __slots__ schedulers
            pass
        if sched.name != label:
            sched = _LabeledScheduler(sched, label)
    return sched


class BoundScheduler:
    """The unified ``ScheduleFn`` surface around a built scheduler.

    Three equivalent entry points, one decision procedure:

    * ``bound(snapshot, sites, now)`` — the protocol call: snapshot a
      residual job set against a grid at simulation time ``now`` (via
      :func:`repro.grid.batch.snapshot_batch`) and schedule it;
    * ``bound.schedule(batch)`` — the engine's batch protocol,
      delegated verbatim (so a bound scheduler *is* a valid
      ``GridSimulator`` scheduler);
    * ``bound.name`` — the report name, delegated.

    Every other attribute passes through to the wrapped scheduler.
    """

    def __init__(self, inner) -> None:
        if not hasattr(inner, "schedule"):
            raise TypeError(
                f"scheduler {inner!r} lacks a schedule(batch) method"
            )
        self._inner = inner

    @property
    def name(self) -> str:
        return self._inner.name

    def schedule(self, batch):
        return self._inner.schedule(batch)

    def __call__(self, snapshot, sites, now: float = 0.0, *,
                 ready=None, secure_only=None):
        from repro.grid.batch import snapshot_batch

        jobs = getattr(snapshot, "jobs", snapshot)
        batch = snapshot_batch(
            jobs, sites, now, ready=ready, secure_only=secure_only
        )
        return self._inner.schedule(batch)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Bound {self._inner!r}>"


def bind_scheduler(ref: str, settings, rng=None, **context) -> BoundScheduler:
    """:func:`build_scheduler`, wrapped in the unified ``ScheduleFn``
    surface.

    This is the invocation path the experiment runner, the online
    rescheduling loop and trace replay all share; prefer it over
    calling scheduler classes or :mod:`repro.heuristics.factory`
    helpers directly.
    """
    return BoundScheduler(build_scheduler(ref, settings, rng, **context))


def _dynamics_module():
    # Deferred: repro.workloads.dynamics imports this module for
    # @register_workload, so a top-level import would be circular.
    import repro.workloads.dynamics as dynamics

    return dynamics


def build_workload(variant, seed: int, scale: float = 1.0):
    """(scenario, training) for one replication of ``variant``.

    ``variant.workload`` is parsed as a ref: the named generator
    builds the base scenario (receiving any non-dynamics params as
    keyword arguments), then the event director applies whatever
    dynamic-scenario keys the ref carried.
    """
    name, params = parse_workload_ref(variant.workload)
    spec = workload_spec(name)
    dynamics = _dynamics_module()
    dyn_params = {
        key: params.pop(key)
        for key in list(params)
        if key in dynamics.DYNAMICS_PARAMS
    }
    scenario, training = spec.build(variant, seed, scale, **params)
    if dyn_params:
        scenario = dynamics.apply_dynamics(scenario, seed=seed, **dyn_params)
    return scenario, training


def validate_variant(variant) -> None:
    """Run the workload's variant validator (if any); raises ValueError.

    Dynamic-scenario params in the ref are validated here too, so a
    bad ``breakdown=-1`` fails at variant construction rather than
    mid-sweep, and so do params the generator's ``build`` cannot
    accept — a typo'd knob must not surface as a ``TypeError``
    traceback inside a worker process.
    """
    name, params = parse_workload_ref(variant.workload)
    spec = workload_spec(name)
    dynamics = _dynamics_module()
    dyn_params = {
        key: value
        for key, value in params.items()
        if key in dynamics.DYNAMICS_PARAMS
    }
    if dyn_params:
        dynamics.validate_dynamics_params(dyn_params)
    extra = [key for key in params if key not in dyn_params]
    if extra:
        signature = inspect.signature(spec.build)
        takes_kwargs = any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in signature.parameters.values()
        )
        if not takes_kwargs:
            accepted = [
                pname
                for pname, p in signature.parameters.items()
                if p.kind
                in (
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    inspect.Parameter.KEYWORD_ONLY,
                )
                and pname not in ("variant", "seed", "scale")
            ]
            unknown = sorted(set(extra) - set(accepted))
            if unknown:
                known = sorted(accepted) + sorted(dynamics.DYNAMICS_PARAMS)
                raise ValueError(
                    f"workload {name!r} does not accept param(s) "
                    f"{unknown}; known: {known}"
                )
    if spec.validate is not None:
        spec.validate(variant)
