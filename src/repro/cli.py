"""Command-line entry point: regenerate any paper table or figure,
run declarative experiment specs, and manage stored runs.

Examples
--------
::

    repro-grid fig7a --scale 0.1
    repro-grid fig8  --scale 0.05 --seed 7
    repro-grid table2 --scale 0.05
    repro-grid fig10 --scale 0.02
    repro-grid ablation --scale 0.05
    repro-grid sweep --scale 0.01 --sweep-seeds 5 --sweep-jobs 1000,2000
    repro-grid sweep --out runs/baseline
    repro-grid sweep --sweep-workload "psa?dynamics=poisson&online=true" \\
        --record-traces traces/ --out runs/dynamic
    repro-grid replay traces/ --out runs/replayed
    repro-grid emit-spec fig8 --scale 0.05 --out fig8.json
    repro-grid run fig8.json --out runs/fig8
    repro-grid shard fig8.json --shards 4 --out-dir shards/
    repro-grid run fig8.json --shard-index 1 --num-shards 4 --out runs/p1
    repro-grid merge runs/p0 runs/p1 --spec fig8.json --out runs/fig8
    repro-grid merge runs/p0 --spec fig8.json --out runs/partial --allow-partial
    repro-grid status shards/manifest.json
    repro-grid resume shards/manifest.json --out runs/fig8
    repro-grid registry
    repro-grid compare-runs runs/baseline runs/tuned
    repro-grid compare-runs baselines/ci runs/new --fail-on-regression
    repro-grid sweep --scale 0.01 --store sqlite:runs.db
    repro-grid runs list --store sqlite:runs.db
    repro-grid runs show 3 --store sqlite:runs.db
    repro-grid runs import runs/20260728T093102Z-baseline --store sqlite:runs.db
    repro-grid runs export 3 out/baseline --store sqlite:runs.db
    repro-grid serve --store sqlite:runs.db --port 8750
    repro-grid submit fig8.json --wait
    repro-grid jobs
    repro-grid cancel 3

``--scale 1.0`` runs the paper-size experiments (minutes of CPU time);
the default is a fast scaled-down run with identical distributions.
Every figure command runs its experiment's declarative
:class:`~repro.experiments.spec.ExperimentSpec` through ``run_spec``
and renders the result; ``emit-spec`` writes that spec as JSON and
``run`` executes any spec file — the shippable unit for distributing
replications across hosts.  ``shard`` partitions a spec's
(variant, seed) grid into sub-spec files (plus a ``manifest.json``
tracking per-shard dispatch state), ``run --shard-index I
--num-shards N`` executes one partition of a spec in place (every host
derives the same deterministic partition), and ``merge`` recombines
the partial run records into one record that is bit-identical to a
single-host run — ``merge --allow-partial`` accepts a still-incomplete
set and reports completion percentage + missing cells instead of
refusing.  ``status MANIFEST`` shows a sharded run's per-shard states
and ``resume MANIFEST`` re-dispatches only the shards that never
finished, then merges — the crash-recovery loop (see
:mod:`repro.experiments.dispatch`, :mod:`repro.experiments.manifest`
and ``docs/CLI.md``).  ``compare-runs A B`` diffs two stored runs
per (variant, scheduler, metric) cell; with ``--fail-on-regression``
it exits 1 when run B is statistically worse than baseline A by more
than ``--threshold`` percent (the CI regression gate).

Dynamic scenarios travel inside workload refs: ``--sweep-workload
"psa?dynamics=poisson&breakdown=0.01&online=true"`` layers arrival
redraw, breakdowns and online rescheduling onto the generator (see
``docs/SCENARIOS.md``).  ``sweep --record-traces DIR`` records every
(variant, seed, scheduler) cell as a replayable grid trace, and
``replay`` re-executes traces, verifying the re-run is bit-identical to
the recording; with ``--out`` the replayed cells persist as a run
record, so ``compare-runs --fail-on-regression --threshold 0`` can gate
on replay fidelity.

Run records live in pluggable *stores* (see ``docs/STORE.md``):
``--store URI`` on ``sweep``, ``run``, ``merge``, ``resume`` and
``compare-runs`` names one (``fs:runs`` — the default directory
registry — or ``sqlite:runs.db``), and the ``runs`` subcommand family
(``list`` / ``show`` / ``import`` / ``export``) manages a store's
contents directly, defaulting to the ``REPRO_STORE`` environment
variable and then ``fs:runs``.

``serve`` runs the long-lived experiment service (HTTP API +
background dispatcher) over a SQLite store; ``submit`` / ``jobs`` /
``cancel`` talk to it through :mod:`repro.service.client` (see
``docs/SERVICE.md``).

Each subcommand owns its options: write ``repro-grid fig8 --scale
0.1``, not ``repro-grid --scale 0.1 fig8``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from repro.experiments.ablation import stga_vs_conventional
from repro.experiments.config import RunSettings
from repro.experiments.fig7 import (
    frisky_sweep_spec,
    render_fig7a,
    render_fig7b,
    stga_iteration_spec,
)
from repro.experiments.fig8 import nas_lineups, nas_spec, render_fig8
from repro.experiments.fig9 import render_fig9
from repro.experiments.fig10 import psa_scaling_spec, render_fig10
from repro.experiments.dispatch import (
    SHARD_STRATEGIES,
    ShardError,
    grid_completion,
    merge_runs,
    resume_manifest,
    resume_todo,
    shard_file_name,
    shard_spec,
)
from repro.experiments.manifest import (
    MANIFEST_JSON,
    create_manifest,
    load_manifest,
    save_manifest,
)
from repro.experiments.spec import (
    ExperimentSpec,
    SpecError,
    load_spec,
    parse_spec_text,
    run_spec,
    save_spec,
)
from repro.lint.cli import add_lint_parser, cmd_lint
from repro.experiments.store import (
    STORE_ENV,
    RunStore,
    as_result,
    compare_runs,
    find_regressions,
    load_run,
    open_store,
    parse_store_uri,
    save_run,
)
from repro.service.client import SERVICE_URL_ENV
from repro.service.server import DEFAULT_HOST, DEFAULT_PORT
from repro.experiments.replay import record_sweep, replay_result, replay_trace
from repro.experiments.sweep import (
    job_scaling_variants,
    run_sweep,
    seed_list,
)
from repro.experiments.table2 import render_table2, table2_spec
from repro.metrics.compare import (
    compare_ensemble,
    render_ensemble_comparison,
    render_run_diff,
)
from repro.registry import (
    available_schedulers,
    available_workloads,
    scheduler_spec,
    workload_spec,
)
from repro.util.tables import render_table

__all__ = ["main", "build_parser"]

#: figure command -> (spec builder, renderer over its run_spec result);
#: ``repro-grid figN`` prints the rendering of its builder's spec run
FIGURES = {
    "fig7a": (frisky_sweep_spec, render_fig7a),
    "fig7b": (stga_iteration_spec, render_fig7b),
    "fig8": (nas_spec, render_fig8),
    "fig9": (nas_spec, render_fig9),  # Figure 9 reuses the Figure 8 runs
    "fig10": (psa_scaling_spec, render_fig10),
    "table2": (table2_spec, lambda res: render_table2(nas_lineups(res)[0])),
}

#: experiment name -> spec builder, for ``emit-spec``
SPEC_BUILDERS = {name: builder for name, (builder, _) in FIGURES.items()}


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Engine options shared by every experiment subcommand."""
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="workload scale factor, 1.0 = paper size (default 0.05)",
    )
    parser.add_argument("--seed", type=int, default=2005, help="root seed")
    parser.add_argument(
        "--batch-interval",
        type=float,
        default=1000.0,
        help="seconds between scheduling events (default 1000)",
    )
    parser.add_argument(
        "--lam",
        type=float,
        default=3.0,
        help="Eq.1 failure-rate constant lambda (default 3.0)",
    )


def _add_store(parser: argparse.ArgumentParser, help_: str) -> None:
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="URI",
        help=f"{help_} (fs:DIR or sqlite:FILE; see docs/STORE.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The repro-grid argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro-grid",
        description=(
            "Reproduce the tables and figures of Song/Kwok/Hwang, "
            "'Security-Driven Heuristics and A Fast Genetic Algorithm "
            "for Trusted Grid Job Scheduling' (IPDPS 2005)."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    for name, help_ in (
        ("fig7a", "makespan vs risk level f (PSA)"),
        ("fig7b", "STGA makespan vs iteration budget (PSA)"),
        ("fig8", "the seven-algorithm NAS comparison"),
        ("fig9", "per-site utilization panels (NAS)"),
        ("fig10", "scaling the PSA workload size N"),
        ("table2", "alpha/beta ranking vs the STGA (NAS)"),
        ("ablation", "STGA vs conventional GA (Figure 5 concept)"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_common(p)

    sweep = sub.add_parser(
        "sweep", help="replication sweep: N seeds x M scenario variants"
    )
    _add_common(sweep)
    sweep.add_argument(
        "--sweep-seeds",
        type=int,
        default=3,
        help="number of replication seeds (default 3)",
    )
    sweep.add_argument(
        "--sweep-workload",
        type=str,
        default="psa",
        metavar="REF",
        help=(
            "workload ref for the sweep variants: a registered "
            "generator name, optionally parameterized — e.g. "
            '"psa?dynamics=poisson&breakdown=0.01&online=true" layers '
            "dynamic-scenario processes on top (default psa; see "
            "docs/SCENARIOS.md)"
        ),
    )
    sweep.add_argument(
        "--sweep-jobs",
        type=str,
        default="1000,2000",
        help="comma-separated job counts, one variant each",
    )
    sweep.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="process-pool size (default: one per CPU; 1 = sequential)",
    )
    sweep.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "persist the sweep as a run record at DIR "
            "(run.json + grid.csv; overwrites an existing record)"
        ),
    )
    _add_store(
        sweep, "persist the sweep into this run store instead of --out"
    )
    sweep.add_argument(
        "--record-traces",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "record every (variant, seed, scheduler) cell as a replayable "
            "grid trace under DIR (forces sequential execution; see "
            "'replay')"
        ),
    )

    rpl = sub.add_parser(
        "replay",
        help=(
            "re-execute recorded grid traces and verify bit-identical "
            "replay"
        ),
    )
    rpl.add_argument(
        "traces",
        nargs="+",
        metavar="TRACE",
        help=(
            "trace files (.jsonl) or directories of traces recorded by "
            "'sweep --record-traces'"
        ),
    )
    rpl.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "persist the replayed cells as a run record at DIR "
            "(comparable with the original via compare-runs)"
        ),
    )
    _add_store(
        rpl, "persist the replayed run into this run store instead of --out"
    )

    run = sub.add_parser(
        "run", help="execute a declarative experiment spec (JSON)"
    )
    run.add_argument("spec", metavar="SPEC.json", help="experiment spec file")
    run.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="process-pool size (default: one per CPU; 1 = sequential)",
    )
    run.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="persist the result as a run record at DIR",
    )
    _add_store(
        run, "persist the result into this run store instead of --out"
    )
    run.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help=(
            "execute only shard I (0-based) of the deterministic "
            "--num-shards partition of the spec's (variant, seed) grid"
        ),
    )
    run.add_argument(
        "--num-shards",
        type=int,
        default=None,
        metavar="N",
        help="total shards in the partition (required with --shard-index)",
    )
    run.add_argument(
        "--shard-strategy",
        choices=SHARD_STRATEGIES,
        default=None,
        help=(
            "grid axis to split when sharding: seeds, variants, or "
            "auto (default auto: whichever axis can fill N shards); "
            "requires --shard-index/--num-shards"
        ),
    )

    shard = sub.add_parser(
        "shard",
        help="partition an experiment spec into self-contained sub-specs",
    )
    shard.add_argument(
        "spec", metavar="SPEC.json", help="experiment spec file to partition"
    )
    shard.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="number of sub-specs to write (capped at the split axis length)",
    )
    shard.add_argument(
        "--strategy",
        choices=SHARD_STRATEGIES,
        default="auto",
        help="grid axis to split (default auto)",
    )
    shard.add_argument(
        "--out-dir",
        type=str,
        required=True,
        metavar="DIR",
        help=(
            "directory for the shard-<i>-of-<N>.json files and the "
            "all-pending manifest.json"
        ),
    )

    status = sub.add_parser(
        "status",
        help="show the per-shard dispatch state of a run manifest",
    )
    status.add_argument(
        "manifest",
        metavar="MANIFEST",
        help="manifest.json of a sharded run",
    )

    res = sub.add_parser(
        "resume",
        help=(
            "re-dispatch the unfinished shards of a run manifest, "
            "then merge"
        ),
    )
    res.add_argument(
        "manifest",
        metavar="MANIFEST",
        help="manifest.json of a sharded run",
    )
    res.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "directory for the merged run record "
            "(default: <manifest dir>/merged)"
        ),
    )
    _add_store(
        res, "save the merged run into this run store instead of --out"
    )
    res.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="process-pool size (default: one per CPU; 1 = sequential)",
    )
    res.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="K",
        help=(
            "extra dispatch attempts per failing shard before giving "
            "up (default 1)"
        ),
    )

    mrg = sub.add_parser(
        "merge",
        help="merge partial (sharded) run records into one run record",
    )
    mrg.add_argument(
        "run_dirs",
        nargs="+",
        metavar="RUN_DIR",
        help="partial run records to merge (any order)",
    )
    mrg.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "directory for the merged run record (exactly one of "
            "--out and --store is required)"
        ),
    )
    _add_store(
        mrg, "save the merged run into this run store instead of --out"
    )
    mrg.add_argument(
        "--name",
        type=str,
        default=None,
        help=(
            "merged record name (default: the spec's name with --spec — "
            "matching the record a single-host run would save — else "
            "DIR's base name)"
        ),
    )
    mrg.add_argument(
        "--spec",
        type=str,
        default=None,
        metavar="SPEC.json",
        help=(
            "original unsharded spec; pins the merged seed/variant order "
            "to the spec's layout for bit-identical reassembly"
        ),
    )
    mrg.add_argument(
        "--allow-partial",
        action="store_true",
        help=(
            "merge the maximal complete sub-grid when shards are still "
            "missing, reporting completion percentage and missing "
            "cells instead of refusing"
        ),
    )

    emit = sub.add_parser(
        "emit-spec",
        help="write a paper experiment as a declarative spec (JSON)",
    )
    emit.add_argument(
        "builder",
        choices=sorted(SPEC_BUILDERS),
        help="which paper experiment to express as a spec",
    )
    _add_common(emit)
    emit.add_argument(
        "--spec-seeds",
        type=int,
        default=None,
        metavar="N",
        help="replication seeds to put in the spec (default: 1, the root seed)",
    )
    emit.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="FILE",
        help="spec file to write (default: stdout)",
    )

    sub.add_parser(
        "registry", help="list registered schedulers and workloads"
    )

    cmp_ = sub.add_parser(
        "compare-runs", help="diff two stored runs cell by cell"
    )
    cmp_.add_argument("run_a", metavar="RUN_A", help="baseline run directory")
    cmp_.add_argument("run_b", metavar="RUN_B", help="candidate run directory")
    cmp_.add_argument(
        "--fail-on-regression",
        action="store_true",
        help=(
            "exit 1 when a (variant, scheduler, metric) cell of RUN_B is "
            "worse than RUN_A past --threshold with non-overlapping CIs"
        ),
    )
    cmp_.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="regression gate: tolerated mean increase in percent "
        "(default 5.0)",
    )
    _add_store(
        cmp_,
        "resolve RUN_A/RUN_B as refs in this run store "
        "(falling back to record paths)",
    )

    runs = sub.add_parser(
        "runs",
        help="manage a run store (list / show / import / export)",
    )
    runs_sub = runs.add_subparsers(dest="runs_cmd", required=True)
    store_help = (
        "the run store to operate on (default: the REPRO_STORE "
        "environment variable, then fs:runs)"
    )

    rls = runs_sub.add_parser(
        "list", help="list a store's runs, oldest first"
    )
    for flag, help_ in (
        ("--name", "only runs with this record name"),
        ("--git-sha", "only runs saved at this commit"),
        ("--variant", "only runs whose grid contains this variant"),
        ("--scheduler", "only runs whose grid contains this scheduler"),
    ):
        rls.add_argument(flag, type=str, default=None, help=help_)
    _add_store(rls, store_help)

    rsh = runs_sub.add_parser(
        "show", help="show one stored run's provenance and metrics"
    )
    rsh.add_argument(
        "ref", metavar="REF", help="store ref (or unique run name)"
    )
    _add_store(rsh, store_help)

    rim = runs_sub.add_parser(
        "import",
        help="import filesystem run records into a store (verbatim)",
    )
    rim.add_argument(
        "run_dirs",
        nargs="+",
        metavar="RUN_DIR",
        help="run-record directories to import",
    )
    _add_store(rim, store_help)

    rex = runs_sub.add_parser(
        "export",
        help="export one stored run as a filesystem run record",
    )
    rex.add_argument(
        "ref", metavar="REF", help="store ref (or unique run name)"
    )
    rex.add_argument(
        "dest", metavar="DEST_DIR", help="directory to write the record at"
    )
    _add_store(rex, store_help)

    srv = sub.add_parser(
        "serve",
        help=(
            "run the experiment service: HTTP API + background job "
            "dispatcher (see docs/SERVICE.md)"
        ),
    )
    _add_store(
        srv,
        "the service database: queue + run store in one sqlite file "
        "(must be sqlite:FILE; default: the REPRO_STORE environment "
        "variable, then sqlite:runs.db)",
    )
    srv.add_argument(
        "--host",
        type=str,
        default=DEFAULT_HOST,
        help=f"address to bind (default {DEFAULT_HOST})",
    )
    srv.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"port to bind; 0 = ephemeral (default {DEFAULT_PORT})",
    )
    srv.add_argument(
        "--max-workers",
        type=int,
        default=1,
        help=(
            "process-pool size for each job's shard dispatch "
            "(default 1 = sequential)"
        ),
    )

    url_help = (
        "service base URL (default: the REPRO_SERVICE_URL environment "
        f"variable, then http://{DEFAULT_HOST}:{DEFAULT_PORT})"
    )

    sbm = sub.add_parser(
        "submit",
        help="submit an experiment spec to a running service",
    )
    sbm.add_argument(
        "spec", metavar="SPEC.json", help="experiment spec file to submit"
    )
    sbm.add_argument("--url", type=str, default=None, help=url_help)
    sbm.add_argument(
        "--wait",
        action="store_true",
        help=(
            "poll until the job reaches a terminal state; exit 0 only "
            "on 'done'"
        ),
    )
    sbm.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="--wait deadline in seconds (default 600)",
    )

    jbs = sub.add_parser(
        "jobs", help="list a running service's job queue"
    )
    jbs.add_argument("--url", type=str, default=None, help=url_help)

    cnc = sub.add_parser(
        "cancel", help="cancel a pending job on a running service"
    )
    cnc.add_argument(
        "job_id", type=int, metavar="JOB_ID", help="job id to cancel"
    )
    cnc.add_argument("--url", type=str, default=None, help=url_help)

    add_lint_parser(sub)
    return parser


def _settings(args: argparse.Namespace) -> RunSettings:
    return RunSettings(
        batch_interval=args.batch_interval, lam=args.lam, seed=args.seed
    )


def _check_scale(args: argparse.Namespace) -> bool:
    if not (0 < args.scale <= 1.0):
        print(f"--scale must be in (0, 1], got {args.scale}", file=sys.stderr)
        return False
    return True


def _check_path_args(*pairs: tuple[str, str]) -> bool:
    """Up-front existence check for path arguments.

    Diagnoses every missing path by its argument name — the
    compare-runs ``RUN_A (<path>): ...`` style — so the user learns
    *which* argument is wrong, not just which file some inner loader
    failed to open.  The caller exits 2 on ``False``.
    """
    ok = True
    for label, value in pairs:
        if not Path(value).exists():
            print(
                f"{label} ({value}): no such file or directory",
                file=sys.stderr,
            )
            ok = False
    return ok


def _load_spec_arg(
    path: str, *, validate: bool = True
) -> ExperimentSpec | None:
    """Load a ``SPEC.json`` argument, diagnosing every malformed input
    uniformly as ``<path>: invalid spec: <reason>`` on stderr (the
    caller exits 2 on ``None``) — the CLI half of the shared
    validation seam (:func:`repro.experiments.spec.parse_spec_text`;
    the HTTP service's half is a 422 with the same message).

    ``validate=True`` additionally resolves scheduler refs against the
    registry (the run path); partition-only commands (shard, merge)
    skip it so a spec can be partitioned without its plugin modules.
    """
    try:
        spec = load_spec(path)
        if validate:
            spec.validate()
        return spec
    except SpecError as exc:
        print(str(exc), file=sys.stderr)
        return None
    except KeyError as exc:  # validate(): unknown scheduler ref
        print(f"{path}: invalid spec: {exc.args[0]}", file=sys.stderr)
        return None
    except (OSError, ValueError) as exc:
        print(f"{path}: invalid spec: {exc}", file=sys.stderr)
        return None


def _open_store_arg(uri: str) -> RunStore | None:
    """Open a ``--store`` URI, reporting bad URIs / refused databases
    on stderr (the caller exits 2 on ``None``)."""
    try:
        return open_store(uri)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return None


def _cmd_compare_runs(args: argparse.Namespace) -> int:
    if args.threshold < 0:
        print(
            f"--threshold must be >= 0, got {args.threshold}", file=sys.stderr
        )
        return 2
    store = None
    if args.store:
        store = _open_store_arg(args.store)
        if store is None:
            return 2
    # load each side separately so a bad record names the offending
    # argument instead of leaving the user to guess which of the two
    # refs broke
    sides = []
    try:
        for label, ref in (("RUN_A", args.run_a), ("RUN_B", args.run_b)):
            try:
                sides.append(as_result(ref, store=store))
            except (OSError, ValueError) as exc:
                print(f"{label} ({ref}): {exc}", file=sys.stderr)
                return 2
            except KeyError as exc:
                # a parseable run.json missing expected record keys
                print(
                    f"{label} ({ref}): malformed run record: missing {exc}",
                    file=sys.stderr,
                )
                return 2
    finally:
        if store is not None:
            store.close()
    try:
        rows = compare_runs(sides[0], sides[1])
    except ValueError as exc:  # e.g. no shared (variant, scheduler) cell
        print(str(exc), file=sys.stderr)
        return 2
    print(render_run_diff(
        rows, title=f"Run diff: {args.run_a} vs {args.run_b}"
    ))
    diverged = sum(r.verdict == "diverged" for r in rows)
    unchanged = sum(r.verdict == "same" for r in rows)
    print(
        f"\n{len(rows)} cells: {unchanged} same, "
        f"{len(rows) - unchanged - diverged} within CI overlap, "
        f"{diverged} diverged"
    )
    if not args.fail_on_regression:
        return 0
    regressions = find_regressions(rows, threshold_pct=args.threshold)
    if not regressions:
        print(
            f"regression gate: clean (threshold {args.threshold:g}%)"
        )
        return 0
    print(
        f"\nregression gate: {len(regressions)} cell(s) regressed past "
        f"{args.threshold:g}% with non-overlapping CIs:",
        file=sys.stderr,
    )
    for r in regressions:
        # shift_pct is NaN for a zero baseline (the always-flagged
        # class); show the absolute rise there instead
        shift = (
            f"{r.shift_pct:+.3g}%"
            if math.isfinite(r.shift_pct)
            else f"+{r.mean_shift:.6g} from zero"
        )
        print(
            f"  {r.variant} / {r.scheduler} / {r.metric}: "
            f"{r.mean_a:.6g} -> {r.mean_b:.6g} ({shift})",
            file=sys.stderr,
        )
    return 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not _check_scale(args):
        return 2
    if args.out and args.store:
        print("--out and --store are mutually exclusive", file=sys.stderr)
        return 2
    try:
        n_values = [int(x) for x in args.sweep_jobs.split(",") if x.strip()]
    except ValueError:
        print(f"bad --sweep-jobs value {args.sweep_jobs!r}", file=sys.stderr)
        return 2
    n_values = list(dict.fromkeys(n_values))  # dedupe, keep order
    if not n_values or args.sweep_seeds < 1:
        print("need >= 1 job count and >= 1 seed", file=sys.stderr)
        return 2
    if any(n < 1 for n in n_values):
        print(
            f"--sweep-jobs counts must be >= 1, got {args.sweep_jobs!r}",
            file=sys.stderr,
        )
        return 2
    if args.max_workers is not None and args.max_workers < 1:
        print(
            f"--max-workers must be >= 1, got {args.max_workers}",
            file=sys.stderr,
        )
        return 2
    try:
        # a workload ref validates at variant construction: unknown
        # generator names and malformed dynamics knobs both land here
        variants = job_scaling_variants(
            n_values, workload=args.sweep_workload
        )
    except ValueError as exc:
        print(f"--sweep-workload: {exc}", file=sys.stderr)
        return 2
    seeds = seed_list(args.sweep_seeds, base_seed=args.seed)
    if args.record_traces:
        if args.max_workers not in (None, 1):
            print(
                "note: --record-traces runs sequentially; "
                "--max-workers ignored"
            )
        res, trace_paths = record_sweep(
            variants,
            seeds,
            args.record_traces,
            settings=_settings(args),
            scale=args.scale,
        )
        print(
            f"recorded {len(trace_paths)} trace(s) under "
            f"{args.record_traces}\n"
        )
    else:
        res = run_sweep(
            variants,
            seeds,
            settings=_settings(args),
            scale=args.scale,
            max_workers=args.max_workers,
        )
    for metric in ("makespan", "avg_response_time", "slowdown_ratio",
                   "n_fail"):
        print(res.render(metric))
        print()
    last = res.variants[-1].name
    rows = compare_ensemble(res.per_seed_lineups(last))
    print(render_ensemble_comparison(
        rows, title=f"Table 2 over the sweep ensemble ({last})"
    ))
    if args.out:
        run_dir = save_run(res, args.out, overwrite=True)
        print(f"\nsaved run record to {run_dir}")
    elif args.store:
        store = _open_store_arg(args.store)
        if store is None:
            return 2
        with store:
            stored = store.save(res, name="sweep")
        print(f"\nsaved run record {stored.ref} to {store.uri}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.out and args.store:
        print("--out and --store are mutually exclusive", file=sys.stderr)
        return 2
    paths: list[Path] = []
    for arg in args.traces:
        p = Path(arg)
        if p.is_dir():
            found = sorted(p.glob("*.jsonl"))
            if not found:
                print(
                    f"TRACE ({arg}): directory holds no *.jsonl trace files",
                    file=sys.stderr,
                )
                return 2
            paths.extend(found)
        elif p.is_file():
            paths.append(p)
        else:
            print(
                f"TRACE ({arg}): no such file or directory", file=sys.stderr
            )
            return 2

    outcomes = []
    for p in paths:
        try:
            outcome = replay_trace(p)
        except (OSError, ValueError) as exc:
            print(f"{p}: {exc}", file=sys.stderr)
            return 2
        verdict = (
            "bit-identical"
            if outcome.ok
            else "MISMATCH: " + "; ".join(outcome.mismatches)
        )
        print(
            f"{p.name}: {outcome.variant.name} / seed {outcome.seed} / "
            f"{outcome.ref}: {verdict}"
        )
        outcomes.append(outcome)
    failed = [o for o in outcomes if not o.ok]
    print(
        f"\nreplayed {len(outcomes)} trace(s): "
        f"{len(outcomes) - len(failed)} bit-identical, "
        f"{len(failed)} mismatched"
    )

    if args.out or args.store:
        try:
            res = replay_result(outcomes)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.out:
            run_dir = save_run(res, args.out, name="replay", overwrite=True)
            print(f"saved replayed run record to {run_dir}")
        else:
            store = _open_store_arg(args.store)
            if store is None:
                return 2
            with store:
                stored = store.save(res, name="replay")
            print(f"saved replayed run record {stored.ref} to {store.uri}")
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.out and args.store:
        print("--out and --store are mutually exclusive", file=sys.stderr)
        return 2
    if args.max_workers is not None and args.max_workers < 1:
        print(
            f"--max-workers must be >= 1, got {args.max_workers}",
            file=sys.stderr,
        )
        return 2
    if (args.shard_index is None) != (args.num_shards is None):
        print(
            "--shard-index and --num-shards must be given together",
            file=sys.stderr,
        )
        return 2
    if args.shard_strategy is not None and args.shard_index is None:
        print(
            "--shard-strategy is only meaningful together with "
            "--shard-index/--num-shards (it would otherwise be "
            "silently ignored)",
            file=sys.stderr,
        )
        return 2
    if not _check_path_args(("SPEC.json", args.spec)):
        return 2
    spec = _load_spec_arg(args.spec)
    if spec is None:
        return 2
    if args.shard_index is not None:
        if args.num_shards < 1:
            print(
                f"--num-shards must be >= 1, got {args.num_shards}",
                file=sys.stderr,
            )
            return 2
        try:
            shards = shard_spec(
                spec,
                args.num_shards,
                strategy=args.shard_strategy or "auto",
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not (0 <= args.shard_index < len(shards)):
            print(
                f"--shard-index {args.shard_index} out of range: spec "
                f"{spec.name!r} partitions into {len(shards)} shard(s) "
                f"(indices 0..{len(shards) - 1})",
                file=sys.stderr,
            )
            return 2
        spec = shards[args.shard_index]
    print(
        f"spec {spec.name!r}: {len(spec.schedulers)} scheduler(s) x "
        f"{len(spec.variants)} variant(s) x {len(spec.seeds)} seed(s) "
        f"at scale {spec.scale:g}"
    )
    try:
        res = run_spec(spec, max_workers=args.max_workers)
    except (ValueError, KeyError, TypeError) as exc:
        # e.g. two refs resolving to one report name, or a ref param
        # colliding with a factory-fixed keyword
        print(f"spec {spec.name!r} failed: {exc}", file=sys.stderr)
        return 2
    for metric in spec.metrics:
        print(res.render(metric))
        print()
    if args.out:
        run_dir = save_run(res, args.out, name=spec.name, overwrite=True)
        print(f"saved run record to {run_dir}")
    elif args.store:
        store = _open_store_arg(args.store)
        if store is None:
            return 2
        with store:
            stored = store.save(res, name=spec.name)
        print(f"saved run record {stored.ref} to {store.uri}")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if not _check_path_args(("SPEC.json", args.spec)):
        return 2
    spec = _load_spec_arg(args.spec, validate=False)
    if spec is None:
        return 2
    try:
        shards = shard_spec(spec, args.shards, strategy=args.strategy)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if len(shards) < args.shards:
        print(
            f"note: {spec.name!r} only partitions into {len(shards)} "
            f"shard(s) along the split axis"
        )
    for i, shard in enumerate(shards):
        path = save_spec(
            shard, f"{args.out_dir}/{shard_file_name(i, len(shards))}"
        )
        grid = len(shard.variants) * len(shard.seeds)
        print(
            f"wrote {path} ({len(shard.variants)} variant(s) x "
            f"{len(shard.seeds)} seed(s) = {grid} grid cell(s))"
        )
    manifest = create_manifest(spec, shards, strategy=args.strategy)
    manifest_path = save_manifest(
        manifest, Path(args.out_dir) / MANIFEST_JSON
    )
    print(f"wrote {manifest_path} ({len(shards)} shard(s), all pending)")
    print(
        f"\ndispatch (or crash-recover) the whole run with: repro-grid "
        f"resume {manifest_path} --out <merged-dir>; or run each shard "
        f"anywhere with: repro-grid run <shard.json> --out <dir>, then "
        f"recombine with: repro-grid merge <dir>... --spec {args.spec} "
        f"--out <merged-dir>"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    if not _check_path_args(("MANIFEST", args.manifest)):
        return 2
    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(manifest.render())
    if manifest.all_done:
        print(
            f"\nall shards done — merge with: repro-grid resume "
            f"{args.manifest}"
        )
        return 0
    incomplete = manifest.incomplete_indices()
    print(
        f"\n{len(incomplete)} shard(s) not done "
        f"(indices {list(incomplete)}) — finish with: repro-grid resume "
        f"{args.manifest}"
    )
    return 1


def _cmd_resume(args: argparse.Namespace) -> int:
    if args.out and args.store:
        print("--out and --store are mutually exclusive", file=sys.stderr)
        return 2
    if args.max_workers is not None and args.max_workers < 1:
        print(
            f"--max-workers must be >= 1, got {args.max_workers}",
            file=sys.stderr,
        )
        return 2
    if args.max_retries < 0:
        print(
            f"--max-retries must be >= 0, got {args.max_retries}",
            file=sys.stderr,
        )
        return 2
    if not _check_path_args(("MANIFEST", args.manifest)):
        return 2
    try:
        before = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    todo = resume_todo(before, args.manifest)
    if todo:
        print(
            f"resuming {before.spec.name!r}: dispatching shard(s) "
            f"{list(todo)} of {before.n_shards}"
        )
    else:
        print(
            f"resuming {before.spec.name!r}: all {before.n_shards} "
            f"shard(s) already done, merging only"
        )
    try:
        manifest, merged = resume_manifest(
            args.manifest,
            max_workers=args.max_workers,
            max_retries=args.max_retries,
        )
    except ShardError as exc:
        print(str(exc), file=sys.stderr)
        print(
            f"the manifest records the failure; fix the cause and "
            f"resume again (repro-grid status {args.manifest} shows "
            f"the surviving shards)",
            file=sys.stderr,
        )
        return 1
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"malformed run record: missing {exc}", file=sys.stderr)
        return 2
    part_dirs = [
        str(manifest.shard_run_dir(args.manifest, i))
        for i in range(manifest.n_shards)
    ]
    provenance = {
        "path": str(args.manifest),
        "spec_sha256": manifest.spec_hash,
    }
    if args.store:
        store = _open_store_arg(args.store)
        if store is None:
            return 2
        with store:
            stored = store.save(
                merged,
                name=manifest.spec.name,
                merged_from=part_dirs,
                manifest=provenance,
            )
        destination = f"{stored.ref} in {store.uri}"
    else:
        out = (
            args.out
            if args.out
            else str(Path(args.manifest).parent / "merged")
        )
        destination = str(save_run(
            merged,
            out,
            name=manifest.spec.name,
            overwrite=True,
            merged_from=part_dirs,
            manifest=provenance,
        ))
    print(
        f"merged {manifest.n_shards} shard record(s): "
        f"{len(merged.variants)} variant(s) x {len(merged.seeds)} seed(s) "
        f"x {len(merged.schedulers())} scheduler(s)"
    )
    print(f"saved merged run record to {destination}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    if (args.out is None) == (args.store is None):
        print(
            "exactly one of --out and --store is required",
            file=sys.stderr,
        )
        return 2
    # validate --spec before touching the run dirs so a broken spec
    # file is blamed as the spec, never as a malformed run record
    spec = None
    if args.spec:
        if not _check_path_args(("--spec", args.spec)):
            return 2
        spec = _load_spec_arg(args.spec, validate=False)
        if spec is None:
            return 2
    if not _check_path_args(*(("RUN_DIR", d) for d in args.run_dirs)):
        return 2
    try:
        runs = [load_run(d) for d in args.run_dirs]
        merged = merge_runs(
            runs, spec=spec, allow_partial=args.allow_partial
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"malformed run record: missing {exc}", file=sys.stderr)
        return 2
    if args.allow_partial:
        completion = grid_completion(runs, spec=spec)
        print(completion.render())
        if not completion.complete:
            print(
                "partial merge: the record below holds the maximal "
                "complete sub-grid"
            )
    name = args.name if args.name else (spec.name if spec else None)
    merged_from = [str(r.path) for r in runs]
    if args.store:
        store = _open_store_arg(args.store)
        if store is None:
            return 2
        with store:
            stored = store.save(
                merged,
                name=name if name else "merged",
                merged_from=merged_from,
            )
        destination = f"{stored.ref} in {store.uri}"
    else:
        destination = str(save_run(
            merged,
            args.out,
            name=name,
            overwrite=True,
            merged_from=merged_from,
        ))
    print(
        f"merged {len(runs)} partial record(s): "
        f"{len(merged.variants)} variant(s) x {len(merged.seeds)} seed(s) "
        f"x {len(merged.schedulers())} scheduler(s)"
    )
    print(f"saved merged run record to {destination}")
    return 0


def _cmd_emit_spec(args: argparse.Namespace) -> int:
    if not _check_scale(args):
        return 2
    if args.spec_seeds is not None and args.spec_seeds < 1:
        print(
            f"--spec-seeds must be >= 1, got {args.spec_seeds}",
            file=sys.stderr,
        )
        return 2
    settings = _settings(args)
    seeds = (
        seed_list(args.spec_seeds, base_seed=args.seed)
        if args.spec_seeds is not None
        else None
    )
    spec = SPEC_BUILDERS[args.builder](
        seeds=seeds, scale=args.scale, settings=settings
    )
    if args.out:
        save_spec(spec, args.out)
        print(f"wrote {spec.name!r} spec to {args.out}")
    else:
        print(spec.to_json(), end="")
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    rows = [
        [name, scheduler_spec(name).description]
        for name in available_schedulers()
    ]
    print(render_table(
        ["scheduler", "description"], rows, title="Registered schedulers"
    ))
    print()
    rows = [
        [name, workload_spec(name).description]
        for name in available_workloads()
    ]
    print(render_table(
        ["workload", "description"], rows, title="Registered workloads"
    ))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    uri = args.store or os.environ.get(STORE_ENV) or "fs:runs"
    store = _open_store_arg(uri)
    if store is None:
        return 2
    with store:
        if args.runs_cmd == "list":
            return _cmd_runs_list(args, store)
        if args.runs_cmd == "show":
            return _cmd_runs_show(args, store)
        if args.runs_cmd == "import":
            return _cmd_runs_import(args, store)
        return _cmd_runs_export(args, store)


def _cmd_runs_list(args: argparse.Namespace, store: RunStore) -> int:
    summaries = store.find(
        name=args.name,
        git_sha=args.git_sha,
        variant=args.variant,
        scheduler=args.scheduler,
    )
    for summary in summaries:
        print(summary)
    if not summaries:
        print(f"no runs in {store.uri}")
    # the fs backend skips (never dies on) unreadable records; say so
    for path, reason in getattr(store, "skipped", []):
        print(f"warning: skipped {path}: {reason}", file=sys.stderr)
    return 0


def _cmd_runs_show(args: argparse.Namespace, store: RunStore) -> int:
    try:
        stored = store.load(args.ref)
    except (KeyError, OSError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        print(message, file=sys.stderr)
        return 2
    print(stored)
    print(f"name: {stored.name}")
    print(f"git_sha: {stored.git_sha or '(none)'}")
    if stored.merged_from is not None:
        print(f"merged_from: {', '.join(stored.merged_from)}")
    if stored.manifest is not None:
        print(f"manifest: {stored.manifest['path']}")
    print(f"schedulers: {', '.join(stored.result.schedulers())}")
    print()
    print(stored.result.render("makespan"))
    return 0


def _cmd_runs_import(args: argparse.Namespace, store: RunStore) -> int:
    if not _check_path_args(
        *(("RUN_DIR", d) for d in args.run_dirs)
    ):
        return 2
    for run_dir in args.run_dirs:
        try:
            stored = store.import_fs(run_dir)
        except (OSError, ValueError, KeyError) as exc:
            print(f"{run_dir}: {exc}", file=sys.stderr)
            return 2
        print(f"imported {run_dir} as run {stored.ref} in {store.uri}")
    return 0


def _cmd_runs_export(args: argparse.Namespace, store: RunStore) -> int:
    try:
        run_dir = store.export_fs(args.ref, args.dest)
    except (KeyError, OSError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        print(message, file=sys.stderr)
        return 2
    print(f"exported run {args.ref} to {run_dir}")
    return 0


def _service_url(args: argparse.Namespace) -> str:
    return (
        args.url
        or os.environ.get(SERVICE_URL_ENV)
        or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
    )


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(_service_url(args))


def _cmd_serve(args: argparse.Namespace) -> int:
    uri = args.store or os.environ.get(STORE_ENV) or "sqlite:runs.db"
    try:
        backend, db_path = parse_store_uri(uri)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if backend != "sqlite":
        print(
            f"serve needs a sqlite store (the job queue lives inside "
            f"the database), got {uri!r} — use --store sqlite:FILE",
            file=sys.stderr,
        )
        return 2
    if not (0 <= args.port <= 65535):
        print(
            f"--port must be in 0..65535, got {args.port}", file=sys.stderr
        )
        return 2
    if args.max_workers < 1:
        print(
            f"--max-workers must be >= 1, got {args.max_workers}",
            file=sys.stderr,
        )
        return 2
    from repro.service.server import serve

    return serve(
        db_path,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import urllib.error

    from repro.service.client import ServiceError

    if args.timeout <= 0:
        print(
            f"--timeout must be > 0, got {args.timeout}", file=sys.stderr
        )
        return 2
    if not _check_path_args(("SPEC.json", args.spec)):
        return 2
    # validate locally first: a malformed spec earns its exit 2 before
    # any network traffic (the server re-validates with the same
    # helper — same diagnostic either way)
    text = Path(args.spec).read_text(encoding="utf-8")
    try:
        parse_spec_text(text).validate()
    except SpecError as exc:
        print(f"{args.spec}: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"{args.spec}: invalid spec: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{args.spec}: invalid spec: {exc}", file=sys.stderr)
        return 2
    client = _service_client(args)
    try:
        job = client.submit_text(text)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2 if exc.status == 422 else 1
    except urllib.error.URLError as exc:
        print(
            f"cannot reach the service at {client.base_url}: "
            f"{exc.reason}",
            file=sys.stderr,
        )
        return 1
    print(
        f"submitted job {job['id']} ({job['name']!r}, "
        f"state {job['state']}) to {client.base_url}"
    )
    if not args.wait:
        return 0
    try:
        job = client.wait(job["id"], timeout=args.timeout)
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(
            f"lost the service at {client.base_url}: {exc.reason}",
            file=sys.stderr,
        )
        return 1
    if job["state"] == "done":
        print(f"job {job['id']} done: run {job['run_ref']} in the store")
        return 0
    print(
        f"job {job['id']} ended {job['state']!r}"
        + (f": {job['error']}" if job.get("error") else ""),
        file=sys.stderr,
    )
    return 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    import urllib.error

    client = _service_client(args)
    try:
        jobs = client.jobs()
    except urllib.error.URLError as exc:
        print(
            f"cannot reach the service at {client.base_url}: "
            f"{exc.reason}",
            file=sys.stderr,
        )
        return 1
    if not jobs:
        print(f"no jobs at {client.base_url}")
        return 0
    print(render_table(
        ["job", "name", "state", "created", "run ref", "error"],
        [
            [
                j["id"],
                j["name"],
                j["state"],
                j["created_at"],
                j["run_ref"] or "",
                j["error"] or "",
            ]
            for j in jobs
        ],
        title=f"Jobs at {client.base_url}",
    ))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    import urllib.error

    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        job = client.cancel(args.job_id)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        # 404 = the argument names no job (usage error); 409 = the job
        # exists but is past cancelling (a state conflict, not usage)
        return 2 if exc.status == 404 else 1
    except urllib.error.URLError as exc:
        print(
            f"cannot reach the service at {client.base_url}: "
            f"{exc.reason}",
            file=sys.stderr,
        )
        return 1
    print(f"job {job['id']} cancelled")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if not _check_scale(args):
        return 2
    settings = _settings(args)
    if args.experiment in FIGURES:
        builder, render = FIGURES[args.experiment]
        spec = builder(scale=args.scale, settings=settings)
        print(render(run_spec(spec, max_workers=1)))
    else:  # ablation
        cmp_ = stga_vs_conventional(scale=args.scale, settings=settings)
        print(
            render_table(
                ["GA variant", "makespan", "avg_response", "initial fitness"],
                [
                    [
                        "STGA",
                        cmp_.stga.makespan,
                        cmp_.stga.avg_response_time,
                        cmp_.stga_initial_mean,
                    ],
                    [
                        "conventional GA",
                        cmp_.conventional.makespan,
                        cmp_.conventional.avg_response_time,
                        cmp_.conventional_initial_mean,
                    ],
                ],
                title="STGA vs conventional GA (Figure 5 concept)",
            )
        )
        print(f"\nSTGA history hit rate: {cmp_.stga_history_hit_rate:.1%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Usage errors — including stray positionals like a RUN_DIR after a
    non-compare-runs experiment — surface as argparse errors (exit 2),
    never as silently ignored arguments.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse error (2) or --help (0)
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    if args.experiment == "compare-runs":
        return _cmd_compare_runs(args)
    if args.experiment == "sweep":
        return _cmd_sweep(args)
    if args.experiment == "replay":
        return _cmd_replay(args)
    if args.experiment == "run":
        return _cmd_run(args)
    if args.experiment == "shard":
        return _cmd_shard(args)
    if args.experiment == "status":
        return _cmd_status(args)
    if args.experiment == "resume":
        return _cmd_resume(args)
    if args.experiment == "merge":
        return _cmd_merge(args)
    if args.experiment == "emit-spec":
        return _cmd_emit_spec(args)
    if args.experiment == "registry":
        return _cmd_registry(args)
    if args.experiment == "runs":
        return _cmd_runs(args)
    if args.experiment == "serve":
        return _cmd_serve(args)
    if args.experiment == "submit":
        return _cmd_submit(args)
    if args.experiment == "jobs":
        return _cmd_jobs(args)
    if args.experiment == "cancel":
        return _cmd_cancel(args)
    if args.experiment == "lint":
        return cmd_lint(args)
    return _cmd_figure(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
