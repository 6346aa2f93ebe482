"""The repository benchmark: one command, three workloads, two modes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig10-stga --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fig10-stga --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --steady 10 --seconds 25

``--trace 0`` times rounds of the program's own ``run_spec`` (plus,
on ``sweep-store``, the store round trips) with tracing off, then
runs one untimed check pass through the benchmark's cell runner for
the conservation checks, decision latencies and schedule quality;
``--trace 1`` alternates untraced and traced cell-runner rounds of the
same work and reports the per-layer metrics plus ``trace.overhead_s``;
``--steady N`` runs every workload N times with seeds 1..N, alternating
the workload order, and prints each metric's median, quartiles and
spread against its bound in ``BENCHMARK.json``.

Every run checks the program's outputs (see ``cells.check_result``,
``Bench.cross_check`` and the store checks in ``suite``) and prints,
as its last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits non-zero if any
check failed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: set-up samples per run: this process's own set-up plus fresh probes
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="fig10-stga | online-dynamic | sweep-store")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--steady", type=int, metavar="N", help="steadiness mode: N runs per workload"
    )
    p.add_argument(
        "--workloads",
        help="comma-separated workloads for --steady (default: all)",
    )
    args = p.parse_args(argv)
    if args.steady is None and args.workload is None:
        p.error("--workload is required (or --steady N)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    # the program's default backend: nothing inherited from the caller
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, str(ROOT / "src"))
    if args.steady is not None:
        return steady(args)

    import suite

    if args.workload not in suite.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(suite.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out_dir = ROOT / suite.OUT_DIR
    bench = suite.setup(args.workload, args.seed, out_dir)
    setup_s = [time.perf_counter() - STARTED]
    try:
        print(f"workload {args.workload}  seed {args.seed}  backend {_backend()}")
        print(f"  {bench.workload.why}")
        if not args.trace:
            setup_s += _probe_setups(args.workload, args.seed)
        checks = []  # run-level checks, one operation each
        if args.trace:
            expected = bench.warm_up()
            rounds, metrics, repeat = trace_run(
                bench, args.seconds, out_dir, args.seed
            )
            checks.append(repeat)
            checks.append(bench.cross_check(expected, rounds[0].outcomes[:1]))
            outcomes = rounds[0].outcomes
        else:
            bench.warm_up()
            rounds = timed_rounds(bench, args.seconds)
            peak_rss_mb = _peak_rss_mb(bench.workload.workers)
            check = bench.check_pass()
            outcomes = check.outcomes
            for r in rounds:
                if r.swept is not None:
                    r.fail_cells(bench.cross_check(r.swept, outcomes))
            metrics = end_to_end(bench, rounds, outcomes, setup_s, peak_rss_mb)
            rounds.append(check)
        checks.append(shape_check(bench, outcomes))
        attempted = len(checks) + sum(r.attempted for r in rounds)
        failed = sum(map(bool, checks)) + sum(r.failed for r in rounds)
        problems = [p for c in checks for p in c]
        problems += [p for r in rounds for p in r.problems()]
    finally:
        bench.close()
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"  error_rate {failed / attempted:.6g}  ({failed} failed of {attempted} operations)")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _backend() -> str:
    try:
        from repro.util.backend import resolve_backend
    except ImportError:  # a program with a single execution path
        return "single"
    return resolve_backend()


def _probe_setups(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_rounds(bench, seconds: float) -> list:
    """``run_spec`` rounds back to back while another round still fits
    in ``seconds`` (at least one; a failed round ends the loop)."""
    rounds = []
    started = time.perf_counter()
    while not rounds or (
        not rounds[-1].failed and _fits(started, rounds[-1].wall_s, seconds)
    ):
        rounds.append(bench.spec_round(len(rounds)))
    return rounds


def _fits(started: float, last_s: float, seconds: float) -> bool:
    return time.perf_counter() - started + last_s <= seconds


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return float("nan")
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def quality_ratio(bench, outcomes) -> float:
    """Geometric mean over cells of the subject's ``quality_metric``
    over the best baseline scheduler's.  Per variant, "best" is the
    baseline (and the subject the one of ``subject_refs``) with the
    lower mean over the round's seeds.  Without a baseline it is the
    geometric mean of the metric over cells and every subject."""
    workload = bench.workload
    metric = workload.quality_metric
    by_variant: dict[str, list] = {}
    for o in outcomes:
        if o.by_ref:
            by_variant.setdefault(o.variant, []).append(o.by_ref)
    logs = []
    for runs in by_variant.values():
        if not workload.quality_baseline:
            logs += [
                math.log(getattr(r[ref], metric))
                for r in runs
                for ref in bench.subject_refs
            ]
            continue

        def pick(refs):
            return min(
                refs,
                key=lambda ref: statistics.mean(getattr(r[ref], metric) for r in runs),
            )

        subject = pick(bench.subject_refs)
        best = pick(workload.quality_baseline)
        logs += [
            math.log(getattr(r[subject], metric) / getattr(r[best], metric))
            for r in runs
        ]
    return math.exp(statistics.mean(logs)) if logs else float("nan")


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS so far plus, with a pool, ``workers``
    times the largest peak of any ended child process (the pool
    workers of the timed rounds; the set-up probes before them are
    smaller).  Read right after the timed rounds, before the check
    pass runs."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(bench, rounds, check, setup_s: list[float], peak_rss_mb) -> dict:
    """The end-to-end metrics, printed with their sample counts and
    bases: wall time from the timed ``run_spec`` rounds; terminal
    jobs, decision latencies and schedule quality from the check
    pass (whose reports equal every timed round's)."""
    workload = bench.workload
    walls = [r.wall_s for r in rounds if r.swept is not None]
    wall = statistics.median(walls) if walls else float("nan")
    n_cells = len(check)
    jobs = sum(o.terminal_jobs for o in check)
    decisions = [d for o in check for d in o.decision_s]
    ratio = quality_ratio(bench, check)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (jobs / wall, "1/s"),
        "cells_per_s": (n_cells / wall, "1/s"),
        "decision_p50_ms": (_percentile(decisions, 0.50) * 1e3, "ms"),
        "decision_p95_ms": (_percentile(decisions, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "quality_ratio": (ratio, "ratio"),
    }
    store = " + store round trips" if workload.store else ""
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "wall_s": f"median of {len(walls)} run_spec rounds of {n_cells} "
        f"cells{store}, {workload.workers} worker(s): "
        + " ".join(f"{w:.3f}" for w in walls),
        "jobs_per_s": f"{jobs} terminal jobs per round / wall_s",
        "cells_per_s": f"{n_cells} cells per round / wall_s",
        "decision_p50_ms": f"n={len(decisions)} schedule() calls of "
        f"{', '.join(bench.timed_refs)} in the check pass",
        "decision_p95_ms": f"n={len(decisions)}",
        "peak_rss_mb": "benchmark process"
        + (f" + {workload.workers} x largest pool worker" if workload.workers > 1 else ""),
        "quality_ratio": f"{workload.quality_metric} of "
        f"{'/'.join(bench.subject_refs)}"
        + (
            f" over best of {'/'.join(workload.quality_baseline)}"
            if workload.quality_baseline
            else ""
        )
        + f", geometric mean over {n_cells} cells",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>12.6g} {unit:<5}  ({notes[name]})")
    return metrics


def shape_check(bench, outcomes) -> list[str]:
    workload = bench.workload
    if workload.max_ratio is None:
        return []
    ratio = quality_ratio(bench, outcomes)
    if ratio <= workload.max_ratio:
        return []
    return [
        f"{workload.name}: STGA makespan ratio {ratio:.4f} > "
        f"{workload.max_ratio} (Figure 10's shape claim)"
    ]


#: spans of a process waiting on work other processes' spans cover
WAIT_SPANS = ("sweep.parallel_map",)

#: counters that must repeat exactly between rounds of one run
DETERMINISTIC = (
    "workloads.calls",
    "history.insert_calls",
    "history.queries",
    "history.hits",
    "ga.evolve_calls",
    "ga.generations",
    "stga.decisions",
    "heuristics.decisions",
    "engine.batches",
    "engine.forced",
    "engine.cancelled",
)


def layer_metrics(bench, traced, untraced) -> dict:
    """Per-layer metrics of one traced round (counters from its
    outcomes; sweep figures from the untraced rounds)."""
    import tracing

    layers = tracing.layer_times(traced.tracer.spans)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    counts = traced.tracer.counts
    counters: dict[str, int] = {}
    for o in traced.outcomes:
        for key, value in o.counters.items():
            counters[key] = counters.get(key, 0) + value
    queries = counters.get("history.queries", 0)
    hits = counters.get("history.hits", 0)
    budget = counts.get("ga.budget", 0)
    batches = counters.get("engine.batches", 0)
    workers = bench.workload.workers
    # sequential cells (one worker) give a loop overhead and utilization too
    busy = statistics.median(sum(o.busy_s for o in r.outcomes) for r in untraced)
    pool = statistics.median(r.pool_s for r in untraced)
    overhead = pool - busy / workers
    utilization = busy / (pool * workers)
    saved = calls("store.save")
    out = {
        "workloads.build_s": (self_s("workloads.build"), "s"),
        "workloads.calls": (calls("workloads.build"), "count"),
        "stga.warmup_s": (total_s("stga.warmup"), "s"),
        "history.query_s": (self_s("history.query"), "s"),
        "history.insert_s": (self_s("history.insert"), "s"),
        "history.insert_calls": (calls("history.insert"), "count"),
        "history.queries": (queries, "count"),
        "history.hits": (hits, "count"),
        "history.hit_rate": (hits / queries if queries else 0.0, "ratio"),
        "ga.evolve_s": (self_s("ga.evolve"), "s"),
        "ga.evolve_calls": (calls("ga.evolve"), "count"),
        "ga.generations": (int(counts.get("ga.generations", 0)), "count"),
        "ga.budget_used": (
            counts.get("ga.generations", 0) / budget if budget else 0.0,
            "ratio",
        ),
        "stga.self_s": (self_s("stga.schedule"), "s"),
        "stga.decisions": (calls("stga.schedule"), "count"),
        "heuristics.schedule_s": (self_s("heuristics.schedule"), "s"),
        "heuristics.decisions": (calls("heuristics.schedule"), "count"),
        "engine.self_s": (self_s("engine.run"), "s"),
        "engine.batches": (batches, "count"),
        "engine.mean_batch_size": (
            counters.get("engine.batch_jobs", 0) / batches if batches else 0.0,
            "jobs",
        ),
        "engine.forced": (counters.get("engine.forced", 0), "count"),
        "engine.cancelled": (counters.get("engine.cancelled", 0), "count"),
        "metrics.evaluate_s": (self_s("metrics.evaluate"), "s"),
        "sweep.cell_busy_s": (busy, "s"),
        "sweep.pool_overhead_s": (overhead, "s"),
        "sweep.worker_utilization": (utilization, "ratio"),
        "store.save_s": (self_s("store.save"), "s"),
        "store.load_s": (self_s("store.load"), "s"),
        "store.list_s": (self_s("store.list"), "s"),
        "store.compare_s": (self_s("store.compare"), "s"),
        "store.payload_bytes": (
            counts.get("store.payload_bytes", 0) / saved if saved else 0.0,
            "B",
        ),
    }
    return out


def trace_run(bench, seconds: float, out_dir: Path, seed: int):
    """Alternate untraced and traced cell-runner rounds of the same
    cells (the order flips every pair) while another pair fits in
    ``seconds`` (at least one pair); report the
    per-layer metrics (median over traced rounds) and the tracing
    overhead, and write every span to ``out_dir``."""
    untraced, traced = [], []
    started = time.perf_counter()
    while not traced or _fits(
        started, untraced[-1].wall_s + traced[-1].wall_s, seconds
    ):
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for trace in order:
            r = bench.cell_round(len(untraced) + len(traced), trace=trace)
            (traced if trace else untraced).append(r)
    per_round = [layer_metrics(bench, t, untraced) for t in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    t_wall = statistics.median(r.wall_s for r in traced)
    u_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead_s"] = (t_wall - u_wall, "s")
    metrics["trace.wall_s"] = (t_wall, "s")
    metrics["untraced.wall_s"] = (u_wall, "s")

    _print_layers(traced, metrics)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = out_dir / f"spans-{bench.workload.name}-seed{seed}.json"
    dump.write_text(
        json.dumps(
            {
                "workload": bench.workload.name,
                "seed": seed,
                "fields": ["name", "start", "end", "parent", "cell"],
                "rounds": [r.tracer.spans for r in traced],
            }
        )
    )
    print(f"  spans of {len(traced)} traced round(s) written to {dump.relative_to(ROOT)}")
    return untraced + traced, metrics, _repeat_problems(per_round, traced, untraced)


def _repeat_problems(per_round, traced, untraced) -> list[str]:
    """Deterministic counters must repeat exactly across rounds, and
    tracing must not change what the program did."""
    problems = []
    for name in DETERMINISTIC:
        seen = {m[name][0] for m in per_round}
        if len(seen) > 1:
            problems.append(f"counter {name} differs between traced rounds: {sorted(seen)}")
    reference = traced[0].outcomes
    for r in untraced:
        for a, b in zip(reference, r.outcomes):
            if a.counters != b.counters:
                problems.append(
                    f"cell {a.variant} seed={a.seed}: engine/history counters "
                    "differ between traced and untraced rounds"
                )
                break
    return problems


def _print_layers(traced, metrics) -> None:
    import tracing

    layers = tracing.layer_times(traced[0].tracer.spans)
    # the parent's wait on the pool overlaps the workers' spans
    total_self = sum(
        row["self_s"] for name, row in layers.items() if name not in WAIT_SPANS
    ) or 1.0
    print(f"  per-layer self time, traced round 0 (wall {traced[0].wall_s:.4g} s):")
    print(f"    {'span':<22}{'calls':>9}{'self_s':>11}{'% self':>8}{'total_s':>11}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        share = (
            "   wait" if name in WAIT_SPANS
            else f"{100 * row['self_s'] / total_self:>6.1f}%"
        )
        print(
            f"    {name:<22}{row['calls']:>9}{row['self_s']:>11.4f}"
            f" {share}{row['total_s']:>11.4f}"
        )
    print("  per-layer metrics (median over traced rounds):")
    for name, (value, unit) in metrics.items():
        print(f"    {name:<26} {value:>14.6g} {unit}")


def steady(args) -> int:
    """Run each workload ``args.steady`` times (seeds 1..N, order
    alternating) and print each end-to-end metric's median, quartiles
    and spread next to its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    failures = 0
    for i in range(args.steady):
        for name in names if i % 2 == 0 else names[::-1]:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(i + 1),
                "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not result.get("correct"):
                failures += 1
                print(f"run {name} seed {i + 1} failed:\n{proc.stderr[-2000:]}")
                continue
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
            shown = " ".join(
                f"{metric}={m['value']:.5g}" for metric, m in result["metrics"].items()
            )
            print(f"run {i + 1}/{args.steady} {name}: {shown}", flush=True)
    print(f"{'workload':<16}{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for name in names:
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            q1, _, q3 = (
                statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            )
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{name:<16}{metric:<26}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.4f}{bound if bound is not None else '':>7} {flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
