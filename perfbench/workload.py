"""The workload process: set-up, timed passes, output checks, traced run.

``run.py`` starts this script once per measurement so that every set-up
and peak-RSS reading comes from a fresh interpreter.  Modes:

``--setup-only``
    Time one set-up and exit (``run.py`` takes several for ``setup_s``).
default
    Set up, then run passes until ``--seconds`` have elapsed (or
    ``--passes`` ran), checking every output after each pass.
``--traced``
    Set up, then run one traced pass of every workload, plus the
    analytic engine over the standard grid, under the layer wrappers
    (:mod:`layers`) and collect the per-layer metrics, each on the pass
    that exercises it; then take the ungated baseline details with the
    wrappers removed.  Only the named workload's checks count towards the
    result; the other passes' go to the details.

Results go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    FIGURES,
    SMOKE_FIGURES,
    WORKLOADS,
    Grid,
    declared_metrics,
    grids_for,
    paper_order,
    use_repo_sources,
)
from layers import LayerTracer

#: Upper bound on the passes of one run, whatever ``--seconds`` says.
MAX_PASSES = 1000


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(grid: Grid, with_pool: bool) -> Tuple[Any, Dict[str, float]]:
    """Import repro, derive the cache salt, start the warm pool.

    Returns the pool (``None`` unless ``with_pool``) and the timings.
    Nothing from ``repro`` (or numpy) may be imported before this runs.
    """
    use_repo_sources()
    started = perf_counter()
    import repro.experiments.campaign  # noqa: F401
    import repro.experiments.fastforward  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    from repro.experiments.cache import cache_salt
    from repro.experiments.pool import WarmWorkerPool
    imported = perf_counter()
    cache_salt()
    salted = perf_counter()
    pool = None
    if with_pool:
        pool = WarmWorkerPool(grid.workers).start()
    ready = perf_counter()
    return pool, {"import_s": imported - started,
                  "salt_s": salted - imported,
                  "pool_start_s": ready - salted,
                  "setup_s": ready - started}


# ----------------------------------------------------------------------
# Passes and their checks
# ----------------------------------------------------------------------
class Checks:
    """Operations attempted / failed across a run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._reasons: Counter = Counter()

    def record(self, problems: Dict[str, str], attempted: int) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self._reasons.update(f"{key}: {why}" for key, why in problems.items())

    @property
    def failures(self) -> Dict[str, int]:
        """Each distinct failure with the number of passes it failed in."""
        return dict(sorted(self._reasons.items()))


def paper_pass(names: List[str]) -> Tuple[float, Dict[str, float],
                                          Dict[str, Any]]:
    """Call every figure with its defaults, serially, in this process."""
    from repro.experiments.figures import ALL_FIGURES
    results: Dict[str, Any] = {}
    seconds: Dict[str, float] = {}
    started = perf_counter()
    for name in names:
        figure_started = perf_counter()
        results[name] = ALL_FIGURES[name]()
        seconds[name] = perf_counter() - figure_started
    return perf_counter() - started, seconds, results


def check_paper(results: Dict[str, Any],
                reference: Dict[str, str]) -> Dict[str, str]:
    from reference import figure_digest
    problems = {}
    for name, result in results.items():
        if not result.all_ok:
            problems[name] = "a paper-vs-measured comparison row missed"
        elif reference.get(name) != figure_digest(result):
            problems[name] = "digest differs from the reference"
    return problems


def sweep_pass(grid: Grid, seeds: List[int], pool: Any,
               cache_dir: Optional[Path], output_dir: Optional[Path],
               spans: bool = False, mode: str = "event") -> Tuple[float, Any]:
    """One campaign over ``grid.deltas`` × ``seeds`` in execution ``mode``.

    Runs on the warm ``pool``, or serially in this process without one.
    """
    from repro.experiments.campaign import CampaignSpec, run_campaign
    spec = CampaignSpec(deltas=grid.deltas, seeds=seeds,
                        duration=grid.duration, scenario=grid.scenario,
                        mode=mode,
                        output_dir=str(output_dir) if output_dir else None)
    started = perf_counter()
    result = run_campaign(spec, workers=pool.workers if pool else 1,
                          cache=str(cache_dir) if cache_dir else None,
                          pool=pool or "warm", spans=spans)
    return perf_counter() - started, result


def check_sweep(result: Any, reference: Dict[str, str],
                output_dir: Optional[Path],
                expect_hits: bool) -> Dict[str, str]:
    """Each cell's trace against its event-mode digest; cache hits."""
    from reference import trace_digest
    from repro.experiments.campaign import cell_key
    problems = {}
    for (delta, seed), trace in result.traces.items():
        key = cell_key(delta, seed)
        expected = reference.get(key)
        if expected is None:
            problems[key] = "no event-mode reference digest for this cell"
        elif trace_digest(trace) != expected:
            problems[key] = "trace differs from the event-mode reference"
    if expect_hits:
        timing = json.loads((output_dir / "timing.json").read_text())
        for key, outcome in timing["cache"]["cells"].items():
            if outcome != "hit":
                problems.setdefault(key, "cache miss in a fully cached re-run")
    return problems


def fresh_dir(base: Path, name: str) -> Path:
    path = base / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_passes(args: argparse.Namespace, grid: Grid, pool: Any,
               reference: Dict[str, Any], work: Path) -> Dict[str, Any]:
    """Timed passes until the time is up; every output checked."""
    checks = Checks()
    walls: List[float] = []
    extra: Dict[str, Any] = {}
    if args.workload == "sweep-cached":
        cached_seeds = grid.pass_seeds(args.seed, 0)
        cache_dir = fresh_dir(work, "cache-filled")
        # Set-up of sweep-cached: one event-mode pass fills the cache.
        extra["fill_s"], _ = sweep_pass(grid, cached_seeds, pool, cache_dir,
                                        None)

    def one_pass(index: int) -> float:
        # Start every pass from the same heap state, outside its timing.
        gc.collect()
        if args.workload == "paper":
            wall, seconds, results = paper_pass(figure_names(args))
            checks.record(check_paper(results, reference["paper"]),
                          len(results))
            extra["figure_s"] = seconds
            return wall
        output_dir = fresh_dir(work, "out")
        if args.workload == "sweep-cached":
            seeds, cache = cached_seeds, cache_dir
        else:
            seeds = grid.pass_seeds(args.seed, index)
            cache = fresh_dir(work, "cache")
        wall, result = sweep_pass(grid, seeds, pool, cache, output_dir)
        checks.record(check_sweep(result, reference["sweep"]["cells"],
                                  output_dir, args.workload == "sweep-cached"),
                      len(result.traces))
        del result
        shutil.rmtree(output_dir)
        if args.workload == "sweep-event":
            shutil.rmtree(cache)
        return wall

    first = 0
    if args.workload == "sweep-event":
        # The first campaign after set-up runs slower than the rest; it is
        # checked but not timed.
        extra["warmup_s"] = one_pass(0)
        first = 1
    deadline = perf_counter() + args.seconds
    limit = args.passes or MAX_PASSES
    for index in range(first, first + limit):
        walls.append(one_pass(index))
        if perf_counter() >= deadline:
            break
    return {"walls": walls, "checks": checks, **extra}


def figure_names(args: argparse.Namespace) -> List[str]:
    return paper_order(args.seed, SMOKE_FIGURES if args.smoke else FIGURES)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(args: argparse.Namespace, grids: Dict[str, Grid], pool: Any,
               reference: Dict[str, Any], work: Path,
               setup_times: Dict[str, float]) -> Dict[str, Any]:
    """Every layer measured on the pass that exercises it.

    One traced pass of each workload, each under its own
    :class:`~layers.LayerTracer`: the paper pass (figures, sim, topology,
    analysis, plotting); the sweep-event campaign pass (pool, cache
    writes); the sweep-cached pass over the cache the event pass filled
    (cache reads, CSV writes, merge, manifest).  The analytic engine is
    exercised by no workload, so two more passes cover it over the
    standard grid: an analytic campaign pass (replay memo, fallbacks) and
    a traced in-process ``run_fastforward_grid`` (fast-forward engine,
    queueing, Lindley).  Then the ungated baseline details, with the
    wrappers removed.  Each workload's outputs are checked into its own
    :class:`Checks`; the named workload's are the run's, the others' and
    the analytic pass's are reported in the details.
    """
    checks = {workload: Checks() for workload in WORKLOADS}
    analytic_checks = Checks()
    grid, standard = grids["sweep"], grids["standard"]
    cells = reference["sweep"]["cells"]
    seeds = grid.pass_seeds(args.seed, 0)
    standard_seeds = standard.pass_seeds(args.seed, 0)
    walls: Dict[str, float] = {}
    details: Dict[str, Any] = {}

    paper, (walls["paper"], figure_s, results) = under_tracer(
        lambda: paper_pass(figure_names(args)))
    checks["paper"].record(check_paper(results, reference["paper"]),
                           len(results))
    del results

    cache_dir = fresh_dir(work, "cache")
    output_dir = fresh_dir(work, "out")
    sweep, (walls["sweep-event"], campaign) = under_tracer(
        lambda: sweep_pass(grid, seeds, pool, cache_dir, output_dir,
                           spans=True))
    checks["sweep-event"].record(
        check_sweep(campaign, cells, output_dir, False), len(campaign.traces))
    writes = campaign_figures(campaign, output_dir, walls["sweep-event"])
    del campaign

    output_dir = fresh_dir(work, "out")
    cached, (walls["sweep-cached"], rerun) = under_tracer(
        lambda: sweep_pass(grid, seeds, pool, cache_dir, output_dir,
                           spans=True))
    checks["sweep-cached"].record(
        check_sweep(rerun, cells, output_dir, True), len(rerun.traces))
    reads = campaign_figures(rerun, output_dir, walls["sweep-cached"])
    del rerun
    details["same_dir_rerun_s"], _ = sweep_pass(grid, seeds, pool,
                                                cache_dir, output_dir)

    analytic_cache = fresh_dir(work, "cache-analytic")
    analytic_out = fresh_dir(work, "out-analytic")
    details["analytic_pass_s"], analytic = sweep_pass(
        standard, standard_seeds, pool, analytic_cache, analytic_out,
        mode="analytic")
    analytic_checks.record(
        check_sweep(analytic, reference["standard"]["cells"], analytic_out,
                    False), len(analytic.traces))
    replay = campaign_figures(analytic, analytic_out,
                              details["analytic_pass_s"])
    del analytic
    engine, details["grid_s"] = under_tracer(
        lambda: fastforward_grid(standard, standard_seeds))

    run_s = paper.seconds("sim.run")
    events = paper.events
    passes = sum(engine.passes_by_delta.values())
    walks = sum(engine.walks_by_delta.values())
    metrics: Dict[str, float] = {
        **{f"figures.{name}_s": figure_s.get(name, 0.0) for name in FIGURES},
        "sim.run_s": run_s,
        "sim.events": events,
        "sim.events_per_s": events / run_s if run_s else 0.0,
        "topology.build_s": paper.seconds("topology.build")
        + engine.seconds("topology.build"),
        "topology.builds": paper.calls("topology.build")
        + engine.calls("topology.build"),
        "analysis.s": paper.seconds("analysis"),
        "analysis.calls": paper.calls("analysis"),
        "plotting.render_s": paper.seconds("plotting.render"),
        "analysis.lindley_s": engine.seconds("analysis.lindley"),
        "fastforward.replay_s": engine.seconds("fastforward.replay"),
        "fastforward.replay_builds": engine.calls("fastforward.replay"),
        "fastforward.replay_hits": replay["replay_hits"],
        "fastforward.replay_misses": replay["replay_misses"],
        "fastforward.engine_self_s": engine.self_seconds("fastforward.engine"),
        "fastforward.fallbacks": replay["fallbacks"],
        "queueing.passes": passes,
        "queueing.walks": walks,
        "queueing.cert_ratio": 1.0 - walks / passes if passes else 0.0,
        "queueing.walk_s": engine.walk_seconds,
        "pool.start_s": setup_times["pool_start_s"],
        "pool.leases": writes["leases"],
        "pool.lease_s": writes["lease_s"],
        "pool.shm_s": writes["shm_s"],
        "pool.shm_bytes": writes["shm_bytes"],
        "pool.utilization": writes["utilization"],
        "cache.lookup_s": cached.seconds("cache.lookup"),
        "cache.hits": reads["hits"],
        "cache.hit_ratio": reads["hits"] / reads["cells"],
        "cache.bytes_read": reads["bytes_read"],
        "cache.store_s": sweep.seconds("cache.store"),
        "cache.bytes_written": writes["bytes_written"],
        "netdyn.save_csv_s": cached.seconds("netdyn.save_csv"),
        "netdyn.csv_files": cached.calls("netdyn.save_csv"),
        "campaign.merge_s": reads["merge_s"],
        "obs.manifest_s": cached.seconds("obs.manifest"),
        "devtools.salt_s": setup_times["salt_s"],
        "setup.import_s": setup_times["import_s"],
    }
    expected = set(declared_metrics("per_layer")) - {"trace.overhead_s"}
    if set(metrics) != expected:
        raise KeyError("traced metrics differ from BENCHMARK.json: "
                       f"{sorted(set(metrics) ^ expected)}")

    details["walks_by_delta"] = by_delta(engine.walks_by_delta)
    details["passes_by_delta"] = by_delta(engine.passes_by_delta)
    serial_wall, serial = sweep_pass(standard, standard_seeds, None, None,
                                     None, mode="analytic")
    details["serial_analytic_pass"] = {
        "wall_s": serial_wall,
        "replay_hits": serial.dispatch_stats["replay_hits"],
        "replay_misses": serial.dispatch_stats["replay_misses"]}
    del serial
    cpu_count = os.cpu_count() or 1
    if cpu_count < pool.workers:
        details["pool_not_measured"] = (
            f"cpu_count {cpu_count} < workers {pool.workers}: the pool.* "
            "metrics are not a measurement of parallel dispatch")
    details["other_workloads"] = {
        workload: summary(other)
        for workload, other in checks.items() if workload != args.workload}
    details["analytic_vs_event"] = summary(analytic_checks)
    return {"walls": [walls[args.workload]], "traced_walls": walls,
            "checks": checks[args.workload], "metrics": metrics,
            "details": details}


def summary(checks: Checks) -> Dict[str, Any]:
    return {"attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures}


def under_tracer(work: Callable[[], Any]) -> Tuple[Any, Any]:
    """Run ``work`` with the layer wrappers installed; (tracer, result)."""
    with LayerTracer() as tracer:
        result = work()
    return tracer, result


def fastforward_grid(grid: Grid, seeds: List[int]) -> float:
    """The in-process run_fastforward_grid pass over the traced grid."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fastforward import run_fastforward_grid
    configs = [ExperimentConfig(delta=delta, duration=grid.duration,
                                seed=seed, scenario=grid.scenario,
                                mode="analytic")
               for delta in grid.deltas for seed in seeds]
    started = perf_counter()
    run_fastforward_grid(configs)
    return perf_counter() - started


def campaign_figures(result: Any, output_dir: Path,
                     wall: float) -> Dict[str, float]:
    """Dispatch, cache and span figures of one traced campaign pass."""
    timing = json.loads((output_dir / "timing.json").read_text())
    spans = timing.get("spans", {})
    dispatch = result.dispatch_stats
    cache = result.cache_stats
    fresh = sum(seconds for key, seconds in result.cell_wall_seconds.items()
                if cache["cells"][key] == "miss")

    def span_total(phase: str) -> float:
        return float(spans.get(phase, {}).get("total_seconds", 0.0))

    return {
        "cells": len(result.traces),
        "replay_hits": dispatch["replay_hits"],
        "replay_misses": dispatch["replay_misses"],
        "fallbacks": sum(trace.meta.get("mode") == "event"
                         for trace in result.traces.values()),
        "leases": dispatch["leases"],
        "lease_s": span_total("lease"),
        "shm_s": span_total("shm"),
        "shm_bytes": dispatch["shm_bytes"],
        "utilization": fresh / (max(1, dispatch["workers"]) * wall),
        "hits": cache["hits"],
        "bytes_read": cache["bytes_read"],
        "bytes_written": cache["bytes_written"],
        "merge_s": span_total("merge"),
    }


def by_delta(counts: Dict[Optional[float], int]) -> Dict[str, int]:
    return {f"{delta * 1000:g}ms": counts[delta]
            for delta in sorted(counts, key=lambda d: d or 0.0)}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int, default=0,
                        help="stop after this many passes (0: time only)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    grids = grids_for(args.smoke)
    grid = grids["sweep"]
    pool, setup_times = setup(grid, args.traced
                              or args.workload != "paper")
    try:
        outcome: Dict[str, Any] = {}
        if not args.setup_only:
            import reference
            digests = reference.load(args.reference or reference.REFERENCE)
            if args.traced:
                outcome = traced_run(args, grids, pool, digests, args.work,
                                     setup_times)
            else:
                outcome = run_passes(args, grid, pool, digests, args.work)
    finally:
        if pool is not None:
            pool.close()
    checks = outcome.pop("checks", Checks())
    document = {"setup": setup_times, "attempted": checks.attempted,
                "failed": checks.failed, "failures": checks.failures,
                "peak_rss_mb": peak_rss_mb(), **outcome}
    args.result.write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
