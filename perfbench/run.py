"""The repo benchmark: the paper run, a campaign sweep, its cached re-run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: several fresh-process
set-ups (median ``setup_s``), then one workload process that runs passes
for ``--seconds`` (median pass ``wall_s``, ``peak_rss_mb``) and checks
every output against ``reference.json``.  ``--trace 1`` runs one
untraced pass of the workload, then, in another process, one traced pass
of every workload, and reports the ``per_layer`` metrics of
``BENCHMARK.json`` (each measured on the pass that exercises it) plus
``trace.overhead_s`` (this workload's traced minus untraced pass).
``correct``/``attempted``/``failed`` always count the named workload's
operations only; a traced run's checks of the other workloads and of the
analytic engine go to the ``details`` line.

The last line of standard output is the JSON result; a ``details`` line
before it carries the ungated figures (per-pass times, set-up samples,
host CPU count and worker count, baseline shares).  Exits 2 without a
result when the checkout has no ``src/repro`` tree or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List, Optional

from common import (
    BENCH_DIR,
    REFERENCE,
    SRC,
    WORK,
    WORKLOADS,
    declared_metrics,
    grids_for,
)

#: Fresh-process set-ups per untraced run besides the workload process's
#: own; ``setup_s`` is the median of all of them.
SETUP_PROBES = 4
#: Pass walls the details line lists (the first ones of the run).
PASS_WALLS_SHOWN = 20
#: Whole-run budget: every child is killed past it.
RUN_BUDGET_S = 170.0
#: Environment that would change what the workloads compute.
_SCRUBBED_ENV = ("REPRO_FULL_EXPERIMENTS", "REPRO_CACHE_DIR")


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


class Runner:
    """Starts workload processes inside one run directory."""

    def __init__(self, args: argparse.Namespace, run_dir: Path) -> None:
        self.args = args
        self.run_dir = run_dir
        self.deadline = monotonic() + RUN_BUDGET_S
        self._count = 0
        env = {key: value for key, value in os.environ.items()
               if key not in _SCRUBBED_ENV}
        tmp = run_dir / "tmp"
        tmp.mkdir(parents=True)
        env["TMPDIR"] = str(tmp)
        self.env = env

    def child(self, *flags: str) -> Dict[str, Any]:
        """Run one workload process; return its result document."""
        self._count += 1
        work = self.run_dir / f"w{self._count}"
        work.mkdir()
        result = work / "result.json"
        command = [sys.executable, str(BENCH_DIR / "workload.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed),
                   "--seconds", str(self.args.seconds),
                   "--work", str(work), "--result", str(result), *flags]
        if self.args.smoke:
            command.append("--smoke")
        if self.args.reference:
            command += ["--reference", str(self.args.reference)]
        remaining = self.deadline - monotonic()
        try:
            completed = subprocess.run(command, env=self.env,
                                       stdout=subprocess.DEVNULL,
                                       timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload process exceeded the "
                             f"{RUN_BUDGET_S:.0f} s run budget") from exc
        if completed.returncode != 0 or not result.is_file():
            raise BenchError(f"workload process exited with "
                             f"{completed.returncode}")
        document = json.loads(result.read_text(encoding="utf-8"))
        shutil.rmtree(work)
        return document


def timed_run(runner: Runner) -> Dict[str, Any]:
    """Untraced: set-up samples, then the timed passes."""
    samples = [runner.child("--setup-only")["setup"]["setup_s"]
               for _ in range(SETUP_PROBES)]
    run = runner.child()
    samples.append(run["setup"]["setup_s"])
    metrics = {
        "wall_s": statistics.median(run["walls"]),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {"passes": len(run["walls"]),
               "pass_walls_s": run["walls"][:PASS_WALLS_SHOWN],
               "setup_samples_s": samples,
               "setup_breakdown_s": run["setup"]}
    for key in ("fill_s", "warmup_s", "figure_s"):
        if key in run:
            details[key] = run[key]
    return {"metrics": metrics, "runs": [run], "details": details,
            "units": declared_metrics("end_to_end")}


def traced_run(runner: Runner) -> Dict[str, Any]:
    """Traced: one untraced pass, then the traced passes of every workload.

    ``trace.overhead_s`` compares this workload's two passes.
    """
    plain = runner.child("--passes", "1")
    traced = runner.child("--traced")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = traced["walls"][0] - plain["walls"][0]
    details = dict(traced["details"])
    details.update(untraced_wall_s=plain["walls"][0],
                   traced_walls_s=traced["traced_walls"])
    return {"metrics": metrics, "runs": [plain, traced], "details": details,
            "units": declared_metrics("per_layer")}


def render(outcome: Dict[str, Any]) -> str:
    """The result line: exactly correct/attempted/failed/metrics."""
    attempted = sum(run["attempted"] for run in outcome["runs"])
    failed = sum(run["failed"] for run in outcome["runs"])
    units = outcome["units"]
    metrics = outcome["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def report(outcome: Dict[str, Any], args: argparse.Namespace) -> None:
    """Print the table, the details line and the result line."""
    result = render(outcome)
    attempted = sum(run["attempted"] for run in outcome["runs"])
    failed = sum(run["failed"] for run in outcome["runs"])
    counts: Counter = Counter()
    for run in outcome["runs"]:
        counts.update(run["failures"])
    failures = [f"{reason} (in {count} pass{'es' if count > 1 else ''})"
                for reason, count in sorted(counts.items())]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} cpu_count={os.cpu_count()}")
    for name, unit in outcome["units"].items():
        print(f"  {name:<28} {outcome['metrics'][name]!r:>24} {unit}")
    print(f"  {'failed_frac':<28} {failed / max(1, attempted)!r:>24} "
          f"({failed} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    analytic = outcome["details"].get("analytic_vs_event")
    if analytic:
        print(f"  analytic engine vs event mode: {analytic['failed']} of "
              f"{analytic['attempted']} standard-grid cells differ")
    details = dict(outcome["details"], cpu_count=os.cpu_count(),
                   workers=(0 if args.workload == "paper"
                            else grids_for(args.smoke)["sweep"].workers),
                   failed_frac=failed / max(1, attempted),
                   failures=failures)
    print("details " + json.dumps(details, sort_keys=True))
    print(result)


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk inputs (the benchmark's own tests)")
    parser.add_argument("--reference", type=Path,
                        help=f"digest file (default {REFERENCE.name})")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    reference = args.reference or REFERENCE
    if not reference.is_file():
        print(f"perfbench: missing reference digests {reference}",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args, run_dir)
        outcome = traced_run(runner) if args.trace else timed_run(runner)
        report(outcome, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
