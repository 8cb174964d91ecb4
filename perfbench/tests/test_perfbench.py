"""Self-tests of the benchmark: its declarations, smoke passes and checks.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

Smoke passes use the shrunk inputs (``--smoke``) against an event-mode
reference generated here, so they take a few minutes in total.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import (  # noqa: E402
    FIGURES,
    REFERENCE,
    WORKLOADS,
    declared_metrics,
    grids_for,
)

END_TO_END = declared_metrics("end_to_end")
PER_LAYER = declared_metrics("per_layer")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("sim.events", "queueing.walks", "queueing.passes",
                "cache.hits", "pool.leases", "topology.builds",
                "fastforward.replay_builds", "netdyn.csv_files")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_reference(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("reference") / "smoke.json"
    subprocess.run([sys.executable, str(BENCH / "reference.py"), "--smoke",
                    "--output", str(path)], check=True, timeout=170)
    return path


def smoke(workload: str, reference: Path, trace: int = 0,
          seed: int = 3) -> dict:
    return result_of(run_bench("--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", str(trace),
                               "--smoke", "--reference", str(reference)))


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
def test_metric_names_are_well_formed():
    names = list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS)
    for name in names:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)


def test_committed_reference_covers_every_grid():
    reference = json.loads(REFERENCE.read_text())
    for section, grid in grids_for(smoke=False).items():
        cells = reference[section]
        assert cells["mode"] == "event"
        assert (cells["scenario"], cells["duration"]) == (grid.scenario,
                                                          grid.duration)
        assert cells["deltas"] == list(grid.deltas)
        assert cells["seeds"] == list(grid.seed_pool)
        assert len(cells["cells"]) == len(grid.deltas) * len(grid.seed_pool)
    assert set(reference["paper"]) == set(FIGURES)


def test_every_metric_is_documented_in_the_readme():
    readme = (BENCH / "README.md").read_text()
    for name in list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert f"`{name}`" in readme, name


# ----------------------------------------------------------------------
# Smoke passes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_reports_every_end_to_end_metric(workload,
                                                    smoke_reference):
    result = smoke(workload, smoke_reference)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, smoke_reference):
    first = smoke(workload, smoke_reference, trace=1)
    second = smoke(workload, smoke_reference, trace=1)
    assert set(first["metrics"]) == set(PER_LAYER)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] \
            == second["metrics"][name]["value"], name
    assert first["correct"] and second["correct"]


def test_perturbed_reference_fails_the_checks(smoke_reference, tmp_path):
    document = json.loads(smoke_reference.read_text())
    # Every pass runs δ = 500 ms, whichever seeds it draws.
    for key in document["sweep"]["cells"]:
        if key.startswith("d500_"):
            document["sweep"]["cells"][key] = "0" * 64
    name = sorted(document["paper"])[0]
    document["paper"][name] = "0" * 64
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(document))
    for workload in WORKLOADS:
        result = smoke(workload, perturbed, seed=1)
        assert result["correct"] is False, workload
        assert result["failed"] >= 1, workload
        assert result["failed"] / result["attempted"] > 0


def test_traced_result_counts_only_the_named_workload(smoke_reference,
                                                      tmp_path):
    document = json.loads(smoke_reference.read_text())
    for section in ("sweep", "standard"):
        for key in document[section]["cells"]:
            document[section]["cells"][key] = "0" * 64
    perturbed = tmp_path / "sweeps-perturbed.json"
    perturbed.write_text(json.dumps(document))
    completed = run_bench("--workload", "paper", "--seed", "1",
                          "--seconds", "1", "--trace", "1", "--smoke",
                          "--reference", str(perturbed))
    result = result_of(completed)
    assert result["correct"] is True
    assert result["attempted"] == 2 * len(document["paper"])
    lines = completed.stdout.strip().splitlines()
    details = json.loads(lines[-2].removeprefix("details "))
    for workload in ("sweep-event", "sweep-cached"):
        other = details["other_workloads"][workload]
        assert other["failed"] == other["attempted"] >= 1, workload
    analytic = details["analytic_vs_event"]
    assert analytic["failed"] == analytic["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    completed = run_bench("--workload", "paper", "--seed", "1",
                          "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
