"""Queue-statistics pin: occupancy sums are frozen bit-for-bit.

The golden trace pins probe timestamps only, and reordering the float
operations of the time-weighted occupancy sums moves no timestamp.
``tests/data/queue_stats_inria_umd.json`` holds
:func:`~repro.experiments.campaign.collect_queue_stats` of the golden cell
(δ=50 ms, 30 s, seed 1) and of a lossy δ=8 ms cell, every value written
with ``float.hex`` so the comparison is exact.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.campaign import collect_queue_stats
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment_timed

PINNED = Path(__file__).resolve().parents[1] / "data" \
    / "queue_stats_inria_umd.json"
CELLS = json.loads(PINNED.read_text())["cells"]


@pytest.mark.parametrize("cell", CELLS,
                         ids=[f"delta={c['delta']}" for c in CELLS])
def test_queue_stats_match_pin(cell):
    config = ExperimentConfig(delta=cell["delta"],
                              duration=cell["duration"], seed=cell["seed"])
    _, scenario, _ = run_experiment_timed(config)
    stats = collect_queue_stats(scenario.network)
    hexed = {queue: {key: float(value).hex() for key, value in row.items()}
             for queue, row in stats.items()}
    assert hexed == cell["queue_stats"]


def test_pin_covers_a_lossy_bottleneck():
    # The δ=8 ms cell exists to exercise drops and a busy occupancy sum;
    # if the scenario ever stopped dropping, the pin would lose its point.
    drops = [float.fromhex(row["drops"])
             for cell in CELLS for row in cell["queue_stats"].values()]
    assert any(d > 0 for d in drops)
