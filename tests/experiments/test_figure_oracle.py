"""Event mode as the oracle of the figures' analytic runs.

Every figure runs its experiments on the analytic engine.  These tests
record the configurations a figure function actually hands to the engine,
re-run each one in event mode, and require identical traces, bit for bit.
The cheap figures run here; figures 5 and 6 and Table 3 (about 21 s of
event simulation) run in CI through :func:`assert_figure_matches_event`.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import fastforward as ff
from repro.experiments import figures
from repro.experiments.runner import run_experiment


@contextmanager
def recorded_runs():
    """Record (config, analytic result) of every cell a figure runs."""
    runs = []
    engine = figures.run_fastforward_grid

    def recording(configs):
        configs = list(configs)
        results = engine(configs)
        runs.extend(zip(configs, results))
        return results

    figures.run_fastforward_grid = recording
    try:
        yield runs
    finally:
        figures.run_fastforward_grid = engine


def assert_figure_matches_event(name):
    """Run ``ALL_FIGURES[name]`` and check each cell against event mode."""
    with recorded_runs() as runs:
        result = figures.ALL_FIGURES[name]()
    assert runs, f"{name} ran no experiments"
    assert [run.config for run in result.runs] == [c for c, _ in runs]
    for config, analytic in runs:
        assert analytic.mode_used == "analytic", analytic.fallback_reasons
        event = run_experiment(replace(config, mode="event"))
        assert np.array_equal(event.send_times, analytic.trace.send_times)
        assert np.array_equal(event.rtts, analytic.trace.rtts), config


@pytest.mark.parametrize("name", ["figure1", "figure2", "figure4",
                                  "figure8", "figure9"])
def test_figure_traces_match_event_mode(name):
    assert_figure_matches_event(name)


def test_figures_keep_no_process_replay_state():
    memo = ff.process_replay_memo()
    before = (len(memo), memo.counters())
    for function in figures.ALL_FIGURES.values():
        function()
    assert ff.process_replay_memo() is memo
    assert (len(memo), memo.counters()) == before


def test_provenance_names_each_cell_and_its_mode():
    result = figures.figure9()
    assert result.provenance() == (
        "Figure 9: inria-umd delta=100ms seed=1: analytic, "
        "inria-umd delta=20ms seed=1: analytic")
    assert figures.table1().provenance() == "Table 1: no experiments"
