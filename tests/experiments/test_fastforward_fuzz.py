"""Differential fuzzing: the analytic engine against event mode.

The equivalence tests in ``test_fastforward.py`` and the figure oracle
cover the calibrated scenarios at their default arguments.  This test
draws the builders' knobs as well (loads including 0, bulk fractions 0
and 1, buffer sizes in packets and bytes, random drops, FTP windows,
clock quantization), a seed, and δ from multiples of the source's clock
tick and from below the probe's service time at the bottleneck, over
short horizons.  An eligible cell must give event mode's trace and
bottleneck queue statistics bit for bit; an ineligible one must name a
reason and give event mode's trace through its fallback.  A
counterexample is a bug in the engine or its eligibility check, never a
reason to narrow the strategy.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.experiments import fastforward as ff
from repro.experiments.campaign import collect_queue_stats
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment_with_scenario
from repro.net.clocks import DECSTATION_RESOLUTION, UMD_RESOLUTION
from repro.net.packet import UDP_WIRE_OVERHEAD_BYTES
from repro.netdyn.packetfmt import PROBE_PAYLOAD_BYTES
from repro.units import bytes_to_bits, kbps, mbps
from tests.profiles import budget

PROBE_BITS = float(bytes_to_bits(PROBE_PAYLOAD_BYTES
                                 + UDP_WIRE_OVERHEAD_BYTES))
#: Scenario -> (source clock tick, bottleneck rate).
SCENARIOS = {
    "inria-umd": (DECSTATION_RESOLUTION, kbps(128)),
    "umd-pitt": (UMD_RESOLUTION, mbps(10)),
}

LOADS = st.one_of(st.just(0.0), st.floats(0.05, 0.95))
BULK = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def cells(draw):
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    tick, rate = SCENARIOS[scenario]
    kwargs = {
        "utilization_fwd": draw(LOADS),
        "utilization_rev": draw(LOADS),
        "bulk_fraction": draw(BULK),
        "quantized_clock": draw(st.booleans()),
    }
    if scenario == "inria-umd":
        kwargs.update(
            buffer_packets=draw(st.integers(1, 30)),
            fault_drop_prob=draw(st.one_of(st.just(0.0),
                                           st.floats(0.0, 1.0))),
            window=draw(st.integers(1, 8)),
            window_interval=draw(st.floats(0.005, 0.5)),
            mean_file_packets=draw(st.floats(1.0, 60.0)))
    else:
        kwargs["buffer_bytes"] = draw(st.integers(72, 60_000))
    service = PROBE_BITS / rate
    delta = draw(st.one_of(
        st.integers(1, 40).map(lambda ticks: ticks * tick),
        st.floats(service / 20, service, exclude_max=True),
        st.floats(1e-3, 0.5)))
    count = draw(st.integers(1, 250))
    return ExperimentConfig(
        delta=delta, duration=count * delta, seed=draw(st.integers(0, 999)),
        warmup=draw(st.floats(0.0, 4.0)), scenario=scenario,
        scenario_kwargs=kwargs)


def analytic(config):
    return ExperimentConfig(
        delta=config.delta, duration=config.duration, seed=config.seed,
        warmup=config.warmup, scenario=config.scenario,
        scenario_kwargs=config.scenario_kwargs, mode="analytic")


@budget(12)
@given(cells())
# No probe survives the forward drops and no cross traffic runs, so the
# reverse bottleneck sees no arrival: event mode reports no statistics
# for it, and neither may the engine.
@example(ExperimentConfig(
    delta=0.05, duration=0.05, seed=1, warmup=0.0, scenario="inria-umd",
    scenario_kwargs={"utilization_fwd": 0.0, "utilization_rev": 0.0,
                     "fault_drop_prob": 1.0}))
# A bulk fraction so small that the FTP source's mean interval overflows:
# its first emission lies at infinity, so it never emits in either mode.
@example(ExperimentConfig(
    delta=0.003, duration=0.003, seed=0, warmup=0.0, scenario="umd-pitt",
    scenario_kwargs={"utilization_fwd": 0.0, "utilization_rev": 0.17,
                     "bulk_fraction": 5e-324, "quantized_clock": False,
                     "buffer_bytes": 72}))
def test_analytic_equals_event_across_the_knobs(config):
    event, scenario = run_experiment_with_scenario(config)
    result = ff.run_fastforward_experiment(analytic(config))
    assert np.array_equal(result.trace.send_times, event.send_times)
    assert np.array_equal(result.trace.rtts, event.rtts)
    if result.mode_used == "event":
        assert result.fallback_reasons
        assert result.trace.meta["fallback"] == result.fallback_reasons
        return
    assert result.fallback_reasons == []
    assert ff.fastforward_ineligibilities(scenario) == []
    queues = collect_queue_stats(scenario.network)
    bottlenecks = {scenario.bottleneck_fwd.name, scenario.bottleneck_rev.name}
    expected = {label: row for label, row in queues.items()
                if label in bottlenecks}
    hexed = {label: {key: float(value).hex() for key, value in row.items()}
             for label, row in result.queue_stats.items()}
    assert hexed == {label: {key: float(value).hex()
                             for key, value in row.items()}
                     for label, row in expected.items()}
