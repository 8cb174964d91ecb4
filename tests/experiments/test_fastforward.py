"""Equivalence and eligibility tests for the analytic execution mode.

Event mode is the golden reference (pinned byte-for-byte by
``test_golden_trace.py``).  The analytic fast-forward must match it
*bit for bit* on every eligible scenario: the engine replays the
identical RNG draw sequence and per-packet arrival order, so any
divergence — one flipped loss, one shifted tick — is a bug here, never
a re-baseline.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import fastforward as ff
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_scenario,
    run_experiment,
    run_experiment_with_scenario,
    run_observed_experiment,
)
from repro.net.clocks import SkewedClock
from repro.net.faults import PeriodicStallFault
from repro.netdyn.trace import LOST


def config_for(scenario, delta, duration, seed=3, mode="event"):
    return ExperimentConfig(delta=delta, duration=duration, seed=seed,
                            scenario=scenario, mode=mode)


class TestEligibility:
    @pytest.mark.parametrize("scenario", ["inria-umd", "umd-pitt"])
    def test_calibrated_scenarios_are_eligible(self, scenario):
        built = build_scenario(config_for(scenario, 0.05, 10.0))
        assert ff.fastforward_ineligibilities(built) == []

    def test_lifecycle_hook_blocks(self):
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        built.bottleneck_fwd.lifecycle = object()
        reasons = ff.fastforward_ineligibilities(built)
        assert any("lifecycle" in reason for reason in reasons)

    def test_stall_fault_blocks(self):
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        path = built.network.path(built.source, built.echo)
        first = built.network.node(path[0]).interface_to(path[1])
        first.add_egress_fault(PeriodicStallFault(period=90.0, stall=1.0))
        reasons = ff.fastforward_ineligibilities(built)
        assert any("PeriodicStallFault" in reason for reason in reasons)

    def test_skewed_clock_blocks(self):
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        built.network.host(built.source).clock = SkewedClock(
            built.sim, offset=1.0)
        reasons = ff.fastforward_ineligibilities(built)
        assert any("clock" in reason for reason in reasons)

    def test_fault_on_bottleneck_blocks(self):
        from repro.net.faults import RandomDropFault
        built = build_scenario(config_for("inria-umd", 0.05, 10.0))
        built.bottleneck_rev.add_egress_fault(
            RandomDropFault(0.01, built.sim.streams.get("test.bottleneck")))
        reasons = ff.fastforward_ineligibilities(built)
        assert any("bottleneck" in reason for reason in reasons)


class TestExactEquivalence:
    """Analytic == event, bit for bit — including under real losses."""

    @pytest.mark.parametrize("scenario,delta,duration", [
        ("inria-umd", 0.05, 12.0),
        ("inria-umd", 0.5, 30.0),
        # Long enough for the bottleneck to overflow: the departure scan
        # must reproduce every drop decision.
        ("inria-umd", 0.05, 60.0),
        ("umd-pitt", 0.02, 4.0),
    ])
    def test_bit_identical_traces(self, scenario, delta, duration):
        event = run_experiment(config_for(scenario, delta, duration))
        result = ff.run_fastforward_experiment(
            config_for(scenario, delta, duration, mode="analytic"))
        assert result.mode_used == "analytic"
        trace = result.trace
        assert np.array_equal(event.send_times, trace.send_times)
        assert np.array_equal(event.rtts, trace.rtts)

    def test_event_order_arithmetic_d8_s18(self):
        # A full reverse buffer met an arrival exactly as a transmission
        # ended, in the kernel's float arithmetic.  Precomputed latency
        # sums left 5.8e-15 s of service, so the probe used to drop in
        # analytic mode while event mode received it.
        event = run_experiment(config_for("inria-umd", 0.008, 120.0,
                                          seed=18))
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.008, 120.0, seed=18, mode="analytic"))
        assert np.array_equal(event.send_times, result.trace.send_times)
        assert np.array_equal(event.rtts, result.trace.rtts)

    def test_probes_queue_and_drop_before_the_bottleneck(self):
        # Probes every 10 us outrun the 10 Mb/s first link (48 us each):
        # they queue and overflow links that carry no cross traffic.
        event = run_experiment(ExperimentConfig(
            delta=1e-5, duration=0.005, seed=3, warmup=1.0))
        result = ff.run_fastforward_experiment(ExperimentConfig(
            delta=1e-5, duration=0.005, seed=3, warmup=1.0,
            mode="analytic"))
        assert (event.rtts == LOST).sum() > 400
        assert np.array_equal(event.send_times, result.trace.send_times)
        assert np.array_equal(event.rtts, result.trace.rtts)

    def test_losses_occur_and_match_exactly(self):
        # Guards the parametrization above: the long cell really does
        # exercise the drop path, and every lost probe agrees.
        event = run_experiment(config_for("inria-umd", 0.05, 60.0))
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 60.0, mode="analytic"))
        event_lost = event.rtts == LOST
        assert event_lost.any()
        assert np.array_equal(event_lost, result.trace.rtts == LOST)

    def test_bottleneck_drop_counts_match_event_queues(self):
        config = config_for("inria-umd", 0.05, 60.0)
        _, scenario = run_experiment_with_scenario(config)
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 60.0, mode="analytic"))
        for bottleneck in (scenario.bottleneck_fwd, scenario.bottleneck_rev):
            stats = result.queue_stats[bottleneck.name]
            assert stats["drops"] == bottleneck.queue.drops
            assert stats["arrivals"] == bottleneck.queue.arrivals

    def test_trace_meta_records_the_mode(self):
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 6.0, mode="analytic"))
        meta = result.trace.meta
        assert meta["mode"] == "analytic"
        assert "fallback" not in meta
        assert meta["scenario"] == "inria-umd"
        assert meta["seed"] == 3


class TestKernelOrder:
    def test_same_instant_arrivals_follow_their_scheduling_instant(self):
        # Two cross packets and two probes reach the bottleneck at t=2:
        # the kernel runs the events in the order they were scheduled.
        cross = np.array([1.0, 2.0, 2.0, 3.0])
        cross_scheduled = np.array([0.5, 1.9, 1.9, 2.9])
        probes = np.array([2.0, 2.0])
        probe_scheduled = np.array([1.5, 1.95])
        slots = ff._kernel_order(cross, cross_scheduled, probes,
                                 probe_scheduled)
        assert slots.tolist() == [1, 4]


class TestFallback:
    def test_ineligible_scenario_falls_back_to_event(self, monkeypatch):
        def build_with_stall(config):
            built = build_scenario(config)
            path = built.network.path(built.source, built.echo)
            first = built.network.node(path[0]).interface_to(path[1])
            first.add_egress_fault(
                PeriodicStallFault(period=90.0, stall=1.0))
            return built

        monkeypatch.setattr(ff, "build_scenario", build_with_stall)
        result = ff.run_fastforward_experiment(
            config_for("inria-umd", 0.05, 6.0, mode="analytic"))
        assert result.mode_used == "event"
        assert result.fallback_reasons
        assert result.trace.meta["mode"] == "event"
        assert result.trace.meta["fallback"] == result.fallback_reasons
        # The event fallback reports every active queue, campaign-style.
        assert result.queue_stats


class TestRunnerDispatch:
    def test_run_experiment_dispatches_on_mode(self):
        trace = run_experiment(
            config_for("inria-umd", 0.05, 6.0, mode="analytic"))
        assert trace.meta["mode"] == "analytic"
        assert len(trace) == 120

    def test_event_mode_traces_carry_no_mode_key(self):
        trace = run_experiment(config_for("inria-umd", 0.05, 6.0))
        # Event-mode metadata is golden (see test_golden_trace) and must
        # not grow keys because the analytic mode exists.
        assert "mode" not in trace.meta

    def test_observed_experiment_rejects_analytic_mode(self):
        with pytest.raises(ConfigurationError):
            run_observed_experiment(
                config_for("inria-umd", 0.05, 6.0, mode="analytic"))


class TestCampaignAnalytic:
    def test_campaign_runs_analytic_cells(self):
        spec = CampaignSpec(deltas=(0.05,), seeds=(3,), duration=6.0,
                            scenario="inria-umd", mode="analytic")
        result = run_campaign(spec)
        trace = result.traces[(0.05, 3)]
        assert trace.meta["mode"] == "analytic"
        stats = result.queue_stats[(0.05, 3)]
        built = build_scenario(config_for("inria-umd", 0.05, 6.0))
        assert set(stats) == {built.bottleneck_fwd.name,
                              built.bottleneck_rev.name}
        assert 0.05 in result.summaries

    def test_campaign_mode_is_validated(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(deltas=(0.05,), seeds=(1,), mode="wavelet")
