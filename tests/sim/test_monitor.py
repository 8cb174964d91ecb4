"""Unit tests for counters and time-weighted statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, SampleStats, Simulator, TimeWeightedValue
from repro.sim.monitor import update_pair


class TestCounter:
    def test_increment(self, sim):
        counter = Counter(sim)
        counter.increment()
        counter.increment(by=3)
        assert counter.count == 4

    def test_rate(self, sim):
        counter = Counter(sim)
        sim.call_at(10.0, counter.increment)
        sim.run()
        assert counter.rate() == pytest.approx(0.1)

    def test_rate_zero_elapsed(self, sim):
        assert Counter(sim).rate() == 0.0


class TestTimeWeightedValue:
    def test_constant_value(self, sim):
        tracked = TimeWeightedValue(sim, initial=3.0)
        sim.run(until=10.0)
        assert tracked.mean() == pytest.approx(3.0)

    def test_step_change_weighted_by_time(self, sim):
        tracked = TimeWeightedValue(sim, initial=0.0)
        sim.call_at(5.0, lambda: tracked.update(10.0))
        sim.run(until=10.0)
        # 5 s at 0 plus 5 s at 10 -> mean 5.
        assert tracked.mean() == pytest.approx(5.0)

    def test_extrema(self, sim):
        tracked = TimeWeightedValue(sim, initial=2.0)
        sim.call_at(1.0, lambda: tracked.update(7.0))
        sim.call_at(2.0, lambda: tracked.update(-1.0))
        sim.run()
        assert tracked.maximum() == 7.0
        assert tracked.minimum() == -1.0

    def test_value_property(self, sim):
        tracked = TimeWeightedValue(sim, initial=1.0)
        tracked.update(4.0)
        assert tracked.value == 4.0


VALUE = st.floats(-1e6, 1e6)
#: (clock advance, first value, second value) of one paired update.
STEP = st.tuples(st.sampled_from([0.0, 1e-9, 0.3, 2.0]), VALUE, VALUE)


class TestUpdatePair:
    """``update_pair`` equals two reference ``update`` calls, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(VALUE, VALUE, st.lists(STEP, max_size=30),
           st.sampled_from([0.0, 0.7]))
    def test_matches_two_updates(self, first_initial, second_initial, steps,
                                 tail):
        sim = Simulator(seed=0)
        paired = (TimeWeightedValue(sim, first_initial),
                  TimeWeightedValue(sim, second_initial))
        reference = (TimeWeightedValue(sim, first_initial),
                     TimeWeightedValue(sim, second_initial))

        def assert_same():
            for got, want in zip(paired, reference):
                assert got.value == want.value
                assert got.mean() == want.mean()
                assert got.maximum() == want.maximum()
                assert got.minimum() == want.minimum()

        def step(first_value, second_value):
            update_pair(paired[0], first_value, paired[1], second_value)
            reference[0].update(first_value)
            reference[1].update(second_value)
            assert_same()

        at = 0.0
        for advance, first_value, second_value in steps:
            at += advance
            sim.call_at(at, lambda a=first_value, b=second_value: step(a, b))
        sim.run(until=at + tail)
        assert_same()


class TestSampleStats:
    def test_mean_and_variance(self):
        stats = SampleStats()
        for x in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.add(x)
        assert stats.mean() == pytest.approx(5.0)
        assert stats.variance() == pytest.approx(32.0 / 7.0)
        assert stats.stddev() == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_empty(self):
        stats = SampleStats()
        assert stats.mean() == 0.0
        assert stats.variance() == 0.0
        assert stats.minimum() is None
        assert stats.maximum() is None

    def test_single_sample(self):
        stats = SampleStats()
        stats.add(3.0)
        assert stats.mean() == 3.0
        assert stats.variance() == 0.0

    def test_extrema(self):
        stats = SampleStats()
        for x in (3.0, -1.0, 10.0):
            stats.add(x)
        assert stats.minimum() == -1.0
        assert stats.maximum() == 10.0
