"""Measurement helpers: counters, time-weighted averages, and sample traces.

These are the simulator-side instruments used to validate the network
substrate (e.g. that a queue's time-averaged occupancy matches M/D/1 theory)
and to drive ablation benchmarks.

Queue occupancy is on the event-mode hot path: every enqueue and dequeue
moves both the packet and the byte series of a
:class:`~repro.net.queue.DropTailQueue`.  :func:`update_pair` advances the
two in one Python frame with a single ``sim.now`` read and plain
comparisons in place of the ``max``/``min`` builtins; its float operations
are the ones two :meth:`TimeWeightedValue.update` calls make, in the same
order, so every statistic stays bit-identical.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.kernel import Simulator


class Counter:
    """A plain event counter with a rate helper."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        self.count = 0
        self._start = sim.now

    def increment(self, by: int = 1) -> None:
        """Add ``by`` (default 1) to the count."""
        self.count += by

    def rate(self) -> float:
        """Events per second since the counter was created."""
        elapsed = self._sim.now - self._start
        if elapsed <= 0:
            return 0.0
        return self.count / elapsed


class TimeWeightedValue:
    """Tracks a piecewise-constant value and its time-weighted statistics.

    Typical use: queue occupancy.  Call :meth:`update` whenever the value
    changes; query :meth:`mean` at any time.
    """

    def __init__(self, sim: Simulator, initial: float = 0.0) -> None:
        self._sim = sim
        self._value = initial
        self._last_change = sim.now
        self._weighted_sum = 0.0
        self._start = sim.now
        self._max = initial
        self._min = initial

    @property
    def value(self) -> float:
        """The current value."""
        return self._value

    def update(self, new_value: float) -> None:
        """Record that the tracked value changed to ``new_value`` now."""
        now = self._sim.now
        self._weighted_sum += self._value * (now - self._last_change)
        self._value = new_value
        self._last_change = now
        self._max = max(self._max, new_value)
        self._min = min(self._min, new_value)

    def mean(self) -> float:
        """Time-weighted mean of the value since creation."""
        now = self._sim.now
        total = (now - self._start)
        if total <= 0:
            return self._value
        weighted = self._weighted_sum + self._value * (now - self._last_change)
        return weighted / total

    def maximum(self) -> float:
        """Largest value observed."""
        return self._max

    def minimum(self) -> float:
        """Smallest value observed."""
        return self._min


def update_pair(first: TimeWeightedValue, first_value: float,
                second: TimeWeightedValue, second_value: float) -> None:
    """Record that two series on one simulator changed now.

    Bit-identical to ``first.update(first_value)`` followed by
    ``second.update(second_value)``, in one frame (see the module
    docstring).  Both series must share a simulator.
    """
    now = first._sim.now
    first._weighted_sum += first._value * (now - first._last_change)
    first._value = first_value
    first._last_change = now
    # ``max(a, b)`` keeps ``a`` unless ``b > a``; ``min`` unless ``b < a``.
    if first_value > first._max:
        first._max = first_value
    if first_value < first._min:
        first._min = first_value
    second._weighted_sum += second._value * (now - second._last_change)
    second._value = second_value
    second._last_change = now
    if second_value > second._max:
        second._max = second_value
    if second_value < second._min:
        second._min = second_value


class SampleStats:
    """Streaming mean/variance/min/max over unweighted samples (Welford)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, sample: float) -> None:
        """Incorporate one sample."""
        self.count += 1
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)
        if self._min is None or sample < self._min:
            self._min = sample
        if self._max is None or sample > self._max:
            self._max = sample

    def mean(self) -> float:
        """Sample mean (0.0 if no samples)."""
        return self._mean if self.count else 0.0

    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance())

    def minimum(self) -> Optional[float]:
        """Smallest sample seen, or None if empty."""
        return self._min

    def maximum(self) -> Optional[float]:
        """Largest sample seen, or None if empty."""
        return self._max
