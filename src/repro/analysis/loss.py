"""Loss-process analysis (Section 5, Table 3).

The paper characterizes probe loss by the unconditional loss probability
``ulp = P(rtt_n = 0)``, the conditional probability
``clp = P(rtt_{n+1} = 0 | rtt_n = 0)``, and the packet loss gap
``plg = 1 / (1 − clp)`` (the mean number of consecutive losses, assuming
stationarity and ergodicity — a Palm-calculus identity).  Beyond those we
provide loss-run extraction, a Gilbert (2-state Markov) model fit, and a
Wald–Wolfowitz runs test for randomness of the loss sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError
from repro.netdyn.trace import ProbeTrace


@dataclass
class LossStats:
    """The paper's loss metrics for one trace."""

    #: Unconditional loss probability P(rtt_n = 0).
    ulp: float
    #: Conditional loss probability P(rtt_{n+1} = 0 | rtt_n = 0).
    clp: float
    #: Packet loss gap 1 / (1 - clp).
    plg: float
    #: Number of probes.
    count: int
    #: Number of lost probes.
    losses: int

    def is_bursty(self, margin: float = 0.05) -> bool:
        """True if losses are positively correlated (clp > ulp + margin)."""
        return self.clp > self.ulp + margin


def loss_indicator(trace: ProbeTrace) -> np.ndarray:
    """Loss sequence: 1 where the probe was lost, else 0."""
    return trace.lost.astype(int)


def loss_stats(trace: ProbeTrace) -> LossStats:
    """Compute ulp, clp, and plg for a trace."""
    lost = trace.lost
    n = len(lost)
    if n < 2:
        raise InsufficientDataError("need at least two probes")
    losses = int(lost.sum())
    ulp = losses / n
    predecessors = int(lost[:-1].sum())
    if predecessors == 0:
        clp = 0.0
    else:
        clp = float((lost[:-1] & lost[1:]).sum() / predecessors)
    plg = math.inf if clp >= 1.0 else 1.0 / (1.0 - clp)
    return LossStats(ulp=ulp, clp=clp, plg=plg, count=n, losses=losses)


def loss_runs(trace: ProbeTrace) -> list[int]:
    """Lengths of maximal runs of consecutive losses, in order."""
    runs = []
    current = 0
    for is_lost in trace.lost:
        if is_lost:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


def loss_gap_distribution(trace: ProbeTrace) -> dict[int, int]:
    """Histogram of loss-run lengths: {run length: occurrences}."""
    histogram: dict[int, int] = {}
    for run in loss_runs(trace):
        histogram[run] = histogram.get(run, 0) + 1
    return histogram


def mean_loss_gap(trace: ProbeTrace) -> float:
    """Empirical mean run length; converges to plg for long traces."""
    runs = loss_runs(trace)
    if not runs:
        raise InsufficientDataError("no losses in trace")
    return float(np.mean(runs))


@dataclass
class GilbertModel:
    """A 2-state Markov (Gilbert) loss model.

    State G delivers, state B drops.  ``p`` is the G->B transition
    probability, ``q`` the B->G probability.
    """

    p: float
    q: float

    @property
    def stationary_loss(self) -> float:
        """Long-run loss probability p / (p + q)."""
        if self.p + self.q == 0:
            return 0.0
        return self.p / (self.p + self.q)

    @property
    def mean_burst_length(self) -> float:
        """Expected loss-run length 1/q."""
        return math.inf if self.q == 0 else 1.0 / self.q

    @property
    def conditional_loss(self) -> float:
        """P(loss | previous loss) = 1 - q."""
        return 1.0 - self.q

    def simulate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Generate a synthetic loss indicator sequence of length ``n``."""
        out = np.zeros(n, dtype=int)
        state_bad = rng.random() < self.stationary_loss
        for i in range(n):
            out[i] = 1 if state_bad else 0
            if state_bad:
                state_bad = rng.random() >= self.q
            else:
                state_bad = rng.random() < self.p
        return out


def fit_gilbert(trace: ProbeTrace) -> GilbertModel:
    """Maximum-likelihood Gilbert fit from transition counts."""
    lost = trace.lost
    if len(lost) < 2:
        raise InsufficientDataError("need at least two probes")
    prev, nxt = lost[:-1], lost[1:]
    good_prev = int((~prev).sum())
    bad_prev = int(prev.sum())
    g_to_b = int((~prev & nxt).sum())
    b_to_g = int((prev & ~nxt).sum())
    p = g_to_b / good_prev if good_prev else 0.0
    q = b_to_g / bad_prev if bad_prev else 1.0
    return GilbertModel(p=p, q=q)


@dataclass
class RunsTestResult:
    """Wald–Wolfowitz runs test on the loss indicator sequence."""

    #: Observed number of runs (alternations of loss / success blocks).
    runs: int
    #: Expected runs under independence.
    expected: float
    #: Normal test statistic.
    z: float
    #: Two-sided p-value.
    p_value: float

    def looks_random(self, alpha: float = 0.01) -> bool:
        """True if independence cannot be rejected at level ``alpha``."""
        return self.p_value >= alpha


def runs_test(trace: ProbeTrace) -> RunsTestResult:
    """Test whether losses occur independently (the paper's 'essentially
    random' claim for low probe rates)."""
    lost = trace.lost.astype(int)
    n1 = int(lost.sum())
    n0 = len(lost) - n1
    if n1 == 0 or n0 == 0:
        raise InsufficientDataError("runs test needs both losses and successes")
    runs = 1 + int(np.count_nonzero(np.diff(lost)))
    n = n0 + n1
    expected = 1.0 + 2.0 * n0 * n1 / n
    variance = (2.0 * n0 * n1 * (2.0 * n0 * n1 - n)) / (n * n * (n - 1.0))
    if variance <= 0:
        raise InsufficientDataError("degenerate runs-test variance")
    z = (runs - expected) / math.sqrt(variance)
    # sf(|z|) keeps precision in the far tail where 1 - cdf(|z|) rounds
    # to exactly 0.0 (|z| >~ 8), which would turn a strong rejection into
    # an apparent p = 0.
    from scipy import stats  # on first use, like the gamma fit
    p_value = 2.0 * stats.norm.sf(abs(z))
    return RunsTestResult(runs=runs, expected=expected, z=z,
                          p_value=float(p_value))
