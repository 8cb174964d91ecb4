"""Delay-distribution fitting: the constant-plus-gamma model of [19].

Mukherjee's study — which the paper reviews as the reference for behavior
over minute time scales — finds end-to-end delay best modeled by a constant
(the fixed path delay D) plus a gamma-distributed variable part.  This
module fits that model to a trace and provides ECDF/histogram helpers and a
Kolmogorov–Smirnov goodness-of-fit check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import FitError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


@dataclass
class ConstantPlusGammaFit:
    """Fitted parameters of ``rtt = D + Gamma(shape, scale)``."""

    #: The constant (location) component, seconds.
    constant: float
    #: Gamma shape parameter (a).
    shape: float
    #: Gamma scale parameter (seconds).
    scale: float
    #: Kolmogorov-Smirnov statistic of the fit.
    ks_statistic: float
    #: KS p-value (large = cannot reject the model).
    ks_p_value: float

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution."""
        return self.constant + self.shape * self.scale

    @property
    def variance(self) -> float:
        """Variance of the fitted distribution."""
        return self.shape * self.scale ** 2

    def quantile(self, q: float) -> float:
        """Inverse CDF of the fitted model (used to size playback buffers)."""
        from scipy import stats
        return self.constant + float(
            stats.gamma.ppf(q, self.shape, scale=self.scale))


def fit_constant_plus_gamma(trace: ProbeTrace,
                            constant: Optional[float] = None,
                            ) -> ConstantPlusGammaFit:
    """Fit ``D + gamma`` to the received rtts of a trace.

    ``constant`` defaults to just below the minimum observed rtt (the
    gamma's support must start at 0; we leave the smallest sample a small
    positive variable part).
    """
    valid = trace.valid_rtts
    if valid.size < 20:
        raise InsufficientDataError(
            f"need >= 20 received probes to fit, have {valid.size}")
    if constant is None:
        spread = max(valid.max() - valid.min(), 1e-6)
        # Dimensionless back-off (0.1% of the spread), not a unit conversion.
        constant = float(valid.min()) - 1e-3 * spread  # repro: noqa[UNIT001]
    excess = valid - constant
    if np.any(excess <= 0):
        raise FitError("constant must lie strictly below every sample")
    spread = float(excess.std())
    if spread < 1e-9 or spread < 1e-4 * float(excess.mean()):
        raise FitError(
            "delays are (nearly) constant; a gamma fit is degenerate")
    # scipy.stats is imported on first use: a reproduction that fits no
    # distribution never pays its import time or memory.
    from scipy import stats
    try:
        shape, _, scale = stats.gamma.fit(excess, floc=0.0)
    except Exception as exc:  # scipy raises bare Exceptions on bad input
        raise FitError(f"gamma fit failed: {exc}") from exc
    ks = stats.kstest(excess, "gamma", args=(shape, 0.0, scale))
    return ConstantPlusGammaFit(constant=float(constant), shape=float(shape),
                                scale=float(scale),
                                ks_statistic=float(ks.statistic),
                                ks_p_value=float(ks.pvalue))


def ecdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probabilities)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InsufficientDataError("ecdf of empty sample")
    ordered = np.sort(values)
    probabilities = np.arange(1, len(ordered) + 1) / len(ordered)
    return ordered, probabilities


def delay_histogram(trace: ProbeTrace, bin_width: float = 10e-3,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Histogram (counts, edges) of received rtts with fixed-width bins."""
    valid = trace.valid_rtts
    if valid.size == 0:
        raise InsufficientDataError("no received probes")
    upper = valid.max() + bin_width
    edges = np.arange(valid.min(), upper + bin_width, bin_width)
    counts, edges = np.histogram(valid, bins=edges)
    return counts, edges


def playback_buffer_delay(trace: ProbeTrace, target_loss: float = 0.01,
                          ) -> float:
    """Playback delay so that at most ``target_loss`` of packets arrive late.

    This is the audio-application sizing question of Section 5 / [24]: a
    packet is late if its rtt exceeds the chosen playback delay.  Lost
    packets are excluded here — they must be repaired by FEC or repetition
    regardless of buffering.
    """
    if not 0.0 < target_loss < 1.0:
        raise FitError(f"target_loss must be in (0, 1), got {target_loss}")
    valid = trace.valid_rtts
    if valid.size == 0:
        raise InsufficientDataError("no received probes")
    return float(np.percentile(valid, 100.0 * (1.0 - target_loss)))
