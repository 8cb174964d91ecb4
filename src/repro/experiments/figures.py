"""Reproduction of every table and figure in the paper's evaluation.

Each ``figure*`` / ``table*`` function runs the corresponding experiment on
the calibrated scenario, computes the quantities the paper reads off the
figure, and returns a :class:`FigureResult` holding paper-vs-measured
comparison rows plus an ASCII rendering.  The benchmark suite calls these
one-to-one; EXPERIMENTS.md is generated from their output.

Every experiment runs on the analytic engine
(:func:`~repro.experiments.fastforward.run_fastforward_grid`), which is
bit-identical to event simulation on these configurations and falls back
to it cell by cell where a scenario is not eligible.  Event mode stays
the oracle: the tests re-run each figure's configurations in event mode
and require identical traces.  Each result records, outside its summary
and rendering, the mode every cell ran in (:meth:`FigureResult.provenance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.analysis.loss import loss_stats
from repro.analysis.phase import (
    diagonal_fraction,
    fit_compression_line,
    phase_points,
)
from repro.analysis.workload import (
    classify_peaks,
    find_peaks,
    workload_distribution,
)
from repro.experiments.config import ExperimentConfig, default_duration
from repro.experiments.fastforward import run_fastforward_grid
from repro.experiments.runner import build_scenario
from repro.netdyn.trace import ProbeTrace
from repro.plotting import ascii as ascii_plots
from repro.tools.traceroute import route_names, traceroute
from repro.topology.inria_umd import (
    BOTTLENECK_RATE_BPS as INRIA_MU,
    TABLE1_ROUTE,
)
from repro.topology.umd_pitt import TABLE2_ROUTE
from repro.units import bps_to_kbps, bytes_to_bits, seconds_to_ms, transmission_delay


@dataclass
class ComparisonRow:
    """One paper-vs-measured quantity."""

    name: str
    paper: str
    measured: str
    ok: bool


@dataclass
class CellRun:
    """How one experiment behind a figure was executed."""

    config: ExperimentConfig
    #: ``"analytic"`` or ``"event"`` (the mode actually executed).
    mode: str
    #: Why the analytic engine declined, when it did.
    fallback_reasons: list[str] = field(default_factory=list)


@dataclass
class FigureResult:
    """Everything a reproduced figure/table produces."""

    figure_id: str
    description: str
    rows: list[ComparisonRow] = field(default_factory=list)
    rendering: str = ""
    trace: Optional[ProbeTrace] = None
    #: Execution record of every experiment the figure ran, in run order.
    runs: list[CellRun] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        """True when every comparison row passed."""
        return all(row.ok for row in self.rows)

    def add(self, name: str, paper: str, measured: str, ok: bool) -> None:
        """Append a comparison row."""
        self.rows.append(ComparisonRow(name, paper, measured, ok))

    def summary(self) -> str:
        """Plain-text comparison table."""
        lines = [f"== {self.figure_id}: {self.description}"]
        width = max((len(r.name) for r in self.rows), default=10)
        for row in self.rows:
            status = "OK " if row.ok else "MISS"
            lines.append(f"  [{status}] {row.name:<{width}}  "
                         f"paper: {row.paper:<22} measured: {row.measured}")
        return "\n".join(lines)

    def provenance(self) -> str:
        """One line: the mode each experiment ran in, and any fallbacks."""
        if not self.runs:
            return f"{self.figure_id}: no experiments"
        cells = []
        for run in self.runs:
            config = run.config
            delta_ms = seconds_to_ms(config.delta)
            cell = (f"{config.scenario} delta={delta_ms:g}ms "
                    f"seed={config.seed}: {run.mode}")
            if run.fallback_reasons:
                cell += f" ({'; '.join(run.fallback_reasons)})"
            cells.append(cell)
        return f"{self.figure_id}: " + ", ".join(cells)


def _run_cells(result: FigureResult,
               configs: list[ExperimentConfig]) -> list[ProbeTrace]:
    """Run a figure's experiments on the analytic engine, in one grid.

    Cells sharing a seed share one cross-traffic replay, built for this
    call only (nothing is kept between figures).  Each cell's execution
    mode and fallback reasons are appended to ``result.runs``.
    """
    outcomes = run_fastforward_grid(configs)
    for config, outcome in zip(configs, outcomes):
        result.runs.append(CellRun(config, outcome.mode_used,
                                   list(outcome.fallback_reasons)))
    return [outcome.trace for outcome in outcomes]


# ----------------------------------------------------------------------
# Tables 1 and 2: routes
# ----------------------------------------------------------------------
def table1(seed: int = 1) -> FigureResult:
    """Table 1: the traceroute route INRIA -> UMd."""
    config = ExperimentConfig(delta=0.05, seed=seed,
                              scenario_kwargs={"utilization_fwd": 0.0,
                                               "utilization_rev": 0.0,
                                               "fault_drop_prob": 0.0})
    scenario = build_scenario(config)
    hops = traceroute(scenario.network, scenario.source, scenario.echo)
    observed = [scenario.source] + route_names(hops)
    expected = list(TABLE1_ROUTE)
    result = FigureResult(
        "Table 1", "Route between INRIA and UMd (July 1992)")
    result.add("route (10 entries)", " / ".join(expected[:3]) + " ...",
               " / ".join(observed[:3]) + " ...",
               observed[:len(expected)] == expected)
    result.rendering = "\n".join(
        f"{i + 1:3d}  {name}" for i, name in enumerate(observed))
    return result


def table2(seed: int = 1) -> FigureResult:
    """Table 2: the traceroute route UMd -> Pittsburgh."""
    config = ExperimentConfig(delta=0.05, seed=seed, scenario="umd-pitt",
                              scenario_kwargs={"utilization_fwd": 0.0,
                                               "utilization_rev": 0.0})
    scenario = build_scenario(config)
    hops = traceroute(scenario.network, scenario.source, scenario.echo)
    observed = [scenario.source] + route_names(hops)
    expected = list(TABLE2_ROUTE)
    result = FigureResult(
        "Table 2", "Route between UMd and Pittsburgh (May 1993)")
    result.add("route (14 entries)", " / ".join(expected[:2]) + " ...",
               " / ".join(observed[:2]) + " ...",
               observed[:len(expected)] == expected)
    result.rendering = "\n".join(
        f"{i + 1:3d}  {name}" for i, name in enumerate(observed))
    return result


# ----------------------------------------------------------------------
# Figure 1: time series, δ = 50 ms
# ----------------------------------------------------------------------
def figure1(seed: int = 1, count: int = 800) -> FigureResult:
    """Figure 1: rtt_n vs n for δ = 50 ms; the paper's run lost 9%."""
    config = ExperimentConfig(delta=0.05, duration=count * 0.05, seed=seed,
                              mode="analytic")
    result = FigureResult(
        "Figure 1", "Time series of rtt_n, delta = 50 ms, n in [0, 800]")
    trace, = _run_cells(result, [config])
    result.trace = trace
    loss = trace.loss_fraction
    result.add("loss probability", "0.09", f"{loss:.2f}",
               0.04 <= loss <= 0.18)
    minimum = seconds_to_ms(trace.min_rtt())
    result.add("min rtt (D)", "~140 ms", f"{minimum:.0f} ms",
               120 <= minimum <= 160)
    result.rendering = ascii_plots.line(
        seconds_to_ms(trace.rtts), missing=trace.lost,
        title="rtt_n (ms) vs n, delta=50ms", y_label="rtt ms")
    return result


# ----------------------------------------------------------------------
# Figures 2 and 4: INRIA-UMd phase plots
# ----------------------------------------------------------------------
def _phase_figure(figure_id: str, delta: float, seed: int, count: int,
                  scenario: str = "inria-umd") -> tuple[FigureResult,
                                                        ProbeTrace]:
    config = ExperimentConfig(delta=delta, duration=count * delta, seed=seed,
                              scenario=scenario, mode="analytic")
    result = FigureResult(
        figure_id,
        f"Phase plot of rtt_n, delta = {seconds_to_ms(delta):g} ms "
        f"({scenario})")
    trace, = _run_cells(result, [config])
    result.trace = trace
    plot = phase_points(trace)
    result.rendering = ascii_plots.scatter(
        seconds_to_ms(plot.x), seconds_to_ms(plot.y), diagonal=True,
        title=f"rtt_n+1 vs rtt_n (ms), delta={seconds_to_ms(delta):g}ms",
        x_label="rtt_n ms")
    return result, trace


def figure2(seed: int = 1, count: int = 2400) -> FigureResult:
    """Figure 2: phase plot at δ = 50 ms; D ≈ 140 ms, μ ≈ 130 kb/s."""
    result, trace = _phase_figure("Figure 2", 0.05, seed, count)
    plot = phase_points(trace)
    fit = fit_compression_line(plot, mu_hint=INRIA_MU)

    minimum = seconds_to_ms(trace.min_rtt())
    result.add("min delay point D", "~140 ms", f"{minimum:.0f} ms",
               120 <= minimum <= 160)
    result.add("compression-line points", "> 0 (visible line)",
               str(fit.point_count), fit.point_count > 10)
    if fit.x_intercept is not None:
        intercept = seconds_to_ms(fit.x_intercept)
        result.add("line x-intercept (δ − P/μ)", "~48 ms (paper reads 48)",
                   f"{intercept:.1f} ms", 43 <= intercept <= 48)
    else:
        result.add("line x-intercept (δ − P/μ)", "~48 ms", "not found", False)
    if fit.mu_estimate is not None:
        # The band-mean estimator carries the same ~±20% uncertainty as
        # the paper's visual x-intercept read (3.906 ms clock quantization
        # plus small cross packets contaminating the band).
        mu_kbps = bps_to_kbps(fit.mu_estimate)
        result.add("bottleneck estimate μ", "~130 kb/s (actual 128)",
                   f"{mu_kbps:.0f} kb/s", 100 <= mu_kbps <= 160)
    else:
        result.add("bottleneck estimate μ", "~130 kb/s", "not found", False)
    return result


def figure4(seed: int = 1, count: int = 800) -> FigureResult:
    """Figure 4: phase plot at δ = 500 ms; diagonal scatter, line empty."""
    result, trace = _phase_figure("Figure 4", 0.5, seed, count)
    plot = phase_points(trace)
    fit = fit_compression_line(plot, mu_hint=INRIA_MU)
    diag = diagonal_fraction(plot, tolerance=0.15)
    mean_offset = float(np.mean(plot.y - plot.x))
    result.add("scatter around diagonal", "most points",
               f"{diag:.0%} within 150 ms, mean offset "
               f"{seconds_to_ms(mean_offset):+.1f} ms",
               diag > 0.7 and abs(mean_offset) < 0.02)
    line_fraction = fit.point_count / max(1, len(plot))
    result.add("compression-line points", "2 of ~800 (almost none)",
               f"{fit.point_count} ({line_fraction:.2%})",
               line_fraction < 0.02)
    return result


# ----------------------------------------------------------------------
# Figures 5 and 6: UMd-Pitt phase plots
# ----------------------------------------------------------------------
def figure5(seed: int = 1, count: int = 2400) -> FigureResult:
    """Figure 5: UMd-Pitt phase plot at δ = 8 ms with 3 ms clock banding."""
    result, trace = _phase_figure("Figure 5", 0.008, seed, count,
                                  scenario="umd-pitt")
    plot = phase_points(trace)
    # With a fast bottleneck P/mu ~ 0.06 ms, so the compression line is
    # rtt_{n+1} = rtt_n - delta: look for offsets near -8 ms.
    offsets = plot.y - plot.x
    near_line = np.abs(offsets + trace.delta) <= 2e-3
    result.add("points near rtt_n+1 = rtt_n − 8ms", "visible line",
               str(int(near_line.sum())), int(near_line.sum()) > 5)
    # Clock quantization: rtts fall on a 3 ms lattice.
    remainders = np.mod(trace.valid_rtts, 3e-3)
    on_grid = np.mean((remainders < 1e-6) | (remainders > 3e-3 - 1e-6))
    result.add("3 ms clock banding", "regular spacing",
               f"{on_grid:.0%} on 3 ms grid", on_grid > 0.95)
    return result


def figure6(seed: int = 1, count: int = 2400) -> FigureResult:
    """Figure 6: UMd-Pitt phase plot at δ = 50 ms; diagonal scatter."""
    result, trace = _phase_figure("Figure 6", 0.05, seed, count,
                                  scenario="umd-pitt")
    plot = phase_points(trace)
    diag = diagonal_fraction(plot, tolerance=5e-3)
    result.add("scatter around diagonal", "most points",
               f"{diag:.0%} within 5 ms", diag > 0.7)
    return result


# ----------------------------------------------------------------------
# Figures 8 and 9: workload distributions
# ----------------------------------------------------------------------
def _workload_bin_width(trace: ProbeTrace) -> float:
    """Histogram bin width: at least the source clock's resolution.

    Quantized timestamps put samples on a lattice; binning at the lattice
    pitch keeps each physical peak in one bin instead of spreading it over
    quantization side lobes.
    """
    resolution = float(trace.meta.get("clock_resolution", 0.0) or 0.0)
    return max(2e-3, resolution)


def _workload_figure(figure_id: str, delta: float, seed: int,
                     duration: float,
                     companions: tuple[ExperimentConfig, ...] = (),
                     ) -> tuple[FigureResult, ProbeTrace, list[ProbeTrace]]:
    """The workload histogram at ``delta``, plus traces of ``companions``.

    The companion experiments run in the same grid as the figure's own,
    so cells of one seed share their cross-traffic replay.
    """
    config = ExperimentConfig(delta=delta, duration=duration, seed=seed,
                              mode="analytic")
    result = FigureResult(
        figure_id,
        f"Distribution of w_n+1 - w_n + delta, "
        f"delta = {seconds_to_ms(delta):g} ms")
    trace, *others = _run_cells(result, [config, *companions])
    result.trace = trace
    dist = workload_distribution(trace, mu=INRIA_MU,
                                 bin_width=_workload_bin_width(trace))
    result.rendering = ascii_plots.histogram(
        dist.counts, seconds_to_ms(dist.edges), unit="ms",
        title=f"w_n+1 - w_n + delta (ms), delta={seconds_to_ms(delta):g}ms",
        min_count=max(1, int(0.002 * dist.counts.sum())))
    return result, trace, others


def _peak_rows(result: FigureResult, trace: ProbeTrace,
               delta: float) -> dict:
    bin_width = _workload_bin_width(trace)
    dist = workload_distribution(trace, mu=INRIA_MU, bin_width=bin_width)
    peaks = find_peaks(dist, min_height_fraction=0.004)
    classified = classify_peaks(peaks, delta=delta, mu=INRIA_MU,
                                probe_bits=bytes_to_bits(trace.wire_bytes),
                                tolerance=max(4e-3, bin_width))
    service_ms = seconds_to_ms(
        transmission_delay(trace.wire_bytes, INRIA_MU))
    comp = classified["compression"]
    result.add(f"peak at P/μ = {service_ms:.1f} ms",
               "present (compressed probes)",
               f"at {seconds_to_ms(comp.location):.1f} ms" if comp
               else "absent",
               comp is not None)
    idle = classified["idle"]
    result.add(f"peak at δ = {seconds_to_ms(delta):g} ms",
               "present (idle queue)",
               f"at {seconds_to_ms(idle.location):.1f} ms" if idle
               else "absent",
               idle is not None)
    one = classified["one_packet"]
    if one is not None:
        implied = one.implied_bytes
        result.add("first cross-packet peak",
                   "~488 B + headers (one FTP packet)",
                   f"implies {implied:.0f} B on the wire",
                   380 <= implied <= 700)
    else:
        result.add("first cross-packet peak", "~488 B + headers", "absent",
                   False)
    return classified


def figure8(seed: int = 1, duration: Optional[float] = None) -> FigureResult:
    """Figure 8: workload distribution at δ = 20 ms."""
    duration = default_duration(240.0) if duration is None else duration
    result, trace, _ = _workload_figure("Figure 8", 0.020, seed, duration)
    _peak_rows(result, trace, 0.020)
    return result


def figure9(seed: int = 1, duration: Optional[float] = None) -> FigureResult:
    """Figure 9: workload distribution at δ = 100 ms; compression peak
    much smaller relative to the idle peak than at δ = 20 ms."""
    duration = default_duration(360.0) if duration is None else duration
    # The paper's key observation compares Figures 8 and 9, so a
    # δ = 20 ms companion run goes along with the figure's own.
    config8 = ExperimentConfig(delta=0.020, duration=duration / 2, seed=seed,
                               mode="analytic")
    result, trace, (trace8,) = _workload_figure("Figure 9", 0.100, seed,
                                                duration, (config8,))
    _peak_rows(result, trace, 0.100)

    ratio = {}
    for name, tr, delta in (("fig8", trace8, 0.020), ("fig9", trace, 0.100)):
        bin_width = _workload_bin_width(tr)
        dist = workload_distribution(tr, mu=INRIA_MU, bin_width=bin_width)
        peaks = find_peaks(dist, min_height_fraction=0.005)
        cls = classify_peaks(peaks, delta=delta, mu=INRIA_MU,
                             probe_bits=bytes_to_bits(tr.wire_bytes),
                             tolerance=max(4e-3, bin_width))
        if cls["compression"] and cls["idle"]:
            ratio[name] = cls["compression"].height / cls["idle"].height
        else:
            ratio[name] = 0.0
    result.add("compression/idle height ratio vs Figure 8",
               "much smaller at δ=100 (less compression)",
               f"fig8: {ratio['fig8']:.2f}, fig9: {ratio['fig9']:.2f}",
               ratio["fig9"] < ratio["fig8"])
    return result


# ----------------------------------------------------------------------
# Table 3: loss statistics vs δ
# ----------------------------------------------------------------------
#: The paper's Table 3 (ulp at δ=500 printed as 0.97; see DESIGN.md note).
PAPER_TABLE3 = {
    0.008: {"ulp": 0.23, "clp": 0.60, "plg": 2.5},
    0.020: {"ulp": 0.16, "clp": 0.42, "plg": 1.7},
    0.050: {"ulp": 0.12, "clp": 0.27, "plg": 1.3},
    0.100: {"ulp": 0.10, "clp": 0.18, "plg": 1.2},
    0.200: {"ulp": 0.11, "clp": 0.18, "plg": 1.2},
    0.500: {"ulp": 0.10, "clp": 0.09, "plg": 1.1},
}


def table3(seed: int = 2, duration: Optional[float] = None,
           deltas: tuple = tuple(PAPER_TABLE3)) -> FigureResult:
    """Table 3: ulp, clp, plg for each probe interval δ."""
    result = FigureResult(
        "Table 3", "Loss statistics ulp/clp/plg vs probe interval")
    lines = [f"{'delta':>8} {'ulp':>6} {'clp':>6} {'plg':>6}   "
             f"(paper: ulp/clp/plg)"]
    configs = []
    for delta in deltas:
        duration_d = duration
        if duration_d is None:
            # Longer runs for sparse probing so loss counts stay
            # meaningful; at delta >= 100 ms use the paper's full 10 min.
            duration_d = default_duration(120.0 if delta < 0.1 else 600.0)
        configs.append(ExperimentConfig(delta=delta, duration=duration_d,
                                        seed=seed, mode="analytic"))
    measured = {}
    for delta, trace in zip(deltas, _run_cells(result, configs)):
        stats = loss_stats(trace)
        measured[delta] = stats
        paper = PAPER_TABLE3[delta]
        lines.append(
            f"{seconds_to_ms(delta):6.0f}ms {stats.ulp:6.2f} "
            f"{stats.clp:6.2f} "
            f"{stats.plg:6.1f}   ({paper['ulp']:.2f}/{paper['clp']:.2f}/"
            f"{paper['plg']:.1f})")
    result.rendering = "\n".join(lines)

    # Shape checks, not absolute-value checks.
    ulps = [measured[d].ulp for d in deltas]
    clps = [measured[d].clp for d in deltas]
    plgs = [measured[d].plg for d in deltas]
    result.add("ulp decreases then stabilizes",
               "0.23 -> ~0.10", f"{ulps[0]:.2f} -> {ulps[-1]:.2f}",
               ulps[0] > ulps[-1] and ulps[0] >= 0.15)
    result.add("ulp floor ~10%", "~0.10",
               f"{np.mean(ulps[-3:]):.2f}",
               0.04 <= float(np.mean(ulps[-3:])) <= 0.16)
    result.add("clp > ulp at small δ (bursty)", "0.60 vs 0.23",
               f"{clps[0]:.2f} vs {ulps[0]:.2f}", clps[0] > ulps[0] + 0.1)
    result.add("clp ≈ ulp at large δ (random)", "0.09 vs ~0.10",
               f"{clps[-1]:.2f} vs {ulps[-1]:.2f}",
               abs(clps[-1] - ulps[-1]) < 0.12)
    result.add("plg decays toward 1", "2.5 -> 1.1",
               f"{plgs[0]:.1f} -> {plgs[-1]:.1f}",
               plgs[0] > plgs[-1] and plgs[-1] < 1.5)
    return result


#: All reproduction entry points, in paper order.
ALL_FIGURES: dict[str, Callable[..., FigureResult]] = {
    "table1": table1,
    "table2": table2,
    "figure1": figure1,
    "figure2": figure2,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure8": figure8,
    "figure9": figure9,
    "table3": table3,
}
