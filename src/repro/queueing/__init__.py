"""Queueing models: the paper's analytic side.

:mod:`~repro.queueing.batchmodel` implements the D + batch-D / D / 1 / K
model of Section 6; :mod:`~repro.queueing.mdk1` provides M/D/1(/K) oracles
used to validate the network substrate; :mod:`~repro.queueing.palm` holds
the Palm-calculus loss-gap identities; :mod:`~repro.queueing.fastforward`
holds the exact FIFO departure scan behind the analytic execution mode.
"""

from repro.queueing.fastforward import (
    FluidQueue,
    aggregate_batches,
    departure_scan,
    fifo_waits,
    scan_stats,
)

from repro.queueing.batchmodel import (
    BatchArrivalQueue,
    BatchModelResult,
    geometric_packet_batches,
)
from repro.queueing.closure import (
    ClosureReport,
    EmpiricalBatchDistribution,
    closed_loop_comparison,
    fit_batch_distribution,
)
from repro.queueing.mdk1 import (
    md1_mean_queue_length,
    md1_mean_wait,
    mdk1_blocking_probability,
    mdk1_loss_vs_buffer,
)
from repro.queueing.palm import (
    clp_from_loss_gap,
    empirical_identity_gap,
    loss_gap_from_clp,
)

__all__ = [
    "FluidQueue",
    "aggregate_batches",
    "departure_scan",
    "fifo_waits",
    "scan_stats",
    "BatchArrivalQueue",
    "BatchModelResult",
    "geometric_packet_batches",
    "md1_mean_queue_length",
    "md1_mean_wait",
    "mdk1_blocking_probability",
    "mdk1_loss_vs_buffer",
    "clp_from_loss_gap",
    "empirical_identity_gap",
    "loss_gap_from_clp",
    "ClosureReport",
    "EmpiricalBatchDistribution",
    "closed_loop_comparison",
    "fit_batch_distribution",
]
