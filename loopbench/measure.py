"""Small statistics helpers shared by every workload."""

from __future__ import annotations

import math
import os
import resource
import statistics

MIN_BEYOND = 10
"""A percentile is reported only with at least this many samples above it."""


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` ordered samples lie strictly above the ``pct``-th
    percentile's rank (nearest-rank definition)."""
    rank = max(math.ceil(pct / 100.0 * n), 1)
    return n - rank


def percentile(values, pct: float, *, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile, refused when fewer than ``min_beyond``
    samples lie beyond it (a p99 of 200 samples rests on 2 points)."""
    data = sorted(values)
    if not data:
        raise TooFewSamples(f"p{pct:g} of an empty sample")
    beyond = samples_beyond(len(data), pct)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{pct:g} of {len(data)} samples has {beyond} beyond it; "
            f"need {min_beyond}")
    return data[max(math.ceil(pct / 100.0 * len(data)), 1) - 1]


def highest_supported(n: int, wanted: float,
                      *, min_beyond: int = MIN_BEYOND) -> float | None:
    """``wanted`` if ``n`` samples support it, else the highest of the
    usual reporting percentiles (99, 95, 90, 75, 50) that they do."""
    for pct in (wanted, 99.0, 95.0, 90.0, 75.0, 50.0):
        if pct <= wanted and samples_beyond(n, pct) >= min_beyond:
            return pct
    return None


def percentile_metrics(prefix: str, samples, wanted, unit: str) -> dict:
    """``{name: (value, unit, note)}`` for each wanted percentile, or for
    the highest one the sample supports, named by the one reported."""
    out = {}
    for pct in wanted:
        got = highest_supported(len(samples), pct)
        note = f" (n={len(samples)})"
        if got is None:
            out[f"{prefix}_p{pct:g}"] = (math.nan, unit,
                                         note + "; too few samples")
            continue
        if got != pct:
            note += f"; p{pct:g} needs more samples"
        out[f"{prefix}_p{got:g}"] = (percentile(samples, got), unit, note)
    return out


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; nothing attempted is an error."""
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def iqr_share(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb() -> float:
    """Peak resident set size of this process (children excluded), MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_steal_s() -> float:
    """Time the hypervisor ran other guests while this machine's CPUs had
    work to run (``steal`` in ``/proc/stat``, summed over CPUs), seconds;
    0.0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def unstolen(wall_s: float, stolen_s: float, busy_cpus: int) -> float:
    """Wall time less the share of stolen CPU time that delayed it.

    Steal accrues only on CPUs with runnable work; with the measured work
    keeping ``busy_cpus`` CPUs busy, it lengthened the wall time by about
    ``stolen / busy_cpus``.  At most half the wall time is discounted.
    """
    return wall_s - min(max(stolen_s, 0.0) / busy_cpus, wall_s / 2)
