"""Small order statistics shared by the passes."""

from __future__ import annotations

import statistics

median = statistics.median
mean = statistics.fmean


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def thirds(stamped: list, start: float, end: float) -> list:
    """Split ``(timestamp, item)`` pairs into three equal time segments."""
    step = (end - start) / 3.0 or 1.0
    parts: list = [[], [], []]
    for stamp, item in stamped:
        parts[min(2, max(0, int((stamp - start) / step)))].append(item)
    return parts


def spread(values: list) -> float:
    """(max - min) / median of the segment values; 0 when undefined."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return 0.0
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def summarise(overall: dict, segments: list) -> tuple[dict, dict]:
    """Window metrics and their per-segment table.

    ``overall`` are the values over the whole window, ``segments`` the same
    values over each third.  Throughput is reported as the median of its
    three segment values, so a slow stretch of the machine that fills one
    segment does not move it.
    """
    table = {
        name: [segment.get(name) for segment in segments] for name in overall
    }
    metrics = dict(overall)
    metrics["throughput_ops_s"] = median(
        [value for value in table["throughput_ops_s"] if value is not None])
    return metrics, table
