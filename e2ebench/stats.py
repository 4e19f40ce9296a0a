"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import statistics

PERCENTILES = (50, 90, 99)


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def percentile_metrics(prefix: str, seconds: list[float]) -> dict[str, float]:
    """``<prefix>_p50_ms`` / ``_p90_ms`` / ``_p99_ms`` of durations in seconds."""
    return {
        f"{prefix}_p{p}_ms": percentile(seconds, p) * 1000.0 for p in PERCENTILES
    }
