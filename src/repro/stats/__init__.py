"""Measurement utilities: distributions, CDFs, tables, LOC accounting."""

from repro.stats.loc import InstrumentationReport, count_instrumentation, integration_table
from repro.stats.metrics_view import render_metrics, snapshot_rows
from repro.stats.summary import Distribution, cdf_points, percentile, percentile_sorted
from repro.stats.tables import format_table

__all__ = [
    "Distribution",
    "InstrumentationReport",
    "cdf_points",
    "count_instrumentation",
    "format_table",
    "integration_table",
    "percentile",
    "percentile_sorted",
    "render_metrics",
    "snapshot_rows",
]
