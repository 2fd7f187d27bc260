"""Analysis helpers shared by benches and examples: statistics and
paper-style result tables."""

from repro.analysis.coding import FecAssessment, fec_assessment
from repro.analysis.figures import latency_histogram
from repro.analysis.quality import (
    TVLA_T_THRESHOLD,
    ChannelQuality,
    bin_latencies,
    channel_quality,
    mutual_information_bits,
    wilson_interval,
)
from repro.analysis.report import ResultTable, format_markdown_table, format_table
from repro.analysis.runreport import (
    collect_run_report,
    render_markdown,
    write_run_report,
)
from repro.analysis.stats import (
    LatencyStats,
    WelchT,
    percentile,
    split_by_bit,
    summarize_latencies,
    welch_t_from_summary,
    welch_t_stat,
)

__all__ = [
    "FecAssessment",
    "LatencyStats",
    "ResultTable",
    "ChannelQuality",
    "TVLA_T_THRESHOLD",
    "WelchT",
    "latency_histogram",
    "bin_latencies",
    "channel_quality",
    "collect_run_report",
    "fec_assessment",
    "format_markdown_table",
    "format_table",
    "mutual_information_bits",
    "percentile",
    "render_markdown",
    "split_by_bit",
    "summarize_latencies",
    "welch_t_from_summary",
    "welch_t_stat",
    "wilson_interval",
    "write_run_report",
]
