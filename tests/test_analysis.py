"""Tests for analysis helpers: stats, tables, and FEC goodput."""

import pytest

from repro.analysis import (
    fec_assessment,
    format_table,
    split_by_bit,
    summarize_latencies,
)
from repro.analysis.report import ResultTable


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def test_summarize_latencies_basic():
    stats = summarize_latencies([10, 20, 30, 40])
    assert stats.count == 4
    assert stats.mean == 25
    assert stats.minimum == 10
    assert stats.maximum == 40
    assert stats.p50 == 25
    assert "n=4" in stats.summary()


def test_summarize_latencies_single_value():
    stats = summarize_latencies([7])
    assert stats.p50 == 7
    assert stats.stdev == 0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize_latencies([])


def test_split_by_bit():
    zeros, ones = split_by_bit([10, 20, 30], [0, 1, 0])
    assert zeros == [10, 30]
    assert ones == [20]
    with pytest.raises(ValueError):
        split_by_bit([1], [0, 1])


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["a", "long_header"], [[1, 2], [333, 4]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    assert len({len(line) for line in lines[1:]}) <= 2  # aligned rows


def test_format_table_empty_rows():
    text = format_table(["col_a", "col_b"], [])
    lines = text.splitlines()
    assert lines[0].split(" | ") == ["col_a", "col_b"]
    assert len(lines) == 2  # header + rule, nothing else


def test_format_table_mixed_types_align():
    text = format_table(["name", "value"],
                        [["x", 1], ["longer-name", 2.5], ["y", None]])
    lines = text.splitlines()
    assert len({len(line) for line in lines}) == 1  # all lines same width
    assert "None" in lines[-1]
    assert "2.5" in text


def test_format_markdown_table_escapes_pipes():
    from repro.analysis import format_markdown_table
    text = format_markdown_table(["h1", "h2"], [["a|b", 1]])
    lines = text.splitlines()
    assert lines[0] == "| h1 | h2 |"
    assert lines[1] == "| --- | --- |"
    assert "a\\|b" in lines[2]


def test_format_markdown_table_empty_rows():
    from repro.analysis import format_markdown_table
    assert format_markdown_table(["x"], []).splitlines() == ["| x |",
                                                            "| --- |"]


def test_result_table_empty_emit(tmp_path):
    table = ResultTable("empty", ["a", "b"], output_dir=str(tmp_path))
    text = table.emit()
    assert "a" in text
    assert (tmp_path / "empty.txt").exists()


def test_result_table_row_validation(tmp_path):
    table = ResultTable("t", ["x", "y"], output_dir=str(tmp_path))
    table.add(1, 2)
    with pytest.raises(ValueError):
        table.add(1)
    table.add(3, 4)
    text = table.emit()
    assert (tmp_path / "t.txt").read_text().strip() == text.strip()


# ---------------------------------------------------------------------------
# FEC goodput
# ---------------------------------------------------------------------------

def test_fec_noiseless_costs_only_rate():
    a = fec_assessment(14.0, 0.0)
    assert a.goodput_mbps == pytest.approx(14.0 * 4 / 7)
    assert a.residual_error_rate == 0.0


def test_fec_improves_reliability_at_bandwidth_cost():
    a = fec_assessment(5.27, 0.05)  # the DMA channel's regime
    assert a.residual_error_rate < 0.05
    assert a.goodput_mbps < 5.27
    assert "goodput" in a.summary()


def test_fec_validation():
    with pytest.raises(ValueError):
        fec_assessment(-1.0, 0.1)
    with pytest.raises(ValueError):
        fec_assessment(1.0, 1.5)


# ---------------------------------------------------------------------------
# ASCII latency histogram
# ---------------------------------------------------------------------------

def test_latency_histogram_marks_threshold():
    from repro.analysis import latency_histogram
    text = latency_histogram([90, 95, 100, 180, 185], bucket_cycles=10,
                             threshold=150, title="fig7")
    assert "threshold" in text
    # hits appear before the marker, conflicts after
    marker_at = text.index("threshold")
    assert text.index("90") < marker_at < text.index("180")


def test_latency_histogram_validation():
    from repro.analysis import latency_histogram
    assert latency_histogram([], title="x") == "x"
    with pytest.raises(ValueError):
        latency_histogram([1], bucket_cycles=0)
