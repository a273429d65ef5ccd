import math

import pytest

from conftest import fixture_path
from tagmt.errors import DataError
from tagmt.evaluation import (
    read_scores_tsv,
    render_report_table,
    render_report_tsv,
    report_delta,
)
from tagmt.fileio import read_lines


def wat2022_scores():
    text = read_scores_tsv(read_lines(fixture_path("wat2022_text_only.tsv")))
    mm = read_scores_tsv(read_lines(fixture_path("wat2022_multimodal.tsv")))
    return text, mm


def test_published_score_deltas():
    text, mm = wat2022_scores()
    report = report_delta(text, mm)
    deltas = {row.task: row.delta for row in report.rows}
    assert round(deltas["EN-ML E-Test"], 1) == 10.2
    assert round(deltas["EN-BN E-Test"], 1) == 1.1
    assert round(deltas["EN-HI E-Test"], 1) == 5.8
    assert round(deltas["EN-HI C-Test"], 1) == 9.5
    assert round(deltas["EN-BN C-Test"], 1) == 6.1
    # exact arithmetic: 20.4 - 14.6 = 5.8, not the 5.7 sometimes quoted
    assert round(deltas["EN-ML C-Test"], 1) == 5.8
    assert round(deltas["EN-ML C-Test"], 1) != 5.7


def test_delta_equals_difference_within_rounding():
    text, mm = wat2022_scores()
    report = report_delta(text, mm)
    for row in report.rows:
        assert row.delta is not None
        assert abs(row.delta - (row.system_score - row.baseline_score)) < 0.05


def test_identical_maps_zero_deltas():
    scores = {"t1": 30.0, "t2": 12.5}
    report = report_delta(scores, dict(scores))
    assert all(row.delta == 0.0 for row in report.rows)
    assert "+0.0" in render_report_tsv(report)


def test_missing_baseline():
    with pytest.raises(DataError, match=r"^no text-only baseline score for task 'b'$"):
        report_delta({"a": 1.0}, {"a": 2.0, "b": 3.0})


def test_tsv_rendering_one_decimal_signed():
    report = report_delta({"EN-HI E-Test": 36.2}, {"EN-HI E-Test": 42.0})
    tsv = render_report_tsv(report)
    assert "EN-HI E-Test\t42.0\t36.2\t+5.8" in tsv
    assert tsv.startswith("task\tsystem\tbaseline\tdelta\n")


def test_table_rendering_alignment():
    text, mm = wat2022_scores()
    table = render_report_table(report_delta(text, mm, corpus_name="vg", split="etest"))
    lines = table.splitlines()
    assert lines[0].split() == ["Task", "System", "Baseline", "Delta"]
    assert any("+10.2" in line for line in lines)
    assert "corpus: vg" in table
    assert "split: etest" in table


def test_negative_delta_rendering():
    report = report_delta({"t": 40.0}, {"t": 38.5})
    assert "-1.5" in render_report_tsv(report)
    assert math.isclose(report.rows[0].delta, -1.5)


def test_rows_follow_multimodal_order():
    text = {"a": 1.0, "b": 2.0, "c": 3.0}
    mm = {"c": 3.5, "a": 1.5}
    report = report_delta(text, mm)
    assert [row.task for row in report.rows] == ["c", "a"]
