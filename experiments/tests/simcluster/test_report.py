"""The regenerated-evaluation report: structure and pinned claims."""

import pytest

from experiments.simcluster.report import generate_report


@pytest.fixture(scope="module")
def report():
    return generate_report()


def test_report_has_all_sections(report):
    for heading in ("## Table 1", "## Table 2", "## Section 5.2 claims",
                    "## Figures 19–20", "## Task-variance ablation"):
        assert heading in report


def test_report_table1_rows(report):
    for cls in "ABCDE":
        assert f"\n| {cls} | " in report


def test_report_table2_all_worker_counts(report):
    for w in (1, 2, 4, 8, 16, 32):
        assert f"\n| {w} | " in report


def test_report_sweep_has_32_rows(report):
    sweep = report.split("## Figures 19–20")[1]
    data_rows = [line for line in sweep.splitlines()
                 if line.startswith("|") and "---" not in line
                 and not line.startswith("| W")]
    assert len(data_rows) >= 32


def test_report_claims_text(report):
    assert "no more than 6% to 7%" in report
    assert "first class-C CPU" in report


def test_report_without_sweep_is_smaller():
    short = generate_report(sweep=False)
    assert "## Figures 19–20" not in short
    assert "## Table 2" in short


def test_report_is_valid_markdown_tables():
    """Every table row has the same cell count as its header."""
    report = generate_report(sweep=False)
    lines = report.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("|") and "---" in line:
            header_cells = lines[i - 1].count("|")
            j = i + 1
            while j < len(lines) and lines[j].startswith("|"):
                assert lines[j].count("|") == header_cells, lines[j]
                j += 1
