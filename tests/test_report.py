"""Tests for repro.core.report (text formatting)."""

from __future__ import annotations

import pytest

from repro.core import report


class TestFormatters:
    def test_pct(self):
        assert report.format_pct(0.47) == "47.0%"
        assert report.format_pct(0.4712, digits=2) == "47.12%"

    def test_ms(self):
        assert report.format_ms(0.0042) == "4.200 ms"


class TestFormatTable:
    def test_alignment(self):
        text = report.format_table(
            ["name", "value"], [("a", 1), ("long-name", 22)]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
        # Columns align: every "value" cell starts at the same offset.
        offset = lines[0].index("value")
        assert lines[2][offset] == "1"
        assert lines[3][offset:offset + 2] == "22"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            report.format_table(["a", "b"], [(1,)])

    def test_empty_rows_ok(self):
        text = report.format_table(["a"], [])
        assert text.splitlines()[0] == "a"

    def test_no_trailing_whitespace(self):
        text = report.format_table(["a", "b"], [("x", ""), ("yy", "z")])
        for line in text.splitlines():
            assert line == line.rstrip()
