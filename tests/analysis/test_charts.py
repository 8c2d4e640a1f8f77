"""Tests for the text chart helpers."""

from repro.analysis.charts import sparkline


class TestSparkline:
    def test_length_matches(self):
        assert len(sparkline([0.1, 0.5, 0.9])) == 3

    def test_extremes(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == " "
        assert line[-1] == "@"

    def test_flat_series(self):
        assert sparkline([0.5, 0.5]) == "@@"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_explicit_bounds(self):
        line = sparkline([0.5], lo=0.0, hi=1.0)
        assert line in "=+"  # mid-scale glyph

