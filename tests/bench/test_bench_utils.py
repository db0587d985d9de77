"""Tests for the benchmark harness utilities."""

import pytest

from repro.bench import Measurement, ResultTable, measure, measure_value
from repro.bench.harness import throughput


class TestMeasure:
    def test_runs_requested_repeats(self):
        calls = []
        measurement = measure(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert measurement.repeats == 3

    def test_statistics_consistent(self):
        measurement = measure(lambda: None, repeats=5, label="noop")
        assert measurement.minimum <= measurement.median <= measurement.maximum
        assert measurement.mean > 0
        assert "noop" in str(measurement)

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)

    def test_single_repeat_has_zero_stdev(self):
        measurement = measure(lambda: None, repeats=1)
        assert measurement.stdev == 0.0

    def test_measure_value_returns_result(self):
        seconds, value = measure_value(lambda: 42)
        assert value == 42
        assert seconds >= 0

    def test_ms_properties(self):
        measurement = Measurement("x", 1, 0.002, 0.002, 0, 0.002, 0.002)
        assert measurement.mean_ms == pytest.approx(2.0)

    def test_throughput(self):
        assert throughput(100, 2.0) == 50.0
        assert throughput(1, 0.0) == float("inf")


class TestResultTable:
    def test_text_rendering_aligned(self):
        table = ResultTable("demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 12345.678)
        text = table.to_text()
        assert "== demo ==" in text
        assert "alpha" in text and "12,345.7" in text

    def test_arity_checked(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only one")

    def test_float_formatting(self):
        table = ResultTable("demo", ["v"])
        table.add_row(0.00012)
        table.add_row(0.0)
        table.add_row(3.14159)
        rows = [r[0] for r in table.rows]
        assert rows == ["0.00012", "0", "3.142"]
