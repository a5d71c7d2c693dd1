"""Tests for repro.util.tables and repro.util.timing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.util.tables import Table, format_float
from repro.util.timing import ScalingFit, fit_power_law


class TestFormatFloat:
    def test_integer_valued(self):
        assert format_float(3.0) == "3"

    def test_moderate(self):
        assert format_float(1.2345678) == "1.235"

    def test_tiny_uses_scientific(self):
        assert "e" in format_float(1.5e-7)

    def test_huge_uses_scientific(self):
        assert "e" in format_float(2.3e9)

    def test_nan(self):
        assert format_float(float("nan")) == "nan"

    def test_inf(self):
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"

    def test_bool_passthrough(self):
        assert format_float(True) == "True"


class TestTable:
    def test_render_contains_title_and_headers(self):
        t = Table(["n", "ratio"], title="demo")
        t.add_row([4, 1.25])
        text = t.render()
        assert "demo" in text
        assert "n" in text and "ratio" in text
        assert "1.25" in text

    def test_row_length_mismatch_raises(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_alignment_consistent(self):
        t = Table(["col"], title="")
        t.add_row(["short"])
        t.add_row(["much-longer-cell"])
        lines = t.render().splitlines()
        assert len({len(line) for line in lines if "-" in line}) >= 1

    def test_floats_formatted(self):
        t = Table(["x"])
        t.add_row([0.123456789])
        assert "0.1235" in t.render()

    def test_str_matches_render(self):
        t = Table(["x"])
        t.add_row([1])
        assert str(t) == t.render()

    def test_empty_table_renders(self):
        t = Table(["a", "b"], title="empty")
        text = t.render()
        assert "empty" in text


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        xs = np.array([10, 20, 40, 80], dtype=float)
        ts = 3.0 * xs**2
        fit = fit_power_law(xs, ts)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.coeff == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_linear(self):
        xs = [1.0, 2.0, 4.0]
        fit = fit_power_law(xs, [5.0, 10.0, 20.0])
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_predict_roundtrip(self):
        fit = ScalingFit(exponent=2.0, coeff=0.5, r_squared=1.0, stderr=0.0)
        assert fit.predict(10.0) == pytest.approx(50.0)

    def test_noise_reduces_r_squared(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(10, 1000, 8)
        ts = xs**1.5 * np.exp(rng.normal(0, 0.3, size=8))
        fit = fit_power_law(xs, ts)
        assert 0.5 < fit.r_squared < 1.0
        assert fit.exponent == pytest.approx(1.5, abs=0.5)

    def test_stderr_matches_hand_computation(self):
        """log-log points (0, 0), (1, 1), (2, 3): slope 3/2, residuals
        (1/6, -1/3, 1/6), so s^2 = (1/6) / (3 - 2) and the slope's
        variance is s^2 / sum((x - 1)^2) = (1/6) / 2 = 1/12."""
        fit = fit_power_law(np.exp([0.0, 1.0, 2.0]), np.exp([0.0, 1.0, 3.0]))
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.stderr == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-9)

    def test_exact_fit_has_zero_stderr(self):
        xs = np.array([10, 20, 40, 80], dtype=float)
        assert fit_power_law(xs, 3.0 * xs**2).stderr == pytest.approx(0.0, abs=1e-6)

    def test_two_points_have_no_stderr(self):
        assert fit_power_law([1.0, 2.0], [1.0, 4.0]).stderr == math.inf

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [0.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_constant_times_r2_is_one(self):
        fit = fit_power_law([1.0, 2.0, 4.0], [7.0, 7.0, 7.0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
