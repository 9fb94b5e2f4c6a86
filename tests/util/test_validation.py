"""Tests for validation helpers."""

import pytest

from repro.util.validation import (
    check_fraction,
    check_int_range,
    check_positive,
    check_probability_simplex,
)


class TestCheckFraction:
    def test_accepts_bounds_inclusive(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="x"):
            check_fraction(1.5, "x")
        with pytest.raises(ValueError):
            check_fraction(-0.1, "x")

    def test_exclusive_mode(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "x", inclusive=False)
        with pytest.raises(ValueError):
            check_fraction(1.0, "x", inclusive=False)
        assert check_fraction(0.5, "x", inclusive=False) == 0.5


class TestCheckPositive:
    def test_strict(self):
        assert check_positive(0.1, "x") == 0.1
        # NaN compares false against every bound, so it used to pass.
        for bad in (0.0, float("nan")):
            with pytest.raises(ValueError):
                check_positive(bad, "x")

    def test_non_strict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                check_positive(bad, "x", strict=False)


class TestCheckIntRange:
    def test_bounds_inclusive(self):
        assert check_int_range(3, "x", lo=3, hi=3) == 3
        import numpy as np

        assert check_int_range(np.int64(5), "x", lo=0) == 5

    def test_out_of_range_names_argument(self):
        with pytest.raises(ValueError, match="--workers must be <= 256"):
            check_int_range(300, "--workers", lo=0, hi=256)
        with pytest.raises(ValueError, match="--generations must be >= 1"):
            check_int_range(0, "--generations", lo=1)

    def test_non_integers_rejected(self):
        for bad in (1.5, "3", None, True):
            with pytest.raises(ValueError, match="must be an integer"):
                check_int_range(bad, "x", lo=0)


class TestSimplex:
    def test_valid(self):
        check_probability_simplex((0.1, 0.4, 0.5), ("a", "b", "c"))

    def test_sum_violation(self):
        with pytest.raises(ValueError, match="sum to 1.0"):
            check_probability_simplex((0.5, 0.6), ("a", "b"))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_probability_simplex((-0.1, 1.1), ("a", "b"))

    def test_paper_parameter_sets_pass(self):
        # The five Sec. 4.1 settings (with p_copy = 0.10) are all valid.
        for pc, pm in ((0.45, 0.45), (0.30, 0.60), (0.60, 0.30), (0.75, 0.15), (0.15, 0.75)):
            check_probability_simplex((0.10, pc, pm), ("copy", "cross", "mut"))
