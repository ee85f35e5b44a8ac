"""Unit tests for the validation helpers."""

import math

import numpy as np
import pytest

from repro.util.validation import (
    check_finite,
    check_in,
    check_nonnegative,
    check_nonnegative_int,
    check_nonnegative_values,
    check_open_probability,
    check_positive,
    check_positive_int,
    check_probability,
    check_same_length,
    check_sorted_unique,
)


class TestCheckFinite:
    @pytest.mark.parametrize("value", [-1e308, -1, 0.0, 2.5])
    def test_accepts_finite(self, value):
        assert check_finite("x", value) == value

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nan_and_inf(self, value):
        with pytest.raises(ValueError, match="x must be a finite number"):
            check_finite("x", value)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            check_finite("x", "1")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -2)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", math.nan)
        with pytest.raises(ValueError):
            check_positive("x", math.inf)

    def test_rejects_bool_and_str(self):
        with pytest.raises(TypeError):
            check_positive("x", True)
        with pytest.raises(TypeError):
            check_positive("x", "3")


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -1e-9)


class TestCheckNonnegativeValues:
    def test_accepts_a_number_or_an_array(self):
        values = np.array([0.0, 2.5, 1e300])
        assert check_nonnegative_values("x", 2.5) == 2.5
        assert check_nonnegative_values("x", values) is values
        assert check_nonnegative_values("x", np.array([])).size == 0

    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf, -math.inf])
    def test_names_the_first_bad_entry(self, bad):
        message = f"x must be finite non-negative numbers, got {bad}"
        with pytest.raises(ValueError, match=message):
            check_nonnegative_values("x", np.array([1.0, bad, -5.0]))
        with pytest.raises(ValueError, match="x must be a finite non-negative number"):
            check_nonnegative_values("x", bad)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckOpenProbability:
    @pytest.mark.parametrize("value", [1e-300, 0.5, 0.9999999999999999])
    def test_accepts_open_unit_interval(self, value):
        assert check_open_probability("p", value) == value

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_rejects_closed_ends_and_outside(self, value):
        with pytest.raises(ValueError, match="p must be within"):
            check_open_probability("p", value)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            check_open_probability("p", "0.5")


class TestCheckIn:
    def test_accepts_member(self):
        assert check_in("mode", "a", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="mode"):
            check_in("mode", "c", ("a", "b"))


class TestIntChecks:
    def test_positive_int(self):
        assert check_positive_int("n", 3) == 3
        with pytest.raises(ValueError):
            check_positive_int("n", 0)
        with pytest.raises(TypeError):
            check_positive_int("n", 3.0)
        with pytest.raises(TypeError):
            check_positive_int("n", True)

    def test_nonnegative_int(self):
        assert check_nonnegative_int("n", 0) == 0
        with pytest.raises(ValueError):
            check_nonnegative_int("n", -1)


class TestSequences:
    def test_sorted_unique_passes(self):
        check_sorted_unique("xs", [1, 2, 3])

    def test_sorted_unique_rejects_duplicates(self):
        with pytest.raises(ValueError):
            check_sorted_unique("xs", [1, 1, 2])

    def test_sorted_unique_rejects_descending(self):
        with pytest.raises(ValueError):
            check_sorted_unique("xs", [3, 2])

    def test_same_length(self):
        check_same_length("a", [1], "b", [2])
        with pytest.raises(ValueError, match="a and b"):
            check_same_length("a", [1], "b", [])
