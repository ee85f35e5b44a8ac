"""Argument-validation helpers used across the library.

All helpers raise :class:`ValueError` (or :class:`TypeError` for wrong types)
with messages that name the offending argument, so API misuse surfaces at the
call boundary rather than deep inside numerical code.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np


def check_finite(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number (not NaN or +/-inf)."""
    _check_number(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number > 0, else raise ValueError."""
    _check_number(name, value)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number >= 0, else raise ValueError."""
    _check_number(name, value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_nonnegative_values(name: str, values):
    """Return ``values`` if it is a finite number >= 0 or an array of them."""
    if not isinstance(values, np.ndarray):
        return check_nonnegative(name, values)
    # NaN propagates into min(); +inf shows in max(), -inf in min()
    if values.size and not (values.min() >= 0.0 and values.max() < math.inf):
        bad = values[~(np.isfinite(values) & (values >= 0.0))].flat[0]
        raise ValueError(f"{name} must be finite non-negative numbers, got {float(bad)}")
    return values


def check_probability(name: str, value: float) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1]."""
    _check_number(name, value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def check_open_probability(name: str, value: float) -> float:
    """Return ``value`` if it lies in the open interval (0, 1)."""
    _check_number(name, value)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must be within (0, 1), got {value!r}")
    return value


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Return ``value`` if it is one of ``allowed``, else raise ValueError."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Return ``value`` if it is an integer >= 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_nonnegative_int(name: str, value: int) -> int:
    """Return ``value`` if it is an integer >= 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_sorted_unique(name: str, values: Sequence[float]) -> Sequence[float]:
    """Return ``values`` if strictly increasing, else raise ValueError."""
    for a, b in zip(values, values[1:]):
        if not a < b:
            raise ValueError(
                f"{name} must be strictly increasing, got {a!r} followed by {b!r}"
            )
    return values


def check_same_length(name_a: str, a: Sequence, name_b: str, b: Sequence) -> None:
    """Raise ValueError unless two sequences have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length "
            f"({len(a)} != {len(b)})"
        )


def _check_number(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
