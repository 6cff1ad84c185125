"""Lightweight argument-validation helpers used across the library."""

from __future__ import annotations

from typing import Any, Iterable


class ValidationError(ValueError):
    """Raised when a caller passes an argument the library cannot accept."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition* holds."""
    if not condition:
        raise ValidationError(message)


def require_in(value: Any, options: Iterable[Any], name: str) -> None:
    """Require that *value* is one of *options*."""
    options = list(options)
    if value not in options:
        raise ValidationError(f"{name} must be one of {options!r}, got {value!r}")


def require_positive(value: float, name: str, allow_zero: bool = False) -> None:
    """Require that a numeric *value* is positive (or non-negative)."""
    if allow_zero:
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
