"""Exception hierarchy, and the field rules behind :class:`ConfigError`.

Every documented failure mode raises a distinct, catchable class so callers
(and the acceptance suite) can tell degenerate inputs apart from bugs.

A config field declares its own range in its annotation: ``Positive``,
``NonNegative``, ``Fraction`` and ``AboveAbsoluteZero`` (a temperature in
C) are floats with a rule, and a ``Literal`` lists the choices.
:func:`check_fields` enforces both, so a section's ``__post_init__`` keeps
only the rules that relate two or more values.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import fields


class CpodriftError(Exception):
    """Base class for all toolkit errors."""


class InputError(CpodriftError, ValueError):
    """Invalid or non-finite input values, mismatched lengths, unsorted traces."""


class DegenerateMapError(InputError):
    """Affine map cannot be inverted (zero slope)."""


class StepSizeError(InputError):
    """Non-positive integration step."""


class SliceViolationError(CpodriftError):
    """Look-ahead horizon (plus overhead budget) does not fit inside the
    scheduler execution slice."""


class InsufficientDataError(CpodriftError):
    """Estimator input lacks the variance or coverage needed for a fit."""


class ExtractionError(CpodriftError):
    """Time-constant extraction failed (constant or non-rising trace)."""


class CoverageError(CpodriftError):
    """Telemetry does not cover the required load states.

    ``missing`` lists the absent state names.
    """

    def __init__(self, message: str, missing: tuple[str, ...] = ()):
        super().__init__(message)
        self.missing = missing


class ImplausibleInputError(InputError):
    """Physically implausible quantity (e.g. savings larger than baseline)."""


class UsageError(CpodriftError):
    """Unknown experiment or CLI usage problem."""


class ConfigError(CpodriftError):
    """Invalid run configuration; message carries the dotted field path."""


# a float with a range: Annotated[float, rule text, test]
Positive = typing.Annotated[float, "> 0", lambda x: x > 0]
NonNegative = typing.Annotated[float, ">= 0", lambda x: x >= 0]
Fraction = typing.Annotated[float, "in (0, 1]", lambda x: 0 < x <= 1]
AboveAbsoluteZero = typing.Annotated[float, "> -273.15", lambda x: x > -273.15]


@functools.cache
def field_types(cls) -> dict[str, object]:
    """Resolved annotation of each dataclass field of ``cls``, in order,
    range rules included."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_fields(obj, section: str) -> None:
    """Check every field of a config dataclass against its annotation.

    A float is a finite real number, an int (counts and seeds) a
    non-negative integer and a bool only a bool, none of them a bool in
    disguise; ``X | None`` also takes None; a tuple is checked item by item;
    an ``Annotated`` float must also pass its rule's test and a ``Literal``
    be one of its choices; any other annotation is an ``isinstance`` check.
    The message names the dotted field, ``section`` giving its prefix ("" at
    the root).
    """
    for name, tp in field_types(type(obj)).items():
        _check_value(tp, getattr(obj, name), f"{section}.{name}" if section else name)


def _check_value(tp, value, path: str) -> None:
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) is typing.Annotated:
        tp, rule, test = typing.get_args(tp)
        _check_value(tp, value, path)
        if not test(value):
            raise ConfigError(f"{path} must be {rule}, got {value!r}")
    elif typing.get_origin(tp) is typing.Literal:
        if value not in typing.get_args(tp):
            raise ConfigError(
                f"{path} must be one of {list(typing.get_args(tp))}, got {value!r}")
    elif tp is float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{path} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value!r}")
    elif tp is int:
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < 0):
            raise ConfigError(f"{path} must be a non-negative integer, got {value!r}")
    elif tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true or false, got {value!r}")
    elif typing.get_origin(tp) is tuple:
        if not isinstance(value, tuple):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        args = typing.get_args(tp)
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        if len(items) != len(value):
            raise ConfigError(f"{path} must have {len(items)} items, got {len(value)}")
        for i, (item_tp, item) in enumerate(zip(items, value)):
            _check_value(item_tp, item, f"{path}[{i}]")
    elif not isinstance(value, tp):
        raise ConfigError(f"{path} must be a {tp.__name__}, got {value!r}")
