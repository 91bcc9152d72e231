"""Declarative settings: each dataclass field states its rule beside its default.

A rule is a choice set, ``("in", choices)``, or a bound, ``(op, bound)`` with
``op`` one of ``>=``, ``>`` and ``<=``. Every float must also be finite,
whatever its rules. ``check_settings`` applies them all from ``__post_init__``
and raises :class:`~hyperadapt.errors.UsageError` naming the field, the value
and the broken rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import field, fields

from .errors import UsageError

__all__ = ["SEED", "setting", "violation", "check_settings"]

_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
        "in": lambda value, choices: value in choices}

SEED = (">=", 0)  # numpy's generators accept only non-negative seeds


def setting(default, *rules):
    """A dataclass field with ``default`` whose value must obey every rule."""
    return field(default=default, metadata={"rules": rules})


def violation(value, rules) -> str | None:
    """Why ``value`` breaks ``rules`` (or is a non-finite float), or None if it does not."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite, got {value!r}"
    for op, bound in rules:
        if not _OPS[op](value, bound):
            return f"must be {op} {bound!r}, got {value!r}"
    return None


def check_settings(obj) -> None:
    """Raise UsageError for the first field of dataclass ``obj`` that breaks its rules."""
    for f in fields(obj):
        problem = violation(getattr(obj, f.name), f.metadata.get("rules", ()))
        if problem:
            raise UsageError(f"{f.name} {problem}")
