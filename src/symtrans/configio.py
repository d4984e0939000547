"""Strict dataclass <-> dict conversion for JSON configs.

Unknown fields are rejected with field-level messages; silent typos in
hyperparameter names are the classic reproduction killer.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import typing


class ConfigError(ValueError):
    pass


def integer(name, value, minimum=None) -> int:
    """``value`` as an int; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def finite(name, value):
    """``value`` unchanged if it is a finite real number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def sequence(name, values, item, length=None) -> tuple:
    """A list or tuple, of ``length`` if given, with ``item`` applied to each."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    if length is not None and len(values) != length:
        raise ValueError(f"{name} must have {length} entries, got {len(values)}")
    return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(values))


def from_dict(cls, data: dict, path: str = ""):
    """Build a dataclass from a dict, recursing into dataclass fields."""
    if not isinstance(data, dict):
        raise ConfigError(
            f"{path or cls.__name__}: expected an object, got {type(data).__name__}"
        )
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(
            f"unknown field(s) {sorted(where + u for u in unknown)} for {cls.__name__}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name in fields:
        if name not in data:
            continue
        val = data[name]
        sub = hints.get(name)
        if isinstance(sub, type) and dataclasses.is_dataclass(sub):
            val = from_dict(sub, val, path=f"{path}.{name}" if path else name)
        kwargs[name] = val
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, ArithmeticError) as e:
        raise ConfigError(f"{path or cls.__name__}: {e}") from e


def to_canonical_json(obj) -> str:
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
