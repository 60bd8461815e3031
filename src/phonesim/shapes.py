"""Checking the shape of every file the program reads: scenarios, scripts,
LLM configs and run records.

A shape maps each key to `(type, default)`, where the default is `REQUIRED`
for a key that must be given. A type is one of:
  - a name from `fsm.PARAM_TYPES` (`float` takes an int or a float, and no
    number type takes a bool), or `any`;
  - `count`, an integer of at least 1;
  - a tuple of the allowed values;
  - a nested shape;
  - a one-entry list `[type]`, a list whose every entry has that type.
A null value for a key whose default is None counts as absent, so data that
`check` returned passes `check` again.
"""

from __future__ import annotations

import copy

from .errors import SchemaError
from .fsm import PARAM_TYPES

REQUIRED = object()
TYPES = {**PARAM_TYPES, "any": object}


def check(data, shape: dict, where: str) -> dict:
    """`data` with the shape's defaults filled in, as a new dict. Refused,
    each with one `SchemaError` naming `where.key` (`where.key[i]` for a list
    entry): data that is not a mapping, a missing required key, a value of
    the wrong type and, once every declared key holds, an unknown key."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected dict, got {type(data).__name__}")
    out = {}
    for key, (kind, default) in shape.items():
        if key not in data or (default is None and data[key] is None):
            if default is REQUIRED:
                raise SchemaError(f"{where}: missing required field {key!r}")
            out[key] = copy.copy(default)   # a default list or dict is the caller's own
        else:
            out[key] = _value(data[key], kind, f"{where}.{key}")
    unknown = [key for key in data if key not in shape]
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}; allowed: {sorted(shape)}")
    return out


def _value(value, kind, where: str):
    if kind == "count":
        if type(value) is not int or value < 1:
            raise SchemaError(f"{where}: expected an integer of at least 1, got {value!r}")
    elif isinstance(kind, str):
        if not isinstance(value, TYPES[kind]) or (
                isinstance(value, bool) and kind in ("int", "float")):
            raise SchemaError(f"{where}: expected {kind}, got {type(value).__name__}")
    elif isinstance(kind, tuple):
        if value not in kind:
            raise SchemaError(f"{where}: {value!r} not one of {kind}")
    elif isinstance(kind, list):
        [item] = kind
        _value(value, "list", where)
        return [_value(entry, item, f"{where}[{i}]") for i, entry in enumerate(value)]
    else:
        return check(value, kind, where)
    return value
