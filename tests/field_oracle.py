"""The field table's interpreter: the oracle of the checks, readers and
built-value checks that ``canonical`` compiles from the same tables.

Each value is checked by one call per field, list item and map entry,
which unpacks the field's spec, resolves its bounds and applies its
type's test, as the package did before it compiled its tables. A failure
raises ``error(path, text)``: SchemaError for a config or input file, and
the ledger's ``_wire_error`` (a TypeError) for a chain line.
"""

import dataclasses
import math
from typing import Any, Iterable

from policyledger.errors import SchemaError

#: Each type: what it takes, as its error says; the test of a value
#: against its resolved bounds; and, for a container, the check of its
#: entries, made after that test.
_TYPES = {
    "int": ("an integer in [{low}, {high}]",
            lambda v, low, high, of: type(v) is int and low <= v <= high, None),
    "number": ("a number (not a bool) in [{low}, {high}]",
               lambda v, low, high, of: type(v) in (int, float) and low <= v <= high, None),
    "ms": ("a finite number (not a bool) with an integer part in ({low}, {high}]",
           lambda v, low, high, of: type(v) in (int, float) and -math.inf < v < math.inf
           and low < int(v) <= high, None),
    "bool": ("true or false", lambda v, low, high, of: type(v) is bool, None),
    "str": ("one of {of}", lambda v, low, high, of: v in of, None),
    "text": ("a string", lambda v, low, high, of: type(v) is str, None),
    "pattern": ("a string matching {of.pattern}",
                lambda v, low, high, of: isinstance(v, str) and of.fullmatch(v) is not None, None),
    "any": ("any value", lambda v, low, high, of: True, None),
    "selector": ("one of {of} or a list of distinct strings",
                 lambda v, low, high, of: v in of or isinstance(v, list) and all(isinstance(x, str) for x in v)
                 and len(set(v)) == len(v), None),
    "roles": ("null or a map of roles {of} to numbers (not bools) in ({low}, {high}]",
              lambda v, low, high, of: v is None or isinstance(v, dict) and all(
                  role in of and type(m) in (int, float) and low < m <= high for role, m in v.items()), None),
    "list": ("a list of at least {low} items", lambda v, low, high, of: isinstance(v, list) and len(v) >= low,
             lambda v, field, values, spec, where, error: _each(field.of, enumerate(v), values, spec, where, error)),
    "strings": ("a list of strings", lambda v, low, high, of: type(v) in (list, tuple)
                and all(type(x) is str for x in v), None),
    "by_kind": ("a map of action kinds to {of} values",
                lambda v, low, high, of: isinstance(v, dict) and all(type(k) is str for k in v),
                lambda v, field, values, spec, where, error: _each(spec[field.of], v.items(), values, spec, where,
                                                                   error)),
    "object": ("an object", lambda v, low, high, of: isinstance(v, dict),
               lambda v, field, values, spec, where, error: check_fields(field.of, v, where, error)),
    "params": ("an object", lambda v, low, high, of: isinstance(v, dict),
               lambda v, field, values, spec, where, error: check_fields(field.of[values["kind"]], v, where,
                                                                         error)),
    "config": ("a map of {of.__name__} fields", lambda v, low, high, of: isinstance(v, dict),
               lambda v, field, values, spec, where, error: check_config(field.of, v, where, error)),
    "enum": ("a {of.__name__}", lambda v, low, high, of: type(v) is str and v in of._value2member_map_, None),
    "record": ("a {of.__name__}", lambda v, low, high, of: isinstance(v, dict),
               lambda v, field, values, spec, where, error: check_fields(field.of.SPEC, v, where, error)),
}


def check_fields(spec: dict, values: Any, path: str = "$", error=SchemaError) -> None:
    """Raise ``error`` unless ``values`` is an object that holds every
    required field of ``spec`` and no key that is not one of its fields
    (any key, if ``spec`` has a ``"*"`` field), and each of whose values
    fits its field. The error's path is ``path`` and the field's below it."""
    if not isinstance(values, dict):
        raise error(path, f"must be an object, got {values!r}")
    if "*" not in spec and not spec.keys() >= values.keys():
        raise error(path, f"unknown fields: {sorted(map(str, values.keys() - spec.keys()))}")
    for name, field in spec.items():
        if name in values:
            _check(field, values[name], values, spec, path, name, error)
        elif field.required:
            raise error(_join(path, name), "missing field")


def check_config(cls: type, values: Any, path: str = "$", error=SchemaError) -> dict:
    """``values`` over the defaults of the dataclass ``cls``'s optional
    fields, checked against ``cls.SPEC``."""
    if isinstance(values, dict):
        values = {f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
                  for f in dataclasses.fields(cls)
                  if f.name in cls.SPEC and not cls.SPEC[f.name].required} | values
    check_fields(cls.SPEC, values, path, error)
    return values


def _check(field, value, values: dict, spec: dict, path: str, key, error) -> None:
    """Check one value below the object ``values``, whose spec is
    ``spec``: the value at field name, list index or map key ``key`` of
    the field or container at ``path``."""
    kind, low, high, _, of, _, null = field
    if value is None and null:
        return
    low = values[low] if type(low) is str else low
    high = values[high] if type(high) is str else high
    must, fits, entries = _TYPES[kind]
    if not fits(value, low, high, of):
        must = must.format(low=low, high=high, of=of) + (" or null" if null else "")
        raise error(_join(path, key), f"must be {must}, got {value!r}")
    if entries is not None:
        entries(value, field, values, spec, _join(path, key), error)


def _each(field, items: Iterable, values: dict, spec: dict, path: str, error) -> None:
    for key, item in items:
        _check(field, item, values, spec, path, key, error)


def _join(path: str, key) -> str:
    return f"{path}[{key}]" if type(key) is int else f"{path}.{key}"
