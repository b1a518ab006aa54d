"""Canonical serialization and hashing helpers.

Every digest in the system is computed over canonical JSON: keys sorted,
compact separators, no ASCII escaping of non-ASCII text, and numbers
rendered by Python's shortest-roundtrip repr. Two values that compare
equal always serialize to identical bytes, which is what makes chain
hashes and report digests reproducible across runs.

The encoder keeps no circular-reference markers, as nothing the package
encodes is cyclic: a value that contains itself raises ``RecursionError``
(``json.dumps`` raises ``ValueError``). Fragments encoded once are put
together by ``object_splicer``'s generated functions, one f-string per
object shape with its keys sorted when it is generated.

Chain files and payloads are read back by ``decode_json``: one scan by
a scanner built once, with ``json.loads`` as the fallback for anything
that scan does not cover, so it accepts and fails as ``json.loads`` does.

The seeded substreams every random draw comes from, ``slot_builder``
for the frozen value objects built once per record, block or endpoint,
``generated_function`` beneath it, ``object_splicer``, the ledger's type
checks and each policy rule's filter, ``collector_paused`` for the run
and the audit, and the
field table that checks every config and input file (``FieldSpec``,
``check_fields``, ``check_config``) live here too, beneath every module
that uses them.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import json.scanner
import math
import random
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .errors import SchemaError

HASH_FUNCTION_NAME = "sha-256"
ZERO_DIGEST = "0" * 64

# json.dumps with non-default arguments builds a new encoder on every call.
# Marking each container to detect cycles costs a dict insert and delete.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False
)

# What _ENCODER writes for a str, without the calls canonical_json makes
# to get there.
encode_str = (
    json.encoder.encode_basestring_ascii if _ENCODER.ensure_ascii else json.encoder.encode_basestring
)


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to its canonical JSON form. ``value`` must not
    contain itself: a cyclic value raises ``RecursionError``."""
    return _ENCODER.encode(value)


# json.loads checks its argument, skips whitespace and wraps the scan in
# Python on every call; the scanner underneath it is built once here.
_SCAN = json.scanner.make_scanner(json.JSONDecoder())


def decode_json(text: Any) -> Any:
    """``json.loads(text)``: the value scanned from position 0 when the scan
    ends at the end of ``text`` or just before one final newline; in every
    other case, errors included, ``json.loads(text)`` decides."""
    try:
        value, end = _SCAN(text, 0)
        if end == len(text) or (end == len(text) - 1 and text[end] == "\n"):
            return value
    except Exception:
        pass
    return json.loads(text)


def object_splicer(*keys: str, cut: Optional[str] = None) -> Callable[..., Any]:
    """A function of one member per key, in the order of ``keys``, that
    returns the canonical JSON object with ``keys``, each member placed at
    its key's sorted position. A member is canonical JSON, or an int.

    With ``cut``, one of ``keys``, it takes no member for that key and
    returns the text before and the text after where that member goes.
    Like ``slot_builder``'s, its code is generated: one f-string, about
    half the cost of a ``str.format`` template.
    """
    def literal(text: str) -> str:
        return text.replace("{", "{{").replace("}", "}}")

    # A NUL marks the cut: encode_str escapes every control character.
    text = "{{" + literal(_ENCODER.item_separator).join(
        literal(encode_str(key) + _ENCODER.key_separator) + ("\0" if key == cut else "{m%d}" % i)
        for key, i in sorted((key, i) for i, key in enumerate(keys))
    ) + "}}"
    args = ", ".join("m%d" % i for i, key in enumerate(keys) if key != cut)
    pieces = ", ".join("f" + repr(piece) for piece in text.split("\0"))
    return generated_function(f"def splice({args}):\n    return {pieces}", {}, "splice")


def generated_function(source: str, scope: dict, name: str) -> Callable[..., Any]:
    """The function ``name`` that ``source`` defines when executed with
    ``scope`` as its globals. It is popped from ``scope``, so the two form
    no reference cycle: one generated while the collector is paused is
    freed by its reference count alone."""
    exec(source, scope)
    return scope.pop(name)


def collector_paused(fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` with the cyclic garbage collector paused for each call, as
    ``timeit`` pauses it, for functions that make no reference cycles:
    every pass the collector would make during them frees nothing. It is
    enabled again on return or raise only if it was on at entry, so
    paused functions may call each other."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def encode_array(items: Iterable[str]) -> str:
    """Canonical JSON of a list whose items are each given as canonical JSON."""
    return "[" + _ENCODER.item_separator.join(items) + "]"


def canonical_bytes(value: Any) -> bytes:
    return canonical_json(value).encode("utf-8")


def digest_bytes(data: bytes) -> str:
    """Lowercase hex SHA-256 of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def digest_value(value: Any) -> str:
    """Lowercase hex SHA-256 of the canonical JSON form of ``value``."""
    return digest_bytes(canonical_bytes(value))


def stable_index(label: str, size: int) -> int:
    """Map a feature label to a bucket in [0, size) via SHA-256.

    Independent of PYTHONHASHSEED, unlike builtin hash().
    """
    if size <= 0:
        raise ValueError("size must be positive")
    h = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") % size


def substream(master_seed: int, *labels: object) -> random.Random:
    """Derive an independent RNG substream from a master seed and labels.

    Streams are keyed by (seed, labels) through SHA-256, so adding a new
    consumer (e.g. one more endpoint) never perturbs existing streams. The
    stream is ``random.Random(n)``, ``n`` the first 8 bytes, read
    big-endian, of the SHA-256 of the ``"/"``-joined ``str``s.
    """
    key = "/".join([str(master_seed), *[str(x) for x in labels]])
    h = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def slot_builder(cls: type) -> Callable[..., Any]:
    """A function of a ``slots=True`` dataclass's field values, in field
    order, returning a new ``cls`` with each slot set once.

    For a frozen class it builds what ``__init__`` builds from the same
    values, at about half the cost: ``__init__`` routes every field through
    ``object.__setattr__``. It runs no ``__post_init__`` and fills no
    default. Like ``dataclasses``' ``__init__``, its code is generated, so
    each slot's setter is a name in that code, not an item of a loop.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    scope = {"_new": object.__new__, "_cls": cls}
    scope.update((f"_set_{name}", cls.__dict__[name].__set__) for name in names)
    code = [f"def build({', '.join(names)}):", "    self = _new(_cls)"]
    code += [f"    _set_{name}(self, {name})" for name in names]
    return generated_function("\n".join([*code, "    return self"]), scope, "build")


# --------------------------------------------------------------------------
# The field table


class FieldSpec(NamedTuple):
    """One field of a config or input file: its type (a key of ``_TYPES``),
    range, unit and ``of``, whether it must be given, and whether it may be
    null. ``of`` is a ``str``'s choices, a ``pattern``'s regex, a role
    map's roles, a ``config``'s class, an ``object``'s spec, a ``list``'s
    item spec, a ``params`` field's spec per ``kind`` beside it, or the
    field whose spec a by-kind map's values take. A str bound names a field
    of the same object checked before this one, whose value is the bound."""

    type: str
    low: object = -math.inf
    high: object = math.inf
    unit: str = ""
    of: object = None
    required: bool = False
    null: bool = False


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
    "text": ("a string", lambda v, low, high, of: isinstance(v, str), None),
    "pattern": ("a string matching {of.pattern}",
                lambda v, low, high, of: isinstance(v, str) and of.match(v) is not None, None),
    "any": ("any value", lambda v, low, high, of: True, None),
    "selector": ("one of {of} or a list of strings",
                 lambda v, low, high, of: v in of or isinstance(v, list) and all(isinstance(x, str) for x in v),
                 None),
    "roles": ("null or a map of roles {of} to numbers (not bools) in ({low}, {high}]",
              lambda v, low, high, of: v is None or isinstance(v, dict) and all(
                  role in of and type(m) in (int, float) and low < m <= high for role, m in v.items()), None),
    "list": ("a list of at least {low} items", lambda v, low, high, of: isinstance(v, list) and len(v) >= low,
             lambda v, field, values, spec, where: _each(field.of, enumerate(v), values, spec, where)),
    "by_kind": ("a map of action kinds to {of} values",
                lambda v, low, high, of: isinstance(v, dict) and all(type(k) is str for k in v),
                lambda v, field, values, spec, where: _each(spec[field.of], v.items(), values, spec, where)),
    "object": ("an object", lambda v, low, high, of: isinstance(v, dict),
               lambda v, field, values, spec, where: check_fields(field.of, v, where)),
    "params": ("an object", lambda v, low, high, of: isinstance(v, dict),
               lambda v, field, values, spec, where: check_fields(field.of[values["kind"]], v, where)),
    "config": ("a map of {of.__name__} fields", lambda v, low, high, of: isinstance(v, dict),
               lambda v, field, values, spec, where: check_config(field.of, v, where)),
}


def check_fields(spec: dict, values: Any, path: str = "$") -> None:
    """Raise SchemaError unless ``values`` is an object that holds every
    required field of ``spec`` and no key that is not one of its fields
    (any key, if ``spec`` has a ``"*"`` field), and each of whose values
    fits its field. The error's path is ``path`` and the field's below it."""
    if not isinstance(values, dict):
        raise SchemaError(path, f"must be an object, got {values!r}")
    if "*" not in spec and not spec.keys() >= values.keys():
        raise SchemaError(path, f"unknown fields: {sorted(map(str, values.keys() - spec.keys()))}")
    for name, field in spec.items():
        if name in values:
            _check(field, values[name], values, spec, path, name)
        elif field.required:
            raise SchemaError(_join(path, name), "missing field")


def check_config(cls: type, values: Any, path: str = "$") -> dict:
    """``values`` over the defaults of the dataclass ``cls``'s optional
    fields, checked against ``cls.SPEC`` by ``check_fields``: a bound that
    names a field left out reads its default."""
    if isinstance(values, dict):
        values = {f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
                  for f in dataclasses.fields(cls)
                  if f.name in cls.SPEC and not cls.SPEC[f.name].required} | values
    check_fields(cls.SPEC, values, path)
    return values


def _check(field: FieldSpec, value, values: dict, spec: dict, path: str, key) -> None:
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
        raise SchemaError(_join(path, key), f"must be {must}, got {value!r}")
    if entries is not None:
        entries(value, field, values, spec, _join(path, key))


def _each(field: FieldSpec, items: Iterable, values: dict, spec: dict, path: str) -> None:
    for key, item in items:
        _check(field, item, values, spec, path, key)


def _join(path: str, key) -> str:
    return f"{path}[{key}]" if type(key) is int else f"{path}.{key}"
