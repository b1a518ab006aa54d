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
Every config, policy, feed and model file is read by ``read_json_file``
and ``parse_json``, the one refusal of text that is not UTF-8, not JSON,
or nested too deep to decode.

The seeded substreams every random draw comes from, ``slot_builder``
for the frozen value objects built once per record, block or result,
``generated_function`` beneath it, ``object_splicer`` and each policy
rule's filter, ``collector_paused`` for the run and the audit, and the
field table of every config, input file and chain line (``FieldSpec``)
live here too, beneath every module that uses them.

A table is compiled, once, into one generated function with its nested
tables inlined and each value's test inline; a failing value raises the
table's error naming its path. ``check_fields`` and ``check_config``
compile an input file's table on its first check; the ledger compiles
its chain-line readers (``compile_reader``) and the checks of built
records, blocks and metadata (``compile_values``) from its own tables.
Each generated function is compiled under a file name that says what it
is, such as ``<generated TransactionRecord reader>``.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import json.scanner
import math
import random
import re
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


def parse_json(text: str, name: str = "$", error: type[SchemaError] = SchemaError) -> Any:
    """``decode_json(text)`` of the text of the input ``name``: text that is
    not JSON, or that nests too deep to decode, raises ``error`` naming it."""
    try:
        return decode_json(text)
    except RecursionError as exc:
        raise error(name, "nested too deep to decode") from exc
    except ValueError as exc:  # also an integer too long to convert
        raise error(name, f"not valid JSON: {exc}") from exc


def read_json_file(path: Any, parse: Optional[Callable[[str, str], Any]] = None,
                   error: type[SchemaError] = SchemaError) -> Any:
    """``parse_json`` of the text of the file at ``path``, or ``parse(text,
    name)``, with ``name`` the path. Text that is not UTF-8 raises ``error``
    naming the file; a file that cannot be opened raises OSError."""
    name = str(path)
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as exc:
        raise error(name, f"not UTF-8 text: {exc}") from exc
    return parse_json(text, name, error) if parse is None else parse(text, name)


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
    what = f"splice of {keys!r}" + (f" cut at {cut!r}" if cut else "")
    return generated_function(f"def splice({args}):\n    return {pieces}", {}, "splice", what)


def generated_function(source: str, scope: dict, name: str, what: str) -> Callable[..., Any]:
    """The function ``name`` that ``source`` defines when executed with
    ``scope`` as its globals, compiled under the file name ``<generated
    what>``, which profiles and tracebacks show. It is popped from
    ``scope``, so the two form no reference cycle: one generated while the
    collector is paused is freed by its reference count alone."""
    exec(compile(source, f"<generated {what}>", "exec"), scope)
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
    ``object.__setattr__``. It runs no ``__post_init__``, and its one
    default is None, for each field ``__init__`` does not take. Like
    ``dataclasses``' ``__init__``, its code is generated, so each slot's
    setter is a name in that code, not an item of a loop.
    """
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    scope = {"_new": object.__new__, "_cls": cls}
    scope.update((f"_set_{name}", cls.__dict__[name].__set__) for name in names)
    args = ", ".join(f.name if f.init else f"{f.name}=None" for f in fields)
    code = [f"def build({args}):", "    self = _new(_cls)"]
    code += [f"    _set_{name}(self, {name})" for name in names]
    return generated_function("\n".join([*code, "    return self"]), scope, "build", f"{cls.__name__} builder")


# --------------------------------------------------------------------------
# The field table


class FieldSpec(NamedTuple):
    """One field of a config, an input file or a chain line: its type (a
    key of ``_TYPES``), range, unit and ``of``, whether it must be given,
    and whether it may be null. ``of`` is a ``str``'s choices, a
    ``pattern``'s regex (matched by the whole string), a role map's roles,
    a ``config``'s class, an ``object``'s spec, a ``list``'s item spec, a
    ``params`` field's spec per ``kind`` beside it, the field whose spec a
    by-kind map's values take, an ``enum``'s class, or the class whose
    ``SPEC`` a ``record`` holds. A str bound names a field of the same
    object checked before this one, whose value is the bound."""

    type: str
    low: object = -math.inf
    high: object = math.inf
    unit: str = ""
    of: object = None
    required: bool = False
    null: bool = False


#: Each type: what it takes, as its error says, and the test of a value
#: ``{v}`` against its bounds ``{low}`` and ``{high}`` and its ``{of}``, as
#: source; a container's entries are checked after that test. ``enum``'s
#: ``{of}`` is its class's map of values to members.
_TYPES = {
    "int": ("an integer in [{low}, {high}]", "type({v}) is int"),  # bounds added where finite
    "number": ("a number (not a bool) in [{low}, {high}]", "type({v}) in _NUMBER and {low} <= {v} <= {high}"),
    "ms": ("a finite number (not a bool) with an integer part in ({low}, {high}]",
           "type({v}) in _NUMBER and -_inf < {v} < _inf and {low} < int({v}) <= {high}"),
    "bool": ("true or false", "type({v}) is bool"),
    "str": ("one of {of}", "{v} in {of}"),
    "text": ("a string", "type({v}) is str"),
    "pattern": ("a string matching {of.pattern}", "isinstance({v}, str) and {of}.fullmatch({v}) is not None"),
    "any": ("any value", "True"),
    "selector": ("one of {of} or a list of distinct strings",
                 "{v} in {of} or isinstance({v}, list) and all(isinstance(x, str) for x in {v})"
                 " and len(set({v})) == len({v})"),
    "roles": ("null or a map of roles {of} to numbers (not bools) in ({low}, {high}]",
              "{v} is None or isinstance({v}, dict) and all("
              "r in {of} and type(m) in _NUMBER and {low} < m <= {high} for r, m in {v}.items())"),
    "list": ("a list of at least {low} items", "isinstance({v}, list)"),  # length added where bounded
    "strings": ("a list of strings", "type({v}) is list or type({v}) is tuple"),  # items tested after
    "by_kind": ("a map of action kinds to {of} values", "isinstance({v}, dict) and all(type(k) is str for k in {v})"),
    "object": ("an object", "isinstance({v}, dict)"),
    "params": ("an object", "isinstance({v}, dict)"),
    "config": ("a map of {of.__name__} fields", "isinstance({v}, dict)"),
    "enum": ("a {of.__name__}", "type({v}) is str and {v} in {of}"),
    "record": ("a {of.__name__}", "isinstance({v}, dict)"),
}
#: Tests of values already built (``compile_values``), where they differ.
_BUILT = {"list": "type({v}) is list or type({v}) is tuple", "enum": "type({v}) is {of}",
          "record": "type({v}) is {of}"}

#: Each table's check, compiled on its first use, by the table's id.
_CHECKS: dict[int, tuple[dict, Callable[..., None]]] = {}


def compile_fields(spec: dict, what: str, error: Callable[[str, str], Exception] = SchemaError):
    """The check of ``spec`` as one generated function of ``(values,
    path="$")``, named ``what``: nested tables are inlined, each value gets
    its type's test inline, and a failing one raises ``error(path, text)``,
    by default SchemaError. The technique is fastjsonschema's
    (https://github.com/horejsek/python-fastjsonschema): one function per
    schema, generated once."""
    return _compile(spec, what, error)


def compile_reader(cls: type, build: dict, error: Callable[[str, str], Exception], **names):
    """A function of ``(values, memo)`` that checks ``values`` against
    ``cls.SPEC`` as ``compile_fields``'s check does, from the path
    ``cls.__name__``, and returns the source ``build[cls]`` with the fields'
    values in order for ``{}``: a ``record`` field reads as its ``build``,
    an ``enum`` as a member and a list as a tuple. ``build`` may use
    ``memo`` and ``names``."""
    return _compile(cls.SPEC, f"{cls.__name__} reader", error, cls, build, names)


def compile_values(cls: type, error: Callable[[str, str], Exception]):
    """A function of ``cls.SPEC``'s field values, in order, with
    ``compile_reader``'s tests of them as built: a list may be a tuple, and
    an ``enum`` or ``record`` must be an ``of``."""
    return _compile(cls.SPEC, f"{cls.__name__} check", error, cls, built=True)


def check_fields(spec: dict, values: Any, path: str = "$") -> None:
    """Raise SchemaError unless ``values`` is an object that holds every
    required field of ``spec`` and no key that is not one of its fields
    (any key, if ``spec`` has a ``"*"`` field), and each of whose values
    fits its field. The error's path is ``path`` and the field's below it.
    Fields are checked in order, and the first that fails raises. Each
    table is compiled once, on its first check (``compile_fields``)."""
    entry = _CHECKS.get(id(spec))
    if entry is None or entry[0] is not spec:
        entry = _CHECKS[id(spec)] = (spec, compile_fields(spec, f"check of {', '.join(spec)}"))
    entry[1](values, path)


def check_config(cls: type, values: Any, path: str = "$") -> dict:
    """``values`` over the defaults of the dataclass ``cls``'s optional
    fields, checked against ``cls.SPEC`` by ``check_fields``: a bound that
    names a field left out reads its default."""
    if isinstance(values, dict):
        values = _defaults(cls) | values
    check_fields(cls.SPEC, values, path)
    return values


def _defaults(cls: type) -> dict:
    return {f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
            for f in dataclasses.fields(cls) if f.name in cls.SPEC and not cls.SPEC[f.name].required}


def _fail(error: Callable, field: FieldSpec, path: str, parts: tuple, value, *bounds) -> Exception:
    """The error of ``value`` failing ``field`` at ``path.format(*parts)``,
    its bounds read as ``bounds`` where a bound names another field."""
    low, high = bounds or (field.low, field.high)
    must = _TYPES[field.type][0].format(low=low, high=high, of=field.of) + (" or null" if field.null else "")
    return error(path.format(*parts), f"must be {must}, got {value!r}")


def _unknown(error: Callable, path: str, parts: tuple, values: dict, keys: frozenset) -> Exception:
    return error(path.format(*parts), f"unknown fields: {sorted(map(str, values.keys() - keys))}")


def _missing(error: Callable, path: str, parts: tuple, key: str) -> Exception:
    return error(f"{path.format(*parts)}.{key}", "missing field")


def _compile(spec: dict, what: str, error: Callable, cls: Optional[type] = None,
             build: Optional[dict] = None, names: Optional[dict] = None, built: bool = False):
    """The function ``compile_fields``, ``compile_reader`` or
    ``compile_values`` generates. A path is formatted only on a failure."""
    scope = {name: functools.partial(fn, error) for name, fn in
             (("_fail", _fail), ("_unknown", _unknown), ("_missing", _missing))}
    scope.update(_NUMBER=(int, float), _inf=math.inf, _OBJECT=FieldSpec("object"), **(names or {}))
    lines: list[str] = []
    count = itertools.count()

    def local(value=None) -> str:
        """A fresh name: a local, or one in ``scope`` bound to ``value``."""
        name = f"_{next(count)}"
        if value is not None:
            scope[name] = value
        return name

    def emit(depth: int, line: str) -> None:
        lines.append("    " * depth + line)

    def at(path: str) -> str:
        """A failure's arguments for ``path``: its template and its fields."""
        template, fields = re.sub(r"{\w+}", "{}", path), re.findall(r"{(\w+)}", path)
        return f"{local(template)}, ({''.join(name + ', ' for name in fields)})"

    def fields(spec: dict, src: str, path: str, depth: int, tested: bool = False) -> list:
        """Check the object ``src``; the expression each field reads as."""
        start = len(lines)
        if not tested:
            emit(depth, f"if not isinstance({src}, dict):")
            emit(depth + 1, f"raise _fail(_OBJECT, {at(path)}, {src})")
        if "*" not in spec:
            keys = local(frozenset(spec))
            emit(depth, f"if not {src}.keys() <= {keys}:")
            emit(depth + 1, f"raise _unknown({at(path)}, {src}, {keys})")
        # Fields are read in order, so the first KeyError names the first
        # required field missing, after the checks of those before it.
        required = any(field.required for field in spec.values())
        if required:
            emit(depth, "try:")
        reads, inner = [], depth + required
        for key, field in spec.items():
            v, where = local(), f"{path}.{key}"
            if field.required:
                emit(inner, f"{v} = {src}[{key!r}]")
                reads.append(value(field, v, src, spec, where, inner))
            elif key != "*" and (field.type != "any" or build):
                emit(inner, f"if {key!r} in {src}:")
                emit(inner + 1, f"{v} = {src}[{key!r}]")
                value(field, v, src, spec, where, inner + 1)
                if build:
                    emit(inner, "else:")
                    emit(inner + 1, f"{v} = None")
                reads.append(v)
        if required:
            emit(depth, "except KeyError as _e:")
            emit(depth + 1, f"raise _missing({at(path)}, _e.args[0]) from None")
        elif len(lines) == start:
            emit(depth, "pass")
        return reads

    def value(field: FieldSpec, v: str, src: Optional[str], spec: dict, path: str, depth: int) -> str:
        """Check the value ``v`` of ``field`` in the object ``src``, whose
        table is ``spec``; when reading, rebind it to what it reads as."""
        kind, low, high, _, of, _, null = field
        read = v
        if kind == "any":
            return v
        if null:
            emit(depth, f"if {v} is not None:")
            depth += 1
        low_, high_ = (f"{src}[{b!r}]" if type(b) is str else repr(b) if type(b) is int else local(b)
                       for b in (low, high))
        of_ = local(of._value2member_map_ if kind == "enum" and not built else of)
        test = (_BUILT if built else {}).get(kind, _TYPES[kind][1]).format(v=v, low=low_, high=high_, of=of_)
        if kind == "int":  # an int is within an infinite bound
            bounds = [f"{low_} <= {v}"] * (low != -math.inf) + [f"{v} <= {high_}"] * (high != math.inf)
            test = " and ".join([test, *bounds])
        if kind == "list" and (type(low) is str or low > 0):
            test += f" and len({v}) >= {low_}"
        dynamic = f", {low_}, {high_}" if str in (type(low), type(high)) else ""
        fail = f"raise _fail({local(field)}, {at(path)}, {v}{dynamic})"
        emit(depth, f"if not ({test}):")
        emit(depth + 1, fail)
        if kind == "strings":
            item = local()
            emit(depth, f"for {item} in {v}:")
            emit(depth + 1, f"if type({item}) is not str:")
            emit(depth + 2, fail)
            read = f"tuple({v})"
        elif kind == "list":
            item, i, items = local(), local(), local()
            if build:
                emit(depth, f"{items} = []")
            emit(depth, f"for {i}, {item} in enumerate({v}):")
            read = value(of, item, src, spec, f"{path}[{{{i}}}]", depth + 1)
            if build:
                emit(depth + 1, f"{items}.append({read})")
            read = f"tuple({items})"
        elif kind == "by_kind":
            key, item = local(), local()
            emit(depth, f"for {key}, {item} in {v}.items():")
            value(spec[of], item, src, spec, f"{path}.{{{key}}}", depth + 1)
        elif kind == "object":
            fields(of, v, path, depth, tested=True)
        elif kind == "config":
            merged = local()
            emit(depth, f"{merged} = {local(_defaults(of))} | {v}")
            fields(of.SPEC, merged, path, depth, tested=True)
        elif kind == "params":
            chosen = local()
            emit(depth, f"{chosen} = {src}['kind']")
            for n, (name, params) in enumerate(of.items()):  # each kind checked before has a spec
                emit(depth, f"{'elif' if n else 'if'} {chosen} == {name!r}:")
                fields(params, v, path, depth + 1, tested=True)
        elif kind == "record" and not built:
            reads = fields(of.SPEC, v, path, depth, tested=True)
            read = build[of].format(", ".join(reads)) if build else v
        elif kind == "enum" and not built:
            read = f"{of_}[{v}]"
        if build and read != v:
            emit(depth, f"{v} = {read}")
        return v

    root = "{path}" if cls is None else cls.__name__
    if built:
        emit(0, f"def check({', '.join(spec)}):")
        for key, field in spec.items():
            value(field, key, None, spec, f"{root}.{key}", 1)
    else:
        emit(0, "def read(values, memo):" if build else "def check(values, path='$'):")
        reads = fields(spec, "values", root, 1)
        if build:
            emit(1, f"return {build[cls].format(', '.join(reads))}")
    # fields and value call each other, and value itself, through their
    # cells; emptying those cells leaves no cycle for the collector.
    del fields, value
    return generated_function("\n".join(lines), scope, "read" if build else "check", what)

