"""Fixture policy, feed, model and chain files, each with one value or one
byte changed, run through the CLI: every change ends in a clean exit or a
one-line error, never a traceback. The values are drawn from the field
tables the files are checked against."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from policyledger.cli import main
from policyledger.cti import ForestModel, ThreatReport
from policyledger.policy import PolicyDocument
from policyledger.runner import RunConfig, fixture_path, run_scenario

_MISTYPED = [None, True, False, "x", "", [], {}, [1], {"x": 1}, -1, 0, 1.5,
             math.nan, math.inf, -math.inf, 10**400]


def _edges(field) -> list:
    """Values at and beside ``field``'s range, and values of other types;
    for a key outside the spec (``field`` None), values of every type."""
    if field is None:
        return _MISTYPED
    kind, low, high = field.type, field.low, field.high
    if kind in ("int", "number"):
        bounds = [b for b in (low, high) if isinstance(b, (int, float)) and math.isfinite(b)]
        return [v for b in bounds for v in (b - 1, b - 0.5, b, b + 0.5, b + 1)] + _MISTYPED
    if kind == "str":
        return [*field.of, "nope"] + _MISTYPED
    if kind == "pattern":
        return ["T1021", "T1021.001", "1021", "t1021"] + _MISTYPED
    if kind == "selector":
        return [*field.of, ["ep-000"], ["ep-999"], [3]] + _MISTYPED
    if kind == "list":
        return [[], *([e] for e in _edges(field.of)[:6])] + _MISTYPED
    if kind == "params":
        return [{"port": 22}, {"level": 2}, {"isolated": False}, {"blocked": 1},
                {"direction": "in", "target": "*", "verdict": "allow"}] + _MISTYPED
    return ["x", "T1021"] + _MISTYPED  # text, bool, any, object


def _slots(value: dict, spec: dict, path: tuple = ()):
    """(path, FieldSpec) of every field of ``spec`` in the object ``value``,
    given or not, and of the fields below them; a key outside the spec has
    FieldSpec None."""
    yield path + ("unknown",), None
    for name, field in spec.items():
        if name == "*":
            continue
        yield path + (name,), field
        entry = value.get(name)
        if field.type == "object":
            yield from _slots(entry, field.of, path + (name,))
        elif field.type == "params":
            yield from _slots(entry, field.of[value["kind"]], path + (name,))
        elif field.type == "list":
            for i, item in enumerate(entry or ()):
                if field.of.type == "object":
                    yield from _slots(item, field.of.of, path + (name, i))
                else:
                    yield path + (name, i), field.of


def _json_slots(value, path: tuple = ()):
    """The path of every value inside a JSON value (for chain lines, which
    have no field table)."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_slots(item, path + (key,))


def _changed(doc, path: tuple, value, delete: bool):
    doc = copy.deepcopy(doc)
    *above, last = path
    target = doc
    for key in above:
        target = target[key]
    if delete:
        if isinstance(target, dict):
            target.pop(last, None)
        else:
            del target[last]
    else:
        target[last] = value
    return doc


def _chain_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        run_scenario(RunConfig(scenario="ransomware", endpoints=4, seed=5), tmp)
        return (Path(tmp) / "chain.ndjson").read_text(encoding="utf-8")


_FILES = {
    **{f"policy:{name}": (fixture_path("policies", name), PolicyDocument.SPEC)
       for name in ("smbv1.json", "rdp.json", "ransomware.json")},
    **{f"feed:{name}": (fixture_path("feeds", name), ThreatReport.SPEC)
       for name in ("ransomware.json", "smbv1_advisory.json")},
    "model": (fixture_path("model.json"), ForestModel.SPEC),
}
_CHAIN = _chain_text()


@st.composite
def _mutated_files(draw):
    """(which file, its text with one value or one byte changed)."""
    name = draw(st.sampled_from(["chain", *_FILES]))
    text = _CHAIN if name == "chain" else _FILES[name][0].read_text(encoding="utf-8")
    if draw(st.booleans()):  # one byte
        data = bytearray(text.encode("utf-8"))
        data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from(b'"{}[],:0a \n\xff'))
        return name, bytes(data)
    if name == "chain":
        lines = text.splitlines()
        index = draw(st.integers(0, len(lines) - 1))
        block = json.loads(lines[index])
        path = draw(st.sampled_from(list(_json_slots(block))[1:]))
        lines[index] = json.dumps(_changed(block, path, draw(st.sampled_from(_MISTYPED)), False))
        return name, ("\n".join(lines) + "\n").encode("utf-8")
    doc, spec = json.loads(text), _FILES[name][1]
    objects = doc if isinstance(doc, list) else [doc]
    item = draw(st.integers(0, len(objects) - 1))
    path, field = draw(st.sampled_from(list(_slots(objects[item], spec))))
    path = (item, *path) if isinstance(doc, list) else path
    delete = field is not None and draw(st.booleans())
    doc = _changed(doc, path, draw(st.sampled_from(_edges(field))), delete)
    return name, json.dumps(doc).encode("utf-8")


def _argv(name: str, command: str, path: Path, tmp: Path) -> list:
    """``command``'s argv reading the file ``path`` that holds ``name``'s
    text, with fixtures for its other inputs."""
    if name == "chain":
        return [command, str(path)]
    policy = str(path) if name.startswith("policy:") else str(fixture_path("policies", "ransomware.json"))
    feed = str(path) if name.startswith("feed:") else str(fixture_path("feeds", "ransomware.json"))
    model = str(path) if name == "model" else str(fixture_path("model.json"))
    if command == "classify":
        return ["classify", feed, "--model", model, "--policies", policy]
    config = {"scenario": "ransomware", "endpoints": 4, "seed": 3, "policies": [policy],
              "feeds": [feed], "model": model}
    (tmp / "cfg.json").write_text(json.dumps(config))
    return ["run", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated=_mutated_files(), reader=st.booleans())
def test_a_file_with_one_value_or_byte_changed_exits_cleanly(mutated, reader):
    name, data = mutated
    command = ("verify-chain", "replay")[reader] if name == "chain" else ("run", "classify")[reader]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "input.json"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(name, command, path, tmp))
        out, err = out.getvalue(), err.getvalue()
        assert code in ((0, 1) if name == "chain" else (0, 2, 3)), (code, err)
        if code and command == "verify-chain":  # its verdict is its output
            assert out.startswith("corrupt: ") and err == ""
        elif code:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert not (tmp / "out").exists()
