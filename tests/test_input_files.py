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

from hypothesis import HealthCheck, event, given, settings, strategies as st

import field_oracle as oracle

from policyledger.cli import main
from policyledger.cti import ForestModel, ThreatReport, encode_features, ingest_feed, read_feed
from policyledger.errors import SchemaError
from policyledger.policy import PolicyDocument
from policyledger.runner import RunConfig, fixture_path, run_scenario

_MISTYPED = [None, True, False, "x", "", [], {}, [1], {"x": 1}, -1, 0, 1.5,
             math.nan, math.inf, -math.inf, 10**400]


class _Text(str):
    """A str subclass: a chain field must be exactly a str."""


def _edges(field, values=None) -> list:
    """Values at and beside ``field``'s range, and values of other types;
    for a key outside the spec (``field`` None), values of every type. A
    bound that names another field reads its value in ``values``, the
    object holding ``field``, when given there."""
    if field is None:
        return _MISTYPED
    kind, low, high = field.type, field.low, field.high
    if kind in ("int", "number", "ms"):
        bounds = [(values or {}).get(b) if type(b) is str else b for b in (low, high)]
        bounds = [b for b in bounds if type(b) in (int, float) and math.isfinite(b)]
        return [v for b in bounds for v in (b - 1, b - 0.5, b, b + 0.5, b + 1)] + _MISTYPED
    if kind == "str":
        return [*field.of, "nope"] + _MISTYPED
    if kind == "enum":
        return [*field.of._value2member_map_, "nope"] + _MISTYPED
    if kind == "pattern":
        return ["T1021", "T1021.001", "1021", "t1021", "T1021\n", "T1021.001\n"] + _MISTYPED
    if kind == "selector":
        return [*field.of, ["ep-000"], ["ep-999"], [3], ["ep-000", "ep-000"]] + _MISTYPED
    if kind in ("list", "strings"):
        items = _edges(field.of)[:6] if kind == "list" else ["T1210", _Text("T1210"), 1, None]
        return [[], *([e] for e in items), ("T1210",)] + _MISTYPED
    if kind == "params":
        return [{"port": 22}, {"level": 2}, {"isolated": False}, {"blocked": 1},
                {"direction": "in", "target": "*", "verdict": "allow"}] + _MISTYPED
    if kind == "roles":
        return [{"lead": 0.5}, {"lead": 0}, {"lead": 1000}, {"lead": 1001}, {"lead": True},
                {"intern": 1}] + _MISTYPED
    if kind == "by_kind":
        return [{"set_rdp_port": 1}, {"set_rdp_port": -1}, {"set_rdp_port": 10**11},
                {"set_rdp_port": None}, {1: 1}] + _MISTYPED
    return ["x", _Text("x"), "T1021"] + _MISTYPED  # text, bool, any, object, config, record


def _below(field, value: dict):
    """The spec of the object ``field`` holds in ``value``, if it holds one."""
    if field.type == "object":
        return field.of
    if field.type == "params":
        return field.of.get(value.get("kind"))
    return field.of.SPEC if field.type in ("config", "record") else None


def _slots(value: dict, spec: dict, path: tuple = ()):
    """(path, FieldSpec, the object holding it) of every field of ``spec``
    in the object ``value``, given or not, and of the fields below them; a
    key outside the spec has FieldSpec None."""
    yield path + ("unknown",), None, value
    for name, field in spec.items():
        if name == "*":
            continue
        yield path + (name,), field, value
        entry = value.get(name)
        if isinstance(entry, dict) and _below(field, value):
            yield from _slots(entry, _below(field, value), path + (name,))
        elif field.type == "list":
            for i, item in enumerate(entry or ()):
                if isinstance(item, dict) and _below(field.of, value):
                    yield from _slots(item, _below(field.of, value), path + (name, i))
                else:
                    yield path + (name, i), field.of, value


def _json_slots(value, path: tuple = ()):
    """The path of every value inside a JSON value: a chain line is changed
    at any path, the votes' and the genesis meta's entries among them."""
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


def _firing_stumps() -> list:
    """Positions of the fixture model's stumps that fire on a report of
    the fixture feed the commands read, so that their weights are read."""
    model = ForestModel.from_file(fixture_path("model.json"))
    reports, _ = ingest_feed(read_feed(fixture_path("feeds", "ransomware.json")))
    vectors = [encode_features(report) for report in reports]
    return [i for i, stump in enumerate(model.stumps)
            if any(fv[stump.feature_index] > stump.threshold for fv in vectors)]


_FIRING = _firing_stumps()


@st.composite
def _mutated_files(draw):
    """(which file, its text with one value or one byte changed, and
    whether its field table refuses it: None for a byte, a chain or a feed)."""
    name = draw(st.sampled_from(["chain", *_FILES]))
    text = _CHAIN if name == "chain" else _FILES[name][0].read_text(encoding="utf-8")
    if name == "model" and draw(st.booleans()):  # a weight the fixture feed's reports read
        event("model: the weight of a stump the fixture feed fires")
        # The bound is written out apart from the table, so that one dropped from it shows.
        doc = json.loads(text)
        cap = doc["weight_cap"]
        weight = draw(st.sampled_from([v for b in (0, cap) for v in (b - 1, b - 0.5, b, b + 0.5, b + 1)] + _MISTYPED))
        doc["weights"][draw(st.sampled_from(_FIRING))] = weight
        fits = type(weight) in (int, float) and 0 <= weight <= cap
        return name, json.dumps(doc).encode("utf-8"), not fits
    if draw(st.booleans()):  # one byte
        data = bytearray(text.encode("utf-8"))
        data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from(b'"{}[],:0a \n\xff'))
        return name, bytes(data), None
    if name == "chain":
        lines = text.splitlines()
        index = draw(st.integers(0, len(lines) - 1))
        block = json.loads(lines[index])
        path = draw(st.sampled_from(list(_json_slots(block))[1:]))
        lines[index] = json.dumps(_changed(block, path, draw(st.sampled_from(_MISTYPED)), False))
        return name, ("\n".join(lines) + "\n").encode("utf-8"), None
    doc, spec = json.loads(text), _FILES[name][1]
    objects = doc if isinstance(doc, list) else [doc]
    item = draw(st.integers(0, len(objects) - 1))
    path, field, holder = draw(st.sampled_from(list(_slots(objects[item], spec))))
    path = (item, *path) if isinstance(doc, list) else path
    delete = field is not None and draw(st.booleans())
    doc = _changed(doc, path, draw(st.sampled_from(_edges(field, holder))), delete)
    text = json.dumps(doc)
    return name, text.encode("utf-8"), None if name.startswith("feed:") else _refused(name, json.loads(text))


def _refused(name: str, doc) -> bool:
    """Whether the interpreted field table refuses a policy or model file."""
    try:
        if name == "model":
            oracle.check_config(ForestModel, doc)
        else:
            oracle.check_fields(PolicyDocument.SPEC, doc)
    except SchemaError:
        return True
    return False


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
    name, data, refused = mutated
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
        if refused:  # a value outside the table never reaches a run
            assert code == 2, err
        if code and command == "verify-chain":  # its verdict is its output
            assert out.startswith("corrupt: ") and err == ""
        elif code:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert not (tmp / "out").exists()
