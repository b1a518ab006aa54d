"""The run config's field table (``SPEC``) against the hand-written checks
it replaced, each config it sees run through the CLI, and the README's
schema tables against every spec."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from test_runner_cli import MISTYPED_CONFIGS
from test_simnet import NETWORK_BOUNDS_CASES

from policyledger.cli import main
from policyledger.cti import ForestModel, ThreatReport
from policyledger.errors import InputError
from policyledger.ledger import import_chain, verify_chain
from policyledger.policy import PolicyDocument
from policyledger.runner import RunConfig, fixture_path
from policyledger.simnet import AnalystTeam, NetworkModel

# -- the oracle ----------------------------------------------------------------
# RunConfig.__post_init__, NetworkModel.__post_init__, AnalystTeam.default's
# role-map check and Analyst.__post_init__ as they were written out by hand
# before one field table replaced them, applied to a config dict, with the
# upper bounds on endpoints and validators added since.

_MAX_LATENCY_MS, _MAX_SIGMA_LOG, _MAX_MULTIPLIER = 10**10, 5, 1000
_MAX_ENDPOINTS, _MAX_VALIDATORS = 10**5, 100
_ROLE_SPEED = {"lead": 0.9, "senior": 1.0, "junior": 1.3}
_ROLE_ERROR = {"lead": 0.8, "senior": 1.0, "junior": 1.4}
_RUN_DEFAULTS = {"seed": 42, "endpoints": 60, "scenario": "smbv1", "mode": "both", "network": {},
                 "team": {}, "policies": [], "feeds": [], "model": None, "infected_count": 10,
                 "validators": 3}
_NETWORK_DEFAULTS = {
    "auto_base_ms": 194_000, "auto_base_by_kind": {"set_rdp_port": 321_000}, "auto_jitter_ms": 500,
    "auto_failure_prob": 0.02, "human_median_ms": 1_680_000,
    "human_median_ms_by_kind": {"set_rdp_port": 2_280_000}, "human_sigma_log": 0.35,
    "human_error_prob": 0.15, "human_error_prob_by_kind": {"set_rdp_port": 0.20},
}


class _Refused(Exception):
    pass


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _oracle_prob(p):
    if not (_is_number(p) and 0.0 <= p <= 1.0):
        raise _Refused


def _oracle_ms(value, jitter=0):
    if not (_is_number(value) and -math.inf < value < math.inf
            and jitter < int(value) <= _MAX_LATENCY_MS):
        raise _Refused


def _oracle_network(net):
    # ``NetworkModel(**net)`` raised TypeError on a non-map or an unknown key.
    if not isinstance(net, dict) or set(net) - set(_NETWORK_DEFAULTS):
        raise _Refused
    n = {**_NETWORK_DEFAULTS, **net}
    for name in ("auto_base_by_kind", "human_median_ms_by_kind", "human_error_prob_by_kind"):
        by_kind = n[name]
        if not isinstance(by_kind, dict) or not all(
            isinstance(k, str) and _is_number(v) for k, v in by_kind.items()
        ):
            raise _Refused
    _oracle_prob(n["auto_failure_prob"])
    _oracle_prob(n["human_error_prob"])
    for p in n["human_error_prob_by_kind"].values():
        _oracle_prob(p)
    jitter = n["auto_jitter_ms"]
    if type(jitter) is not int or jitter < 0:
        raise _Refused
    _oracle_ms(n["auto_base_ms"], jitter)
    for base in n["auto_base_by_kind"].values():
        _oracle_ms(base, jitter)
    _oracle_ms(n["human_median_ms"])
    for median in n["human_median_ms_by_kind"].values():
        _oracle_ms(median)
    sigma = n["human_sigma_log"]
    if not (_is_number(sigma) and 0 <= sigma <= _MAX_SIGMA_LOG):
        raise _Refused


def _oracle_team(team):
    # ``AnalystTeam.default(**team)`` raised TypeError on a non-map or an unknown key.
    if not isinstance(team, dict) or set(team) - {"role_speed", "role_error"}:
        raise _Refused
    for given in (team.get("role_speed"), team.get("role_error")):
        if given is not None and not (isinstance(given, dict) and all(
            role in _ROLE_SPEED and _is_number(v) for role, v in given.items()
        )):
            raise _Refused
    speed = {**_ROLE_SPEED, **(team.get("role_speed") or {})}
    error = {**_ROLE_ERROR, **(team.get("role_error") or {})}
    for role in _ROLE_SPEED:  # the default roster has every role
        if not (0 < speed[role] <= _MAX_MULTIPLIER and 0 < error[role] <= _MAX_MULTIPLIER):
            raise _Refused


def _oracle_accepts(config: dict) -> bool:
    try:
        if set(config) - set(_RUN_DEFAULTS):
            raise _Refused
        c = {**_RUN_DEFAULTS, **config}
        if c["scenario"] not in ("smbv1", "rdp", "ransomware", "custom"):
            raise _Refused
        if c["mode"] not in ("automated", "human", "both"):
            raise _Refused
        for name in ("seed", "endpoints", "infected_count", "validators"):
            if not isinstance(c[name], int) or isinstance(c[name], bool):
                raise _Refused
        if c["endpoints"] < 1 or c["validators"] < 1 or c["infected_count"] < 0:
            raise _Refused
        if c["endpoints"] > _MAX_ENDPOINTS or c["validators"] > _MAX_VALIDATORS:
            raise _Refused
        for name in ("policies", "feeds"):
            paths = c[name]
            if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
                raise _Refused
        if c["model"] is not None and not isinstance(c["model"], str):
            raise _Refused
        _oracle_network(c["network"])
        _oracle_team(c["team"])
    except _Refused:
        return False
    return True


# -- strategies, drawn from the specs --------------------------------------------

#: Caps on in-range draws, so that each accepted config runs in milliseconds.
_CAPS = {"endpoints": 10, "validators": 4}
_VALID_PATHS = {
    "policies": [str(fixture_path("policies", "smbv1.json"))],
    "feeds": [str(fixture_path("feeds", "smbv1_advisory.json"))],
    "model": str(fixture_path("model.json")),
}
_MISTYPED = [None, True, False, "x", "", [], {}, [1], {"x": 1}, math.nan, math.inf, -math.inf, 10**400]


def _near(*bounds) -> list:
    """Numbers at, just inside and just outside each finite bound."""
    return [v for b in dict.fromkeys(bounds) if math.isfinite(b)
            for v in (b - 1, b - 0.5, b, b + 0.5, b + 1, float(b),
                      math.nextafter(b, -math.inf), math.nextafter(b, math.inf))]


def _bounds(spec):
    # A bound another field sets is drawn near that field's default.
    low = _NETWORK_DEFAULTS[spec.low] if isinstance(spec.low, str) else spec.low
    return low, spec.high


def _edges(name, spec, specs) -> list:
    """One field's boundary, out-of-range and mistyped values."""
    kind, (low, high) = spec.type, _bounds(spec)
    if kind in ("int", "number", "ms"):
        # An integer past a cap is in range, and would build a huge fleet or validator set.
        return [v for v in _near(low, high, 0) + _MISTYPED
                if type(v) is not int or v <= _CAPS.get(name, math.inf)]
    if kind == "roles":
        return [None, *_MISTYPED, *({role: v} for role in [*spec.of, "intern"]
                                    for v in _near(low, high) + _MISTYPED)]
    if kind == "by_kind":
        return [{}, *_MISTYPED, *({"set_rdp_port": v} for v in _edges(spec.of, specs[spec.of], specs))]
    if kind == "str":
        return [*spec.of, "nope", *_MISTYPED]
    if kind == "config":
        return [{}, {"warp_factor": 9}, *_MISTYPED]
    valid = [[], _VALID_PATHS[name]] if kind == "list" else [None, "", _VALID_PATHS[name]]
    # A path string that names no file is a missing input (exit 3), not a type error.
    return valid + [[None]] + [v for v in _MISTYPED if not isinstance(v, str)]


def _values(name, spec, specs):
    """One field's edges, and in-range values drawn at random."""
    kind, (low, high), edges = spec.type, _bounds(spec), st.sampled_from(_edges(name, spec, specs))
    if kind in ("int", "number", "ms"):
        top = min(high, _CAPS.get(name, math.inf))
        return edges | (st.integers(max(low, -2**70), min(top, 2**70)) if kind == "int" else
                        st.floats(max(low, -1e300), min(top, 1e300)))
    if kind == "roles":
        return edges | st.dictionaries(st.sampled_from(spec.of), st.floats(0, high), min_size=1)
    if kind == "by_kind":
        return edges | st.dictionaries(st.sampled_from(["set_rdp_port", "disable_smbv1", "block_port"]),
                                       _values(spec.of, specs[spec.of], specs), min_size=1, max_size=2)
    return edges


#: Every field of the specs: its path in a config, its edges and its value strategy.
_FIELDS = {}
for _name, _spec in RunConfig.SPEC.items():
    _FIELDS[(_name,)] = (_edges(_name, _spec, RunConfig.SPEC), _values(_name, _spec, RunConfig.SPEC))
    if _spec.type == "config":
        for _sub, _subspec in _spec.of.SPEC.items():
            _FIELDS[(_name, _sub)] = (_edges(_sub, _subspec, _spec.of.SPEC),
                                      _values(_sub, _subspec, _spec.of.SPEC))


def _with(config: dict, path: tuple, value) -> dict:
    """``config`` with ``value`` at ``path``, copying the map it changes:
    a drawn map may be a strategy's own constant."""
    if len(path) == 1:
        return {**config, path[0]: value}
    section = config.get(path[0])
    return {**config, path[0]: {**(section if isinstance(section, dict) else {}), path[1]: value}}


@st.composite
def _configs(draw):
    """A small config with one field, or a pair of fields, drawn."""
    config = {"endpoints": draw(st.integers(1, _CAPS["endpoints"]))}
    for path in draw(st.lists(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=2, unique=True)):
        config = _with(config, path, draw(_FIELDS[path][1]))
    return config


def _examples(configs):
    def wrap(test):
        for config in configs:
            test = example(config=config)(test)
        return test
    return wrap


def _loads(config: dict) -> bool:
    try:
        RunConfig.from_dict(config)
    except InputError:
        return False
    return True


@pytest.mark.parametrize("path", sorted(_FIELDS), ids=".".join)
def test_the_field_table_refuses_each_edge_the_hand_written_checks_refused(path):
    for value in _FIELDS[path][0]:
        config = _with({}, path, value)
        assert _loads(config) == _oracle_accepts(config), config


@settings(max_examples=150, deadline=None)
@given(config=_configs())
@_examples([*MISTYPED_CONFIGS, *({"network": bad} for bad in NETWORK_BOUNDS_CASES)])
def test_a_drawn_config_loads_as_the_hand_written_checks_decided_and_runs_or_exits_two(config):
    accepted = _loads(config)
    assert accepted == _oracle_accepts(config)
    # Run through the CLI: a refusal at load, or a clean run and a chain that verifies.
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "o"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(path), "--out", str(out)])
        if accepted and not (config.get("scenario") == "custom" and not config.get("policies")):
            assert code == 0, err.getvalue()
            assert verify_chain(import_chain(out / "chain.ndjson"))
        else:  # refused by the table, or a custom scenario with no policy to deploy
            assert code == 2 and err.getvalue().startswith("error: ")
            assert not out.exists()


@pytest.mark.parametrize("name, bound", [("endpoints", _MAX_ENDPOINTS), ("validators", _MAX_VALIDATORS)])
def test_endpoints_and_validators_above_their_bound_are_refused_at_load(tmp_path, capsys, name, bound):
    # Loaded only: a run at the bound would provision it.
    for value in (bound - 1, bound, bound + 1, 10**400):
        assert _loads({name: value}) == _oracle_accepts({name: value}) == (value <= bound), value
    for value in (bound + 1, 10**400):
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps({name: value}))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: $.{name}: must be an integer in [1, {bound}]")
        assert not out.exists()


def _spec_rows(spec: dict, prefix: str = ""):
    """(path, FieldSpec) of every field of ``spec`` and of the specs below it."""
    for name, field in spec.items():
        yield prefix + name, field
        item, below = (field.of, f"{prefix}{name}[].") if field.type == "list" else (field, f"{prefix}{name}.")
        if item.type == "config":
            yield from _spec_rows(item.of.SPEC, below)
        elif item.type == "object":
            yield from _spec_rows(item.of, below)
        elif item.type == "params":
            for params in item.of.values():
                yield from _spec_rows(params, below)


_README_TABLES = [
    ("Scenario config schema", RunConfig.SPEC),
    ("Policy document schema", PolicyDocument.SPEC),
    ("Feed item schema", ThreatReport.SPEC),
    ("Model file schema", ForestModel.SPEC),
]


def test_the_readme_schema_table_lists_every_spec_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for heading, spec in _README_TABLES:
        section = re.split(r"\n##+ ", readme.split(f"### {heading}\n")[1])[0]
        for path, field in _spec_rows(spec):
            row = re.search(rf"^\| `{re.escape(path)}` \| {field.type} \|.*$", section, re.M)
            assert row, path
            assert row.group().rstrip(" |").endswith(field.unit), path
