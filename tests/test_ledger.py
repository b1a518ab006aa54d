"""Ledger unit tests: validation, consensus, tamper evidence, replay."""

import collections
import dataclasses
import hashlib
import itertools
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import field_oracle
from conftest import make_tx, perfbench_feed, run_configs
from policyledger import ledger as ledger_module
from policyledger.canonical import (
    canonical_json,
    decode_json,
    digest_bytes,
    digest_value,
    object_splicer,
    substream,
)
from policyledger.errors import (
    ConsensusFailure,
    CorruptChainError,
    InputError,
    MalformedTransaction,
)
from policyledger.ledger import (
    CHAIN_FORMAT,
    ChainVerdict,
    CorruptBlock,
    AUTHORIZATION,
    Ledger,
    LedgerBlock,
    TransactionRecord,
    TxKind,
    TxMetadata,
    ZERO_DIGEST,
    compute_block_hash,
    export_chain,
    import_chain,
    query_history,
    replay_state,
    verify_chain,
)
from policyledger.metrics import samples_from_chain


def fresh_ledger(validators=3):
    return Ledger(validators=validators, config_digest="test")


def committed_chain(n_blocks=5, txs_per_block=2):
    """A clean chain of decision blocks built through the public API."""
    ledger = fresh_ledger()
    t = 0
    for b in range(n_blocks):
        for i in range(txs_per_block):
            t += 10
            tx = make_tx(
                ledger,
                body={
                    "plan_id": f"plan-{b}-{i}",
                    "planned": [],
                    "target_endpoints": [],
                },
                timestamp=t,
            )
            assert ledger.submit_transaction(tx)
        ledger.commit_block(t)
    return ledger


# The dict encodings of records, blocks and block-hash preimages: the
# oracle that the ledger's splices must equal byte for byte.


def _record_dict(tx):
    return {
        "tx_id": tx.tx_id,
        "timestamp": tx.timestamp,
        "kind": tx.kind.value,
        "actor": tx.actor,
        "payload": tx.payload,
        "payload_digest": tx.payload_digest,
        "metadata": tx.metadata.to_dict(),
    }


def _block_dict(block):
    out = {
        "index": block.index,
        "prev_hash": block.prev_hash,
        "block_hash": block.block_hash,
        "timestamp": block.timestamp,
        "transactions": [_record_dict(tx) for tx in block.transactions],
        "validator_votes": dict(sorted(block.validator_votes.items())),
    }
    if block.meta is not None:
        out["meta"] = block.meta
    return out


def _preimage_dict(index, prev_hash, timestamp, tx_digests, meta=None):
    out = {"index": index, "prev_hash": prev_hash, "timestamp": timestamp, "tx_digests": tx_digests}
    if meta is not None:
        out["meta"] = meta
    return out


# -- canonical helpers -------------------------------------------------------


def test_canonical_json_sorts_keys_and_is_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(), st.sampled_from(["é ✓ 漢字 🔒", "\x00\x1f\x7f", '"\\'])),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=20,
)


_SPLICE_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('{}"\'\\\x00\x1f\x7f\u2028é漢🔒')),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(items=st.dictionaries(
    _SPLICE_TEXT,
    st.one_of(st.integers(-(10**30), 10**30), _SPLICE_TEXT, _JSON_VALUES),
    max_size=7,
), data=st.data())
def test_object_splicer_places_members_at_their_sorted_keys(items, data):
    # Members are canonical JSON, except ints, which go in as they are.
    keys = list(items)
    members = [v if type(v) is int else canonical_json(v) for v in items.values()]
    expected = canonical_json(items)
    assert object_splicer(*keys)(*members) == expected
    if keys:
        i = data.draw(st.integers(0, len(keys) - 1))
        head, tail = object_splicer(*keys, cut=keys[i])(*members[:i], *members[i + 1:])
        assert head + canonical_json(items[keys[i]]) + tail == expected


def test_canonical_json_of_a_cyclic_value_raises_recursion_error():
    looped_list: list = [1]
    looped_list.append(looped_list)
    looped_dict: dict = {"a": [1]}
    looped_dict["a"].append(looped_dict)
    for value in (looped_list, looped_dict):
        with pytest.raises(RecursionError):
            canonical_json(value)
    assert canonical_json({"a": [1]}) == '{"a":[1]}'


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
def test_canonical_json_is_json_dumps_with_the_canonical_settings(value):
    def dumps(v):
        return json.dumps(v, sort_keys=True, separators=(",", ":"), ensure_ascii=False)

    assert canonical_json(value) == dumps(value)
    # A failed encode must not leave the encoder thinking the containers it
    # was inside are still open.
    outer = [value, {"inner": [object()]}]
    with pytest.raises(TypeError):
        canonical_json(outer)
    outer[1]["inner"].pop()
    assert canonical_json(outer) == dumps(outer)


def _outcome(decode, text):
    """What ``decode(text)`` gives: its value's type and repr (which tell
    1, true and 1.0 apart, and match for NaN), or its error's type and
    message."""
    try:
        value = decode(text)
    except Exception as exc:
        return "error", type(exc), str(exc)
    return "value", type(value), repr(value)


def _json_text(value, ensure_ascii, spaced):
    return json.dumps(value, ensure_ascii=ensure_ascii, allow_nan=True,
                      separators=(", ", ": ") if spaced else (",", ":"))


def _spliced(value, cut, edge):
    text = _json_text(value, False, False)
    cut %= len(text) + 1
    return text[:cut] + edge + text[cut:]


_EDGES = ["", " ", "\n", "\r\n", "\n\n", " \n", "\t", "\ufeff", "x", "]", "}", " 1", ",",
          '"', "\\", "\\x", '"\\u12"', '"\\ud800"', "\x00", "NaN", "-", "1e", "[", "{"]
_DECODER_INPUTS = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('{}[]",:0123456789.eE+-\\ntrufalsNI \t\r\n')),
    st.builds(
        lambda before, value, ensure_ascii, spaced, after: (
            before + _json_text(value, ensure_ascii, spaced) + after
        ),
        st.sampled_from(_EDGES), _JSON_VALUES, st.booleans(), st.booleans(),
        st.sampled_from(_EDGES),
    ),
    # A bad escape, or any other edge, inside otherwise valid text.
    st.builds(_spliced, _JSON_VALUES, st.integers(0, 200), st.sampled_from(_EDGES)),
)
_NOT_STR = st.one_of(
    _DECODER_INPUTS.map(lambda text: text.encode("utf-8", "surrogatepass")),
    _DECODER_INPUTS.map(lambda text: bytearray(text.encode("utf-16", "surrogatepass"))),
    st.none(), st.integers(), st.floats(), st.lists(st.integers(), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_DECODER_INPUTS, _NOT_STR))
def test_decode_json_is_json_loads(text):
    assert _outcome(decode_json, text) == _outcome(json.loads, text)


@pytest.mark.parametrize("text", [
    '{"a": [1, 2.5, true, null, "\\u00e9"]}', "7\n", "7\r\n", " 7", "7 ", "\ufeff7", "7\n\n",
    "7 8", '"\\q"', "", "\n", "[1,]", "1" * 5000, "[" * 100_000, b'{"a": 1}\n', 7, None,
])
def test_decode_json_edges_are_json_loads(text):
    assert _outcome(decode_json, text) == _outcome(json.loads, text)


def test_digest_is_sha256_hex():
    d = digest_value({"x": 1})
    assert len(d) == 64 and int(d, 16) >= 0


def test_substreams_are_label_independent():
    a1 = [substream(42, "ep", i).random() for i in range(5)]
    a2 = [substream(42, "ep", i).random() for i in range(8)][:5]
    assert a1 == a2  # adding consumers never perturbs existing streams


_LABEL = st.one_of(st.text(max_size=12), st.integers(), st.sampled_from(["auto", "human", None]))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-(2**70), 2**70), labels=st.lists(_LABEL, max_size=5))
def test_substream_state_is_random_seeded_from_the_key_digest(seed, labels):
    key = "/".join(str(x) for x in [seed, *labels]).encode("utf-8")
    expected = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
    stream = substream(seed, *labels)
    assert stream.getstate() == expected.getstate()
    # gauss keeps its second draw in gauss_next, which the state includes.
    assert [stream.gauss(0, 1) for _ in range(3)] == [expected.gauss(0, 1) for _ in range(3)]
    assert stream.getstate() == expected.getstate()


# -- submit_transaction ------------------------------------------------------


def test_submit_accepts_clean_decision_on_empty_state():
    ledger = fresh_ledger()
    verdict = ledger.submit_transaction(make_tx(ledger))
    assert verdict.accepted


def test_submit_rejects_mutated_payload_as_malformed():
    ledger = fresh_ledger()
    tx = make_tx(ledger)
    tampered = TransactionRecord(
        tx_id=tx.tx_id,
        timestamp=tx.timestamp,
        kind=tx.kind,
        actor=tx.actor,
        payload=tx.payload + " ",
        payload_digest=tx.payload_digest,
        metadata=tx.metadata,
    )
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(tampered)


@pytest.mark.parametrize("actor", sorted(AUTHORIZATION))
@pytest.mark.parametrize("kind", list(TxKind))
def test_authorization_table_is_enforced_exactly(actor, kind):
    # Oracle: direct lookup in the authorization table fixture.
    expected = kind in AUTHORIZATION[actor]
    ledger = fresh_ledger()
    body = {"policy_id": "p", "rules": []} if kind in (
        TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE
    ) else {"planned": [], "target_endpoints": []}
    verdict = ledger.submit_transaction(make_tx(ledger, kind=kind, actor=actor, body=body))
    assert verdict.accepted is expected
    if not expected:
        assert verdict.reason == "authorization"


def test_cti_engine_cannot_update_policy():
    ledger = fresh_ledger()
    tx = make_tx(ledger, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
                 body={"policy_id": "p", "rules": []})
    verdict = ledger.submit_transaction(tx)
    assert not verdict and verdict.reason == "authorization"


def test_decision_conflicting_with_active_policy_is_rejected():
    ledger = fresh_ledger()
    deploy = make_tx(
        ledger,
        kind=TxKind.POLICY_DEPLOY,
        actor="policy-admin",
        body={
            "policy_id": "rdp-port",
            "rules": [
                {
                    "rule_id": "r1",
                    "condition": [
                        {"attribute": "rdp_port", "comparator": "equals", "value": 33089}
                    ],
                }
            ],
        },
    )
    assert ledger.submit_transaction(deploy)
    ledger.commit_block(1)
    bad = make_tx(
        ledger,
        body={
            "planned": [
                {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": 3389}}
            ],
            "target_endpoints": ["ep-000"],
        },
    )
    verdict = ledger.submit_transaction(bad)
    assert not verdict and verdict.reason == "policy_conflict"


def _policy_tx(ledger, kind, port):
    return make_tx(
        ledger,
        kind=kind,
        actor="policy-admin",
        body={
            "policy_id": "rdp-port",
            "rules": [
                {
                    "rule_id": "r1",
                    "condition": [
                        {"attribute": "rdp_port", "comparator": "equals", "value": port}
                    ],
                }
            ],
        },
    )


def _port_decision(ledger, port):
    return make_tx(
        ledger,
        body={
            "planned": [
                {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": port}}
            ],
            "target_endpoints": ["ep-000"],
        },
    )


def test_decision_is_checked_against_the_updated_policy():
    ledger = fresh_ledger()
    assert ledger.submit_transaction(_policy_tx(ledger, TxKind.POLICY_DEPLOY, 33089))
    ledger.commit_block(1)
    assert ledger.submit_transaction(_policy_tx(ledger, TxKind.POLICY_UPDATE, 40000))
    ledger.commit_block(2)
    stale = ledger.submit_transaction(_port_decision(ledger, 33089))
    assert not stale and stale.reason == "policy_conflict"
    assert ledger.submit_transaction(_port_decision(ledger, 40000))


def _require(ledger, attribute, value):
    """Commit a policy whose one rule requires ``attribute`` equals ``value``."""
    condition = {"attribute": attribute, "comparator": "equals", "value": value}
    body = {"policy_id": "p", "rules": [{"rule_id": "r1", "condition": [condition]}]}
    assert ledger.submit_transaction(
        make_tx(ledger, kind=TxKind.POLICY_DEPLOY, actor="policy-admin", body=body)
    )
    ledger.commit_block(1)


def _plan(ledger, kind, params):
    planned = [{"endpoint_id": "ep-000", "kind": kind, "params": params}]
    return make_tx(ledger, body={"planned": planned, "target_endpoints": ["ep-000"]})


def test_outbound_deny_all_firewall_plan_conflicts_with_an_open_proxy_policy():
    ledger = fresh_ledger()
    _require(ledger, "proxy_outbound_blocked", False)
    deny_all = {"direction": "outbound", "target": "*", "verdict": "deny"}
    verdict = ledger.submit_transaction(_plan(ledger, "update_firewall_rule", deny_all))
    assert not verdict and verdict.reason == "policy_conflict"
    allow = {"direction": "outbound", "target": "*", "verdict": "allow"}
    assert ledger.submit_transaction(_plan(ledger, "update_firewall_rule", allow))


def test_patch_plan_to_another_level_conflicts_with_the_required_level():
    ledger = fresh_ledger()
    _require(ledger, "patch_level", 2)
    verdict = ledger.submit_transaction(_plan(ledger, "apply_patch", {"level": 1}))
    assert not verdict and verdict.reason == "policy_conflict"
    assert ledger.submit_transaction(_plan(ledger, "apply_patch", {"level": 2}))


def test_conflicting_pending_transactions_are_rejected():
    ledger = fresh_ledger()
    first = make_tx(
        ledger,
        body={
            "planned": [
                {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": 33089}}
            ],
        },
    )
    assert ledger.submit_transaction(first)
    second = make_tx(
        ledger,
        body={
            "planned": [
                {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": 4000}}
            ],
        },
    )
    verdict = ledger.submit_transaction(second)
    assert not verdict and verdict.reason == "pending_conflict"


@pytest.mark.parametrize(
    "body",
    [
        {"planned": [{"kind": "disable_smbv1", "params": {}}]},
        {"planned": [{"endpoint_id": "ep-1", "kind": "set_rdp_port", "params": {}}]},
        {"planned": "oops"},
    ],
    ids=["no endpoint_id", "no port", "planned not a list"],
)
def test_a_malformed_decision_body_is_a_malformed_transaction(body):
    ledger = fresh_ledger()
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(make_tx(ledger, body=body))
    # The same record slipped past submission fails the block vote.
    ledger.pending.append(make_tx(ledger, body=body))
    with pytest.raises(ConsensusFailure, match="reject:malformed"):
        ledger.commit_block(1)
    assert len(ledger.chain()) == 1
    # A decision submitted behind it reads its plan through the same table.
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(make_tx(ledger, body={"planned": []}))


def test_a_decision_body_nested_too_deep_to_decode_is_a_malformed_transaction():
    ledger = fresh_ledger()
    deep = "[" * 200_000 + "]" * 200_000
    tx = dataclasses.replace(make_tx(ledger), payload=deep, payload_digest=digest_bytes(deep.encode("utf-8")))
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(tx)
    ledger.pending.append(tx)
    with pytest.raises(ConsensusFailure, match="reject:malformed"):
        ledger.commit_block(1)
    assert len(ledger.chain()) == 1


@pytest.mark.parametrize("policy_id", [None, ["p"], 5, "absent"])
def test_a_policy_body_without_a_string_id_is_a_malformed_transaction(policy_id):
    # Live state folds a committed policy by its id.
    body = {"rules": []} if policy_id == "absent" else {"policy_id": policy_id, "rules": []}
    ledger = fresh_ledger()
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(
            make_tx(ledger, kind=TxKind.POLICY_DEPLOY, actor="policy-admin", body=body))


@pytest.mark.parametrize("contract_id", [["c"], 5, {"c": 1}])
def test_a_policy_body_naming_a_non_string_contract_is_malformed_and_changes_nothing(contract_id):
    # Live state folds the contract by its id, after the block is appended.
    ledger = fresh_ledger()
    blocks, pending = list(ledger.blocks), list(ledger.pending)
    body = {"policy_id": "p", "contract_id": contract_id, "rules": []}
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(
            make_tx(ledger, kind=TxKind.POLICY_DEPLOY, actor="policy-admin", body=body))
    assert ledger.blocks == blocks and ledger.pending == pending


# -- validation against oracles ------------------------------------------------

_PIDS = ["p1", "p2", "p3"]
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-1, 3),
                          st.sampled_from([22, 3389, 33089, 0.5, "x"]))
_conditions = st.fixed_dictionaries({
    "attribute": st.sampled_from(["smbv1_enabled", "rdp_port", "proxy_outbound_blocked",
                                  "isolated", "patch_level"]),
    "comparator": st.sampled_from(["equals", "equals", "not_equals", "lt"]),
    "value": st.one_of(_json_scalars, st.lists(_json_scalars, max_size=2)),
})
_policy_bodies = st.fixed_dictionaries(
    {"policy_id": st.sampled_from(_PIDS),
     "rules": st.lists(st.fixed_dictionaries({"rule_id": st.just("r"),
                                              "condition": st.lists(_conditions, max_size=3)}),
                       max_size=3)},
    optional={"contract_id": st.just("c")},
)
_plans = st.one_of(
    st.builds(lambda port: ("set_rdp_port", {"port": port}), st.sampled_from([22, 3389, 33089])),
    st.builds(lambda blocked: ("update_proxy_rule", {"blocked": blocked}), st.booleans()),
    st.builds(lambda iso: ("isolate_endpoint", {"isolated": iso}), st.booleans()),
    st.builds(lambda level: ("apply_patch", {"level": level}), st.integers(0, 3)),
    st.just(("apply_patch", {})),
    st.just(("disable_smbv1", {})),
    st.builds(lambda target: ("update_firewall_rule",
                              {"direction": "outbound", "target": target, "verdict": "deny"}),
              st.sampled_from(["*", "10.0.0.0/8"])),
)
_planned_items = st.builds(
    lambda ep, plan: {"endpoint_id": ep, "kind": plan[0], "params": plan[1]},
    st.sampled_from(["ep-000", "ep-001"]), _plans,
)
_decision_bodies = st.fixed_dictionaries(
    {"planned": st.lists(_planned_items, max_size=4)},
    # A decision naming a policy skips that policy's own values, as an update does.
    optional={"policy_id": st.sampled_from(_PIDS)},
)
_records = st.one_of(
    st.tuples(st.just(TxKind.ENFORCEMENT_DECISION), st.just("contract-engine"), _decision_bodies),
    st.tuples(st.sampled_from([TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE]),
              st.just("policy-admin"), _policy_bodies),
    st.tuples(st.just(TxKind.ENFORCEMENT_DECISION), st.just("human-team"), _decision_bodies),
    st.tuples(st.just(TxKind.POLICY_UPDATE), st.just("contract-engine"), _policy_bodies),
)


def _parsed(tx):
    """``tx`` as the constructor builds it, with no memo filled."""
    return TransactionRecord(tx.tx_id, tx.timestamp, tx.kind, tx.actor, tx.payload,
                             tx.payload_digest, tx.metadata)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.tuples(_records, st.booleans()), max_size=10))
def test_submit_with_the_kept_required_values_equals_validation_from_the_chain(steps):
    # The ledger validates against the policies its live state folded at
    # each commit; the oracle validates against the replayed chain, from
    # records built by the constructor.
    ledger = fresh_ledger()
    for t, ((kind, actor, body), commit) in enumerate(steps, start=1):
        tx = make_tx(ledger, kind=kind, actor=actor, body=body, timestamp=t)
        state = replay_state(ledger.chain())
        expected = ledger_module.validate_transaction(
            _parsed(tx), state, [_parsed(p) for p in ledger.pending]
        )
        assert ledger.submit_transaction(tx) == expected
        if commit and ledger.pending:
            ledger.commit_block(t)


def _oracle_planned_settings(body):
    """A decision's writes: (endpoint, attribute, value) for every item, in
    item order."""
    settings = []
    for item in body.get("planned", []):
        writes = ledger_module.action_writes(item.get("kind"), item.get("params", {}))
        endpoint = item["endpoint_id"]
        for attr, value in writes.items():
            settings.append((endpoint, attr, value))
    return settings


def _oracle_validate(tx, state, pending, authorization):
    """``validate_transaction``, written out step by step, with the body's
    table interpreted (``field_oracle``). A malformed body raises whatever
    it raises."""
    if not tx.payload_intact():
        raise MalformedTransaction(f"tx {tx.tx_id}: payload digest mismatch")
    kind = tx.kind
    if kind not in authorization.get(tx.actor, frozenset()):
        return ledger_module.TxVerdict(False, "authorization")
    if kind not in ledger_module._BODY_CHECKED:
        return ledger_module.ACCEPT
    body = tx.body()
    field_oracle.check_fields(ledger_module.BODY_SPECS[kind], body, "body", ledger_module._wire_error)
    skip = body.get("policy_id")
    required = ledger_module._active_required_values(state, skip_policy=skip)
    if kind in (TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE):
        for rule in body.get("rules", []):
            for cond in rule.get("condition", []):
                if cond.get("comparator") != "equals":
                    continue
                prior = required.get(cond["attribute"])
                if prior is not None and prior[0] != cond["value"]:
                    return ledger_module.TxVerdict(False, "policy_conflict")
    elif kind == TxKind.ENFORCEMENT_DECISION:
        planned = _oracle_planned_settings(body)
        for endpoint, attr, value in planned:
            prior = required.get(attr)
            if prior is not None and prior[0] != value:
                return ledger_module.TxVerdict(False, "policy_conflict")
        mine = {(ep, attr): val for ep, attr, val in planned}
        for other in pending:
            if other.kind != TxKind.ENFORCEMENT_DECISION:
                continue
            for ep, attr, val in _oracle_planned_settings(other.body()):
                if (ep, attr) in mine and mine[(ep, attr)] != val:
                    return ledger_module.TxVerdict(False, "pending_conflict")
    return ledger_module.ACCEPT


@st.composite
def _oracle_decision_bodies(draw, breakable=False):
    """A decision body of 1-6 actions on three endpoints. An item of an
    action shares its params object, as the engine's items do, or holds an
    equal copy. With ``breakable``, one item may be made malformed."""
    actions = draw(st.lists(_plans, min_size=1, max_size=6))
    uses = list(range(len(actions))) + draw(
        st.lists(st.integers(0, len(actions) - 1), max_size=8))
    planned = []
    for i in uses:
        kind, params = actions[i]
        planned.append({
            "endpoint_id": draw(st.sampled_from(["ep-000", "ep-001", "ep-002"])),
            "kind": kind,
            "params": params if draw(st.booleans()) else dict(params),
            "rule_id": "r",
        })
    body = {"planned": draw(st.permutations(planned))}
    if breakable and draw(st.booleans()):
        at = draw(st.integers(0, len(body["planned"]) - 1))
        how = draw(st.sampled_from(["endpoint", "params", "null params", "item", "planned"]))
        item = body["planned"][at] = dict(body["planned"][at])
        if how == "endpoint":
            del item["endpoint_id"]
        elif how == "params":
            item["params"] = {}
        elif how == "null params":
            item["params"] = None
        elif how == "item":
            body["planned"][at] = "oops"
        elif how == "planned":
            body["planned"] = "oops"
    return body


def _verdict_or_malformed(validate, *args):
    try:
        return validate(*args)
    except (MalformedTransaction, AttributeError, KeyError, TypeError, ValueError):
        return "malformed"


@settings(max_examples=200, deadline=None)
@given(committed=st.lists(_policy_bodies, max_size=3),
       pending=st.lists(_oracle_decision_bodies(), max_size=3),
       body=_oracle_decision_bodies(breakable=True), actor=st.sampled_from(["contract-engine",
                                                                            "human-team"]))
def test_validate_transaction_gives_the_oracles_verdict(committed, pending, body, actor):
    ledger = fresh_ledger()
    state = ledger_module.WorldState()
    for policy in committed:
        tx = make_tx(ledger, kind=TxKind.POLICY_DEPLOY, actor="policy-admin", body=policy)
        ledger_module._apply_tx_to_state(state, _parsed(tx))
    kept = [make_tx(ledger, body=other) for other in pending]
    tx = make_tx(ledger, actor=actor, body=body)
    expected = _verdict_or_malformed(_oracle_validate, tx, state, kept, AUTHORIZATION)
    for record, others in ((tx, kept), (_parsed(tx), [_parsed(other) for other in kept])):
        try:
            verdict = ledger_module.validate_transaction(record, state, others)
        except MalformedTransaction:
            verdict = "malformed"
        assert verdict == expected


# -- commit_block ------------------------------------------------------------


def test_first_block_links_to_genesis():
    ledger = fresh_ledger()
    ledger.submit_transaction(make_tx(ledger))
    block = ledger.commit_block(5)
    genesis = ledger.blocks[0]
    assert block.index == 1
    assert block.prev_hash == genesis.block_hash
    assert genesis.prev_hash == ZERO_DIGEST
    assert genesis.meta["format"] == CHAIN_FORMAT
    assert genesis.meta["hash_function"] == "sha-256"


def test_same_pending_list_twice_yields_different_hashes():
    ledger = fresh_ledger()
    body = {"plan_id": "same", "planned": [], "target_endpoints": []}
    ledger.submit_transaction(make_tx(ledger, body=body))
    b1 = ledger.commit_block(5)
    ledger.submit_transaction(make_tx(ledger, body=body))
    b2 = ledger.commit_block(5)
    assert b1.block_hash != b2.block_hash  # index is hashed


def test_commit_requires_pending():
    with pytest.raises(InputError):
        fresh_ledger().commit_block(1)


def test_all_validators_vote_accept_on_committed_blocks():
    ledger = committed_chain()
    for block in ledger.blocks:
        assert set(block.validator_votes) == set(ledger.validator_ids)
        assert all(v == "accept" for v in block.validator_votes.values())


def test_consensus_failure_on_unvalidated_pending():
    # Bypassing submit-side validation makes the replicas reject.
    ledger = fresh_ledger()
    rogue = make_tx(ledger, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
                    body={"policy_id": "p", "rules": []})
    ledger.pending.append(rogue)
    with pytest.raises(ConsensusFailure):
        ledger.commit_block(1)


def test_duplicate_tx_id_is_refused():
    ledger = fresh_ledger()
    tx = make_tx(ledger)
    assert ledger.submit_transaction(tx)
    with pytest.raises(InputError):
        ledger.submit_transaction(tx)


def test_tx_id_is_refused_while_pending_and_after_commit():
    ledger = fresh_ledger()
    tx = make_tx(ledger)
    assert ledger.submit_transaction(tx)
    with pytest.raises(InputError):
        ledger.submit_transaction(tx)
    ledger.commit_block(1)
    with pytest.raises(InputError):
        ledger.submit_transaction(tx)
    fresh = make_tx(ledger, timestamp=2)
    assert ledger.submit_transaction(fresh)
    assert ledger.pending == [fresh]


def test_consensus_failure_leaves_pending_intact():
    ledger = fresh_ledger()
    clean = make_tx(ledger)
    assert ledger.submit_transaction(clean)
    rogue = make_tx(ledger, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
                    body={"policy_id": "p", "rules": []})
    ledger.pending.append(rogue)
    with pytest.raises(ConsensusFailure):
        ledger.commit_block(1)
    assert ledger.pending == [clean, rogue]
    assert len(ledger.blocks) == 1
    with pytest.raises(InputError):
        ledger.submit_transaction(clean)


def test_a_created_record_is_hashed_once_per_digest(monkeypatch):
    from policyledger import canonical

    ledger = fresh_ledger()
    digests = []
    real = canonical.digest_bytes

    def counting(data):
        digests.append(real(data))
        return digests[-1]

    monkeypatch.setattr(canonical, "digest_bytes", counting)
    monkeypatch.setattr(ledger_module, "digest_bytes", counting)
    tx = make_tx(ledger)
    assert ledger.submit_transaction(tx)
    block = ledger.commit_block(1)
    # Payload at create, envelope at commit, then the block hash: the
    # submit check reuses the payload digest create just computed.
    assert digests == [tx.payload_digest, tx.record_digest(), block.block_hash]


def test_commit_does_not_revalidate_admitted_records(monkeypatch):
    # submit_transaction already validated each record against the same
    # committed state and pending prefix; the vote need not repeat it.
    ledger = fresh_ledger()
    bodies = [
        (TxKind.ENFORCEMENT_DECISION, None),
        (TxKind.COMPLIANCE_CHECK,
         {"endpoint_id": "ep-000", "rule_id": "r", "verdict": "compliant", "checked_at": 1}),
        (TxKind.ENFORCEMENT_RESULT,
         {"endpoint_id": "ep-000", "outcome": "success", "duration_ms": 5, "applied": {}}),
    ]
    for kind, body in bodies:
        assert ledger.submit_transaction(make_tx(ledger, kind=kind, body=body))
    calls = []
    real = ledger_module.validate_transaction

    def counting(*args):
        calls.append(args[0].tx_id)
        return real(*args)

    monkeypatch.setattr(ledger_module, "validate_transaction", counting)
    block = ledger.commit_block(1)
    assert calls == []
    assert block.validator_votes == {vid: "accept" for vid in ledger.validator_ids}


def _port_plan(port):
    return {"planned": [
        {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": port}}
    ]}


def test_records_behind_a_bypassing_record_are_revalidated():
    # The admitted record never saw the rogue one ahead of it at submit.
    ledger = fresh_ledger()
    assert ledger.submit_transaction(make_tx(ledger, body=_port_plan(4000)))
    ledger.pending.insert(0, make_tx(ledger, body=_port_plan(33089)))
    with pytest.raises(ConsensusFailure, match="pending_conflict"):
        ledger.commit_block(1)


def test_record_swapped_in_under_an_admitted_tx_id_is_revalidated():
    ledger = fresh_ledger()
    clean = make_tx(ledger)
    assert ledger.submit_transaction(clean)
    forged = TransactionRecord.create(
        tx_id=clean.tx_id, timestamp=1, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
        body={"policy_id": "p", "rules": []},
    )
    ledger.pending[0] = forged
    with pytest.raises(ConsensusFailure, match="authorization"):
        ledger.commit_block(1)


class _UniterablePending(list):
    def __iter__(self):
        raise AssertionError("submit iterated the whole pending list")


@pytest.mark.parametrize(
    "kind, body",
    [
        (TxKind.COMPLIANCE_CHECK,
         {"endpoint_id": "ep-000", "rule_id": "r", "verdict": "compliant", "checked_at": 1}),
        (TxKind.ENFORCEMENT_RESULT,
         {"endpoint_id": "ep-000", "outcome": "success", "duration_ms": 5, "applied": {}}),
    ],
)
def test_submit_does_not_scan_pending(kind, body):
    # An O(pending) scan per submit makes an N-endpoint audit O(N^2).
    ledger = fresh_ledger()
    for _ in range(3):
        assert ledger.submit_transaction(make_tx(ledger, kind=kind, body=body))
    ledger.pending = _UniterablePending(ledger.pending)
    tx = make_tx(ledger, kind=kind, body=body)
    assert ledger.submit_transaction(tx)
    assert len(ledger.pending) == 4 and ledger.pending[-1] is tx


# -- verify_chain ------------------------------------------------------------


def test_fresh_chain_verifies():
    ledger = committed_chain(5)
    assert verify_chain(ledger.chain()).ok


def _rebuild_with_payload_flip(chain, block_idx, tx_idx=0, bit=3):
    block = chain[block_idx]
    tx = block.transactions[tx_idx]
    raw = bytearray(tx.payload.encode("utf-8"))
    raw[-2] ^= 1 << bit
    flipped = TransactionRecord(
        tx_id=tx.tx_id,
        timestamp=tx.timestamp,
        kind=tx.kind,
        actor=tx.actor,
        payload=raw.decode("utf-8", errors="replace"),
        payload_digest=tx.payload_digest,
        metadata=tx.metadata,
    )
    txs = list(block.transactions)
    txs[tx_idx] = flipped
    mutated = LedgerBlock(
        index=block.index,
        prev_hash=block.prev_hash,
        block_hash=block.block_hash,
        timestamp=block.timestamp,
        transactions=tuple(txs),
        validator_votes=block.validator_votes,
        meta=block.meta,
    )
    out = list(chain)
    out[block_idx] = mutated
    return out


def test_payload_bit_flip_detected_as_digest_failure():
    ledger = committed_chain(5)
    mutated = _rebuild_with_payload_flip(ledger.chain(), 3)
    verdict = verify_chain(mutated)
    assert not verdict.ok
    assert verdict.first_bad_index == 3
    assert verdict.reason == "digest"


def test_forged_block_detected_at_successor_link():
    ledger = committed_chain(5)
    chain = ledger.chain()
    original = chain[2]
    forged_tx = TransactionRecord.create(
        tx_id="tx-forged",
        timestamp=original.timestamp,
        kind=TxKind.ENFORCEMENT_DECISION,
        actor="contract-engine",
        body={"plan_id": "forged", "planned": [], "target_endpoints": []},
    )
    digests = [forged_tx.record_digest()]
    forged = LedgerBlock(
        index=2,
        prev_hash=original.prev_hash,
        block_hash=compute_block_hash(2, original.prev_hash, original.timestamp, digests),
        timestamp=original.timestamp,
        transactions=(forged_tx,),
        validator_votes=dict(original.validator_votes),
    )
    chain[2] = forged
    verdict = verify_chain(chain)
    assert not verdict.ok
    assert verdict.first_bad_index == 3
    assert verdict.reason == "link"


def test_vote_tampering_is_detected():
    ledger = committed_chain(4)
    chain = ledger.chain()
    block = chain[2]
    votes = dict(block.validator_votes)
    votes["validator-1"] = "reject"
    chain[2] = LedgerBlock(
        index=block.index,
        prev_hash=block.prev_hash,
        block_hash=block.block_hash,
        timestamp=block.timestamp,
        transactions=block.transactions,
        validator_votes=votes,
        meta=block.meta,
    )
    verdict = verify_chain(chain)
    assert (verdict.first_bad_index, verdict.reason) == (2, "votes")


@pytest.mark.parametrize("edit", [
    lambda votes: {k: v for k, v in votes.items() if k != "validator-1"},  # a vote missing
    lambda votes: {**votes, "validator-9": "accept"},  # a vote by no validator
    lambda votes: {**votes, "validator-1": ["accept"]},
    lambda votes: {},
], ids=["missing", "extra", "not-a-str", "none"])
def test_a_vote_set_other_than_every_validator_accepting_is_detected(edit):
    chain = committed_chain(4).chain()
    chain[2] = dataclasses.replace(chain[2], validator_votes=edit(chain[2].validator_votes))
    assert verify_chain(chain) == ChainVerdict(False, 2, "votes")


def mutate_export_single_bit(path, rng):
    """Flip one random bit of one random block line; returns the line index."""
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    block_lines = [i for i, line in enumerate(lines) if line.strip()]
    target = rng.choice(block_lines)
    line = bytearray(lines[target])
    byte_idx = rng.randrange(len(line))
    line[byte_idx] ^= 1 << rng.randrange(8)
    lines[target] = bytes(line)
    path.write_bytes(b"\n".join(lines))
    return target


def test_randomized_single_bit_mutations_always_detected(tmp_path):
    ledger = committed_chain(10, txs_per_block=2)
    clean = tmp_path / "chain.ndjson"
    export_chain(ledger.chain(), clean)
    rng = random.Random(1234)
    for trial in range(300):
        work = tmp_path / "mutated.ndjson"
        work.write_bytes(clean.read_bytes())
        target = mutate_export_single_bit(work, rng)
        verdict = verify_chain(import_chain(work))
        assert not verdict.ok, f"trial {trial}: mutation at block {target} undetected"
        assert verdict.first_bad_index == target, (
            f"trial {trial}: expected first bad {target}, got {verdict.first_bad_index}"
        )


# -- replay_state ------------------------------------------------------------


def test_replay_of_genesis_only_chain_is_empty_state():
    ledger = fresh_ledger()
    state = replay_state(ledger.chain())
    assert state.policies == {} and state.endpoint_attrs == {}


def test_replay_tracks_policy_deploy():
    ledger = fresh_ledger()
    deploy = make_tx(
        ledger,
        kind=TxKind.POLICY_DEPLOY,
        actor="policy-admin",
        body={"policy_id": "p1", "version": 1, "rules": []},
    )
    ledger.submit_transaction(deploy)
    ledger.commit_block(1)
    state = replay_state(ledger.chain())
    assert state.policies["p1"]["version"] == 1
    assert [d["version"] for d in state.policy_history["p1"]] == [1]


def test_replay_skips_an_unknown_subject_warning_check():
    # No run writes one, but a policyledger-chain/1 file may hold one.
    ledger = fresh_ledger()
    for body in ({"endpoint_id": "ep-000", "rule_id": "r", "verdict": "compliant", "observed": {},
                  "checked_at": 5},
                 {"warning": "unknown_subject", "event_id": "e4", "subject": "ep-999", "checked_at": 5}):
        assert ledger.submit_transaction(make_tx(ledger, kind=TxKind.COMPLIANCE_CHECK, body=body))
    ledger.commit_block(5)
    assert verify_chain(ledger.chain())
    state = replay_state(ledger.chain())
    assert state.compliance == {"ep-000": {"r": {"verdict": "compliant", "checked_at": 5}}}


def test_replay_is_pure():
    ledger = committed_chain(4)
    s1 = replay_state(ledger.chain())
    s2 = replay_state(ledger.chain())
    assert s1 == s2


def test_replay_refuses_corrupt_chain():
    ledger = committed_chain(4)
    mutated = _rebuild_with_payload_flip(ledger.chain(), 2)
    with pytest.raises(CorruptChainError):
        replay_state(mutated)


def test_replay_does_not_parse_decisions(run_chain, monkeypatch):
    real = TransactionRecord.body
    parsed = []
    monkeypatch.setattr(TransactionRecord, "body", lambda tx: parsed.append(tx.kind) or real(tx))
    replay_state(run_chain)
    assert parsed and TxKind.ENFORCEMENT_DECISION not in parsed


# -- query_history -----------------------------------------------------------


def test_empty_filter_returns_every_transaction():
    ledger = committed_chain(3, txs_per_block=2)
    records = query_history(ledger.chain())
    assert len(records) == 6
    # commit order is preserved
    assert [r.tx_id for r in records] == sorted([r.tx_id for r in records])


def test_empty_filter_returns_every_kind_of_transaction():
    from policyledger.runner import RunConfig, run_scenario

    chain = run_scenario(RunConfig(seed=7, scenario="ransomware", mode="both",
                                   endpoints=12)).chain
    every = [tx for block in chain for tx in block.transactions]
    assert query_history(chain) == every
    # A run never upgrades its contract, so it writes every other kind.
    assert {tx.kind for tx in every} == set(TxKind) - {TxKind.POLICY_UPDATE}


def test_filter_on_missing_policy_is_empty():
    ledger = committed_chain(3)
    assert query_history(ledger.chain(), policy_id="nope") == []


def test_filter_by_kind_and_time_range():
    ledger = committed_chain(3, txs_per_block=2)
    records = query_history(ledger.chain(), kind=TxKind.ENFORCEMENT_DECISION,
                            time_range=(0, 20))
    assert all(r.timestamp <= 20 for r in records)
    assert len(records) == 2


def test_filter_by_policy_and_endpoint_reads_the_fields_that_name_them(run_chain):
    bodies = [(tx, tx.body()) for tx in query_history(run_chain)]
    decision = next(body for tx, body in bodies if tx.kind == TxKind.ENFORCEMENT_DECISION)
    policy_id, endpoint_id = decision["matched_policy_ids"][0], decision["target_endpoints"][0]
    by_policy = [tx for tx, body in bodies
                 if policy_id == body.get("policy_id") or policy_id in body.get("matched_policy_ids", [])]
    by_endpoint = [tx for tx, body in bodies if endpoint_id == body.get("endpoint_id")
                   or endpoint_id in body.get("target_endpoints", []) + body.get("affected", [])]
    assert len(by_endpoint) > 1 and len(by_policy) > 1
    assert query_history(run_chain, policy_id=policy_id) == by_policy
    assert query_history(run_chain, endpoint_id=endpoint_id) == by_endpoint
    assert query_history(run_chain, policy_id=policy_id, endpoint_id=endpoint_id) == [
        tx for tx in by_policy if tx in by_endpoint]


def test_query_refuses_corrupt_chain():
    ledger = committed_chain(3)
    mutated = _rebuild_with_payload_flip(ledger.chain(), 1)
    with pytest.raises(CorruptChainError):
        query_history(mutated)


def _sealed_chain(kind, actor, payload, metadata=None):
    """A verifying chain whose one record holds ``payload``, sealed in a
    block past submission's checks and the validators' vote."""
    return _sealed(dataclasses.replace(TransactionRecord.create("tx-000001", 1, kind, actor, {}, metadata),
                                       payload=payload, payload_digest=digest_bytes(payload.encode("utf-8"))))


def _sealed(tx):
    """A verifying chain whose one block holds the record ``tx``."""
    genesis = fresh_ledger().blocks[0]
    block_hash = compute_block_hash(1, genesis.block_hash, 1, [tx.record_digest()])
    chain = [genesis, LedgerBlock(1, genesis.block_hash, block_hash, 1, (tx,), dict(genesis.validator_votes))]
    assert verify_chain(chain)
    return chain


_READERS = {
    "replay": replay_state,
    "samples": samples_from_chain,
    "policy-filter": lambda chain: query_history(chain, policy_id="p1"),
    "endpoint-filter": lambda chain: query_history(chain, endpoint_id="ep-000"),
}
#: The chain's readers of each kind's body: samples reads only policies
#: and results, and replay reads no decision.
_READERS_OF = {
    TxKind.POLICY_DEPLOY: list(_READERS),
    TxKind.ENFORCEMENT_RESULT: list(_READERS),
    TxKind.COMPLIANCE_CHECK: ["replay", "policy-filter", "endpoint-filter"],
    TxKind.THREAT_ALERT: ["replay", "policy-filter", "endpoint-filter"],
    TxKind.ENFORCEMENT_DECISION: ["policy-filter", "endpoint-filter"],
}
_RESULT = (TxKind.ENFORCEMENT_RESULT, "contract-engine")
_DEPLOY = (TxKind.POLICY_DEPLOY, "policy-admin")
_CHECK = (TxKind.COMPLIANCE_CHECK, "contract-engine")
_DECISION = (TxKind.ENFORCEMENT_DECISION, "contract-engine")
_ALERT = (TxKind.THREAT_ALERT, "cti-engine")
_SUCCESS = {"endpoint_id": "ep-000", "rule_id": "r", "outcome": "success", "duration_ms": 1, "applied": {}}
_POLICY = {"policy_id": "p1", "rules": [{"rule_id": "r"}]}
_CHECKED = {"endpoint_id": "ep-000", "rule_id": "r", "verdict": "compliant", "checked_at": 1}
#: name -> (the record's kind and actor, its payload). Each body breaks its
#: kind's table (``ledger.BODY_SPECS``), and every reader of the kind
#: refuses it: a result holds what the engine writes, an int duration a
#: float holds, a str endpoint id, a str or null rule id, one of the two
#: outcomes and an object of ``applied``; a policy a str id and rules that
#: are objects with str ids; a check a str endpoint and rule id, one of
#: the two verdicts and an int time; an alert a str report id and a list of
#: ids. ``json.loads`` reads NaN and Infinity.
_UNREADABLE = {
    "list": (_RESULT, "[]"),
    "int": (_RESULT, "5"),
    "deep": (_RESULT, "[" * 200_000 + "]" * 200_000),
    "duration-str": (_RESULT, canonical_json({**_SUCCESS, "duration_ms": "x"})),
    "duration-huge": (_RESULT, canonical_json({**_SUCCESS, "duration_ms": 10**400})),
    "duration-numeric-str": (_RESULT, canonical_json({**_SUCCESS, "duration_ms": "5"})),
    "duration-bool": (_RESULT, canonical_json({**_SUCCESS, "duration_ms": True})),
    "duration-nan": (_RESULT, json.dumps({**_SUCCESS, "duration_ms": float("nan")})),
    "duration-infinity": (_RESULT, json.dumps({**_SUCCESS, "duration_ms": float("inf")})),
    "endpoint-id-int": (_RESULT, canonical_json({**_SUCCESS, "endpoint_id": 5})),
    "rule-id-int": (_RESULT, canonical_json({**_SUCCESS, "rule_id": 5})),
    "outcome-capitalised": (_RESULT, canonical_json({**_SUCCESS, "outcome": "Success"})),
    "applied-empty-list": (_RESULT, canonical_json({**_SUCCESS, "applied": []})),
    "applied-str": (_RESULT, canonical_json({**_SUCCESS, "applied": "x"})),
    "policy-id-int": (_DEPLOY, canonical_json({**_POLICY, "policy_id": 5})),
    "rules-str": (_DEPLOY, canonical_json({**_POLICY, "rules": "abc"})),
    "rules-of-str": (_DEPLOY, canonical_json({**_POLICY, "rules": ["x"]})),
    "deploy-rule-id-int": (_DEPLOY, canonical_json({**_POLICY, "rules": [{"rule_id": 5}]})),
    "verdict-int": (_CHECK, canonical_json({**_CHECKED, "verdict": 5})),
    "checked-at-str": (_CHECK, canonical_json({**_CHECKED, "checked_at": "x"})),
    "targets-str": (_DECISION, canonical_json({"planned": [], "target_endpoints": "ep-000"})),
    "report-id-int": (_ALERT, canonical_json({"report_id": 5, "affected": []})),
    "affected-str": (_ALERT, canonical_json({"affected": "ep-01"})),
}


@pytest.mark.parametrize("body, reader", [(body, reader) for body, ((kind, _), _) in _UNREADABLE.items()
                                          for reader in _READERS_OF[kind]])
def test_every_reader_refuses_a_verifying_chain_with_an_unreadable_body(body, reader):
    (kind, actor), payload = _UNREADABLE[body]
    chain = _sealed_chain(kind, actor, payload)
    with pytest.raises(CorruptChainError) as caught:
        _READERS[reader](chain)
    assert str(caught.value).startswith("chain corrupt at block 1 (body of tx-000001")


@pytest.mark.parametrize("body", sorted(_UNREADABLE))
def test_every_reader_of_a_kind_refuses_an_unreadable_body_with_one_error(body):
    (kind, actor), payload = _UNREADABLE[body]
    chain = _sealed_chain(kind, actor, payload)
    errors = []
    # One chain: a refused body keeps no reading, so each call reads it anew.
    for reader in _READERS_OF[kind] * 2:
        with pytest.raises(CorruptChainError) as caught:
            _READERS[reader](chain)
        errors.append(str(caught.value))
    assert len(set(errors)) == 1


class _Str(str):
    pass


class _Int(int):
    pass


_TEXT = st.text(max_size=4)
#: A result body's fields as the engine writes them, and each one's edges.
_RESULT_FIELDS = {
    "endpoint_id": _TEXT,
    "outcome": st.sampled_from(["success", "failure"]),
    "duration_ms": st.integers(),
    "rule_id": st.one_of(st.none(), _TEXT),
    "applied": st.dictionaries(_TEXT, st.integers(), max_size=2),
}
_RESULT_EDGES = {
    "endpoint_id": st.one_of(st.builds(_Str, _TEXT), st.integers(), st.booleans(), st.none()),
    "outcome": st.one_of(st.sampled_from(["Success", "", "failure "]),
                         st.builds(_Str, st.sampled_from(["success", "failure"])), st.booleans(), st.none()),
    "duration_ms": st.one_of(st.just(10**400), st.builds(_Int, st.integers()), st.booleans(), st.floats(),
                             st.sampled_from(["5", "x"]), st.none()),
    "rule_id": st.one_of(st.builds(_Str, _TEXT), st.integers(), st.booleans()),
}


@st.composite
def _result_bodies(draw):
    """A result body with up to two fields missing or at an edge."""
    body = draw(st.fixed_dictionaries(_RESULT_FIELDS))
    for name in draw(st.lists(st.sampled_from(sorted(_RESULT_EDGES)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del body[name]
        else:
            body[name] = draw(_RESULT_EDGES[name])
    return body


@settings(max_examples=300, deadline=None)
@given(_result_bodies(), st.sampled_from(["automated", "human"]))
def test_a_created_results_kept_reading_is_the_reading_of_its_payload(body, arm):
    created = TransactionRecord.create("tx-000001", 1, TxKind.ENFORCEMENT_RESULT, "contract-engine", body,
                                       TxMetadata(arm=arm))
    kept, fresh = created._reading, dataclasses.replace(created)  # a copy keeps no reading
    try:
        reading = ledger_module._result_reading(fresh)
    except ledger_module._BODY_ERRORS:
        reading = None
    # None is kept for a body the reading refuses, and for one it reads only
    # once encoded: a str or int subclass parses back as str or int.
    assert kept in (None, reading)
    if reading is not None:
        assert ledger_module._result_reading(created) == reading
        assert all(type(value) in (str, bool, float, type(None)) for value in reading)
        return
    errors = set()
    for tx in (created, dataclasses.replace(created)):
        for reader in (replay_state, samples_from_chain):
            with pytest.raises(CorruptChainError) as caught:
                reader(_sealed(tx))
            errors.add(str(caught.value))
    assert len(errors) == 1


def _count_body_parses(monkeypatch):
    real, parsed = TransactionRecord.body, []
    monkeypatch.setattr(TransactionRecord, "body", lambda tx: parsed.append(tx) or real(tx))
    return parsed


def _results(chain):
    return [tx for block in chain for tx in block.transactions if tx.kind == TxKind.ENFORCEMENT_RESULT]


def test_the_audit_path_parses_each_check_result_and_alert_body_once_and_no_decision(tmp_path, monkeypatch):
    from policyledger.runner import RunConfig, run_scenario

    path = tmp_path / "chain.ndjson"
    export_chain(run_scenario(RunConfig(seed=5, scenario="ransomware", mode="both", endpoints=8)).chain, path)
    parsed = _count_body_parses(monkeypatch)
    chain = import_chain(path)
    assert verify_chain(chain).ok
    replay_state(chain)
    automated, human = samples_from_chain(chain)
    assert automated and human
    records = [tx for block in chain for tx in block.transactions]
    assert {tx.kind for tx in records} == set(TxKind) - {TxKind.POLICY_UPDATE}
    # Replay and samples each parse a deploy.
    parses = {TxKind.POLICY_DEPLOY: (1, 2), TxKind.ENFORCEMENT_DECISION: (0, 0)}
    counts = collections.Counter(map(id, parsed))
    for tx in records:
        low, high = parses.get(tx.kind, (1, 1))
        assert low <= counts[id(tx)] <= high, tx.kind


def test_a_run_parses_only_policy_and_decision_bodies(monkeypatch):
    from policyledger.runner import RunConfig, run_scenario

    parsed = _count_body_parses(monkeypatch)
    run_scenario(RunConfig(seed=5, scenario="ransomware", mode="both", endpoints=8))
    assert {tx.kind for tx in parsed} == {TxKind.POLICY_DEPLOY, TxKind.ENFORCEMENT_DECISION}


def test_samples_parse_no_result_body_of_a_runs_live_chain(monkeypatch):
    from policyledger.runner import RunConfig, run_scenario

    chain = run_scenario(RunConfig(seed=5, scenario="smbv1", mode="both", endpoints=8)).chain
    parsed = _count_body_parses(monkeypatch)
    automated, human = samples_from_chain(chain)
    assert automated and human and _results(chain)
    assert [tx for tx in parsed if tx.kind == TxKind.ENFORCEMENT_RESULT] == []


@pytest.fixture(scope="module")
def generated_feed(tmp_path_factory):
    """The benchmark's generated feed of 60 reports, as a feed file."""
    with pytest.MonkeyPatch.context() as patch:
        items = perfbench_feed(1, 60, patch)
    path = tmp_path_factory.mktemp("feed") / "feed.json"
    path.write_text(json.dumps(items), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("scenario, mode", itertools.product(["smbv1", "rdp", "ransomware", "custom"],
                                                             ["automated", "human", "both"]))
@settings(max_examples=3, deadline=None)
@given(config=run_configs)
def test_every_body_a_run_writes_fits_its_kinds_table(generated_feed, scenario, mode, config):
    from policyledger.runner import fixture_path, run_scenario

    config = dataclasses.replace(config, scenario=scenario, mode=mode)
    if scenario == "custom":
        config = dataclasses.replace(config, feeds=[generated_feed], policies=[
            str(fixture_path("policies", f"{name}.json")) for name in ("smbv1", "rdp", "ransomware")])
    for tx in (tx for block in run_scenario(config).chain for tx in block.transactions):
        body = tx.body()
        # The interpreted table, then the compiled one every reader checks.
        field_oracle.check_fields(ledger_module.BODY_SPECS[tx.kind], body, "body", ledger_module._wire_error)
        assert ledger_module._body(tx) == body


# -- export / import ---------------------------------------------------------


def test_export_import_round_trip_bytes(tmp_path):
    ledger = committed_chain(4)
    p1 = tmp_path / "a.ndjson"
    p2 = tmp_path / "b.ndjson"
    export_chain(ledger.chain(), p1)
    export_chain(import_chain(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert verify_chain(import_chain(p2)).ok


def test_metadata_priority_bounds():
    # The bound is a field of the metadata table, refused as a mistyped field is.
    with pytest.raises(TypeError, match=r"^TxMetadata\.priority must be an integer in \[0, 4\], got 5$"):
        TxMetadata(priority=5)
    with pytest.raises(TypeError, match=r"^TxMetadata\.priority must be an integer in \[0, 4\], got -1$"):
        TxMetadata(priority=-1)


def test_chain_length_is_monotone_over_a_run():
    ledger = fresh_ledger()
    lengths = [len(ledger.blocks)]
    for i in range(5):
        ledger.submit_transaction(make_tx(ledger, timestamp=i + 1))
        ledger.commit_block(i + 1)
        lengths.append(len(ledger.blocks))
    assert lengths == sorted(lengths)
    assert lengths[-1] == 6


def test_metadata_technique_ids_do_not_follow_the_callers_list():
    ids = ["T1210"]
    meta = TxMetadata(technique_ids=ids)
    tx = TransactionRecord.create("tx-1", 1, TxKind.THREAT_ALERT, "cti-engine", {}, meta)
    ids.append("T1486")
    assert meta.technique_ids == ("T1210",)
    pristine = TransactionRecord.create(
        "tx-1", 1, TxKind.THREAT_ALERT, "cti-engine", {}, TxMetadata(technique_ids=("T1210",))
    )
    assert tx.record_digest() == pristine.record_digest()


# -- per-record digest memo --------------------------------------------------


@pytest.fixture(scope="module")
def run_chain():
    from policyledger.runner import RunConfig, run_scenario

    chain = run_scenario(RunConfig(seed=7, scenario="ransomware", mode="both",
                                   endpoints=6)).chain
    assert verify_chain(chain).ok  # fills every record's memo
    return chain


def _tampered(tx, name):
    """A copy of ``tx`` with field ``name`` changed, built the way any
    caller can: through ``dataclasses.replace``."""
    kinds = list(TxKind)
    value = {
        "tx_id": tx.tx_id + "x",
        "timestamp": tx.timestamp + 1,
        "kind": kinds[(kinds.index(tx.kind) + 1) % len(kinds)],
        "actor": tx.actor + "x",
        "payload": tx.payload + " ",
        "payload_digest": digest_value("tampered"),
        "metadata": dataclasses.replace(tx.metadata, arm={"automated": "human", "human": "automated"}[tx.metadata.arm]),
    }[name]
    return dataclasses.replace(tx, **{name: value})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(
    ["tx_id", "timestamp", "kind", "actor", "payload", "payload_digest", "metadata"]))
def test_tampering_any_field_of_a_verified_record_is_detected(run_chain, data, name):
    pos = data.draw(st.sampled_from([b.index for b in run_chain if b.transactions]))
    block = run_chain[pos]
    i = data.draw(st.integers(0, len(block.transactions) - 1))
    tx = block.transactions[i]
    txs = list(block.transactions)
    txs[i] = _tampered(tx, name)
    chain = list(run_chain)
    chain[pos] = dataclasses.replace(block, transactions=tuple(txs))

    reason = "digest" if name in ("payload", "payload_digest") else "hash"
    assert verify_chain(chain) == ChainVerdict(False, pos, reason)
    with pytest.raises(CorruptChainError):
        replay_state(chain)
    with pytest.raises(CorruptChainError):
        query_history(chain)
    # The memo takes no part in equality, hashing or repr.
    copy = TransactionRecord.from_dict(_record_dict(tx), {})
    assert tx == copy and hash(tx) == hash(copy) and repr(tx) == repr(copy)


def _count_record_encodings(monkeypatch):
    """tx_id of every record envelope ``ledger`` encodes from now on."""
    real = TransactionRecord._envelope
    encoded = []

    def counting(tx):
        encoded.append(tx.tx_id)
        return real(tx)

    monkeypatch.setattr(TransactionRecord, "_envelope", counting)
    return encoded


def test_audit_path_encodes_each_imported_record_once(run_chain, tmp_path, monkeypatch):
    path = tmp_path / "chain.ndjson"
    export_chain(run_chain, path)
    chain = import_chain(path)
    encoded = _count_record_encodings(monkeypatch)
    assert verify_chain(chain).ok
    replay_state(chain)
    query_history(chain)
    assert encoded == [tx.tx_id for block in chain for tx in block.transactions]


def test_audit_path_calls_neither_json_loads_nor_txkind(run_chain, tmp_path, monkeypatch):
    from policyledger.metrics import samples_from_chain

    path = tmp_path / "chain.ndjson"
    export_chain(run_chain, path)
    calls = []
    real_loads, real_call = json.loads, type(TxKind).__call__
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append("loads") or real_loads(*a, **k))
    monkeypatch.setattr(type(TxKind), "__call__", lambda cls, *a, **k: (
        calls.append(cls.__name__) if cls is TxKind else None) or real_call(cls, *a, **k))
    chain = import_chain(path)
    assert verify_chain(chain).ok
    replay_state(chain)
    automated, human = samples_from_chain(chain)
    assert automated and human and calls == []
    # The counters see the fallback: a CRLF line goes to json.loads.
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    assert import_chain(path) == chain and calls == ["loads"]


def test_run_encodes_each_committed_record_once(monkeypatch):
    from policyledger.runner import RunConfig, run_scenario

    encoded = _count_record_encodings(monkeypatch)
    chain = run_scenario(RunConfig(seed=7, scenario="ransomware", mode="both",
                                   endpoints=6)).chain
    assert encoded == [tx.tx_id for block in chain for tx in block.transactions]


def test_import_interns_metadata_once_per_distinct_value(run_chain, tmp_path):
    path = tmp_path / "chain.ndjson"
    export_chain(run_chain, path)
    first, second = import_chain(path), import_chain(path)
    records = [tx for block in first for tx in block.transactions]
    distinct = {canonical_json(tx.metadata.to_dict()) for tx in records}
    assert len({id(tx.metadata) for tx in records}) == len(distinct) < len(records)
    assert verify_chain(first).ok
    # Each import interns on its own: the second shares no object, so no
    # fragment, with the first.
    later = [tx.metadata for block in second for tx in block.transactions]
    assert not {id(m) for m in later} & {id(tx.metadata) for tx in records}
    assert all(m._fragment is None for m in later)


_ANY_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "é ✓ 漢字 🔒", 'say "hi" \\ back/slash', "\x00\x08\x1f\x7f", "  "]),
)
# What a metadata text field holds; TxMetadata refuses any other type.
_TEXT_OR_NONE = st.none() | _ANY_TEXT


_WIRE_INT = st.integers(-(10**30), 10**30)


@settings(max_examples=200, deadline=None)
@given(
    tx_id=_ANY_TEXT,
    timestamp=_WIRE_INT,
    kind=st.sampled_from(list(TxKind)),
    actor=_ANY_TEXT,
    payload_digest=_ANY_TEXT,
    threat_type=_TEXT_OR_NONE,
    threat_actor=_TEXT_OR_NONE,
    technique_ids=st.one_of(st.just([]), st.lists(_ANY_TEXT, max_size=60)),
    recommended_change=_TEXT_OR_NONE,
    priority=st.integers(0, 4),
    arm=st.sampled_from(["automated", "human"]),
)
def test_record_digest_is_the_digest_of_the_envelope_dict(
    tx_id, timestamp, kind, actor, payload_digest, threat_type, threat_actor,
    technique_ids, recommended_change, priority, arm,
):
    metadata = TxMetadata(threat_type, threat_actor, technique_ids, recommended_change,
                          priority, arm)
    tx = TransactionRecord(tx_id, timestamp, kind, actor, "{}", payload_digest, metadata)
    envelope = _record_dict(tx)
    del envelope["payload"]
    assert tx._envelope() == canonical_json(envelope)
    assert tx.record_digest() == digest_value(envelope)


def _twins(path):
    """(block, position) of the first record whose metadata has priority 0
    and of a later record whose metadata reads the same."""
    blocks = [json.loads(line) for line in path.read_text().splitlines()]
    seen = {}
    for b, block in enumerate(blocks):
        for t, rec in enumerate(block["transactions"]):
            if rec["metadata"]["priority"] != 0:
                continue
            key = canonical_json(rec["metadata"])
            if key in seen:
                return seen[key], (b, t)
            seen[key] = (b, t)
    raise AssertionError("no two records share their metadata")


_STRING_FIELDS = [("record", name) for name in ("tx_id", "kind", "actor", "payload", "payload_digest")]
_STRING_FIELDS += [("block", "prev_hash"), ("block", "block_hash")]


@pytest.mark.parametrize(
    "where, field, value, expected",
    [
        # Each non-integer would read through int() as the committed value,
        # or as another integer, so only its JSON type shows the edit.
        ("metadata", "priority", False, "format"),
        ("metadata", "priority", 0.0, "format"),
        ("record", "timestamp", True, "format"),
        ("record", "timestamp", float, "format"),
        ("record", "timestamp", str, "format"),
        ("block", "index", float, "format"),
        ("block", "timestamp", True, "format"),
        ("block", "timestamp", float, "format"),
        ("block", "timestamp", str, "format"),
        # The votes as a list of pairs, which dict() would read as the same.
        ("block", "validator_votes", lambda votes: sorted(votes.items()), "format"),
        # A well-typed edit fails the hash.
        ("record", "actor", "intruder", "hash"),
        # Every string field of a record or a block holding another JSON type.
        *[(where, field, value, "format")
          for where, field in _STRING_FIELDS for value in (5, None, ["x"])],
        # A genesis whose meta, or validator set, has the wrong shape.
        ("genesis", "meta", 5, "format"),
        ("genesis", "meta", [], "format"),
        ("validators", "validators", 5, "format"),
        ("validators", "validators", [["x"]], "format"),
    ],
)
def test_type_tampered_chain_file(run_chain, tmp_path, capsys, where, field, value, expected):
    from policyledger.cli import main

    path = tmp_path / "chain.ndjson"
    export_chain(run_chain, path)
    (b, t), (twin_b, twin_t) = _twins(path)
    if where in ("genesis", "validators"):
        b = 0
    lines = path.read_text().splitlines()
    block = json.loads(lines[b])
    if where in ("record", "metadata"):
        target = block["transactions"][t]
        target = target["metadata"] if where == "metadata" else target
    else:
        target = block["meta"] if where == "validators" else block
    # A type or function stands for the committed value converted by it.
    target[field] = value(target[field]) if callable(value) else value
    lines[b] = canonical_json(block)
    path.write_text("\n".join(lines) + "\n")

    chain = import_chain(path)
    assert verify_chain(chain) == ChainVerdict(False, b, expected)
    # A mistyped record or header field makes its whole line corrupt.
    assert isinstance(chain[b], CorruptBlock) == (
        expected == "format" and where in ("record", "metadata", "block"))
    assert main(["verify-chain", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == f"corrupt: block {b} ({expected})\n" and "Traceback" not in err
    assert main(["replay", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: chain corrupt at block {b} ({expected})\n"
    if expected == "hash":
        # The record still shares its metadata with its twin.
        assert chain[b].transactions[t].metadata is chain[twin_b].transactions[twin_t].metadata


@pytest.mark.parametrize("field, value", [
    *[(field, value) for field in ("threat_type", "threat_actor", "recommended_change", "arm")
      for value in (1, True, 1.0, [1])],
    ("priority", True), ("priority", 1.0), ("priority", [1]),
    ("technique_ids", [1]), ("technique_ids", [None]), ("technique_ids", "T1190"),
    # A record of neither arm, which no TxMetadata can hold.
    ("arm", "martian"),
])
def test_a_mistyped_metadata_value_is_a_format_failure(run_chain, tmp_path, capsys, field, value):
    from policyledger.cli import main

    path = tmp_path / "chain.ndjson"
    export_chain(run_chain, path)
    (b, t), twins = _twins(path)
    lines = path.read_text().splitlines()
    block = json.loads(lines[b])
    block["transactions"][t]["metadata"][field] = value
    lines[b] = canonical_json(block)
    path.write_text("\n".join(lines) + "\n")

    assert main(["verify-chain", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == f"corrupt: block {b} (format)\n" and "Traceback" not in err
    chain = import_chain(path)
    assert isinstance(chain[b], CorruptBlock)
    # The intact blocks still share one object per typed metadata value.
    intact = [tx.metadata for block in chain if not isinstance(block, CorruptBlock)
              for tx in block.transactions]
    assert len({id(m) for m in intact}) == len(set(intact)) < len(intact)


def test_metadata_interning_never_meets_an_equal_mistyped_value():
    wire = {**TxMetadata().to_dict(), "priority": 1, "threat_type": "1"}
    interned = {}
    typed = TxMetadata.from_dict(wire, interned)
    assert TxMetadata.from_dict(dict(wire), interned) is typed
    # Each equals a key already interned, but encodes differently.
    for mistyped in ({"priority": True}, {"priority": 1.0}):
        with pytest.raises(TypeError, match=r"TxMetadata\.priority must be an integer in \[0, 4\]"):
            TxMetadata.from_dict({**wire, **mistyped}, interned)
    # A str is no list of technique ids, though it iterates as one.
    with pytest.raises(TypeError, match=r"TxMetadata\.technique_ids must be a list of str"):
        TxMetadata.from_dict({**wire, "technique_ids": "T1"}, {})
    assert list(interned.values()) == [typed]


# -- per-block hash memo -----------------------------------------------------


@pytest.mark.parametrize("name", ["index", "prev_hash", "timestamp", "transactions"])
def test_replacing_a_field_of_a_verified_block_is_detected(run_chain, name):
    pos = len(run_chain) // 2
    block = run_chain[pos]
    assert pos > 0 and block.transactions
    assert block._recomputed == block.block_hash  # filled
    value = {
        "index": block.index + 1,
        "prev_hash": digest_value("forged"),
        "timestamp": block.timestamp + 1,
        "transactions": list(block.transactions[:-1]),
    }[name]
    copy = dataclasses.replace(block, **{name: value})
    assert copy._recomputed is None
    assert copy.recomputed_hash() != block.block_hash
    chain = list(run_chain)
    chain[pos] = copy
    reason = "index" if name == "index" else "hash"
    assert verify_chain(chain) == ChainVerdict(False, pos, reason)
    # The memo takes no part in equality or repr.
    fresh = LedgerBlock.from_dict(_block_dict(block), {})
    assert fresh._recomputed is None
    assert block == fresh and repr(block) == repr(fresh)


def test_a_caller_list_of_transactions_is_not_followed():
    block = committed_chain(2).chain()[1]
    txs = list(block.transactions)
    copy = dataclasses.replace(block, transactions=txs)
    assert copy.recomputed_hash() == block.block_hash
    txs.pop()
    assert copy.transactions == block.transactions


def test_editing_genesis_meta_in_place_after_a_verify_is_detected():
    chain = committed_chain(2).chain()
    assert verify_chain(chain).ok
    chain[0].meta["config_digest"] = "edited"
    assert verify_chain(chain) == ChainVerdict(False, 0, "hash")


def test_a_committed_block_keeps_the_hash_it_was_committed_with():
    chain = committed_chain(3).chain()
    assert chain[0]._recomputed is None
    for block in chain[1:]:
        assert block._recomputed == block.block_hash == ledger_module.compute_block_hash(
            block.index, block.prev_hash, block.timestamp,
            [tx.record_digest() for tx in block.transactions],
        )


def _count_block_hashes(monkeypatch):
    """Index of every block ``ledger`` hashes from now on."""
    real = ledger_module.compute_block_hash
    hashed = []

    def counting(index, *args):
        hashed.append(index)
        return real(index, *args)

    monkeypatch.setattr(ledger_module, "compute_block_hash", counting)
    return hashed


def test_audit_path_hashes_each_imported_block_once(run_chain, tmp_path, monkeypatch):
    from policyledger.metrics import samples_from_chain

    path = tmp_path / "chain.ndjson"
    export_chain(run_chain, path)
    chain = import_chain(path)
    hashed = _count_block_hashes(monkeypatch)
    assert verify_chain(chain).ok
    replay_state(chain)
    samples_from_chain(chain)
    # Genesis again on each later verification: replay's and the samples'.
    assert hashed == [*range(len(chain)), 0, 0]


def test_run_hashes_each_committed_block_once(monkeypatch):
    from policyledger.runner import RunConfig, run_scenario

    hashed = _count_block_hashes(monkeypatch)
    chain = run_scenario(RunConfig(seed=7, scenario="ransomware", mode="both",
                                   endpoints=6)).chain
    assert sorted(i for i in hashed if i) == list(range(1, len(chain)))


_GENESIS_META = st.dictionaries(_ANY_TEXT, _JSON_VALUES, max_size=4)
_META = st.one_of(st.none(), _GENESIS_META)


@settings(max_examples=200, deadline=None)
@given(
    index=_WIRE_INT,
    prev_hash=_ANY_TEXT,
    timestamp=_WIRE_INT,
    tx_digests=st.lists(_ANY_TEXT, max_size=5),
    meta=_META,
)
def test_block_hash_is_the_digest_of_the_preimage_dict(index, prev_hash, timestamp, tx_digests,
                                                       meta):
    assert ledger_module.compute_block_hash(
        index, prev_hash, timestamp, iter(tx_digests), meta
    ) == digest_value(_preimage_dict(index, prev_hash, timestamp, tx_digests, meta))


# -- streamed chain files ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    endpoints=st.integers(1, 60),
    scenario=st.sampled_from(["smbv1", "rdp", "ransomware"]),
    mode=st.sampled_from(["automated", "human", "both"]),
)
def test_streamed_export_is_the_dict_encoding_and_round_trips(seed, endpoints, scenario, mode):
    from policyledger.runner import RunConfig, run_scenario

    chain = run_scenario(RunConfig(seed=seed, endpoints=endpoints, scenario=scenario,
                                   mode=mode)).chain
    expected = "\n".join(canonical_json(_block_dict(b)) for b in chain) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.ndjson"), Path(tmp, "second.ndjson")
        export_chain(chain, first)
        assert first.read_bytes() == expected.encode("utf-8")
        export_chain(import_chain(first), second)
        assert second.read_bytes() == first.read_bytes()


@settings(max_examples=80, deadline=None)
@given(config=run_configs)
def test_the_exported_file_alone_rebuilds_the_live_report_and_state(config):
    from policyledger.metrics import (
        build_comparison_report,
        render_report_text,
        samples_from_chain,
    )
    from policyledger.runner import run_scenario

    seed = config.seed
    with tempfile.TemporaryDirectory() as tmp:
        result = run_scenario(config, outdir=tmp)
        live = Path(tmp, "report.json").read_bytes(), Path(tmp, "report.txt").read_bytes()
        chain = import_chain(Path(tmp, "chain.ndjson"))
    automated, human = samples_from_chain(chain)
    rebuilt = build_comparison_report(
        automated, human, chain_hash=chain[-1].block_hash, seed=seed,
        config_digest=chain[0].meta["config_digest"],
    )
    assert ((rebuilt.to_json() + "\n").encode("utf-8"),
            render_report_text(rebuilt).encode("utf-8")) == live
    snapshots = {"automated": result.fleet_snapshot, "human": result.human_snapshot}
    for arm, endpoints_attrs in replay_state(chain).endpoint_attrs.items():
        for endpoint, attrs in endpoints_attrs.items():
            for attr, value in attrs.items():
                assert snapshots[arm][endpoint][attr] == value, (arm, endpoint, attr)


@settings(max_examples=200, deadline=None)
@given(
    tx_id=_ANY_TEXT,
    timestamp=_WIRE_INT,
    actor=_ANY_TEXT,
    payload=_ANY_TEXT,
    payload_digest=_ANY_TEXT,
    threat_actor=_TEXT_OR_NONE,
    technique_ids=st.lists(_ANY_TEXT, max_size=4),
    index=_WIRE_INT,
    block_timestamp=_WIRE_INT,
    prev_hash=_ANY_TEXT,
    meta=_GENESIS_META,
)
def test_a_replaced_record_splices_to_its_dict_encoding(
    run_chain, tx_id, timestamp, actor, payload, payload_digest, threat_actor,
    technique_ids, index, block_timestamp, prev_hash, meta,
):
    block = run_chain[1]
    first, *rest = block.transactions
    metadata = dataclasses.replace(first.metadata, threat_actor=threat_actor,
                                   technique_ids=technique_ids)
    changed = dataclasses.replace(first, tx_id=tx_id, timestamp=timestamp, actor=actor,
                                  payload=payload, payload_digest=payload_digest,
                                  metadata=metadata)
    assert changed.wire_json() == canonical_json(_record_dict(changed))
    spliced = dataclasses.replace(block, transactions=(changed, *rest), prev_hash=prev_hash)
    assert spliced.wire_json() == canonical_json(_block_dict(spliced))
    for header in ({"index": index}, {"timestamp": block_timestamp}, {"block_hash": prev_hash}):
        other = dataclasses.replace(spliced, **header)
        assert other.wire_json() == canonical_json(_block_dict(other))
    # Genesis splices its meta as one member.
    genesis = dataclasses.replace(run_chain[0], meta=meta, timestamp=block_timestamp)
    assert genesis.wire_json() == canonical_json(_block_dict(genesis))


_RECORD_TYPES = {"tx_id": str, "timestamp": int, "kind": TxKind, "actor": str, "payload": str,
                 "payload_digest": str, "metadata": TxMetadata}
_BLOCK_TYPES = {"index": int, "prev_hash": str, "block_hash": str, "timestamp": int,
                "validator_votes": dict}
_METADATA_TYPES = {"threat_type": (str, type(None)), "threat_actor": (str, type(None)),
                   "technique_ids": (list, tuple), "recommended_change": (str, type(None)),
                   "priority": int, "arm": str}
# Values of the types a caller or a chain file could put in a field, among
# them a str subclass, a bool, a float and containers.
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), _WIRE_INT, st.floats(), _ANY_TEXT, st.lists(st.integers(), max_size=2),
    st.dictionaries(_ANY_TEXT, st.integers(), max_size=2), st.sampled_from(list(TxKind)),
    st.builds(TxMetadata), st.builds(object),
)
_CREATE_ARGS = ("tx_id", "timestamp", "kind", "actor", "metadata")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_construction_path_refuses_a_mistyped_field(run_chain, data):
    block = run_chain[1]
    tx = block.transactions[0]
    types = data.draw(st.sampled_from([_RECORD_TYPES, _BLOCK_TYPES, _METADATA_TYPES]))
    name = data.draw(st.sampled_from(sorted(types)))
    want = types[name] if type(types[name]) is tuple else (types[name],)
    if name == "technique_ids":  # a list or tuple, of strs only
        value = data.draw((_ANY_VALUE | st.lists(_ANY_VALUE, min_size=1, max_size=2)).filter(
            lambda v: type(v) not in want or any(type(i) is not str for i in v)))
    else:
        value = data.draw(_ANY_VALUE.filter(lambda v: type(v) not in want))
    if types is _METADATA_TYPES:
        meta = TxMetadata(threat_type="exploit", technique_ids=("T1210",), priority=3)
        fields = {f: getattr(meta, f) for f in types}
        builds = [lambda: TxMetadata(**{**fields, name: value}),
                  lambda: dataclasses.replace(meta, **{name: value}),
                  lambda: TxMetadata.from_dict({**meta.to_dict(), name: value}, {})]
    elif types is _RECORD_TYPES:
        fields = {f: getattr(tx, f) for f in types}
        builds = [lambda: TransactionRecord(**{**fields, name: value}),
                  lambda: dataclasses.replace(tx, **{name: value})]
        if name in _CREATE_ARGS and not (name == "metadata" and value is None):  # the default
            args = {**{f: fields[f] for f in _CREATE_ARGS}, name: value}
            builds.append(lambda: TransactionRecord.create(body={}, **args))
        if name not in ("kind", "metadata"):  # the wire form holds their JSON, not them
            wire = {**_record_dict(tx), name: value}
            builds.append(lambda: TransactionRecord.from_dict(wire, {}))
    else:
        builds = [lambda: dataclasses.replace(block, **{name: value}),
                  lambda: LedgerBlock.from_dict({**_block_dict(block), name: value}, {})]
        if name == "timestamp":
            ledger = fresh_ledger()
            ledger.submit_transaction(make_tx(ledger))
            builds.append(lambda: ledger.commit_block(value))
    for build in builds:
        with pytest.raises(TypeError, match=rf"\.{name} must be "):
            build()


@pytest.mark.parametrize("existing", [True, False])
def test_a_failed_export_leaves_the_target_as_it_was(run_chain, tmp_path, existing):
    target = tmp_path / "chain.ndjson"
    if existing:
        target.write_bytes(b"the previous chain\n")
    # The last block's votes cannot be encoded.
    last = run_chain[-1]
    votes = {**last.validator_votes, "validator-0": object()}
    broken = [*run_chain[:-1], dataclasses.replace(last, validator_votes=votes)]
    with pytest.raises(TypeError):
        export_chain(broken, target)
    assert [p.name for p in tmp_path.iterdir()] == (["chain.ndjson"] if existing else [])
    if existing:
        assert target.read_bytes() == b"the previous chain\n"


def test_import_positions_count_every_line(run_chain, tmp_path):
    path = tmp_path / "chain.ndjson"
    export_chain(run_chain[:4], path)
    lines = path.read_bytes().splitlines()
    clean = import_chain(path)

    # CRLF endings and no final newline read as the same blocks.
    path.write_bytes(b"\r\n".join(lines))
    assert import_chain(path) == clean
    assert verify_chain(import_chain(path)).ok

    # Blank lines are skipped but counted: the garbage is at position 4.
    path.write_bytes(b"\n".join([lines[0], b"", b"  \r", lines[1], b"{garbage", lines[2], lines[3]]))
    chain = import_chain(path)
    assert [type(b).__name__ for b in chain] == [
        "LedgerBlock", "LedgerBlock", "CorruptBlock", "LedgerBlock", "LedgerBlock",
    ]
    assert chain[2].index == 4
    assert verify_chain(chain) == ChainVerdict(False, 2, "format")

    # A line that is not UTF-8 is corrupt at its own position.
    path.write_bytes(b"\n".join([lines[0], lines[1], b"\xff" + lines[2]]) + b"\n")
    assert import_chain(path)[2].index == 2


def test_chain_io_holds_one_block_line_at_a_time(tmp_path):
    chain = committed_chain(n_blocks=20, txs_per_block=30).chain()
    path = tmp_path / "chain.ndjson"
    export_chain(chain, path)  # fills each record's kept fragments
    size = path.stat().st_size
    tracemalloc.start()
    try:
        export_chain(chain, path)
        _, export_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        imported = import_chain(path)
        kept, import_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert imported == chain
    # Whole-file copies (the lines, their join, the file's bytes, its split)
    # would each cost about ``size``; one block line costs a twentieth.
    assert export_peak < size
    # What import holds beyond the chain it returns.
    assert import_peak - kept < size


def test_export_holds_one_record_at_a_time(tmp_path):
    chain = committed_chain(n_blocks=2, txs_per_block=300).chain()
    path = tmp_path / "chain.ndjson"
    export_chain(chain, path)  # fills each record's kept fragments
    largest_line = max(map(len, path.read_bytes().splitlines()))
    tracemalloc.start()
    try:
        export_chain(chain, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Beyond the chain, export holds one record's pieces and the file's
    # buffers; one whole block line would cost ``largest_line``.
    assert peak < largest_line
    assert import_chain(path) == chain


# -- one builder for every created and imported record ---------------------------


_MEMO_SLOTS = ("_payload_ok", "_digest", "_reading")


def _slots(tx):
    return {f.name: getattr(tx, f.name) for f in dataclasses.fields(TransactionRecord)}


@pytest.mark.parametrize("kind", list(TxKind))
def test_created_and_imported_records_equal_the_dataclass_built_record(kind):
    body = {"plan_id": "p", "planned": [], "target_endpoints": []}
    metadata = TxMetadata(threat_type="exploit", technique_ids=("T1210",), priority=3)
    created = TransactionRecord.create("tx-1", 7, kind, "contract-engine", body, metadata)
    built = TransactionRecord(
        tx_id="tx-1",
        timestamp=7,
        kind=kind,
        actor="contract-engine",
        payload=canonical_json(body),
        payload_digest=digest_value(body),
        metadata=metadata,
    )
    assert type(created) is TransactionRecord
    assert _slots(created) == {**_slots(built), "_payload_ok": True}

    imported = TransactionRecord.from_dict(decode_json(created.wire_json()), {})
    assert type(imported) is TransactionRecord
    assert _slots(imported) == _slots(built)
    assert all(getattr(imported, name) is None for name in _MEMO_SLOTS)

    # A replace copy starts with empty memos, whichever builder made the source.
    for record in (created, imported):
        record.record_digest()
        fresh = dataclasses.replace(record)
        assert fresh == record
        assert all(getattr(fresh, name) is None for name in _MEMO_SLOTS)


def test_create_defaults_the_metadata_like_the_constructor():
    created = TransactionRecord.create("tx-1", 0, TxKind.THREAT_ALERT, "cti-engine", {})
    assert created.metadata == TxMetadata()
    assert created == TransactionRecord("tx-1", 0, TxKind.THREAT_ALERT, "cti-engine",
                                        created.payload, created.payload_digest)
