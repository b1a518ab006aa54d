"""Contract engine: deployment, audits, decisions, enforcement."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import audit_checks, make_engine
from policyledger.contracts import ContractEngine
from policyledger.cti import Decision, DecisionKind, ThreatClass, ThreatCategory
from policyledger.errors import InputError, LedgerUnavailable
from policyledger.ledger import LedgerBlock, TransactionRecord, TxKind, _build_block, query_history
from policyledger.policy import (
    COMPARATORS,
    ENDPOINT_ATTRIBUTES,
    ORDERED_ATTRIBUTES,
    Condition,
    load_policy_document,
    load_policy_file,
    rule_set,
)
from policyledger.runner import fixture_path
from policyledger.simnet import (
    ApplyResult,
    Endpoint,
    Fleet,
    NetworkModel,
    SimClock,
    _apply_result,
    provision_fleet,
)


@pytest.fixture
def docs():
    return [
        load_policy_file(fixture_path("policies", "smbv1.json")),
        load_policy_file(fixture_path("policies", "rdp.json")),
    ]


def deploy(engine, docs):
    engine.clock.advance(100)
    return engine.deploy_contract(docs)


def standard_decision(rules):
    matched = [r for r in rules if r.rule_id == "smbv1-disable"]
    return Decision(DecisionKind.STANDARD_MITIGATION_REQUIRED, ("smbv1-disable",)), matched


# -- deploy ------------------------------------------------------------------


def test_deploy_creates_active_v1_with_ledger_trail(engine, docs):
    rules = deploy(engine, docs[:1])
    assert engine.rules is rules and rules == rule_set(docs[:1])
    deploys = query_history(engine.ledger.chain(), kind=TxKind.POLICY_DEPLOY)
    assert len(deploys) == 1
    body = deploys[0].body()
    assert body["policy_id"] == "smbv1-hardening"
    assert (body["contract_id"], body["contract_version"]) == ("compliancecontract", 1)


def test_deploy_empty_rule_set_is_input_error(engine):
    with pytest.raises(InputError):
        engine.deploy_contract([])


def test_deploy_twice_is_input_error(engine, docs):
    deploy(engine, docs[:1])
    with pytest.raises(InputError, match="^contract compliancecontract already deployed$"):
        engine.deploy_contract(docs[:1])


def test_deploy_rejects_an_unknown_explicit_target_before_any_transaction(engine, docs):
    raw = docs[0].to_dict()
    raw["rules"][0]["remediation"]["target_selector"] = ["ep-000", "ep-999"]
    doc = load_policy_document(json.dumps(raw))
    with pytest.raises(InputError, match="ep-999"):
        engine.deploy_contract([doc])
    assert engine.ledger.pending == [] and len(engine.ledger.chain()) == 1
    assert engine.rules is None


def test_deploy_with_conflicting_rules_is_refused_before_any_transaction(engine, docs):
    raw = docs[1].to_dict()
    raw["policy_id"] = "rdp-port-alt"
    rule = raw["rules"][0]
    rule["rule_id"] = "rdp-port-3390"
    rule["condition"][0]["value"] = 3390
    rule["remediation"]["params"]["port"] = 3390
    base_blocks = len(engine.ledger.chain())
    with pytest.raises(InputError, match=r"unresolved conflicts: \['rdp-port-3390'\]"):
        engine.deploy_contract([docs[1], load_policy_document(json.dumps(raw))])
    assert engine.ledger.pending == [] and len(engine.ledger.chain()) == base_blocks
    assert engine.rules is None


def test_an_engine_without_a_ledger_is_refused():
    with pytest.raises(LedgerUnavailable):
        ContractEngine(ledger=None, fleet=provision_fleet(2), clock=SimClock(0), net=NetworkModel(),
                       master_seed=1)


def test_audit_before_deploy_is_refused(engine):
    with pytest.raises(InputError, match="^no contract deployed$"):
        engine.run_full_audit()
    assert engine.ledger.pending == [] and len(engine.ledger.chain()) == 1


# -- run_full_audit ----------------------------------------------------------------


def test_audit_finds_the_legacy_endpoint_non_compliant(engine, docs):
    deploy(engine, docs[:1])
    for ep in engine.fleet.endpoints()[1:]:
        ep.smbv1_enabled = False
    engine.run_full_audit()
    checks = audit_checks(engine.ledger.chain())
    legacy = [c for c in checks if c["endpoint_id"] == "ep-000"]
    assert len(legacy) == 1
    assert legacy[0]["verdict"] == "non_compliant"
    assert legacy[0]["observed"] == {"smbv1_enabled": True}
    assert all(c["verdict"] == "compliant" for c in checks if c["endpoint_id"] != "ep-000")
    checks = query_history(engine.ledger.chain(), kind=TxKind.COMPLIANCE_CHECK)
    assert len(checks) == len(engine.fleet)


def test_config_change_back_to_default_port_is_detected(engine, docs):
    deploy(engine, docs[1:])
    for ep in engine.fleet.endpoints():
        ep.rdp_port = 33089
    assert engine.run_full_audit() == 1.0
    engine.fleet.get("ep-003").rdp_port = 3389  # user action outside enforcement
    engine.run_full_audit()
    failed = [c for c in audit_checks(engine.ledger.chain()) if c["verdict"] != "compliant"]
    assert [(c["endpoint_id"], c["observed"]) for c in failed] == [("ep-003", {"rdp_port": 3389})]


def test_audit_evaluates_the_cartesian_product(docs):
    engine = make_engine(endpoints=60)
    deploy(engine, docs)  # 2 rules
    engine.run_full_audit()
    assert len(audit_checks(engine.ledger.chain())) == 120
    blocks = engine.ledger.chain()
    assert len(blocks[-1].transactions) == 120  # committed as one block


def test_audit_aggregate_on_compliant_fleet_is_one(engine, docs):
    deploy(engine, docs[:1])
    for ep in engine.fleet.endpoints():
        ep.smbv1_enabled = False
    assert engine.run_full_audit() == 1.0
    checks = audit_checks(engine.ledger.chain())
    assert {c["policy_id"] for c in checks} == {"smbv1-hardening"}
    assert all(c["verdict"] == "compliant" for c in checks)


def test_audit_aggregate_matches_brute_count_mid_scenario(docs):
    engine = make_engine(endpoints=20, seed=9)
    deploy(engine, docs)
    # leave endpoints 0-6 non-compliant on smbv1, 0-11 on rdp
    for ep in engine.fleet.endpoints()[7:]:
        ep.smbv1_enabled = False
    for ep in engine.fleet.endpoints()[12:]:
        ep.rdp_port = 33089
    aggregate = engine.run_full_audit()
    # brute-force oracle over the snapshot
    from policyledger.simnet import snapshot

    snap = snapshot(engine.fleet)
    expected_ok = sum(
        1
        for attrs in snap.values()
        for rule in engine.rules
        if rule.is_compliant(attrs)
    )
    assert aggregate == pytest.approx(expected_ok / 40)


# -- execute_decision ----------------------------------------------------------------


def test_no_action_logs_an_empty_plan(engine, docs):
    deploy(engine, docs[:1])
    plan = engine.execute_decision(Decision(DecisionKind.NO_ACTION_REQUIRED), [])
    results = engine.enforce(plan)
    engine.commit_cycle()
    assert plan.actions == () and results == []
    decisions = query_history(engine.ledger.chain(), kind=TxKind.ENFORCEMENT_DECISION)
    assert len(decisions) == 1
    assert decisions[0].body()["decision"] == "no_action_required"
    assert query_history(engine.ledger.chain(), kind=TxKind.ENFORCEMENT_RESULT) == []


def test_human_arm_without_a_human_fleet_is_input_error(engine, docs):
    deploy(engine, docs[:1])
    with pytest.raises(InputError, match="^no human fleet configured$"):
        engine.execute_decision(Decision(DecisionKind.NO_ACTION_REQUIRED), [], arm="human")
    assert engine.ledger.pending == []


def test_unknown_arm_is_input_error(engine, docs):
    deploy(engine, docs[:1])
    with pytest.raises(InputError, match="^unknown arm 'robot'$"):
        engine.execute_decision(Decision(DecisionKind.NO_ACTION_REQUIRED), [], arm="robot")
    assert engine.ledger.pending == []


def test_a_cycle_with_nothing_to_record_commits_no_block(engine, docs):
    deploy(engine, docs[:1])
    base_blocks = len(engine.ledger.chain())
    assert engine.commit_cycle() is None
    assert len(engine.ledger.chain()) == base_blocks


def test_standard_mitigation_targets_only_non_compliant(engine, docs):
    rules = deploy(engine, docs[:1])
    for eid in ("ep-000", "ep-001"):
        engine.fleet.get(eid).smbv1_enabled = False
    decision, matched = standard_decision(rules)
    plan = engine.execute_decision(decision, matched)
    targets = {pa["endpoint_id"] for pa in plan.actions}
    assert targets == set(engine.fleet.ids()) - {"ep-000", "ep-001"}
    assert all(pa["kind"] == "disable_smbv1" for pa in plan.actions)


def test_targeting_does_not_copy_endpoint_attrs(monkeypatch, smbv1_doc, rdp_doc,
                                                ransomware_doc):
    # Copying every endpoint's attrs() per matched rule dominated targeting.
    engine = make_engine(endpoints=6)
    rules = deploy(engine, [smbv1_doc, rdp_doc, ransomware_doc])
    engine.fleet.get("ep-001").smbv1_enabled = False
    engine.fleet.get("ep-002").rdp_port = 33089

    def no_copy(self):
        raise AssertionError("targeting copied an endpoint's attrs()")

    monkeypatch.setattr(Endpoint, "attrs", no_copy)
    matched = list(rules)
    decision = Decision(
        DecisionKind.STANDARD_MITIGATION_REQUIRED, tuple(r.rule_id for r in matched)
    )
    plan = engine.execute_decision(decision, matched)
    targets = {}
    for pa in plan.actions:
        targets.setdefault(pa["rule_id"], set()).add(pa["endpoint_id"])
    everyone = set(engine.fleet.ids())
    assert targets == {
        "smbv1-disable": everyone - {"ep-001"},
        "rdp-port-33089": everyone - {"ep-002"},
        "outbound-deny-all": everyone,
    }


def _property_rules():
    """The fixture rules plus rules over the list-valued and integer
    attributes, which the fixtures never condition on."""
    docs = [load_policy_file(fixture_path("policies", name))
            for name in ("smbv1.json", "rdp.json", "ransomware.json")]
    extra = json.loads(fixture_path("policies", "ransomware.json").read_text())
    extra["policy_id"] = "property-extra"
    base = extra["rules"][0]
    extra["rules"] = [
        dict(base, rule_id="fw-empty", condition=[
            {"attribute": "firewall_rules", "comparator": "equals", "value": []}]),
        dict(base, rule_id="patched-clean", condition=[
            {"attribute": "patch_level", "comparator": "gt", "value": 1},
            {"attribute": "infected", "comparator": "not_equals", "value": True}]),
        dict(base, rule_id="port-allowed", condition=[
            {"attribute": "rdp_port", "comparator": "in", "value": [22, 33089]},
            {"attribute": "isolated", "comparator": "equals", "value": False}]),
    ]
    docs.append(load_policy_document(json.dumps(extra)))
    return [rule for doc in docs for rule in doc.rules]


_PROPERTY_RULES = _property_rules()

_FIELD_VALUES = {
    "smbv1_enabled": st.booleans(),
    "rdp_port": st.sampled_from([22, 3389, 33089]),
    "firewall_rules": st.lists(
        st.lists(st.sampled_from(["outbound", "inbound", "*", "deny", "allow"]),
                 min_size=3, max_size=3),
        max_size=2,
    ),
    "proxy_outbound_blocked": st.booleans(),
    "isolated": st.booleans(),
    "patch_level": st.integers(0, 3),
    "infected": st.booleans(),
}
_endpoint_fields = st.fixed_dictionaries(_FIELD_VALUES)


@settings(max_examples=60, deadline=None)
@given(fields=st.lists(_endpoint_fields, min_size=1, max_size=10))
def test_targets_are_the_endpoints_whose_attrs_fail_the_rule(fields):
    fleet = Fleet(Endpoint(f"ep-{i:03d}", **f) for i, f in enumerate(fields))
    engine = make_engine(endpoints=1)
    for rule in _PROPERTY_RULES:
        expected = [
            eid for eid in fleet.ids() if not rule.is_compliant(fleet.get(eid).attrs())
        ]
        assert engine._targets_for(rule, fleet) == expected


@st.composite
def _conditions(draw):
    """A condition with any comparator, on an attribute and value it takes:
    ``lt``/``gt`` on an integer attribute, ``in`` with a list of values."""
    comparator = draw(st.sampled_from(COMPARATORS))
    if comparator in ("lt", "gt"):
        attribute = draw(st.sampled_from(ORDERED_ATTRIBUTES))
        return Condition(attribute, comparator, draw(st.integers(-1, 40_000)))
    attribute = draw(st.sampled_from(ENDPOINT_ATTRIBUTES))
    values = _FIELD_VALUES[attribute]
    if comparator == "in":
        return Condition(attribute, comparator, draw(st.lists(values, max_size=3)))
    return Condition(attribute, comparator, draw(values))


# The comparator semantics, written out independently of policy.py's table.
_ORACLE = {
    "equals": lambda observed, value: observed == value,
    "not_equals": lambda observed, value: observed != value,
    "lt": lambda observed, value: observed < value,
    "gt": lambda observed, value: observed > value,
    "in": lambda observed, value: observed in value,
}


def _oracle_compliant(rule, attrs):
    return all(
        _ORACLE[c.comparator](attrs.get(c.attribute), c.value) for c in rule.condition
    )


def test_oracle_covers_every_comparator():
    assert set(COMPARATORS) == set(_ORACLE)


@settings(max_examples=150, deadline=None)
@given(conditions=st.lists(_conditions(), min_size=1, max_size=3),
       fields=st.lists(_endpoint_fields, min_size=1, max_size=8))
def test_compiled_check_equals_the_conditions_on_random_rules(conditions, fields):
    rule = dataclasses.replace(_PROPERTY_RULES[0], condition=tuple(conditions))
    fleet = Fleet(Endpoint(f"ep-{i:03d}", **f) for i, f in enumerate(fields))
    brute = [
        ep.endpoint_id for ep in fleet.endpoints()
        if not _oracle_compliant(rule, ep.attrs())
    ]
    for ep in fleet.endpoints():
        expected = _oracle_compliant(rule, ep.attrs())
        assert rule.is_compliant(vars(ep)) == expected
        assert rule.is_compliant(ep.attrs()) == expected
    assert make_engine(endpoints=1)._targets_for(rule, fleet) == brute


# Rows as a fleet filter may meet them: any subset of the attributes.
_partial_rows = st.lists(st.fixed_dictionaries({}, optional=_FIELD_VALUES), max_size=8)


@settings(max_examples=150, deadline=None)
@given(conditions=st.lists(_conditions(), min_size=1, max_size=3),
       fields=st.lists(_endpoint_fields, max_size=8), partial=_partial_rows)
def test_compiled_targeting_equals_the_per_endpoint_filter(conditions, fields, partial):
    rule = dataclasses.replace(_PROPERTY_RULES[0], condition=tuple(conditions))
    fleet = Fleet(Endpoint(f"ep-{i:03d}", **f) for i, f in enumerate(fields))
    for rows in ([vars(ep) for ep in fleet.endpoints()], partial):
        # Targeting as it ran before the fleet filter: one check per row.
        per_endpoint = _outcome(lambda: [row for row in rows if not rule.is_compliant(row)])
        oracle = _outcome(lambda: [row for row in rows if not _oracle_compliant(rule, row)])
        got = _outcome(lambda: rule.failing(iter(rows)))
        assert got == per_endpoint == oracle
        if isinstance(got, list):
            assert all(a is b for a, b in zip(got, per_endpoint))
    expected = [ep.endpoint_id for ep in fleet.endpoints() if not rule.is_compliant(vars(ep))]
    assert make_engine(endpoints=1)._targets_for(rule, fleet) == expected


def _outcome(filter_rows):
    """The rows a filter keeps, or the error it raises (``lt`` and ``gt``
    cannot order a missing attribute's None), message and all."""
    try:
        return filter_rows()
    except TypeError as exc:
        return repr(exc)


def test_targeting_rescans_fields_written_between_decisions():
    rule = next(r for r in _PROPERTY_RULES if r.rule_id == "rdp-port-33089")
    fleet = provision_fleet(4)
    engine = make_engine(endpoints=1)
    assert engine._targets_for(rule, fleet) == fleet.ids()
    fleet.get("ep-002").rdp_port = 33089
    assert engine._targets_for(rule, fleet) == ["ep-000", "ep-001", "ep-003"]


def test_targeting_makes_no_per_condition_call(smbv1_doc, rdp_doc, ransomware_doc):
    engine = make_engine(endpoints=6)
    rules = deploy(engine, [smbv1_doc, rdp_doc, ransomware_doc])
    engine.fleet.get("ep-001").smbv1_enabled = False
    engine.fleet.get("ep-002").rdp_port = 33089
    matched = list(rules)
    decision = Decision(
        DecisionKind.STANDARD_MITIGATION_REQUIRED, tuple(r.rule_id for r in matched)
    )
    plan = engine.execute_decision(decision, matched)
    assert sorted({(pa["rule_id"], pa["endpoint_id"]) for pa in plan.actions}) == sorted(
        [("smbv1-disable", eid) for eid in engine.fleet.ids() if eid != "ep-001"]
        + [("rdp-port-33089", eid) for eid in engine.fleet.ids() if eid != "ep-002"]
        + [("outbound-deny-all", eid) for eid in engine.fleet.ids()]
    )


def test_immediate_action_adds_isolation_for_infected(docs):
    engine = make_engine(endpoints=12)
    ransomware = load_policy_file(fixture_path("policies", "ransomware.json"))
    rules = deploy(engine, [ransomware])
    infected = engine.fleet.ids()[:10]
    for eid in infected:
        engine.fleet.get(eid).infected = True
    matched = list(rules)
    decision = Decision(
        DecisionKind.IMMEDIATE_ACTION_REQUIRED, tuple(r.rule_id for r in matched)
    )
    plan = engine.execute_decision(
        decision, matched, ThreatClass(4, ThreatCategory.RANSOMWARE)
    )
    kinds = {}
    for pa in plan.actions:
        kinds.setdefault(pa["kind"], set()).add(pa["endpoint_id"])
    assert kinds["isolate_endpoint"] == set(infected)
    assert kinds["update_firewall_rule"] == set(engine.fleet.ids())
    # remediation precedes isolation on every infected endpoint
    for eid in infected:
        seq = [pa["kind"] for pa in plan.actions if pa["endpoint_id"] == eid]
        assert seq.index("update_firewall_rule") < seq.index("isolate_endpoint")


def test_plan_is_a_total_function_of_inputs(engine, docs):
    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)
    p1 = engine.execute_decision(decision, matched)
    p2 = engine.execute_decision(decision, matched)
    engine.commit_cycle()
    assert [
        (pa["endpoint_id"], pa["kind"], pa["rule_id"]) for pa in p1.actions
    ] == [(pa["endpoint_id"], pa["kind"], pa["rule_id"]) for pa in p2.actions]


def test_decision_metadata_carries_threat_context(engine, docs):
    from policyledger.cti import ThreatReport

    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)
    report = ThreatReport(
        report_id="rp", source="s", actor="actor-x",
        technique_ids=("T1210",), cve_ids=(), cvss=8.0, tokens=("smbv1",),
        received_at=0,
    )
    engine.execute_decision(decision, matched, ThreatClass(3, ThreatCategory.EXPLOIT), report)
    engine.commit_cycle()
    tx = query_history(engine.ledger.chain(), kind=TxKind.ENFORCEMENT_DECISION)[0]
    assert tx.metadata.threat_type == "exploit"
    assert tx.metadata.threat_actor == "actor-x"
    assert tx.metadata.technique_ids == ("T1210",)
    assert tx.metadata.priority == 3
    assert "disable_smbv1" in tx.metadata.recommended_change


def test_equal_decision_metadata_is_one_object(engine, docs):
    from policyledger.cti import ThreatReport

    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)

    def report(technique_ids):
        return ThreatReport(report_id="rp", source="s", actor="actor-x", cve_ids=(), cvss=8.0,
                            technique_ids=technique_ids, tokens=("smbv1",), received_at=0)

    exploit, recon = ThreatClass(3, ThreatCategory.EXPLOIT), ThreatClass(2, ThreatCategory.EXPLOIT)
    for threat_class, techniques in [(exploit, ("T1210",)), (exploit, ["T1210"]),
                                     (recon, ("T1210",)), (exploit, ("T1021",))]:
        engine.execute_decision(decision, matched, threat_class, report(techniques))
        engine.commit_cycle()
    first, again, other_class, other_ids = [
        tx.metadata for tx in query_history(engine.ledger.chain(), kind=TxKind.ENFORCEMENT_DECISION)
    ]
    assert again is first
    assert len({id(first), id(other_class), id(other_ids)}) == 3
    assert (other_class.priority, other_ids.technique_ids) == (2, ("T1021",))


# -- enforce ----------------------------------------------------------------


def test_enforce_zero_failure_applies_everywhere(docs):
    engine = make_engine(endpoints=60, net=NetworkModel(auto_failure_prob=0.0))
    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)
    plan = engine.execute_decision(decision, matched)
    results = engine.enforce(plan)
    engine.commit_cycle()
    assert len(results) == 60
    assert all(r.success for r in results)
    assert all(not ep.smbv1_enabled for ep in engine.fleet.endpoints())


def test_enforce_seeded_success_count_is_pinned(docs):
    engine = make_engine(endpoints=60, seed=42, net=NetworkModel())
    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)
    plan = engine.execute_decision(decision, matched)
    results = engine.enforce(plan)
    engine.commit_cycle()
    # regression constant for seed 42, failure prob 0.02
    assert sum(r.success for r in results) == 59


def test_one_result_tx_per_target(engine, docs):
    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)
    plan = engine.execute_decision(decision, matched)
    results = engine.enforce(plan)
    engine.commit_cycle()
    txs = query_history(engine.ledger.chain(), kind=TxKind.ENFORCEMENT_RESULT)
    assert len(results) == len(plan.actions) == len(txs)
    assert sorted(tx.body()["endpoint_id"] for tx in txs) == sorted(
        pa["endpoint_id"] for pa in plan.actions
    )


def test_ledger_first_ordering_by_timestamps(engine, docs):
    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)
    plan = engine.execute_decision(decision, matched)
    engine.enforce(plan)
    engine.commit_cycle()
    chain = engine.ledger.chain()
    decision_tx = query_history(chain, kind=TxKind.ENFORCEMENT_DECISION)[0]
    for result_tx in query_history(chain, kind=TxKind.ENFORCEMENT_RESULT):
        assert result_tx.timestamp > decision_tx.timestamp


def test_failures_never_roll_back_successes(docs):
    engine = make_engine(endpoints=40, seed=11, net=NetworkModel(auto_failure_prob=0.3))
    rules = deploy(engine, docs[:1])
    decision, matched = standard_decision(rules)
    plan = engine.execute_decision(decision, matched)
    results = engine.enforce(plan)
    engine.commit_cycle()
    succeeded = {r.endpoint_id for r in results if r.success}
    failed = {r.endpoint_id for r in results if not r.success}
    assert succeeded and failed  # both present at p=0.3
    for eid in succeeded:
        assert engine.fleet.get(eid).smbv1_enabled is False
    for eid in failed:
        assert engine.fleet.get(eid).smbv1_enabled is True


def test_decision_cycles_map_to_blocks_one_to_one(engine, docs):
    rules = deploy(engine, docs[:1])
    base_blocks = len(engine.ledger.chain())
    decision, matched = standard_decision(rules)
    for _ in range(3):
        plan = engine.execute_decision(decision, matched)
        engine.enforce(plan)
        engine.commit_cycle()
    assert len(engine.ledger.chain()) == base_blocks + 3


@settings(max_examples=60, deadline=None)
@given(fields=st.lists(_endpoint_fields, min_size=1, max_size=10))
def test_isolation_targets_are_the_live_infected_unisolated_endpoints(fields):
    engine = make_engine(endpoints=len(fields))
    # Written after the fleet is built, so the plan must read live fields.
    for ep, values in zip(engine.fleet.endpoints(), fields):
        for name, value in values.items():
            setattr(ep, name, value)
    plan = engine.execute_decision(Decision(DecisionKind.IMMEDIATE_ACTION_REQUIRED), [])
    assert [pa["endpoint_id"] for pa in plan.actions] == [
        ep.endpoint_id for ep in engine.fleet.endpoints() if ep.infected and not ep.isolated
    ]
    assert {pa["kind"] for pa in plan.actions} <= {"isolate_endpoint"}


# -- value objects built slot by slot ------------------------------------------------


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


# A dict field makes the object unhashable, as the run's objects are; a
# tuple in its place makes it hashable, so both outcomes are compared.
_MAPPING = st.one_of(
    st.dictionaries(st.text(max_size=4), st.integers() | st.booleans(), max_size=3),
    st.tuples(st.text(max_size=4), st.integers()),
)
_TEXT = st.text(max_size=8)
_VALUES = {
    ApplyResult: (_apply_result, st.tuples(
        _TEXT, _TEXT, st.sampled_from(["success", "failure"]), st.none() | _TEXT,
        st.integers(), st.integers(), _MAPPING)),
    # Its slots end with the kept hash, which __init__ leaves unset.
    LedgerBlock: (lambda *fields: _build_block(*fields, None), st.tuples(
        st.integers(), _TEXT, _TEXT, st.integers(),
        st.lists(st.builds(TransactionRecord.create, _TEXT, st.integers(), st.sampled_from(list(TxKind)),
                           _TEXT, st.just({})), max_size=2).map(tuple),
        st.dictionaries(_TEXT, st.sampled_from(["accept", "reject:authorization"]), max_size=3),
        st.none() | st.dictionaries(_TEXT, st.integers(), max_size=2))),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), cls=st.sampled_from(list(_VALUES)))
def test_built_value_objects_equal_their_init_made_twins(data, cls):
    build, values = _VALUES[cls]
    args = data.draw(values)
    built, made = build(*args), cls(*args)
    assert type(built) is cls
    assert built == made and repr(built) == repr(made)
    assert _hash_or_error(built) == _hash_or_error(made)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, dataclasses.fields(cls)[0].name, "other")
