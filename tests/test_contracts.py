"""Contract engine: lifecycle, events, audits, decisions, enforcement."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_engine
from policyledger.contracts import ContractEngine, ContractEvent
from policyledger.cti import Decision, DecisionKind, ThreatClass, ThreatCategory
from policyledger.errors import InputError, LedgerUnavailable, UnknownContract
from policyledger.ledger import TxKind, query_history
from policyledger.policy import load_policy_document, load_policy_file
from policyledger.runner import fixture_path
from policyledger.simnet import Endpoint, Fleet, NetworkModel, SimClock, provision_fleet


@pytest.fixture
def docs():
    return [
        load_policy_file(fixture_path("policies", "smbv1.json")),
        load_policy_file(fixture_path("policies", "rdp.json")),
    ]


def deploy(engine, docs, contract_id="compliancecontract"):
    engine.clock.advance(100)
    return engine.deploy_contract(contract_id, docs)


def standard_decision(contract):
    matched = [r for r in contract.rule_set if r.rule_id == "smbv1-disable"]
    return Decision(DecisionKind.STANDARD_MITIGATION_REQUIRED, ("smbv1-disable",)), matched


# -- deploy / upgrade -----------------------------------------------------------


def test_deploy_creates_active_v1_with_ledger_trail(engine, docs):
    contract = deploy(engine, docs[:1])
    assert contract.version == 1 and contract.lifecycle == "active"
    deploys = query_history(engine.ledger.chain(), kind=TxKind.POLICY_DEPLOY)
    assert len(deploys) == 1
    assert deploys[0].body()["policy_id"] == "smbv1-hardening"


def test_deploy_empty_rule_set_is_input_error(engine):
    with pytest.raises(InputError):
        engine.deploy_contract("c", [])


def test_two_contracts_coexist(engine, docs):
    c1 = deploy(engine, docs[:1], "contract-a")
    c2 = deploy(engine, docs[1:], "contract-b")
    assert c1.lifecycle == c2.lifecycle == "active"
    assert len(query_history(engine.ledger.chain(), kind=TxKind.POLICY_DEPLOY)) == 2


def test_deploy_without_ledger_is_refused(docs):
    clock = SimClock(0)
    fleet = provision_fleet(2)
    engine = ContractEngine(
        ledger=None, fleet=fleet, clock=clock, net=NetworkModel(seed=1), master_seed=1
    )
    with pytest.raises(LedgerUnavailable):
        engine.deploy_contract("c", docs[:1])


def test_upgrade_supersedes_and_keeps_history(engine, docs):
    deploy(engine, docs[:1])
    doc_v2_dict = docs[0].to_dict()
    doc_v2_dict["version"] = 2
    import json

    from policyledger.policy import load_policy_document

    doc_v2 = load_policy_document(json.dumps(doc_v2_dict))
    upgraded = engine.upgrade_contract("compliancecontract", [doc_v2])
    assert upgraded.version == 2 and upgraded.lifecycle == "active"
    versions = engine.contracts["compliancecontract"]
    assert versions[0].lifecycle == "superseded"
    assert versions[0].rule_set is not None  # still queryable
    history = query_history(engine.ledger.chain(), policy_id="smbv1-hardening")
    kinds = [tx.kind for tx in history]
    assert TxKind.POLICY_DEPLOY in kinds and TxKind.POLICY_UPDATE in kinds
    assert [tx.body()["version"] for tx in history] == [1, 2]


def test_upgrade_unknown_contract(engine, docs):
    with pytest.raises(UnknownContract):
        engine.upgrade_contract("missing", docs[:1])


def test_exactly_one_active_version_at_all_times(engine, docs):
    import json

    from policyledger.policy import load_policy_document

    deploy(engine, docs[:1])
    for version in (2, 3):
        d = docs[0].to_dict()
        d["version"] = version
        engine.upgrade_contract("compliancecontract", [load_policy_document(json.dumps(d))])
        active = [c for c in engine.contracts["compliancecontract"] if c.lifecycle == "active"]
        assert len(active) == 1 and active[0].version == version


def test_in_flight_checks_pin_their_contract_version(engine, docs):
    import json

    from policyledger.policy import load_policy_document

    deploy(engine, docs[:1])
    pinned = engine.active_contract("compliancecontract")
    d = docs[0].to_dict()
    d["version"] = 2
    engine.upgrade_contract("compliancecontract", [load_policy_document(json.dumps(d))])
    event = ContractEvent("e1", "scheduled_audit", "fleet", engine.clock.now)
    results = engine.handle_event(event, contract=pinned)
    engine.commit_cycle()
    assert results and pinned.version == 1  # ran against the pinned version


# -- handle_event -----------------------------------------------------------------


def test_app_deployed_on_legacy_endpoint_is_non_compliant(engine, docs):
    contract = deploy(engine, docs[:1])
    event = ContractEvent("e1", "app_deployed", "ep-000", engine.clock.now + 10)
    results = engine.handle_event(event)
    engine.commit_cycle()
    assert len(results) == 1
    assert results[0].verdict == "non_compliant"
    assert results[0].observed == {"smbv1_enabled": True}
    checks = query_history(engine.ledger.chain(), kind=TxKind.COMPLIANCE_CHECK)
    assert len(checks) == 1


def test_scheduled_audit_on_compliant_fleet_is_all_compliant(engine, docs):
    deploy(engine, docs[:1])
    for ep in engine.fleet.endpoints():
        ep.smbv1_enabled = False
    event = ContractEvent("e2", "scheduled_audit", "fleet", engine.clock.now + 10)
    results = engine.handle_event(event)
    engine.commit_cycle()
    assert len(results) == len(engine.fleet)
    assert all(r.compliant for r in results)


def test_config_change_back_to_default_port_is_detected(engine, docs):
    deploy(engine, docs[1:])
    ep = engine.fleet.get("ep-003")
    ep.rdp_port = 3389  # user action outside enforcement
    event = ContractEvent("e3", "config_changed", "ep-003", engine.clock.now + 10)
    results = engine.handle_event(event)
    engine.commit_cycle()
    assert results[0].verdict == "non_compliant"
    assert results[0].observed == {"rdp_port": 3389}


def test_unknown_subject_yields_warning_tx(engine, docs):
    deploy(engine, docs[:1])
    event = ContractEvent("e4", "app_deployed", "ep-999", engine.clock.now + 10)
    results = engine.handle_event(event)
    engine.commit_cycle()
    assert results == []
    checks = query_history(engine.ledger.chain(), kind=TxKind.COMPLIANCE_CHECK)
    assert len(checks) == 1 and checks[0].body()["warning"] == "unknown_subject"


def test_unknown_event_kind_rejected():
    with pytest.raises(InputError):
        ContractEvent("e", "reboot", "ep-000", 0)


# -- run_full_audit ----------------------------------------------------------------


def test_audit_evaluates_the_cartesian_product(docs):
    engine = make_engine(endpoints=60)
    deploy(engine, docs)  # 2 rules
    report = engine.run_full_audit()
    assert len(report.results) == 120
    blocks = engine.ledger.chain()
    assert len(blocks[-1].transactions) == 120  # committed as one block


def test_audit_aggregate_on_compliant_fleet_is_one(engine, docs):
    deploy(engine, docs[:1])
    for ep in engine.fleet.endpoints():
        ep.smbv1_enabled = False
    report = engine.run_full_audit()
    assert report.aggregate == 1.0
    assert report.per_policy == {"smbv1-hardening": 1.0}


def test_audit_aggregate_matches_brute_count_mid_scenario(docs):
    engine = make_engine(endpoints=20, seed=9)
    deploy(engine, docs)
    # leave endpoints 0-6 non-compliant on smbv1, 0-11 on rdp
    for ep in engine.fleet.endpoints()[7:]:
        ep.smbv1_enabled = False
    for ep in engine.fleet.endpoints()[12:]:
        ep.rdp_port = 33089
    report = engine.run_full_audit()
    # brute-force oracle over the snapshot
    from policyledger.simnet import snapshot

    snap = snapshot(engine.fleet)
    contract = engine.active_contract("compliancecontract")
    expected_ok = sum(
        1
        for attrs in snap.values()
        for rule in contract.rule_set
        if rule.is_compliant(attrs)
    )
    assert report.aggregate == pytest.approx(expected_ok / 40)


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


def test_standard_mitigation_targets_only_non_compliant(engine, docs):
    contract = deploy(engine, docs[:1])
    for eid in ("ep-000", "ep-001"):
        engine.fleet.get(eid).smbv1_enabled = False
    decision, matched = standard_decision(contract)
    plan = engine.execute_decision(decision, matched)
    targets = {pa.endpoint_id for pa in plan.actions}
    assert targets == set(engine.fleet.ids()) - {"ep-000", "ep-001"}
    assert all(pa.action.kind == "disable_smbv1" for pa in plan.actions)


def test_targeting_does_not_copy_endpoint_attrs(monkeypatch, smbv1_doc, rdp_doc,
                                                ransomware_doc):
    # Copying every endpoint's attrs() per matched rule dominated targeting.
    engine = make_engine(endpoints=6)
    contract = deploy(engine, [smbv1_doc, rdp_doc, ransomware_doc])
    engine.fleet.get("ep-001").smbv1_enabled = False
    engine.fleet.get("ep-002").rdp_port = 33089

    def no_copy(self):
        raise AssertionError("targeting copied an endpoint's attrs()")

    monkeypatch.setattr(Endpoint, "attrs", no_copy)
    matched = list(contract.rule_set)
    decision = Decision(
        DecisionKind.STANDARD_MITIGATION_REQUIRED, tuple(r.rule_id for r in matched)
    )
    plan = engine.execute_decision(decision, matched)
    targets = {}
    for pa in plan.actions:
        targets.setdefault(pa.rule_id, set()).add(pa.endpoint_id)
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

_endpoint_fields = st.fixed_dictionaries({
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
})


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


def test_immediate_action_adds_isolation_for_infected(docs):
    engine = make_engine(endpoints=12)
    ransomware = load_policy_file(fixture_path("policies", "ransomware.json"))
    contract = deploy(engine, [ransomware])
    infected = engine.fleet.ids()[:10]
    for eid in infected:
        engine.fleet.get(eid).infected = True
    matched = list(contract.rule_set)
    decision = Decision(
        DecisionKind.IMMEDIATE_ACTION_REQUIRED, tuple(r.rule_id for r in matched)
    )
    plan = engine.execute_decision(
        decision, matched, ThreatClass(4, ThreatCategory.RANSOMWARE)
    )
    kinds = {}
    for pa in plan.actions:
        kinds.setdefault(pa.action.kind, set()).add(pa.endpoint_id)
    assert kinds["isolate_endpoint"] == set(infected)
    assert kinds["update_firewall_rule"] == set(engine.fleet.ids())
    # remediation precedes isolation on every infected endpoint
    for eid in infected:
        seq = [pa.action.kind for pa in plan.actions if pa.endpoint_id == eid]
        assert seq.index("update_firewall_rule") < seq.index("isolate_endpoint")


def test_plan_is_a_total_function_of_inputs(engine, docs):
    contract = deploy(engine, docs[:1])
    decision, matched = standard_decision(contract)
    p1 = engine.execute_decision(decision, matched)
    p2 = engine.execute_decision(decision, matched)
    engine.commit_cycle()
    assert [
        (pa.endpoint_id, pa.action.kind, pa.rule_id) for pa in p1.actions
    ] == [(pa.endpoint_id, pa.action.kind, pa.rule_id) for pa in p2.actions]


def test_decision_metadata_carries_threat_context(engine, docs):
    from policyledger.cti import ThreatReport

    contract = deploy(engine, docs[:1])
    decision, matched = standard_decision(contract)
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


# -- enforce ----------------------------------------------------------------


def test_enforce_zero_failure_applies_everywhere(docs):
    engine = make_engine(endpoints=60, net=NetworkModel(auto_failure_prob=0.0, seed=4))
    contract = deploy(engine, docs[:1])
    decision, matched = standard_decision(contract)
    plan = engine.execute_decision(decision, matched)
    results = engine.enforce(plan)
    engine.commit_cycle()
    assert len(results) == 60
    assert all(r.success for r in results)
    assert all(not ep.smbv1_enabled for ep in engine.fleet.endpoints())


def test_enforce_seeded_success_count_is_pinned(docs):
    engine = make_engine(endpoints=60, seed=42, net=NetworkModel(seed=42))
    contract = deploy(engine, docs[:1])
    decision, matched = standard_decision(contract)
    plan = engine.execute_decision(decision, matched)
    results = engine.enforce(plan)
    engine.commit_cycle()
    # regression constant for seed 42, failure prob 0.02
    assert sum(r.success for r in results) == 59


def test_one_result_tx_per_target(engine, docs):
    contract = deploy(engine, docs[:1])
    decision, matched = standard_decision(contract)
    plan = engine.execute_decision(decision, matched)
    results = engine.enforce(plan)
    engine.commit_cycle()
    txs = query_history(engine.ledger.chain(), kind=TxKind.ENFORCEMENT_RESULT)
    assert len(results) == len(plan.actions) == len(txs)
    assert sorted(tx.body()["endpoint_id"] for tx in txs) == sorted(
        pa.endpoint_id for pa in plan.actions
    )


def test_ledger_first_ordering_by_timestamps(engine, docs):
    contract = deploy(engine, docs[:1])
    decision, matched = standard_decision(contract)
    plan = engine.execute_decision(decision, matched)
    engine.enforce(plan)
    engine.commit_cycle()
    chain = engine.ledger.chain()
    decision_tx = query_history(chain, kind=TxKind.ENFORCEMENT_DECISION)[0]
    for result_tx in query_history(chain, kind=TxKind.ENFORCEMENT_RESULT):
        assert result_tx.timestamp > decision_tx.timestamp


def test_failures_never_roll_back_successes(docs):
    engine = make_engine(endpoints=40, seed=11, net=NetworkModel(auto_failure_prob=0.3, seed=11))
    contract = deploy(engine, docs[:1])
    decision, matched = standard_decision(contract)
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
    contract = deploy(engine, docs[:1])
    base_blocks = len(engine.ledger.chain())
    decision, matched = standard_decision(contract)
    for _ in range(3):
        plan = engine.execute_decision(decision, matched)
        engine.enforce(plan)
        engine.commit_cycle()
    assert len(engine.ledger.chain()) == base_blocks + 3


def test_execute_decision_without_ledger_is_refused(docs):
    engine = ContractEngine(
        ledger=None,
        fleet=provision_fleet(2),
        clock=SimClock(0),
        net=NetworkModel(seed=1),
        master_seed=1,
    )
    with pytest.raises(LedgerUnavailable):
        engine.execute_decision(Decision(DecisionKind.NO_ACTION_REQUIRED), [])
