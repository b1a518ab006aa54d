"""End-to-end pipeline behavior and seeded regression pins."""

import json

import pytest

from conftest import make_engine, perfbench_feed
from policyledger.cti import DecisionKind, ForestModel, ingest_feed, process_threat_intelligence, read_feed
from policyledger.ledger import TxKind, query_history, replay_state, verify_chain
from policyledger.runner import RunConfig, fixture_path, run_scenario


def load_model():
    return ForestModel.from_file(fixture_path("model.json"))


def smb_feed(n_items=1, received=5000):
    template = json.loads(fixture_path("feeds", "smbv1_advisory.json").read_text())[0]
    items = []
    for i in range(n_items):
        item = dict(template)
        item["report_id"] = f"feed-smb-{i:03d}"
        item["received_at"] = received + i
        items.append(item)
    return ingest_feed(items)[0]


def assert_audit_complete(chain, fleets):
    """Every enforcement-driven mutation has exactly one successful
    result transaction, and no result is duplicated."""
    tx_mutations = set()
    seen_keys = set()
    for tx in query_history(chain, kind=TxKind.ENFORCEMENT_RESULT):
        body = tx.body()
        key = (body["plan_id"], body["endpoint_id"], body["action_kind"])
        assert key not in seen_keys, f"duplicate result for {key}"
        seen_keys.add(key)
        if body["outcome"] != "success":
            continue
        for attr in body["applied"]:
            tx_mutations.add((tx.metadata.arm, body["endpoint_id"], attr, body["finished_at"]))
    fleet_mutations = set()
    for arm, fleet in fleets.items():
        if fleet is None:
            continue
        for m in fleet.mutation_log:
            fleet_mutations.add((arm, m["endpoint_id"], m["attribute"], m["tick"]))
    assert fleet_mutations == tx_mutations


# -- process_threat_intelligence ---------------------------------------------------


def test_empty_feed_commits_nothing(engine, smbv1_doc):
    rules = engine.deploy_contract([smbv1_doc])
    blocks_before = len(engine.ledger.chain())
    outcomes, model = process_threat_intelligence([], load_model(), rules, engine)
    assert outcomes == []
    assert len(engine.ledger.chain()) == blocks_before


def test_one_cycle_block_per_report(smbv1_doc):
    engine = make_engine(endpoints=6)
    rules = engine.deploy_contract([smbv1_doc])
    blocks_before = len(engine.ledger.chain())
    outcomes, _ = process_threat_intelligence(
        smb_feed(12), load_model(), rules, engine
    )
    assert len(outcomes) == 12
    # one block per decision cycle
    assert len(engine.ledger.chain()) == blocks_before + 12
    decisions = query_history(engine.ledger.chain(), kind=TxKind.ENFORCEMENT_DECISION)
    assert len(decisions) == 12


def test_smbv1_feed_drives_standard_mitigation(smbv1_doc):
    engine = make_engine(endpoints=10)
    rules = engine.deploy_contract([smbv1_doc])
    outcomes, model = process_threat_intelligence(
        smb_feed(1), load_model(), rules, engine
    )
    o = outcomes[0]
    assert o.threat_class.severity == 3
    assert o.decision.kind == DecisionKind.STANDARD_MITIGATION_REQUIRED
    assert o.decision.matched_rule_ids == ("smbv1-disable",)
    assert len(o.results) == 10
    # feedback applied: exploit-voting stumps moved
    base = load_model()
    assert model.weights != base.weights


def test_benign_feed_drives_no_action(smbv1_doc):
    engine = make_engine(endpoints=4)
    rules = engine.deploy_contract([smbv1_doc])
    reports, _ = ingest_feed(read_feed(fixture_path("feeds", "benign.json")))
    outcomes, _ = process_threat_intelligence(reports, load_model(), rules, engine)
    assert outcomes[0].decision.kind == DecisionKind.NO_ACTION_REQUIRED
    assert outcomes[0].results == []


def test_second_pass_is_idempotent_no_new_targets(smbv1_doc):
    engine = make_engine(endpoints=8, net=None)
    engine.net.auto_failure_prob = 0.0
    rules = engine.deploy_contract([smbv1_doc])
    process_threat_intelligence(smb_feed(1), load_model(), rules, engine)
    outcomes, _ = process_threat_intelligence(
        smb_feed(1, received=9000), load_model(), rules, engine
    )
    # fleet already compliant: standard decision with an empty plan
    assert outcomes[0].decision.kind == DecisionKind.STANDARD_MITIGATION_REQUIRED
    assert outcomes[0].results == []


# -- full scenario runs -------------------------------------------------------------


def test_default_smbv1_run_produces_sixty_result_records():
    result = run_scenario(RunConfig(seed=42, scenario="smbv1", mode="automated"))
    results = query_history(result.chain, kind=TxKind.ENFORCEMENT_RESULT)
    assert len(results) == 60  # one per endpoint application
    assert verify_chain(result.chain).ok


def test_smbv1_run_seed42_regression_pins():
    result = run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"))
    entry = result.report.per_policy["smbv1-hardening"]
    # pinned after first run at seed 42 (regression constants)
    assert entry["automated"]["successes"] == 59
    assert entry["automated"]["cer"] == pytest.approx(98.33)
    assert entry["human"]["successes"] == 52
    assert entry["human"]["cer"] == pytest.approx(86.67)
    assert entry["paired"]["p"] < 0.05
    assert entry["automated"]["std_ms"] < entry["human"]["std_ms"]


def test_ransomware_run_isolates_and_blocks(tmp_path):
    result = run_scenario(RunConfig(seed=7, scenario="ransomware", mode="automated"))
    assert result.outcomes[0].decision.kind == DecisionKind.IMMEDIATE_ACTION_REQUIRED
    infected = {eid for eid, a in result.fleet_snapshot.items() if a["infected"]}
    assert len(infected) == 10
    iso_targets = {
        tx.body()["endpoint_id"]
        for tx in query_history(result.chain, kind=TxKind.ENFORCEMENT_RESULT)
        if tx.body()["action_kind"] == "isolate_endpoint"
    }
    assert iso_targets == infected  # isolation targets exactly the infected set
    alerts = query_history(result.chain, kind=TxKind.THREAT_ALERT)
    assert len(alerts) == 1
    assert sorted(alerts[0].body()["affected"]) == sorted(infected)


def test_replay_matches_live_snapshot_on_tracked_fields():
    result = run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"))
    state = replay_state(result.chain)
    for arm, snap in (("automated", result.fleet_snapshot), ("human", result.human_snapshot)):
        tracked = state.endpoint_attrs.get(arm, {})
        assert tracked, f"no tracked state for {arm}"
        for endpoint_id, attrs in tracked.items():
            for attr, value in attrs.items():
                assert snap[endpoint_id][attr] == value, (arm, endpoint_id, attr)


def test_audit_completeness_on_default_runs():
    for scenario in ("smbv1", "rdp", "ransomware"):
        result = run_scenario(RunConfig(seed=11, scenario=scenario, mode="both"))
        assert verify_chain(result.chain).ok
        assert_audit_complete(
            result.chain, {"automated": result.fleet, "human": result.human_fleet}
        )


def test_each_result_executes_its_decisions_planned_item(tmp_path, monkeypatch):
    """For every decision record, the result records that carry its plan id
    are, in chain order, its planned items one to one."""
    feed = tmp_path / "feed.json"
    feed.write_text(json.dumps(perfbench_feed(1, 40, monkeypatch)), encoding="utf-8")
    policies = [str(fixture_path("policies", f"{name}.json")) for name in ("smbv1", "rdp", "ransomware")]
    configs = [RunConfig(seed=1, endpoints=6, scenario=scenario, mode=mode, infected_count=3)
               for scenario in ("smbv1", "rdp", "ransomware") for mode in ("automated", "human", "both")]
    configs.append(RunConfig(seed=2, endpoints=6, scenario="custom", policies=policies, feeds=[str(feed)]))
    decisions, kinds = set(), set()
    for config in configs:
        chain = run_scenario(config).chain
        executed: dict = {}
        for tx in query_history(chain, kind=TxKind.ENFORCEMENT_RESULT):
            body = tx.body()
            executed.setdefault(body["plan_id"], []).append(
                (body["endpoint_id"], body["action_kind"], body["params"], body["rule_id"]))
        for tx in query_history(chain, kind=TxKind.ENFORCEMENT_DECISION):
            body = tx.body()
            planned = [(p["endpoint_id"], p["kind"], p["params"], p["rule_id"]) for p in body["planned"]]
            assert executed.pop(body["plan_id"], []) == planned, (config.scenario, config.mode, body["plan_id"])
            decisions.add(body["decision"])
            kinds.update(kind for _, kind, _, _ in planned)
        assert executed == {}, (config.scenario, config.mode)
    assert "immediate_action_required" in decisions and "isolate_endpoint" in kinds

def test_human_arm_records_land_on_the_same_chain():
    result = run_scenario(RunConfig(seed=5, scenario="smbv1", mode="both"))
    arms = {
        tx.metadata.arm
        for tx in query_history(result.chain, kind=TxKind.ENFORCEMENT_RESULT)
    }
    assert arms == {"automated", "human"}
    human_actor = {
        tx.actor
        for tx in query_history(result.chain, kind=TxKind.ENFORCEMENT_RESULT)
        if tx.metadata.arm == "human"
    }
    assert human_actor == {"human-team"}


def test_rdp_run_hits_the_moved_port():
    result = run_scenario(RunConfig(seed=13, scenario="rdp", mode="automated"))
    moved = [
        attrs["rdp_port"] == 33089
        for attrs in result.fleet_snapshot.values()
    ]
    assert sum(moved) >= 55  # near-full coverage at 2% failure
    entry = result.report.per_policy["rdp-port"]
    assert entry["automated"]["act_ms"] == pytest.approx(321_000, rel=0.01)
