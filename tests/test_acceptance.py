"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import itertools
import json
import math
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats as stats

from test_ledger import committed_chain, mutate_export_single_bit
from test_pipeline import assert_audit_complete
from policyledger.cti import decide
from policyledger.errors import DegenerateInput
from policyledger.ledger import (
    TxKind,
    export_chain,
    import_chain,
    query_history,
    replay_state,
    verify_chain,
)
from policyledger.metrics import (
    act,
    cer,
    confidence_interval,
    paired_t_test,
    variance_std,
)
from policyledger.runner import RunConfig, run_scenario
from policyledger.simnet import (
    AnalystTeam,
    NetworkModel,
    apply_action,
    provision_fleet,
    run_human_process,
)
from policyledger.canonical import substream

SMB_TARGET_ACT_MS = 194_000.0  # 3 minutes 14 seconds
HUMAN_TARGET_ACT_MS = 1_985_000.0  # 33 minutes 5 seconds


def ok(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


# -- criterion 1: metric oracle equivalence ----------------------------------------


def test_acceptance_1_metric_oracle_equivalence():
    rng = random.Random(20_240_601)
    started = time.perf_counter()

    assert cer(57, 60) == 95.00
    assert cer(51, 60) == 85.00
    assert cer(48, 60) == 80.00

    for _ in range(1000):
        n = rng.randint(2, 50)
        xs = [rng.uniform(1.0, 1e6) for _ in range(n)]
        ys = [x + rng.gauss(40.0, 25.0) for x in xs]

        ref_mean = float(np.mean(xs))
        assert abs(act(xs) - ref_mean) <= 1e-9 * abs(ref_mean)

        var, sd = variance_std(xs)
        ref_var = float(np.var(xs, ddof=1))
        assert abs(var - ref_var) <= 1e-9 * abs(ref_var)
        assert abs(sd - math.sqrt(ref_var)) <= 1e-9 * math.sqrt(ref_var)

        lo, hi = confidence_interval(xs, 1.96)
        half = 1.96 * math.sqrt(ref_var) / math.sqrt(n)
        assert abs(lo - (ref_mean - half)) <= 1e-9 * max(1.0, abs(ref_mean))
        assert abs(hi - (ref_mean + half)) <= 1e-9 * max(1.0, abs(ref_mean))

        s = rng.randint(0, n)
        assert cer(s, n) == round(s / n * 100.0, 2)

        try:
            ours = paired_t_test(xs, ys)
        except DegenerateInput:
            continue
        ref_t, ref_p = stats.ttest_rel(xs, ys)
        assert abs(ours.t - ref_t) <= 1e-9 * abs(ref_t)
        assert abs(ours.p - ref_p) <= 1e-9 * max(ref_p, 1e-300)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    ok(1, "metric-oracle-equivalence")


# -- criterion 2: calibrated comparison over 200 seeds ------------------------------


DISABLE = "disable_smbv1"


def _one_seed_comparison(seed: int):
    """Default-config SMBv1 enforcement, automated vs human, one seed."""
    net = NetworkModel()
    team = AnalystTeam.default()

    auto_fleet = provision_fleet(60)
    auto = {
        eid: apply_action(
            auto_fleet, eid, DISABLE, {}, net, substream(seed, "auto", 1, eid, DISABLE), 0
        )
        for eid in auto_fleet.ids()
    }
    human_fleet = provision_fleet(60)
    plan = [(eid, DISABLE, {}) for eid in human_fleet.ids()]
    human = {
        r.endpoint_id: r
        for r in run_human_process(plan, team, net, seed, human_fleet, 0)
    }

    auto_ok = [r for r in auto.values() if r.success]
    human_ok = [r for r in human.values() if r.success]
    stats_out = {
        "auto_cer": cer(len(auto_ok), 60),
        "human_cer": cer(len(human_ok), 60),
        "auto_act": act([r.duration_ms for r in auto_ok]),
        "human_act": act([r.duration_ms for r in human_ok]),
        "auto_sd": variance_std([r.duration_ms for r in auto_ok])[1],
        "human_sd": variance_std([r.duration_ms for r in human_ok])[1],
    }
    shared = sorted(
        eid for eid in auto if auto[eid].success and human[eid].success
    )
    result = paired_t_test(
        [human[eid].duration_ms for eid in shared],
        [auto[eid].duration_ms for eid in shared],
    )
    stats_out["p"] = result.p
    return stats_out


def test_acceptance_2_calibrated_reproduction():
    started = time.perf_counter()
    rows = [_one_seed_comparison(seed) for seed in range(200)]

    mean_auto_cer = statistics.mean(r["auto_cer"] for r in rows)
    mean_human_cer = statistics.mean(r["human_cer"] for r in rows)
    mean_auto_act = statistics.mean(r["auto_act"] for r in rows)
    mean_human_act = statistics.mean(r["human_act"] for r in rows)
    p_hits = sum(r["p"] < 0.05 for r in rows) / len(rows)
    sd_hits = sum(r["auto_sd"] < r["human_sd"] for r in rows) / len(rows)

    assert 95.0 <= mean_auto_cer <= 100.0, mean_auto_cer
    assert 78.0 <= mean_human_cer <= 88.0, mean_human_cer
    assert abs(mean_auto_act - SMB_TARGET_ACT_MS) <= 0.20 * SMB_TARGET_ACT_MS, mean_auto_act
    assert abs(mean_human_act - HUMAN_TARGET_ACT_MS) <= 0.20 * HUMAN_TARGET_ACT_MS, mean_human_act
    assert p_hits >= 0.95, p_hits
    assert sd_hits >= 0.95, sd_hits

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
    ok(2, "calibrated-comparison "
          f"(autoCER {mean_auto_cer:.2f}, humanCER {mean_human_cer:.2f}, "
          f"autoACT {mean_auto_act / 1000:.1f}s, humanACT {mean_human_act / 1000:.1f}s, "
          f"p<0.05 in {p_hits:.0%}, sigma_auto<sigma_human in {sd_hits:.0%})")


# -- criterion 3: decision tree exhaustive equivalence -------------------------------


@dataclass(frozen=True)
class RuleStub:
    rule_id: str
    severity_weight: int


def test_acceptance_3_decision_tree_exhaustive():
    started = time.perf_counter()

    def brute(severities, threshold):
        if not severities:
            return "no_action_required"
        if max(severities) > threshold:
            return "immediate_action_required"
        return "standard_mitigation_required"

    cases = 0
    for size in range(0, 5):
        for combo in itertools.product(range(5), repeat=size):
            rules = [RuleStub(f"r{i}", s) for i, s in enumerate(combo)]
            for threshold in range(5):
                assert decide(rules, threshold).kind.value == brute(combo, threshold)
                cases += 1
    assert cases == 3905  # covers all 3,150 multiset cases and more
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    ok(3, f"decision-tree-exhaustive ({cases} cases)")


# -- criterion 4: tamper evidence ---------------------------------------------------


def test_acceptance_4_tamper_evidence(tmp_path):
    ledger = committed_chain(n_blocks=49, txs_per_block=2)  # 50 incl. genesis
    assert len(ledger.chain()) == 50
    clean = tmp_path / "chain.ndjson"
    export_chain(ledger.chain(), clean)
    clean_bytes = clean.read_bytes()

    started = time.perf_counter()
    rng = random.Random(77)
    work = tmp_path / "mutated.ndjson"
    for trial in range(1000):
        work.write_bytes(clean_bytes)
        target = mutate_export_single_bit(work, rng)
        verdict = verify_chain(import_chain(work))
        assert not verdict.ok, f"trial {trial}: mutation at block {target} undetected"
        assert verdict.first_bad_index == target, (
            f"trial {trial}: first bad {verdict.first_bad_index} != mutated {target}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s"
    ok(4, f"tamper-evidence (1000 mutations, {elapsed:.2f}s)")


# -- criterion 5: replay and report determinism ---------------------------------------


def test_acceptance_5_replay_report_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"), outdir=out1)
    r2 = run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"), outdir=out2)
    for name in ("chain.ndjson", "report.json", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    state = replay_state(import_chain(out1 / "chain.ndjson"))
    for arm, snap in (("automated", r1.fleet_snapshot), ("human", r1.human_snapshot)):
        for endpoint_id, attrs in state.endpoint_attrs.get(arm, {}).items():
            for attr, value in attrs.items():
                assert snap[endpoint_id][attr] == value, (arm, endpoint_id, attr)
    assert state.endpoint_attrs.get("automated"), "replay tracked no automated state"
    ok(5, "replay-report-determinism")


# -- criterion 6: ransomware response over 200 seeds -----------------------------------


def test_acceptance_6_ransomware_coverage():
    coverages = []
    for seed in range(200):
        result = run_scenario(
            RunConfig(seed=seed, scenario="ransomware", mode="automated", endpoints=60)
        )
        assert result.outcomes[0].decision.kind.value == "immediate_action_required"
        infected = {
            eid for eid, attrs in result.fleet_snapshot.items() if attrs["infected"]
        }
        assert len(infected) == 10
        isolated_ok, firewalled_ok = set(), set()
        for tx in query_history(result.chain, kind=TxKind.ENFORCEMENT_RESULT):
            body = tx.body()
            if body["outcome"] != "success":
                continue
            if body["action_kind"] == "isolate_endpoint":
                isolated_ok.add(body["endpoint_id"])
            elif body["action_kind"] == "update_firewall_rule":
                firewalled_ok.add(body["endpoint_id"])
        covered = infected & isolated_ok & firewalled_ok
        coverages.append(len(covered) / len(infected))
    mean_coverage = statistics.mean(coverages)
    assert mean_coverage >= 0.90, mean_coverage
    ok(6, f"ransomware-coverage (mean {mean_coverage:.1%} over 200 seeds)")


# -- criterion 7: audit completeness fuzz ----------------------------------------------


_FUZZ_RULE_POOL = [
    # coherent (condition, remediation) pairs over the endpoint vocabulary
    {
        "rule_id": "fz-smb",
        "condition": [{"attribute": "smbv1_enabled", "comparator": "equals", "value": False}],
        "remediation": {"kind": "disable_smbv1", "params": {}},
        "technique_tags": ["T1210"],
    },
    {
        "rule_id": "fz-rdp",
        "condition": [{"attribute": "rdp_port", "comparator": "equals", "value": 40000}],
        "remediation": {"kind": "set_rdp_port", "params": {"port": 40000}},
        "technique_tags": ["T1021.001"],
    },
    {
        "rule_id": "fz-proxy",
        "condition": [{"attribute": "proxy_outbound_blocked", "comparator": "equals", "value": True}],
        "remediation": {"kind": "update_proxy_rule", "params": {"blocked": True}},
        "technique_tags": ["T1105"],
    },
    {
        "rule_id": "fz-patch",
        "condition": [{"attribute": "patch_level", "comparator": "gt", "value": 0}],
        "remediation": {"kind": "apply_patch", "params": {"level": 1}},
        "technique_tags": ["T1190", "T1068"],
    },
]

_FUZZ_TOKENS = [
    "ransomware", "exploit", "phishing", "scanning", "malware", "advisory",
    "bulletin", "trojan", "botnet", "bruteforce", "maintenance", "escalation",
]
_FUZZ_TECHNIQUES = ["T1210", "T1021.001", "T1105", "T1190", "T1068", "T1486", "T1595"]


def _fuzz_policy_file(tmp_path, rng, idx):
    n_rules = rng.randint(1, len(_FUZZ_RULE_POOL))
    rules = []
    for template in rng.sample(_FUZZ_RULE_POOL, n_rules):
        rule = json.loads(json.dumps(template))
        rule["rule_id"] = f"{rule['rule_id']}-{idx}"
        rule["severity_weight"] = rng.randint(0, 4)
        rule["regulatory_importance"] = rng.randint(0, 4)
        rules.append(rule)
    doc = {
        "policy_id": f"fuzz-policy-{idx}",
        "title": f"fuzz document {idx}",
        "version": 1,
        "source_framework": "fuzz",
        "effective_from": 0,
        "rules": rules,
    }
    path = tmp_path / f"policy-{idx}.json"
    path.write_text(json.dumps(doc))
    return path


def _fuzz_feed_file(tmp_path, rng, idx):
    items = []
    for i in range(rng.randint(1, 4)):
        items.append(
            {
                "report_id": f"fuzz-{idx}-{i}",
                "source": "fuzz",
                "technique_ids": rng.sample(_FUZZ_TECHNIQUES, rng.randint(0, 3)),
                "cve_ids": [],
                "cvss": round(rng.uniform(0, 10), 1) if rng.random() < 0.7 else None,
                "text": " ".join(rng.choices(_FUZZ_TOKENS, k=rng.randint(2, 8))),
                "received_at": 5000 + i,
            }
        )
    path = tmp_path / f"feed-{idx}.json"
    path.write_text(json.dumps(items))
    return path


def test_acceptance_7_audit_completeness_fuzz(tmp_path):
    rng = random.Random(4321)
    for case in range(100):
        policy = _fuzz_policy_file(tmp_path, rng, case)
        feed = _fuzz_feed_file(tmp_path, rng, case)
        config = RunConfig(
            seed=rng.randrange(10_000),
            endpoints=rng.randint(3, 12),
            scenario="custom",
            mode=rng.choice(["automated", "both"]),
            policies=[str(policy)],
            feeds=[str(feed)],
            network={"auto_failure_prob": round(rng.uniform(0.0, 0.3), 2)},
            infected_count=0,
        )
        result = run_scenario(config)
        assert verify_chain(result.chain).ok
        assert_audit_complete(
            result.chain,
            {"automated": result.fleet, "human": result.human_fleet},
        )
    ok(7, "audit-completeness-fuzz (100 randomized scenarios)")


# -- criterion 8: end-to-end runtime ----------------------------------------------------


def test_acceptance_8_default_run_under_ten_seconds(tmp_path):
    started = time.perf_counter()
    result = run_scenario(
        RunConfig(seed=42, scenario="smbv1", mode="both", endpoints=60),
        outdir=tmp_path / "out",
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"default run took {elapsed:.2f}s"
    assert result.files and verify_chain(result.chain).ok
    ok(8, f"default-run-runtime ({elapsed:.2f}s)")
