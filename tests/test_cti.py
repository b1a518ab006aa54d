"""CTI pipeline: ingestion, encoding, the stump forest and the decision."""

import dataclasses
import importlib.util
import itertools
import json
import math
import operator
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from policyledger import cti as cti_module
from policyledger.cti import (
    CVSS_ABSENT,
    CVSS_BASE,
    FEATURE_WIDTH,
    Decision,
    DecisionKind,
    ForestModel,
    Stump,
    ThreatCategory,
    ThreatClass,
    ThreatReport,
    _CATEGORY_ORDER,
    build_default_model,
    classify,
    decide,
    encode_features,
    ingest_feed,
    normalize_tokens,
    process_threat_intelligence,
    read_feed,
    token_feature,
    update_model,
)
from policyledger.errors import FeedSchemaError, InputError, WidthMismatch
from policyledger.policy import (
    Condition,
    EnforcementActionSpec,
    PolicyRule,
    encode_rules,
    load_policy_file,
)
from policyledger.runner import fixture_path


def report(text="", techniques=(), cves=(), cvss=None, rid="r1"):
    return ThreatReport(
        report_id=rid,
        source="test",
        actor=None,
        technique_ids=tuple(techniques),
        cve_ids=tuple(cves),
        cvss=cvss,
        tokens=normalize_tokens(text),
        received_at=0,
    )


@pytest.fixture(scope="module")
def model():
    return ForestModel.from_file(fixture_path("model.json"))


# -- ingest --------------------------------------------------------------------


def test_five_clean_items_give_five_reports():
    items = [
        {"report_id": f"r{i}", "source": "s", "text": f"Alert Number {i}!", "received_at": i}
        for i in range(5)
    ]
    reports, diags = ingest_feed(items)
    assert len(reports) == 5 and diags == []
    assert all(t == t.lower() for r in reports for t in r.tokens)


def test_malformed_item_is_skipped_with_diagnostic():
    items = [
        {"report_id": f"r{i}", "source": "s", "text": "ok", "received_at": 0}
        for i in range(4)
    ]
    items.insert(2, {"report_id": "bad", "source": "s", "received_at": 0})  # no text
    reports, diags = ingest_feed(items)
    assert len(reports) == 4
    assert len(diags) == 1 and "item[2]" in diags[0]


def test_normalization_strips_punctuation_and_lowercases():
    assert normalize_tokens("SMBv1 Exploit!!") == ("smbv1", "exploit")


def test_unreadable_envelope_raises_feed_schema_error(tmp_path):
    feed = tmp_path / "bad.json"
    feed.write_text("{not json")
    with pytest.raises(FeedSchemaError, match="bad.json"):
        read_feed(feed)
    feed.write_text('{"items": []}')
    with pytest.raises(FeedSchemaError, match="bad.json"):
        read_feed(feed)


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("technique_ids", [[1]], "technique_ids[0]"),
        ("technique_ids", [None], "technique_ids[0]"),
        ("technique_ids", "T1210", "technique_ids"),
        ("cve_ids", [1], "cve_ids[0]"),
        ("cvss", 10**400, "cvss"),
    ],
    ids=["technique-list", "technique-null", "technique-string", "cve-number", "cvss-huge"],
)
def test_a_feed_item_with_a_mistyped_field_is_skipped_with_its_path(field, value, path):
    items = [{"report_id": "ok", "source": "s", "text": "x"},
             {"report_id": "r", "source": "s", "text": "x", field: value}]
    reports, diags = ingest_feed(items)
    assert [r.report_id for r in reports] == ["ok"]
    assert len(diags) == 1 and diags[0].startswith(f"item[1].{path}: must be ")


def test_cvss_out_of_range_is_item_diagnostic():
    items = [{"report_id": "r", "source": "s", "text": "x", "received_at": 0, "cvss": 11.0}]
    reports, diags = ingest_feed(items)
    assert reports == [] and len(diags) == 1


# -- encode --------------------------------------------------------------------


def test_empty_report_is_zero_vector_except_absent_cvss_bucket():
    fv = encode_features(report())
    assert fv[CVSS_ABSENT] == 1
    assert sum(fv) == 1
    assert len(fv) == FEATURE_WIDTH


def test_identical_reports_encode_identically():
    r1 = report("Ransomware alert", ["T1486"], ["CVE-2023-28252"], 7.8)
    r2 = report("Ransomware alert", ["T1486"], ["CVE-2023-28252"], 7.8)
    assert encode_features(r1) == encode_features(r2)


def test_cvss_change_moves_exactly_the_cvss_features():
    lo = encode_features(report("same text", cvss=2.0))
    hi = encode_features(report("same text", cvss=9.8))
    diff = [i for i in range(FEATURE_WIDTH) if lo[i] != hi[i]]
    assert diff == [CVSS_BASE + 1, CVSS_BASE + 4]  # 2.0 -> bin 1, 9.8 -> bin 4


def test_token_counts_accumulate():
    fv = encode_features(report("scan scan scan"))
    assert fv[token_feature("scan")] == 3


# -- classify ------------------------------------------------------------------


def test_zero_vector_defaults_to_informational_other(model):
    assert classify(model, [0] * model.width) == ThreatClass(0, ThreatCategory.OTHER)


def test_width_mismatch_is_an_error(model):
    with pytest.raises(WidthMismatch):
        classify(model, [0] * (model.width - 1))


def hand_vote(model, fv):
    """Independent tally of the fixture stumps (oracle for classify)."""
    totals = {}
    for stump, weight in zip(model.stumps, model.weights):
        if fv[stump.feature_index] > stump.threshold:
            key = (stump.vote_severity, stump.vote_category)
            totals[key] = totals.get(key, 0.0) + weight
    return totals


def test_ransomware_report_with_high_cvss_classifies_critical(model):
    r = report("ransomware spotted", cvss=9.8)
    fv = encode_features(r)
    totals = hand_vote(model, fv)
    # hand evaluation: one token stump and one cvss-bin stump fire
    assert totals[(4, ThreatCategory.RANSOMWARE)] == 1.0
    assert totals[(4, ThreatCategory.OTHER)] == 1.0
    got = classify(model, fv)
    assert got == ThreatClass(4, ThreatCategory.RANSOMWARE)


def test_ransomware_fixture_feed_hand_evaluation(model):
    reports, _ = ingest_feed(read_feed(fixture_path("feeds", "ransomware.json")))
    fv = encode_features(reports[0])
    totals = hand_vote(model, fv)
    # nokoyawa + ransomware tokens + T1486 + T1490 + the CVE all vote (4, ransomware)
    assert totals[(4, ThreatCategory.RANSOMWARE)] == 5.0
    assert max(totals.values()) == 5.0
    assert classify(model, fv) == ThreatClass(4, ThreatCategory.RANSOMWARE)


def test_benign_fixture_feed_classifies_informational(model):
    reports, _ = ingest_feed(read_feed(fixture_path("feeds", "benign.json")))
    assert classify(model, encode_features(reports[0])) == ThreatClass(0, ThreatCategory.OTHER)


def test_smbv1_fixture_feed_classifies_high_exploit(model):
    reports, _ = ingest_feed(read_feed(fixture_path("feeds", "smbv1_advisory.json")))
    assert classify(model, encode_features(reports[0])) == ThreatClass(3, ThreatCategory.EXPLOIT)


def test_equal_votes_break_toward_higher_severity():
    stumps = (
        Stump(0, 0, 1, ThreatCategory.RECON),
        Stump(1, 0, 3, ThreatCategory.MALWARE),
    )
    model = ForestModel(width=4, stumps=stumps, weights=(1.0, 1.0))
    got = classify(model, [1, 1, 0, 0])
    assert got == ThreatClass(3, ThreatCategory.MALWARE)


def test_weight_increase_never_dethrones_a_winner(model):
    rng = random.Random(31)
    for _ in range(100):
        fv = [0] * model.width
        for _ in range(rng.randint(1, 12)):
            fv[rng.randrange(model.width)] = 1
        winner = classify(model, fv)
        voting = [
            i
            for i, s in enumerate(model.stumps)
            if s.vote_severity == winner.severity
            and s.vote_category == winner.category
        ]
        if not voting:
            continue
        weights = list(model.weights)
        weights[rng.choice(voting)] *= 1.0 + rng.random()
        boosted = ForestModel(
            width=model.width, stumps=model.stumps, weights=tuple(weights),
            threshold=model.threshold,
        )
        assert classify(boosted, fv) == winner


# -- decide --------------------------------------------------------------------


def rule_with_severity(weight, rid="r"):
    return PolicyRule(
        rule_id=rid,
        condition=(Condition("patch_level", "gt", 0),),
        severity_weight=weight,
        regulatory_importance=2,
        remediation=EnforcementActionSpec(kind="apply_patch", params={"level": 1}),
    )


def test_decide_empty_is_no_action():
    assert decide([], 3).kind == DecisionKind.NO_ACTION_REQUIRED


def test_decide_above_threshold_is_immediate():
    got = decide([rule_with_severity(4, "a")], 3)
    assert got.kind == DecisionKind.IMMEDIATE_ACTION_REQUIRED
    assert got.matched_rule_ids == ("a",)


def test_decide_at_or_below_threshold_is_standard():
    got = decide([rule_with_severity(2, "a"), rule_with_severity(3, "b")], 3)
    assert got.kind == DecisionKind.STANDARD_MITIGATION_REQUIRED


def brute_force_decision(severities, threshold):
    """Independent re-implementation of the three-way branch."""
    if len(severities) == 0:
        return "no_action_required"
    if max(severities) > threshold:
        return "immediate_action_required"
    return "standard_mitigation_required"


def test_decide_matches_brute_force_exhaustively():
    cases = 0
    for size in range(0, 5):
        for combo in itertools.product(range(5), repeat=size):
            rules = [rule_with_severity(s, f"r{i}") for i, s in enumerate(combo)]
            for threshold in range(5):
                expected = brute_force_decision(combo, threshold)
                assert decide(rules, threshold).kind.value == expected
                cases += 1
    assert cases >= 3150


# -- update_model --------------------------------------------------------------


def test_success_scales_voting_stump_weights_up(model):
    predicted = ThreatClass(4, ThreatCategory.RANSOMWARE)
    voting = [
        i for i, s in enumerate(model.stumps)
        if (s.vote_severity, s.vote_category) == (4, ThreatCategory.RANSOMWARE)
    ]
    updated = update_model(model, predicted, success=True)
    for i in voting:
        assert updated.weights[i] == pytest.approx(1.05)
    for i in set(range(len(model.stumps))) - set(voting):
        assert updated.weights[i] == model.weights[i]


def test_two_failures_compound_multiplicatively(model):
    predicted = ThreatClass(3, ThreatCategory.EXPLOIT)
    voting = [
        i for i, s in enumerate(model.stumps)
        if (s.vote_severity, s.vote_category) == (3, ThreatCategory.EXPLOIT)
    ]
    once = update_model(model, predicted, success=False)
    twice = update_model(once, predicted, success=False)
    for i in voting:
        assert once.weights[i] == pytest.approx(0.95)
        assert twice.weights[i] == pytest.approx(0.9025)


def test_weight_floor_holds():
    stumps = (Stump(0, 0, 2, ThreatCategory.MALWARE),)
    model = ForestModel(width=1, stumps=stumps, weights=(0.01,))
    updated = update_model(model, ThreatClass(2, ThreatCategory.MALWARE), success=False)
    assert updated.weights[0] == 0.01


def test_update_never_touches_structure(model):
    updated = update_model(model, ThreatClass(4, ThreatCategory.RANSOMWARE), True)
    assert updated.stumps is model.stumps
    assert updated.width == model.width
    assert updated.threshold == model.threshold
    assert all(0.01 <= w <= 100.0 for w in updated.weights)


# -- model file ----------------------------------------------------------------


def test_model_serialization_round_trips_bit_identically(model):
    text = model.to_json()
    assert ForestModel.from_json(text).to_json() == text


def test_shipped_fixture_matches_builder():
    fixture = fixture_path("model.json").read_text(encoding="utf-8").strip()
    assert build_default_model().to_json() == fixture


def test_model_has_a_hundred_stumps(model):
    assert len(model.stumps) == 100
    assert len(model.weights) == 100
    assert model.threshold == 3


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(width=10),
        lambda m: m.update(width=float("inf")),
        lambda m: m["stumps"][0].update(feature_index=FEATURE_WIDTH),
        lambda m: m["stumps"][0].update(feature_index=-1),
        lambda m: m["stumps"][0].update(vote_severity=5),
    ],
    ids=["width", "width-infinite", "index-high", "index-negative", "severity"],
)
def test_model_that_cannot_classify_is_rejected_at_load(edit):
    data = json.loads(fixture_path("model.json").read_text(encoding="utf-8"))
    edit(data)
    with pytest.raises(InputError):
        ForestModel.from_json(json.dumps(data))


def test_unsupported_model_format_rejected():
    with pytest.raises(InputError):
        ForestModel.from_json(json.dumps({"format": "other/9", "stumps": []}))


@pytest.mark.parametrize(
    "edit",
    [
        {"learning_rate": 2.0, "weight_floor": -1.0},
        {"learning_rate": 1.0},
        {"learning_rate": -0.1},
        {"learning_rate": float("nan")},
        {"weight_floor": -1.0},
        {"weight_floor": 5.0, "weight_cap": 1.0},
        {"weight_cap": float("nan")},
    ],
    ids=repr,
)
def test_model_with_bad_hyperparameters_is_rejected_at_load(edit):
    data = json.loads(fixture_path("model.json").read_text(encoding="utf-8"))
    data.update(edit)
    with pytest.raises(InputError):
        ForestModel.from_json(json.dumps(data))


# -- classify and update_model against loops over every stump ------------------


def _loop_classify(model, fv):
    """``classify`` as a loop over every stump: the oracle for its firing
    set, sums and tie-breaks."""
    if len(fv) != model.width:
        raise WidthMismatch("width")
    totals = {}
    for stump, weight in zip(model.stumps, model.weights):
        if fv[stump.feature_index] > stump.threshold:
            key = (stump.vote_severity, stump.vote_category.value)
            totals[key] = totals.get(key, 0.0) + weight
    if not totals:
        return ThreatClass(0, ThreatCategory.OTHER)
    best = min(
        totals.items(),
        key=lambda kv: (-kv[1], -kv[0][0], _CATEGORY_ORDER[kv[0][1]]),
    )
    (severity, category), _ = best
    return ThreatClass(severity, ThreatCategory(category))


def _loop_update(model, predicted, success):
    """``update_model`` as a loop over every stump, rebuilt through
    ``dataclasses.replace``: the oracle for its per-vote index and clone."""
    factor = 1.0 + model.learning_rate if success else 1.0 - model.learning_rate
    new_weights = []
    for stump, weight in zip(model.stumps, model.weights):
        if (
            stump.vote_severity == predicted.severity
            and stump.vote_category == predicted.category
        ):
            weight = min(model.weight_cap, max(model.weight_floor, weight * factor))
        new_weights.append(weight)
    return dataclasses.replace(model, weights=tuple(new_weights))


def _bits(weights):
    return [float(w).hex() for w in weights]


# Few features, votes and weight values, so that stumps share features,
# votes tie, and sums of equal weights in different orders come up.
_WIDTH = 6
_stumps = st.builds(
    Stump,
    feature_index=st.integers(0, _WIDTH - 1),
    threshold=st.integers(-1, 2),
    vote_severity=st.integers(0, 4),
    vote_category=st.sampled_from([ThreatCategory.EXPLOIT, ThreatCategory.MALWARE,
                                   ThreatCategory.OTHER]),
)
_weights = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 1.0, 2.0]),
                     st.floats(0.0, 50.0, allow_nan=False))


@st.composite
def _models(draw):
    stumps = tuple(draw(st.lists(_stumps, max_size=12)))
    floor = draw(st.sampled_from([0.0, 0.01, 0.5]))
    return ForestModel(
        width=_WIDTH,
        stumps=stumps,
        weights=tuple(draw(st.lists(_weights, min_size=len(stumps), max_size=len(stumps)))),
        learning_rate=draw(st.sampled_from([0.0, 0.05, 0.3, 0.999])),
        weight_floor=floor,
        weight_cap=draw(st.sampled_from([floor, 1.0, 3.0, 100.0]).filter(lambda c: c >= floor)),
    )


@settings(max_examples=150, deadline=None)
@given(
    model=_models(),
    steps=st.lists(
        st.tuples(st.lists(st.integers(0, 3), min_size=_WIDTH, max_size=_WIDTH), st.booleans()),
        max_size=8,
    ),
)
def test_vote_table_matches_the_stump_loops_bit_for_bit(model, steps):
    oracle = model
    for fv, success in steps:
        predicted = classify(model, fv)
        assert predicted == _loop_classify(oracle, fv)
        model = update_model(model, predicted, success)
        oracle = _loop_update(oracle, predicted, success)
        assert _bits(model.weights) == _bits(oracle.weights)
        assert model == oracle


def test_vote_sums_follow_stump_order():
    # 0.1 + 0.2 + 0.3 sums to 0.6000000000000001 in stump order and to 0.6
    # in reverse, where it would tie the single 0.6 vote and lose it to the
    # higher severity.
    stumps = tuple(Stump(i, 0, 1, ThreatCategory.RECON) for i in range(3)) + (
        Stump(3, 0, 2, ThreatCategory.MALWARE),
    )
    model = ForestModel(width=4, stumps=stumps, weights=(0.1, 0.2, 0.3, 0.6))
    assert classify(model, [1, 1, 1, 1]) == ThreatClass(1, ThreatCategory.RECON)
    assert _loop_classify(model, [1, 1, 1, 1]) == ThreatClass(1, ThreatCategory.RECON)


def test_update_shares_the_vote_index(model):
    updated = update_model(model, ThreatClass(3, ThreatCategory.EXPLOIT), success=False)
    assert updated._voters is model._voters
    assert updated.weights != model.weights


def test_replace_builds_a_new_vote_index(model):
    reversed_model = dataclasses.replace(
        model, stumps=model.stumps[::-1], weights=model.weights[::-1]
    )
    assert reversed_model._voters is not model._voters
    last = len(model.stumps) - 1
    assert reversed_model._voters == {
        vote: [last - i for i in reversed(positions)] for vote, positions in model._voters.items()
    }


# -- classify against a dense scan of the stumps' features ------------------------


def _dense_classify(model, fv):
    """``classify`` as a dense scan: every stump's feature count against
    its threshold, over lists built from the stumps."""
    if len(fv) != model.width:
        raise WidthMismatch("width")
    features = [s.feature_index for s in model.stumps]
    thresholds = [s.threshold for s in model.stumps]
    votes = [(s.vote_severity, s.vote_category.value) for s in model.stumps]
    weights = model.weights
    firing = itertools.compress(
        range(len(weights)),
        map(operator.gt, map(fv.__getitem__, features), thresholds),
    )
    totals = {}
    for i in firing:
        vote = votes[i]
        totals[vote] = totals.get(vote, 0.0) + weights[i]
    if not totals:
        return ThreatClass(0, ThreatCategory.OTHER)
    best = min(
        totals.items(),
        key=lambda kv: (-kv[1], -kv[0][0], _CATEGORY_ORDER[kv[0][1]]),
    )
    (severity, category), _ = best
    return ThreatClass(severity, ThreatCategory(category))


# Counts as a vector can hold them: zeros, negatives and floats, including
# values between the integer thresholds, signed zeros and NaN.
_counts = st.one_of(
    st.sampled_from([0, 0, 0, 1, 2, 3, -1, -2, 0.0, -0.0, 0.5, -0.5, 1.5, 2.0, math.nan]),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.integers(-3, 3),
)


@settings(max_examples=120, deadline=None)
@given(
    model=_models(),
    steps=st.lists(
        st.tuples(st.lists(_counts, min_size=_WIDTH, max_size=_WIDTH), st.booleans()),
        max_size=8,
    ),
)
def test_classify_equals_the_dense_scan_bit_for_bit(model, steps):
    oracle = model
    for fv, success in steps:
        predicted = classify(model, fv)
        assert predicted == _dense_classify(oracle, fv)
        model = update_model(model, predicted, success)
        oracle = _loop_update(oracle, predicted, success)
        assert _bits(model.weights) == _bits(oracle.weights)
        assert model == oracle


def test_sums_follow_stump_order_not_feature_order():
    # As in test_vote_sums_follow_stump_order, but the stumps run against
    # feature order: summed by feature, 0.3 + 0.2 + 0.1 is 0.6 and would tie
    # the 0.6 vote and lose it to the higher severity.
    stumps = tuple(Stump(2 - i, 0, 1, ThreatCategory.RECON) for i in range(3)) + (
        Stump(3, 0, 2, ThreatCategory.MALWARE),
    )
    model = ForestModel(width=4, stumps=stumps, weights=(0.1, 0.2, 0.3, 0.6))
    assert classify(model, [1, 1, 1, 1]) == ThreatClass(1, ThreatCategory.RECON)
    assert _dense_classify(model, [1, 1, 1, 1]) == ThreatClass(1, ThreatCategory.RECON)


def test_negative_thresholds_fire_on_zero_counts():
    stumps = (Stump(0, -1, 2, ThreatCategory.RECON), Stump(1, 0, 4, ThreatCategory.MALWARE))
    model = ForestModel(width=2, stumps=stumps, weights=(1.0, 1.0))
    assert classify(model, [0, 0]) == ThreatClass(2, ThreatCategory.RECON)
    assert classify(model, [-1, 0]) == ThreatClass(0, ThreatCategory.OTHER)
    assert classify(model, [0, 1]) == ThreatClass(4, ThreatCategory.MALWARE)


@pytest.mark.parametrize("feature_index", [-1, 4])
def test_a_stump_outside_the_width_is_rejected_at_construction(feature_index):
    with pytest.raises(InputError):
        ForestModel(width=4, stumps=(Stump(feature_index, 0, 1, ThreatCategory.RECON),),
                    weights=(1.0,))


def test_update_clone_is_a_plain_forest_model(model):
    updated = update_model(model, ThreatClass(4, ThreatCategory.RANSOMWARE), success=True)
    assert type(updated) is ForestModel
    assert vars(updated).keys() == vars(model).keys()
    assert dataclasses.replace(updated) == updated
    assert model.weights == build_default_model().weights


# -- the feature memo lives for one pass ----------------------------------------


def _perfbench_feed(seed, reports, monkeypatch):
    """The benchmark's generated feed, from its own workload module."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.generate_feed(seed, reports)


class _NoEnforcement:
    def run_cycle(self, *args, **kwargs):
        return []


def test_one_pass_hashes_each_distinct_id_once(model, monkeypatch):
    reports, _ = ingest_feed(_perfbench_feed(1, 1_000, monkeypatch))
    distinct = (
        {("tok", t) for r in reports for t in r.tokens}
        | {("tech", t) for r in reports for t in r.technique_ids}
        | {("cve", c) for r in reports for c in r.cve_ids}
    )
    assert len(distinct) == 129
    calls = []
    real = cti_module.stable_index
    monkeypatch.setattr(cti_module, "stable_index", lambda key, n: calls.append(key) or real(key, n))
    rules = encode_rules(load_policy_file(fixture_path("policies", "smbv1.json")))[0]

    first, _ = process_threat_intelligence(reports, model, rules, _NoEnforcement())
    assert len(calls) == len(set(calls)) == len(distinct)
    # Nothing survives the pass: a second one hashes every id again.
    second, _ = process_threat_intelligence(reports, model, rules, _NoEnforcement())
    assert len(calls) == 2 * len(distinct)
    assert [o.threat_class for o in first] == [o.threat_class for o in second]
    # And a memo changes no vector.
    memo = {}
    assert all(encode_features(r, memo) == encode_features(r) for r in reports)
