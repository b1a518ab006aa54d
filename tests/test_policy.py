"""Policy loading, rule encoding, conflict resolution."""

import dataclasses
import json
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from policyledger.canonical import canonical_json
from policyledger.errors import AmbiguityError, InputError, SchemaError
from policyledger.policy import (
    COMPARATORS,
    Condition,
    EnforcementActionSpec,
    PolicyRule,
    combine_rule_sets,
    encode_rules,
    load_policy_document,
    load_policy_file,
    query_policies,
    resolve_conflicts,
)


def make_rule(rule_id, attr="rdp_port", value=33089, severity=2, importance=3,
              kind="set_rdp_port", params=None, tags=()):
    return PolicyRule(
        rule_id=rule_id,
        condition=(Condition(attr, "equals", value),),
        severity_weight=severity,
        regulatory_importance=importance,
        remediation=EnforcementActionSpec(kind=kind, params=params or {"port": value}),
        technique_tags=tuple(tags),
    )


# -- loading -----------------------------------------------------------------


def test_smbv1_fixture_loads_one_disable_rule(smbv1_doc):
    assert len(smbv1_doc.rules) == 1
    rule = smbv1_doc.rules[0]
    assert rule.condition[0] == Condition("smbv1_enabled", "equals", False)
    assert rule.remediation.kind == "disable_smbv1"


def test_rdp_fixture_pins_port_33089(rdp_doc):
    rule = rdp_doc.rules[0]
    assert rule.condition[0] == Condition("rdp_port", "equals", 33089)
    assert rule.remediation.params["port"] == 33089


def test_unknown_attribute_is_an_ambiguity_error(smbv1_doc):
    doc = smbv1_doc.to_dict()
    doc["rules"][0]["condition"][0]["attribute"] = "telnet_banner"
    with pytest.raises(AmbiguityError):
        load_policy_document(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d.pop("title"), "$.title"),
        (lambda d: d.update(version="one"), "$.version"),
        (lambda d: d.update(version=0), "$.version"),
        (lambda d: d.update(rules=[]), "$.rules"),
        (lambda d: d["rules"][0].pop("severity_weight"), "severity_weight"),
        (lambda d: d["rules"][0].update(severity_weight=9), "severity_weight"),
        (lambda d: d["rules"][0].update(regulatory_importance=-1), "regulatory_importance"),
        (lambda d: d["rules"][0].update(technique_tags=["1021"]), "technique_tags"),
        (lambda d: d.update(extra_field=1), "$"),
        (lambda d: d["rules"][0].update(condition=[]), "condition"),
    ],
)
def test_schema_errors_carry_a_path(smbv1_doc, mutate, path_fragment):
    doc = smbv1_doc.to_dict()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        load_policy_document(json.dumps(doc))
    assert path_fragment in str(err.value)


def test_duplicate_rule_ids_rejected(smbv1_doc):
    doc = smbv1_doc.to_dict()
    doc["rules"].append(doc["rules"][0])
    with pytest.raises(SchemaError):
        load_policy_document(json.dumps(doc))


def test_bad_port_in_remediation_is_schema_error(rdp_doc):
    doc = rdp_doc.to_dict()
    doc["rules"][0]["remediation"]["params"]["port"] = 99999
    with pytest.raises(SchemaError):
        load_policy_document(json.dumps(doc))


def test_load_serialize_round_trip_is_idempotent(smbv1_doc, rdp_doc, ransomware_doc):
    for doc in (smbv1_doc, rdp_doc, ransomware_doc):
        once = canonical_json(load_policy_document(canonical_json(doc.to_dict())).to_dict())
        assert once == canonical_json(doc.to_dict())


# -- encoding ----------------------------------------------------------------


def test_rule_evaluation_on_endpoint_attrs(smbv1_doc):
    rule = smbv1_doc.rules[0]
    assert not rule.is_compliant({"smbv1_enabled": True})
    assert rule.is_compliant({"smbv1_enabled": False})


def test_encode_orders_by_severity_then_rule_id(smbv1_doc, rdp_doc, ransomware_doc):
    rs = combine_rule_sets([encode_rules(d)[0] for d in (rdp_doc, smbv1_doc, ransomware_doc)])
    # Independent comparator oracle.
    expected = sorted(
        [r for d in (rdp_doc, smbv1_doc, ransomware_doc) for r in d.rules],
        key=lambda r: (-r.severity_weight, r.rule_id),
    )
    assert [r.rule_id for r in rs] == [r.rule_id for r in expected]
    assert [r.severity_weight for r in rs] == sorted(
        [r.severity_weight for r in expected], reverse=True
    )


def test_encode_payload_digest_is_stable(smbv1_doc):
    from policyledger.canonical import digest_value

    _, p1 = encode_rules(smbv1_doc)
    _, p2 = encode_rules(smbv1_doc)
    assert digest_value(p1) == digest_value(p2)


# -- query_policies ------------------------------------------------------------


def test_query_matches_on_technique_intersection(rdp_doc):
    rs, _ = encode_rules(rdp_doc)
    # Set-intersection oracle.
    matched = query_policies(rs, severity=2, technique_ids=["T1021.001"])
    oracle = [r for r in rs if set(r.technique_tags) & {"T1021.001"}]
    assert matched == oracle
    assert [r.rule_id for r in matched] == ["rdp-port-33089"]


def test_query_no_matching_tags_and_severity_zero_is_empty(smbv1_doc):
    rs, _ = encode_rules(smbv1_doc)
    assert query_policies(rs, severity=0, technique_ids=["T9999"]) == []
    assert query_policies(rs, severity=0, technique_ids=[]) == []


def test_untagged_critical_matches_exactly_severity_four_rules(
    smbv1_doc, rdp_doc, ransomware_doc
):
    rs = combine_rule_sets([encode_rules(d)[0] for d in (smbv1_doc, rdp_doc, ransomware_doc)])
    matched = query_policies(rs, severity=4, technique_ids=[])
    oracle = [r for r in rs if r.severity_weight >= 4]  # filter oracle
    assert matched == oracle
    assert all(r.severity_weight == 4 for r in matched)


def test_query_result_is_subset_and_tag_monotone(smbv1_doc, rdp_doc, ransomware_doc):
    rs = combine_rule_sets([encode_rules(d)[0] for d in (smbv1_doc, rdp_doc, ransomware_doc)])
    all_tags = sorted({t for r in rs for t in r.technique_tags})
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(1, len(all_tags))
        tags = rng.sample(all_tags, k)
        severity = rng.randint(0, 4)
        result = query_policies(rs, severity, tags)
        assert set(r.rule_id for r in result) <= set(r.rule_id for r in rs)
        # adding one more matching tag never shrinks the result
        extra = rng.choice(all_tags)
        wider = query_policies(rs, severity, tags + [extra])
        assert set(r.rule_id for r in result) <= set(r.rule_id for r in wider)


# -- resolve_conflicts -----------------------------------------------------------


def test_weighted_matrix_prefers_importance():
    # scores: 2*3+2 = 8 vs 2*1+4 = 6 -> the 33089 rule wins
    a = make_rule("keep-33089", value=33089, severity=2, importance=3)
    b = make_rule("want-3390", value=3390, severity=4, importance=1,
                  params={"port": 3390})
    kept = resolve_conflicts([a, b])
    assert [r.rule_id for r in kept] == ["keep-33089"]


def test_single_candidate_is_identity(smbv1_doc):
    rule = smbv1_doc.rules[0]
    assert resolve_conflicts([rule]) == [rule]


def test_equal_scores_break_ties_by_rule_id():
    a = make_rule("b-rule", value=1111, severity=2, importance=3, params={"port": 1111})
    b = make_rule("a-rule", value=2222, severity=2, importance=3, params={"port": 2222})
    kept = resolve_conflicts([a, b])
    assert [r.rule_id for r in kept] == ["a-rule"]


def test_resolve_is_idempotent_and_contradiction_free():
    rng = random.Random(7)
    attrs = ["rdp_port", "patch_level"]
    for _ in range(100):
        candidates = [
            make_rule(
                f"r{i:02d}",
                attr=rng.choice(attrs),
                value=rng.randint(1, 4),
                severity=rng.randint(0, 4),
                importance=rng.randint(0, 4),
                kind="apply_patch",
                params={"level": 1},
            )
            for i in range(rng.randint(1, 8))
        ]
        once = resolve_conflicts(candidates)
        assert resolve_conflicts(once) == once
        pinned = {}
        for rule in once:
            for attr, value in rule.pinned_values().items():
                assert pinned.setdefault(attr, value) == value
        scores = [r.conflict_score() for r in once]
        assert scores == sorted(scores, reverse=True)


def test_fixture_policies_are_mutually_conflict_free(smbv1_doc, rdp_doc, ransomware_doc):
    rules = [r for d in (smbv1_doc, rdp_doc, ransomware_doc) for r in d.rules]
    assert resolve_conflicts(rules) == sorted(
        rules, key=lambda r: (-r.conflict_score(), r.rule_id)
    )


def test_comparator_semantics():
    def holds(attribute, comparator, value, observed):
        rule = dataclasses.replace(
            make_rule("r"), condition=(Condition(attribute, comparator, value),)
        )
        return rule.is_compliant({attribute: observed})

    assert holds("patch_level", "gt", 2, 3)
    assert not holds("patch_level", "gt", 2, 2)
    assert holds("patch_level", "lt", 2, 1)
    assert not holds("patch_level", "lt", 2, 2)
    assert not holds("patch_level", "lt", 2, 3)
    assert not holds("patch_level", "gt", 2, 1)
    assert holds("rdp_port", "equals", 3389, 3389)
    assert not holds("rdp_port", "equals", 3389, 33089)
    assert not holds("rdp_port", "not_equals", 3389, 3389)
    assert holds("rdp_port", "not_equals", 3389, 33089)
    assert holds("rdp_port", "in", [33089, 40000], 33089)
    assert not holds("rdp_port", "in", [33089, 40000], 3389)


def test_compiled_rule_reads_a_missing_attribute_as_none():
    assert not make_rule("r", value=33089).is_compliant({})
    rule = make_rule("r")
    absent = dataclasses.replace(rule, condition=(Condition("rdp_port", "equals", None),))
    assert absent.is_compliant({})
    two = dataclasses.replace(
        rule,
        condition=(Condition("rdp_port", "not_equals", 3389),
                   Condition("patch_level", "equals", None)),
    )
    assert two.is_compliant({"rdp_port": 33089})
    assert not two.is_compliant({"rdp_port": 33089, "patch_level": 0})


def test_unknown_comparator_raises_when_evaluated_not_when_built():
    rule = dataclasses.replace(
        make_rule("r"), condition=(Condition("rdp_port", "approximately", 3389),)
    )
    with pytest.raises(InputError, match="approximately"):
        rule.is_compliant({"rdp_port": 3389})


def test_replace_compiles_the_new_condition():
    rule = make_rule("r", value=33089)
    moved = dataclasses.replace(rule, condition=(Condition("rdp_port", "equals", 22),))
    assert rule.is_compliant({"rdp_port": 33089})
    assert moved.is_compliant({"rdp_port": 22})
    assert not moved.is_compliant({"rdp_port": 33089})


def test_compiled_check_takes_no_part_in_equality_or_repr():
    a, b = make_rule("r"), make_rule("r")
    assert a._check is not b._check
    assert a == b and repr(a) == repr(b)
    assert "_check" not in repr(a)


_ORACLE_COMPARE = {"equals": operator.eq, "not_equals": operator.ne, "lt": operator.lt,
                   "gt": operator.gt, "in": lambda observed, value: observed in value}


def _failing_by_loop(conditions, rows):
    """``PolicyRule.failing`` as a loop over the conditions, as it was
    before the filter became generated code: the oracle."""
    out = []
    for row in rows:
        for c in conditions:
            compare = _ORACLE_COMPARE.get(c.comparator)
            if compare is None:
                raise InputError(f"unknown comparator {c.comparator!r}")
            if not compare(row.get(c.attribute), c.value):
                out.append(row)
                break
    return out


def _outcome(failing, rows):
    """The ids of the failing rows, or the type of the error raised."""
    try:
        return [id(row) for row in failing(rows)]
    except (InputError, TypeError) as exc:
        return type(exc)


_FILTER_ATTRS = st.sampled_from(["rdp_port", "patch_level", "isolated", "firewall_rules"])
# Values that compare, order and contain, and pairs that raise TypeError.
_FILTER_VALUES = (st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "x"])
                  | st.lists(st.integers(-2, 2), max_size=3))


@settings(max_examples=300, deadline=None)
@given(
    conditions=st.lists(st.builds(Condition, _FILTER_ATTRS,
                                  st.sampled_from([*COMPARATORS, "approximately"]), _FILTER_VALUES),
                        max_size=4),
    rows=st.lists(st.dictionaries(_FILTER_ATTRS, _FILTER_VALUES, max_size=4), max_size=6),
)
def test_the_compiled_filter_matches_the_condition_loop(conditions, rows):
    # Same rows, same order, same short-circuit: an unknown comparator or
    # an unorderable pair raises only when its comparison is reached.
    rule = dataclasses.replace(make_rule("r"), condition=tuple(conditions))
    assert _outcome(rule.failing, rows) == _outcome(lambda rows: _failing_by_loop(conditions, rows), rows)


def _resolve_by_scoring_each_call(candidates):
    """``resolve_conflicts`` as it was before rules kept their rank and
    pins: the oracle for the kept rules and their order."""
    ranked = sorted(candidates, key=lambda r: (-r.conflict_score(), r.rule_id))
    pinned = {}
    kept = []
    for rule in ranked:
        mine = rule.pinned_values()
        if any(attr in pinned and pinned[attr] != val for attr, val in mine.items()):
            continue
        pinned.update(mine)
        kept.append(rule)
    return kept


# Few attributes, values and ids, so pins clash, scores tie and ids repeat.
_conditions = st.lists(
    st.builds(
        Condition,
        attribute=st.sampled_from(["rdp_port", "patch_level", "smbv1_enabled"]),
        comparator=st.sampled_from(["equals", "equals", "not_equals", "gt"]),
        value=st.one_of(st.integers(0, 2), st.booleans(), st.just([1])),
    ),
    min_size=1,
    max_size=3,
)
_rules = st.builds(
    PolicyRule,
    rule_id=st.sampled_from(["a", "b", "c", "d"]),
    condition=_conditions.map(tuple),
    severity_weight=st.integers(0, 2),
    regulatory_importance=st.integers(0, 1),
    remediation=st.just(EnforcementActionSpec(kind="disable_smbv1")),
)


@settings(max_examples=150, deadline=None)
@given(candidates=st.lists(_rules, max_size=4))
def test_resolve_conflicts_keeps_what_scoring_on_each_call_keeps(candidates):
    kept = resolve_conflicts(candidates)
    oracle = _resolve_by_scoring_each_call(candidates)
    assert [id(r) for r in kept] == [id(r) for r in oracle]
    assert kept is not candidates


def test_a_replaced_rule_is_ranked_by_its_new_fields():
    a = make_rule("a", value=1, severity=1, importance=0, params={"port": 1})
    b = make_rule("b", value=2, severity=2, importance=0, params={"port": 2})
    assert resolve_conflicts([a, b]) == [b]
    stronger = dataclasses.replace(a, regulatory_importance=4)
    assert resolve_conflicts([stronger, b]) == [stronger]
