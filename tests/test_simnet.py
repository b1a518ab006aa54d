"""Fleet simulation: provisioning, apply semantics, substreams, human team."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from policyledger.canonical import substream
from policyledger.errors import InputError, UnknownEndpoint
from policyledger.ledger import _planned_settings
from policyledger.policy import ACTION_KINDS, ENDPOINT_ATTRIBUTES, EnforcementActionSpec, action_writes
from policyledger.simnet import (
    DEFAULT_ROLE_ERROR,
    DEFAULT_ROLE_SPEED,
    Analyst,
    AnalystTeam,
    Endpoint,
    Fleet,
    NetworkModel,
    SimClock,
    ThreatScenario,
    apply_action,
    inject_threat,
    provision_fleet,
    run_human_process,
    snapshot,
)

DISABLE_SMB = EnforcementActionSpec(kind="disable_smbv1")
SET_PORT = EnforcementActionSpec(kind="set_rdp_port", params={"port": 33089})
ISOLATE = EnforcementActionSpec(kind="isolate_endpoint", params={"isolated": True})


# -- provisioning --------------------------------------------------------------


def test_default_fleet_is_sixty_legacy_hosts():
    fleet = provision_fleet(60)
    assert len(fleet) == 60
    assert all(ep.rdp_port == 3389 for ep in fleet.endpoints())
    assert all(ep.smbv1_enabled and not ep.isolated and not ep.infected
               for ep in fleet.endpoints())


def test_single_endpoint_fleet():
    fleet = provision_fleet(1)
    assert fleet.ids() == ["ep-000"]


def test_zero_endpoints_is_an_input_error():
    with pytest.raises(InputError):
        provision_fleet(0)


def test_profile_overrides_and_unknown_attrs():
    fleet = provision_fleet(2, profile={"patch_level": 3})
    assert all(ep.patch_level == 3 for ep in fleet.endpoints())
    with pytest.raises(InputError):
        provision_fleet(2, profile={"nope": 1})


# -- apply_action ----------------------------------------------------------------


def no_failure_net():
    return NetworkModel(auto_failure_prob=0.0)


def test_disable_smbv1_succeeds_and_mutates():
    fleet = provision_fleet(2)
    net = no_failure_net()
    result = apply_action(fleet, "ep-000", DISABLE_SMB, net, substream(1, "a"), 100)
    assert result.success
    assert fleet.get("ep-000").smbv1_enabled is False
    assert fleet.get("ep-001").smbv1_enabled is True
    assert result.applied == {"smbv1_enabled": False}
    assert result.finished_at == 100 + result.duration_ms
    assert result.duration_ms > 0


def test_isolated_endpoint_rejects_non_isolation_actions():
    fleet = provision_fleet(1)
    fleet.get("ep-000").isolated = True
    net = no_failure_net()
    before = snapshot(fleet)
    result = apply_action(fleet, "ep-000", SET_PORT, net, substream(1, "a"), 0)
    assert not result.success and result.failure_reason == "isolated"
    assert snapshot(fleet) == before  # port unchanged


def test_unisolation_is_accepted_on_isolated_endpoint():
    fleet = provision_fleet(1)
    fleet.get("ep-000").isolated = True
    net = no_failure_net()
    release = EnforcementActionSpec(kind="isolate_endpoint", params={"isolated": False})
    result = apply_action(fleet, "ep-000", release, net, substream(1, "a"), 0)
    assert result.success
    assert fleet.get("ep-000").isolated is False


def test_failure_leaves_state_bit_identical():
    fleet = provision_fleet(4)
    net = NetworkModel(auto_failure_prob=1.0)
    before = snapshot(fleet)
    result = apply_action(fleet, "ep-002", DISABLE_SMB, net, substream(1, "x"), 0)
    assert not result.success and result.failure_reason == "apply-error"
    assert snapshot(fleet) == before
    assert fleet.mutation_log == []


def test_seeded_success_count_is_pinned():
    # Regression constant: run once at seed 42, failure prob 0.02.
    fleet = provision_fleet(60)
    net = NetworkModel()
    successes = sum(
        apply_action(fleet, eid, DISABLE_SMB, net, substream(42, "auto", 1, eid), 0).success
        for eid in fleet.ids()
    )
    assert successes == 59


def test_latency_draw_is_within_jitter_band():
    fleet = provision_fleet(10)
    net = no_failure_net()
    for eid in fleet.ids():
        result = apply_action(fleet, eid, DISABLE_SMB, net, substream(3, eid), 0)
        assert 193_500 <= result.duration_ms <= 194_500
        rdp = apply_action(fleet, eid, SET_PORT, net, substream(3, eid, "r"), 0)
        assert 320_500 <= rdp.duration_ms <= 321_500


def test_per_endpoint_substreams_are_independent():
    def draws(n):
        fleet = provision_fleet(n)
        net = no_failure_net()
        return [
            apply_action(fleet, eid, DISABLE_SMB, net, substream(7, "auto", eid), 0).duration_ms
            for eid in fleet.ids()
        ]

    assert draws(5) == draws(9)[:5]  # growing the fleet never perturbs draws


def test_firewall_outbound_deny_all_marks_proxy_blocked():
    fleet = provision_fleet(1)
    net = no_failure_net()
    fw = EnforcementActionSpec(
        kind="update_firewall_rule",
        params={"direction": "outbound", "target": "*", "verdict": "deny"},
    )
    result = apply_action(fleet, "ep-000", fw, net, substream(1, "f"), 0)
    assert result.success
    ep = fleet.get("ep-000")
    assert ep.proxy_outbound_blocked is True
    assert ["outbound", "*", "deny"] in ep.firewall_rules


_FIREWALL_RULE = st.tuples(
    st.sampled_from(["inbound", "outbound"]),
    st.sampled_from(["*", "10.0.0.0/8", "445"]),
    st.sampled_from(["allow", "deny"]),
)
#: Valid random params for every action kind; a kind missing here fails the
#: property below with a KeyError.
_ACTION_PARAMS = {
    "disable_smbv1": st.just({}),
    "set_rdp_port": st.builds(lambda port: {"port": port}, st.integers(1, 65535)),
    "update_firewall_rule": st.builds(
        lambda rule: dict(zip(("direction", "target", "verdict"), rule)), _FIREWALL_RULE
    ),
    "update_proxy_rule": st.one_of(st.just({}), st.builds(lambda b: {"blocked": b}, st.booleans())),
    "isolate_endpoint": st.one_of(st.just({}), st.builds(lambda b: {"isolated": b}, st.booleans())),
    "revoke_access": st.one_of(st.just({}), st.builds(lambda u: {"user": u}, st.text(max_size=5))),
    "update_permissions": st.one_of(st.just({}), st.just({"role": "read-only"})),
    "apply_patch": st.one_of(st.just({}), st.builds(lambda n: {"level": n}, st.integers(0, 50))),
    "update_ids_params": st.one_of(
        st.just({}), st.builds(lambda n: {"sensitivity": n}, st.integers(0, 9))
    ),
}
_ENDPOINT_FIELDS = st.fixed_dictionaries({
    "smbv1_enabled": st.booleans(),
    "rdp_port": st.integers(1, 65535),
    "firewall_rules": st.lists(_FIREWALL_RULE.map(list), max_size=3),
    "proxy_outbound_blocked": st.booleans(),
    "isolated": st.booleans(),
    "patch_level": st.integers(0, 20),
    "infected": st.booleans(),
})
_UNMODELED_KINDS = ("revoke_access", "update_permissions", "update_ids_params")


@settings(max_examples=100, deadline=None)
@given(fields=_ENDPOINT_FIELDS)
def test_attrs_is_a_copy_of_the_fields_in_vocabulary_order(fields):
    ep = Endpoint("ep-000", **fields)
    rules_before = [list(r) for r in ep.firewall_rules]
    attrs = ep.attrs()
    assert list(attrs) == list(ENDPOINT_ATTRIBUTES)
    assert attrs == {name: getattr(ep, name) for name in ENDPOINT_ATTRIBUTES}
    attrs["firewall_rules"].append(["inbound", "*", "deny"])
    for rule in attrs["firewall_rules"]:
        rule.append("changed")
    assert ep.firewall_rules == rules_before


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(ACTION_KINDS), fields=_ENDPOINT_FIELDS)
def test_applied_writes_are_the_field_diff_and_cover_the_ledger_view(data, kind, fields):
    params = data.draw(_ACTION_PARAMS[kind])
    fleet = Fleet([Endpoint("ep-000", **fields)])
    before = fleet.get("ep-000").attrs()
    action = EnforcementActionSpec(kind=kind, params=params)
    result = apply_action(fleet, "ep-000", action, no_failure_net(), substream(1, kind), 0)
    after = fleet.get("ep-000").attrs()

    assert after == {**before, **result.applied}
    assert set(result.applied) <= set(ENDPOINT_ATTRIBUTES)
    if result.success:
        # The ledger's view, from the params alone, is part of what ran.
        planned = [{"endpoint_id": "ep-000", "kind": kind, "params": params}]
        ledger_view = _planned_settings({"planned": planned})
        assert {attr: value for _, attr, value in ledger_view}.items() <= result.applied.items()
    else:
        assert result.failure_reason == "isolated" and result.applied == {}
    if kind in _UNMODELED_KINDS:
        assert result.applied == {} and action_writes(kind, params) == {}


# -- inject_threat ----------------------------------------------------------------


def test_inject_marks_ten_endpoints_and_emits_one_alert():
    fleet = provision_fleet(60)
    affected = tuple(fleet.ids()[:10])
    alert = inject_threat(fleet, ThreatScenario(affected_ids=affected), 500)
    assert alert is not None and alert["affected"] == sorted(affected)
    assert sum(1 for ep in fleet.endpoints() if ep.infected) == 10
    assert alert["cve_ids"] == ["CVE-2023-28252"]
    assert alert["cvss"] == 7.8


def test_inject_empty_set_is_noop():
    fleet = provision_fleet(3)
    assert inject_threat(fleet, ThreatScenario(affected_ids=()), 0) is None
    assert all(not ep.infected for ep in fleet.endpoints())


def test_inject_unknown_endpoint_raises():
    fleet = provision_fleet(3)
    with pytest.raises(UnknownEndpoint):
        inject_threat(fleet, ThreatScenario(affected_ids=("ep-999",)), 0)


# -- snapshot ----------------------------------------------------------------


def test_snapshot_is_isolated_from_mutation():
    fleet = provision_fleet(2)
    snap = snapshot(fleet)
    fleet.get("ep-000").rdp_port = 1
    fleet.get("ep-000").firewall_rules.append(["inbound", "x", "deny"])
    assert snap["ep-000"]["rdp_port"] == 3389
    assert snap["ep-000"]["firewall_rules"] == []


def test_attrs_is_the_vocabulary_in_order_and_a_copy():
    from policyledger.policy import ENDPOINT_ATTRIBUTES

    fleet = provision_fleet(1, profile={"firewall_rules": [["inbound", "445", "deny"]]})
    ep = fleet.get("ep-000")
    attrs = ep.attrs()
    assert list(attrs) == list(ENDPOINT_ATTRIBUTES)
    attrs["firewall_rules"][0][2] = "allow"
    attrs["firewall_rules"].append(["outbound", "*", "deny"])
    attrs["smbv1_enabled"] = False
    snap = snapshot(fleet)
    snap["ep-000"]["firewall_rules"][0][2] = "allow"
    snap["ep-000"]["firewall_rules"].clear()
    snap["ep-000"]["rdp_port"] = 1
    assert ep.firewall_rules == [["inbound", "445", "deny"]]
    assert ep.smbv1_enabled is True and ep.rdp_port == 3389
    assert snapshot(fleet)["ep-000"] == ep.attrs()


def test_fleet_ids_are_sorted_copies():
    fleet = Fleet([Endpoint("ep-b"), Endpoint("ep-a"), Endpoint("ep-c")])
    ids = fleet.ids()
    assert ids == ["ep-a", "ep-b", "ep-c"]
    ids.reverse()
    assert fleet.ids() == ["ep-a", "ep-b", "ep-c"]
    assert [ep.endpoint_id for ep in fleet.endpoints()] == ["ep-a", "ep-b", "ep-c"]


def test_fleet_endpoints_is_one_ordered_tuple():
    fleet = Fleet([Endpoint("ep-b"), Endpoint("ep-a"), Endpoint("ep-c")])
    first = fleet.endpoints()
    assert isinstance(first, tuple)
    assert [ep.endpoint_id for ep in first] == fleet.ids()
    assert fleet.endpoints() is first
    assert all(ep is fleet.get(ep.endpoint_id) for ep in first)


def test_consecutive_snapshots_are_equal():
    fleet = provision_fleet(2)
    assert snapshot(fleet) == snapshot(fleet)


# -- human process ----------------------------------------------------------------


def human_net(error=0.0):
    return NetworkModel(
        human_error_prob=error,
        human_error_prob_by_kind={} if error == 0.0 else {"set_rdp_port": error},
    )


def test_five_tasks_five_analysts_no_queueing():
    fleet = provision_fleet(5)
    team = AnalystTeam.default()
    plan = [(eid, DISABLE_SMB) for eid in fleet.ids()]
    results = run_human_process(plan, team, human_net(), 11, fleet, issued_at=1000)
    assert len(results) == 5
    assert all(r.success for r in results)
    # One task per analyst: completion is exactly issue + own duration.
    assert all(r.finished_at - 1000 == r.duration_ms for r in results)


def test_queueing_delays_completion_but_not_duration():
    fleet = provision_fleet(20)
    team = AnalystTeam.default()
    plan = [(eid, DISABLE_SMB) for eid in fleet.ids()]
    results = run_human_process(plan, team, human_net(), 11, fleet, issued_at=0)
    assert len(results) == 20
    assert all(r.finished_at >= r.duration_ms for r in results)
    assert any(r.finished_at > r.duration_ms for r in results)  # someone queued


def test_junior_only_team_is_slower_than_senior_only_on_same_seed():
    def mean_duration(role):
        team = AnalystTeam(tuple(
            Analyst(f"{role}-{i + 1}", role, DEFAULT_ROLE_SPEED[role], DEFAULT_ROLE_ERROR[role])
            for i in range(5)
        ))
        fleet = provision_fleet(30)
        plan = [(eid, DISABLE_SMB) for eid in fleet.ids()]
        results = run_human_process(plan, team, human_net(), 17, fleet, issued_at=0)
        return sum(r.duration_ms for r in results) / len(results)

    juniors = mean_duration("junior")
    seniors = mean_duration("senior")
    assert juniors > seniors
    # identical draws scaled by the role multiplier (integer-ms rounding)
    assert juniors / seniors == pytest.approx(1.3, rel=1e-5)


def test_misconfiguration_errors_leave_endpoint_unchanged():
    fleet = provision_fleet(10)
    team = AnalystTeam.default()
    net = NetworkModel(human_error_prob=1.0, human_error_prob_by_kind={})
    plan = [(eid, DISABLE_SMB) for eid in fleet.ids()]
    before = snapshot(fleet)
    results = run_human_process(plan, team, net, 13, fleet, issued_at=0)
    assert all(r.failure_reason == "misconfiguration" for r in results)
    assert snapshot(fleet) == before


def test_weighted_round_robin_gives_fast_roles_more_tasks():
    team = AnalystTeam.default()
    assignment = team.assign(60)
    counts = [assignment.count(i) for i in range(5)]
    # lead (0.9) >= seniors (1.0) >= juniors (1.3)
    assert counts[0] >= counts[1] == counts[2] >= counts[3] == counts[4]
    assert sum(counts) == 60
    # Deterministic: same inputs, same assignment.
    assert assignment == team.assign(60)


def _min_scan_assign(team, task_count):
    """The reference assignment: each task scans every member for the least
    (load with the task, index)."""
    counts = [0] * len(team.members)
    out = []
    for _ in range(task_count):
        pick = min(
            range(len(team.members)),
            key=lambda i: ((counts[i] + 1) * team.members[i].speed_multiplier, i),
        )
        counts[pick] += 1
        out.append(pick)
    return out


# Few distinct speeds make ties, which break by member index.
_SPEED = st.one_of(
    st.sampled_from([0.9, 1.0, 1.3, 2, 0.5]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(speeds=st.lists(_SPEED, min_size=1, max_size=7), task_count=st.integers(0, 500))
def test_heap_assignment_equals_the_min_scan(speeds, task_count):
    team = AnalystTeam(tuple(
        Analyst(f"a-{i}", "senior", speed, 1.0) for i, speed in enumerate(speeds)
    ))
    assert team.assign(task_count) == _min_scan_assign(team, task_count)


def test_empty_plan_is_an_input_error():
    with pytest.raises(InputError):
        run_human_process([], AnalystTeam.default(), human_net(), 1, provision_fleet(1), 0)


def test_human_results_are_seed_deterministic():
    def run(seed):
        fleet = provision_fleet(12)
        plan = [(eid, SET_PORT) for eid in fleet.ids()]
        return run_human_process(plan, AnalystTeam.default(),
                                 NetworkModel(), seed, fleet, 0)

    assert run(21) == run(21)
    assert run(21) != run(22)


# -- clock ----------------------------------------------------------------


def test_clock_is_monotone():
    clock = SimClock(0)
    clock.advance(10)
    clock.advance_to(5)
    assert clock.now == 10
    with pytest.raises(InputError):
        clock.advance(-1)


def test_network_model_validates_probabilities():
    with pytest.raises(InputError):
        NetworkModel(auto_failure_prob=1.5)
    with pytest.raises(InputError):
        NetworkModel(human_error_prob=-0.1)
    with pytest.raises(InputError):
        NetworkModel(auto_base_ms=0)


NETWORK_BOUNDS_CASES = [
    {"human_median_ms_by_kind": {"set_rdp_port": 0}},
    {"human_median_ms_by_kind": {"set_rdp_port": float("nan")}},
    {"auto_base_by_kind": {"set_rdp_port": -1}},
    {"auto_base_by_kind": {"set_rdp_port": 500}},  # not above the jitter
    {"auto_base_by_kind": {"set_rdp_port": float("inf")}},
    {"auto_jitter_ms": -1},
    {"auto_jitter_ms": 0.5},  # randint takes integers only
    {"auto_jitter_ms": 500.0},
    {"human_median_ms": float("inf")},
    {"human_median_ms": 0.5},  # a run reads it as int(0.5) == 0
]


@pytest.mark.parametrize("bad", NETWORK_BOUNDS_CASES, ids=repr)
def test_network_model_bounds_every_latency_like_the_scalars(bad):
    with pytest.raises(InputError):
        NetworkModel(**bad)


def test_network_model_accepts_by_kind_latencies_in_bounds():
    net = NetworkModel(auto_base_by_kind={"set_rdp_port": 501},
                       human_median_ms_by_kind={"disable_smbv1": 1.5})
    assert net.auto_base_for("set_rdp_port") == 501
    assert net.human_median_for("disable_smbv1") == 1


def test_endpoint_fields_match_policy_vocabulary():
    from dataclasses import fields

    from policyledger.policy import ENDPOINT_ATTRIBUTES
    from policyledger.simnet import Endpoint

    names = {f.name for f in fields(Endpoint)} - {"endpoint_id"}
    assert names == set(ENDPOINT_ATTRIBUTES)


def test_fleet_rows_are_the_endpoints_live_field_dicts():
    fleet = Fleet([Endpoint("ep-b"), Endpoint("ep-a")])
    rows = fleet.rows()
    assert fleet.rows() is rows
    assert [row["endpoint_id"] for row in rows] == fleet.ids()
    ep = fleet.get("ep-a")
    ep.infected = True
    ep.firewall_rules.append(["inbound", "445", "deny"])
    assert rows[0]["infected"] is True
    assert rows[0]["firewall_rules"] == [["inbound", "445", "deny"]]
    assert all(row is vars(ep) for row, ep in zip(rows, fleet.endpoints()))
