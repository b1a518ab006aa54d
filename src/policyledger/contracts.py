"""Smart-contract execution layer: rule deployment, fleet-wide compliance
audit, and transactional enforcement.

A run deploys one contract, ``CONTRACT_ID``: the rules of its policy
documents as one tuple (``policy.rule_set``), which the engine holds in
``rules``. The audit checks every rule against every endpoint and commits
one block of compliance-check records; it returns their compliant share,
and the records on the chain are the audit's whole report.

The engine is the ledger's single writer. Work is grouped into decision
cycles: every transaction raised during one cycle (threat alert,
compliance checks, the enforcement decision, per-endpoint results) lands
in one block. A decision is always recorded - and validated by the
simulated consensus - before any endpoint is touched; per-endpoint
outcomes are then recorded individually, which is how a 100%-reliable
contract layer coexists with a sub-100% endpoint application rate.

``ContractEngine.run_cycle`` is the one decision cycle, for both arms:
``execute_decision`` commits the plan's intent, ``enforce`` applies it
(in parallel for the automated arm, through the analyst team for the
human arm, chosen by the plan's arm), and ``commit_cycle`` closes the
block. The plan's actions are the decision record's own ``planned``
items, so enforcement executes what the chain says was planned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canonical import substream
from .cti import Decision, DecisionKind, ThreatClass, ThreatReport
from .errors import InputError, LedgerUnavailable
from .ledger import Ledger, LedgerBlock, TransactionRecord, TxKind, TxMetadata
from .policy import PolicyDocument, PolicyRule, resolve_conflicts, rule_set
from .simnet import AnalystTeam, ApplyResult, Fleet, NetworkModel, SimClock, apply_action, run_human_process

#: The id of the one contract a run deploys, named in each deploy record.
CONTRACT_ID = "compliancecontract"


# Kinds read once per record; an attribute read of the enum costs more.
_CHECK = TxKind.COMPLIANCE_CHECK
_DECISION = TxKind.ENFORCEMENT_DECISION
_RESULT = TxKind.ENFORCEMENT_RESULT


@dataclass
class EnforcementPlan:
    plan_id: str
    arm: str  # automated | human
    actions: tuple[dict, ...]  # the decision body's ``planned`` items
    issued_at: int


class ContractEngine:
    """Single writer tying the fleet, the policy rules and the ledger."""

    def __init__(
        self,
        ledger: Ledger,
        fleet: Fleet,
        clock: SimClock,
        net: NetworkModel,
        master_seed: int,
        human_fleet: Optional[Fleet] = None,
        team: Optional[AnalystTeam] = None,
    ):
        if ledger is None:
            raise LedgerUnavailable("no ledger attached; refusing to act without an audit trail")
        self.ledger = ledger
        self.fleet = fleet
        self.human_fleet = human_fleet
        self.clock = clock
        self.net = net
        self.master_seed = master_seed
        self.team = team or AnalystTeam.default()
        # The deployed contract's rules; None until deploy_contract.
        self.rules: Optional[tuple[PolicyRule, ...]] = None
        self._cycle = 0
        self._plan_seq = 0
        # One metadata object per arm for checks and results, and one per
        # distinct decision metadata, so each encodes its digest fragment
        # once per engine, not once per record.
        self._arm_metadata = {arm: TxMetadata(arm=arm) for arm in ("automated", "human")}
        self._decision_metadata: dict[tuple, TxMetadata] = {}

    # -- plumbing ------------------------------------------------------------

    def _submit(self, kind: TxKind, actor: str, body: dict, timestamp: int,
                metadata: Optional[TxMetadata] = None) -> TransactionRecord:
        tx = TransactionRecord.create(self.ledger.next_tx_id(), timestamp, kind, actor, body,
                                      metadata or self._arm_metadata["automated"])
        verdict = self.ledger.submit_transaction(tx)
        if not verdict.accepted:
            raise InputError(f"ledger rejected {kind.value} tx: {verdict.reason}")
        return tx

    def commit_cycle(self) -> Optional[LedgerBlock]:
        """Commit all transactions of the current decision cycle as one
        block; a cycle with nothing to record commits nothing."""
        self._cycle += 1
        if not self.ledger.pending:
            return None
        return self.ledger.commit_block(self.clock.now)

    def fleet_for(self, arm: str) -> Fleet:
        if arm == "automated":
            return self.fleet
        if arm == "human":
            if self.human_fleet is None:
                raise InputError("no human fleet configured")
            return self.human_fleet
        raise InputError(f"unknown arm {arm!r}")

    # -- deployment ------------------------------------------------------------

    def deploy_contract(self, documents: list[PolicyDocument]) -> tuple[PolicyRule, ...]:
        """Deploy the documents' rules as the engine's one contract and
        return them; the PolicyDeploy transactions commit before the
        contract becomes usable."""
        if self.rules is not None:
            raise InputError(f"contract {CONTRACT_ID} already deployed")
        if not documents or all(not doc.rules for doc in documents):
            raise InputError("contract requires a non-empty rule set")
        rules = rule_set(documents)
        kept = {r.rule_id for r in resolve_conflicts(rules)}
        if kept != {r.rule_id for r in rules}:
            dropped = sorted({r.rule_id for r in rules} - kept)
            raise InputError(f"combined rule set has unresolved conflicts: {dropped}")
        # An explicit target list must name endpoints of this fleet.
        for rule in rules:
            selector = rule.remediation.target_selector
            if isinstance(selector, list):
                missing = [eid for eid in selector if eid not in self.fleet]
                if missing:
                    raise InputError(
                        f"rule {rule.rule_id} targets endpoints not in the fleet: {missing}"
                    )
        for doc in documents:
            # Contracts are never upgraded; the chain format keeps the version.
            payload = {**doc.to_dict(), "contract_id": CONTRACT_ID, "contract_version": 1}
            self._submit(TxKind.POLICY_DEPLOY, "policy-admin", payload, self.clock.now)
        self.ledger.commit_block(self.clock.now)
        self.rules = rules
        return rules

    # -- compliance audit ------------------------------------------------------

    def run_full_audit(self) -> float:
        """Check every rule against every endpoint, log each result as a
        compliance-check transaction, and commit the whole audit as one
        block, in endpoint id, then rule order. Returns the compliant
        share of the checks."""
        if self.rules is None:
            raise InputError("no contract deployed")
        tick = self.clock.now
        compliant = 0
        # Each body is encoded at submit, so the live rows leak into no record.
        rows = self.fleet.rows()
        for row in rows:
            for rule in self.rules:
                ok = rule.is_compliant(row)
                body = {
                    "endpoint_id": row["endpoint_id"],
                    "rule_id": rule.rule_id,
                    "policy_id": rule.policy_id,
                    "verdict": "compliant" if ok else "non_compliant",
                    "observed": rule.observed(row),
                    "checked_at": tick,
                }
                self._submit(_CHECK, "contract-engine", body, tick)
                compliant += ok
        self.ledger.commit_block(tick)
        return compliant / (len(rows) * len(self.rules))

    # -- decision execution ----------------------------------------------------

    def execute_decision(
        self,
        decision: Decision,
        matched: list[PolicyRule],
        threat_class: Optional[ThreatClass] = None,
        report: Optional[ThreatReport] = None,
        arm: str = "automated",
    ) -> EnforcementPlan:
        """Turn a decision into a per-endpoint action plan and commit the
        intent before anything executes.

        No action -> empty plan (still logged). Standard mitigation ->
        remediations of the matched rules on their non-compliant
        endpoints. Immediate action -> the same plus isolation of every
        infected endpoint, isolation ordered last per endpoint so it
        cannot block the endpoint's own remediation.
        """
        fleet = self.fleet_for(arm)
        deduped = resolve_conflicts(list(matched))
        # Each item is built once, as the decision body encodes it.
        planned: list[dict] = []
        if decision.kind != DecisionKind.NO_ACTION_REQUIRED:
            for rule in deduped:
                kind, params = rule.remediation.kind, rule.remediation.params
                planned += [{"endpoint_id": eid, "kind": kind, "params": params, "rule_id": rule.rule_id}
                            for eid in self._targets_for(rule, fleet)]
            if decision.kind == DecisionKind.IMMEDIATE_ACTION_REQUIRED:
                planned += [{"endpoint_id": row["endpoint_id"], "kind": "isolate_endpoint",
                             "params": {"isolated": True}, "rule_id": None}
                            for row in fleet.rows() if row["infected"] and not row["isolated"]]
        # Parallel dispatch order: endpoint id, then remediations before
        # isolation within an endpoint; the sort is stable, so plan
        # position breaks ties.
        planned.sort(key=lambda item: (item["endpoint_id"], item["kind"] == "isolate_endpoint"))

        self._plan_seq += 1
        plan_id = f"plan-{self._plan_seq:04d}"
        issued_at = self.clock.now
        actor = "contract-engine" if arm == "automated" else "human-team"
        metadata = self._threat_metadata(threat_class, report, planned, arm)
        body = {
            "plan_id": plan_id,
            "decision": decision.kind.value,
            "matched_rule_ids": list(decision.matched_rule_ids),
            "matched_policy_ids": sorted({r.policy_id for r in deduped}),
            "report_id": report.report_id if report else None,
            "planned": planned,
            "target_endpoints": sorted({item["endpoint_id"] for item in planned}),
            "issued_at": issued_at,
        }
        self._submit(_DECISION, actor, body, issued_at, metadata)
        return EnforcementPlan(plan_id=plan_id, arm=arm, actions=tuple(planned), issued_at=issued_at)

    def _targets_for(self, rule: PolicyRule, fleet: Fleet) -> list[str]:
        selector = rule.remediation.target_selector
        if selector == "all":
            return fleet.ids()
        if isinstance(selector, (list, tuple)):
            return sorted(selector)
        # The rule's compiled filter reads each endpoint's own field dict: no
        # attrs() copy, and no cache that a direct field write would stale.
        return [fields["endpoint_id"] for fields in rule.failing(fleet.rows())]

    def _threat_metadata(self, threat_class, report, actions, arm) -> TxMetadata:
        kinds = sorted({item["kind"] for item in actions})
        # TxMetadata's fields, typed by reports and classes, so equal tuples
        # encode alike.
        fields = (
            threat_class.category.value if threat_class else None,
            report.actor if report else None,
            tuple(report.technique_ids) if report else (),
            ",".join(kinds) if kinds else "none",
            threat_class.severity if threat_class else 0,
            arm,
        )
        metadata = self._decision_metadata.get(fields)
        if metadata is None:
            metadata = self._decision_metadata[fields] = TxMetadata(*fields)
        return metadata

    # -- enforcement -----------------------------------------------------------

    def run_cycle(
        self,
        decision: Decision,
        matched: list[PolicyRule],
        threat_class: Optional[ThreatClass] = None,
        report: Optional[ThreatReport] = None,
        arm: str = "automated",
    ) -> list[ApplyResult]:
        """One decision cycle on ``arm``'s fleet: plan, enforce, and commit
        the cycle's transactions as one block; returns the results."""
        plan = self.execute_decision(decision, matched, threat_class, report, arm)
        results = self.enforce(plan)
        self.commit_cycle()
        return results

    def enforce(self, plan: EnforcementPlan) -> list[ApplyResult]:
        """Apply a committed plan across its arm's fleet; a human-arm plan
        goes to ``enforce_with_team``.

        Endpoints execute in parallel (per-endpoint substreams make the
        merge order-independent); actions for one endpoint run in plan
        order on that endpoint's own timeline. Every outcome, success or
        failure, is recorded as one enforcement-result transaction; a
        failure never rolls back another endpoint's success.
        """
        if plan.arm == "human":
            return self.enforce_with_team(plan)
        fleet = self.fleet_for(plan.arm)
        results: list[ApplyResult] = []
        per_endpoint_clock: dict[str, int] = {}
        for item in plan.actions:
            endpoint_id, kind = item["endpoint_id"], item["kind"]
            stream = substream(self.master_seed, "auto", self._cycle, endpoint_id, kind)
            start = per_endpoint_clock.get(endpoint_id, plan.issued_at)
            result = apply_action(fleet, endpoint_id, kind, item["params"], self.net, stream, start)
            per_endpoint_clock[endpoint_id] = result.finished_at
            results.append(result)
            self._log_result(plan, item, result)
        if results:
            self.clock.advance_to(max(r.finished_at for r in results))
        return results

    def enforce_with_team(self, plan: EnforcementPlan) -> list[ApplyResult]:
        """Human-baseline execution of a committed plan."""
        fleet = self.fleet_for("human")
        if not plan.actions:
            return []
        tasks = [(item["endpoint_id"], item["kind"], item["params"]) for item in plan.actions]
        results = run_human_process(
            tasks, self.team, self.net, self.master_seed, fleet, plan.issued_at
        )
        for item, result in zip(plan.actions, results):
            self._log_result(plan, item, result)
        self.clock.advance_to(max(r.finished_at for r in results))
        return results

    def _log_result(self, plan: EnforcementPlan, item: dict, result: ApplyResult) -> None:
        actor = "contract-engine" if plan.arm == "automated" else "human-team"
        body = {
            "endpoint_id": result.endpoint_id,
            "action_kind": result.action_kind,
            "outcome": result.outcome,
            "failure_reason": result.failure_reason,
            "duration_ms": result.duration_ms,
            "finished_at": result.finished_at,
            "applied": result.applied,
            "plan_id": plan.plan_id,
            "params": item["params"],
            "rule_id": item["rule_id"],
        }
        self._submit(_RESULT, actor, body, result.finished_at, self._arm_metadata[plan.arm])

    # -- threat alerts -----------------------------------------------------------

    def record_threat_alert(self, alert_body: dict) -> TransactionRecord:
        return self._submit(
            TxKind.THREAT_ALERT,
            "cti-engine",
            alert_body,
            alert_body.get("occurred_at", self.clock.now),
            TxMetadata(
                threat_type="ransomware" if "ransom" in alert_body.get("text", "") else None,
                threat_actor=alert_body.get("actor"),
                technique_ids=tuple(alert_body.get("technique_ids", ())),
                recommended_change=None,
                priority=4 if alert_body.get("cvss", 0) >= 7.0 else 2,
            ),
        )
