"""Smart-contract execution layer: rule deployment, fleet-wide compliance
audit, and transactional enforcement.

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
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canonical import slot_builder, substream
from .cti import Decision, DecisionKind, ThreatClass, ThreatReport
from .errors import InputError, LedgerUnavailable, UnknownContract
from .ledger import Ledger, LedgerBlock, TransactionRecord, TxKind, TxMetadata
from .policy import (
    EnforcementActionSpec,
    PolicyDocument,
    PolicyRule,
    RuleSet,
    combine_rule_sets,
    encode_rules,
    resolve_conflicts,
)
from .simnet import AnalystTeam, ApplyResult, Fleet, NetworkModel, SimClock, apply_action, run_human_process, snapshot


@dataclass
class SmartContract:
    contract_id: str
    rule_set: RuleSet


@dataclass(frozen=True, slots=True)
class ComplianceCheckResult:
    endpoint_id: str
    rule_id: str
    verdict: str  # compliant | non_compliant
    observed: dict
    checked_at: int

    @property
    def compliant(self) -> bool:
        return self.verdict == "compliant"


@dataclass(frozen=True, slots=True)
class PlannedAction:
    endpoint_id: str
    action: EnforcementActionSpec
    rule_id: Optional[str] = None


# A run builds a check result per endpoint and rule, and a planned action
# per endpoint and arm; see ``canonical.slot_builder``.
_check_result = slot_builder(ComplianceCheckResult)
_planned_action = slot_builder(PlannedAction)

# Every immediate action isolates with the same, checked, spec.
_ISOLATE = EnforcementActionSpec(kind="isolate_endpoint", params={"isolated": True})


# Kinds read once per record; an attribute read of the enum costs more.
_CHECK = TxKind.COMPLIANCE_CHECK
_DECISION = TxKind.ENFORCEMENT_DECISION
_RESULT = TxKind.ENFORCEMENT_RESULT


@dataclass
class EnforcementPlan:
    plan_id: str
    arm: str  # automated | human
    decision: Decision
    actions: tuple[PlannedAction, ...]
    issued_at: int
    decision_tx_id: str


@dataclass
class AuditReport:
    contract_id: str
    taken_at: int
    results: list[ComplianceCheckResult]
    aggregate: float  # fraction of (endpoint, rule) pairs compliant
    per_policy: dict  # policy_id -> fraction compliant


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
        self.contracts: dict[str, SmartContract] = {}
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

    def active_contract(self, contract_id: str) -> SmartContract:
        contract = self.contracts.get(contract_id)
        if contract is None:
            raise UnknownContract(contract_id)
        return contract

    def deploy_contract(self, contract_id: str, documents: list[PolicyDocument]) -> SmartContract:
        """Deploy the documents' rules as one contract; the PolicyDeploy
        transactions commit before the contract becomes usable."""
        if contract_id in self.contracts:
            raise InputError(f"contract {contract_id} already deployed")
        if not documents or all(not doc.rules for doc in documents):
            raise InputError("contract requires a non-empty rule set")
        rule_sets = []
        payloads = []
        for doc in documents:
            rs, payload = encode_rules(doc)
            payload["contract_id"] = contract_id
            # Contracts are never upgraded; the chain format keeps the field.
            payload["contract_version"] = 1
            rule_sets.append(rs)
            payloads.append(payload)
        merged = combine_rule_sets(rule_sets)
        kept = {r.rule_id for r in resolve_conflicts(merged.rules)}
        if kept != {r.rule_id for r in merged}:
            dropped = sorted({r.rule_id for r in merged} - kept)
            raise InputError(f"combined rule set has unresolved conflicts: {dropped}")
        # An explicit target list must name endpoints of this fleet.
        for rule in merged:
            selector = rule.remediation.target_selector
            if isinstance(selector, list):
                missing = [eid for eid in selector if eid not in self.fleet]
                if missing:
                    raise InputError(
                        f"rule {rule.rule_id} targets endpoints not in the fleet: {missing}"
                    )
        for payload in payloads:
            self._submit(TxKind.POLICY_DEPLOY, "policy-admin", payload, self.clock.now)
        self.ledger.commit_block(self.clock.now)
        contract = self.contracts[contract_id] = SmartContract(contract_id, merged)
        return contract

    # -- compliance audit ------------------------------------------------------

    def run_full_audit(self, contract_id: str = "compliancecontract") -> AuditReport:
        """Check every rule against every endpoint, log each result as a
        compliance-check transaction, and commit the whole audit as one
        block; results in endpoint id, then rule order."""
        contract = self.active_contract(contract_id)
        tick = self.clock.now
        results = []
        # The snapshot is in endpoint id order.
        for endpoint_id, attrs in snapshot(self.fleet).items():
            for rule in contract.rule_set:
                verdict = "compliant" if rule.is_compliant(attrs) else "non_compliant"
                observed = rule.observed(attrs)
                body = {
                    "endpoint_id": endpoint_id,
                    "rule_id": rule.rule_id,
                    "policy_id": rule.policy_id,
                    "verdict": verdict,
                    "observed": observed,
                    "checked_at": tick,
                }
                self._submit(_CHECK, "contract-engine", body, tick)
                results.append(_check_result(endpoint_id, rule.rule_id, verdict, observed, tick))
        if self.ledger.pending:
            self.ledger.commit_block(tick)
        policy_of = {rule.rule_id: rule.policy_id for rule in contract.rule_set}
        per_policy_counts: dict[str, list[int]] = {}
        for result in results:
            bucket = per_policy_counts.setdefault(policy_of[result.rule_id], [0, 0])
            bucket[0] += result.compliant
            bucket[1] += 1
        compliant = sum(1 for r in results if r.compliant)
        return AuditReport(
            contract_id=contract.contract_id,
            taken_at=tick,
            results=results,
            aggregate=compliant / len(results) if results else 1.0,
            per_policy={
                pid: ok / total for pid, (ok, total) in sorted(per_policy_counts.items())
            },
        )

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
        actions: list[PlannedAction] = []
        if decision.kind != DecisionKind.NO_ACTION_REQUIRED:
            for rule in deduped:
                targets = self._targets_for(rule, fleet)
                for endpoint_id in targets:
                    actions.append(_planned_action(endpoint_id, rule.remediation, rule.rule_id))
            if decision.kind == DecisionKind.IMMEDIATE_ACTION_REQUIRED:
                actions += [_planned_action(row["endpoint_id"], _ISOLATE, None)
                            for row in fleet.rows() if row["infected"] and not row["isolated"]]
        # Parallel dispatch order: endpoint id, then remediations before
        # isolation within an endpoint (plan position is the tiebreak).
        indexed = list(enumerate(actions))
        indexed.sort(
            key=lambda ia: (ia[1].endpoint_id, ia[1].action.kind == "isolate_endpoint", ia[0])
        )
        ordered = tuple(pa for _, pa in indexed)

        self._plan_seq += 1
        plan_id = f"plan-{self._plan_seq:04d}"
        issued_at = self.clock.now
        actor = "contract-engine" if arm == "automated" else "human-team"
        metadata = self._threat_metadata(threat_class, report, ordered, arm)
        body = {
            "plan_id": plan_id,
            "decision": decision.kind.value,
            "matched_rule_ids": list(decision.matched_rule_ids),
            "matched_policy_ids": sorted({r.policy_id for r in deduped}),
            "report_id": report.report_id if report else None,
            "planned": [
                {
                    "endpoint_id": pa.endpoint_id,
                    "kind": pa.action.kind,
                    "params": pa.action.params,
                    "rule_id": pa.rule_id,
                }
                for pa in ordered
            ],
            "target_endpoints": sorted({pa.endpoint_id for pa in ordered}),
            "issued_at": issued_at,
        }
        tx = self._submit(_DECISION, actor, body, issued_at, metadata)
        return EnforcementPlan(
            plan_id=plan_id,
            arm=arm,
            decision=decision,
            actions=ordered,
            issued_at=issued_at,
            decision_tx_id=tx.tx_id,
        )

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
        kinds = sorted({pa.action.kind for pa in actions})
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
        for pa in plan.actions:
            stream = substream(
                self.master_seed, "auto", self._cycle, pa.endpoint_id, pa.action.kind
            )
            start = per_endpoint_clock.get(pa.endpoint_id, plan.issued_at)
            result = apply_action(
                fleet, pa.endpoint_id, pa.action, self.net, stream, start, cause="enforce"
            )
            per_endpoint_clock[pa.endpoint_id] = result.finished_at
            results.append(result)
            self._log_result(plan, pa, result)
        if results:
            self.clock.advance_to(max(r.finished_at for r in results))
        return results

    def enforce_with_team(self, plan: EnforcementPlan) -> list[ApplyResult]:
        """Human-baseline execution of a committed plan."""
        fleet = self.fleet_for("human")
        if not plan.actions:
            return []
        tasks = [(pa.endpoint_id, pa.action) for pa in plan.actions]
        results = run_human_process(
            tasks, self.team, self.net, self.master_seed, fleet, plan.issued_at
        )
        for pa, result in zip(plan.actions, results):
            self._log_result(plan, pa, result)
        self.clock.advance_to(max(r.finished_at for r in results))
        return results

    def _log_result(self, plan: EnforcementPlan, pa: PlannedAction, result: ApplyResult) -> None:
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
            "params": pa.action.params,
            "rule_id": pa.rule_id,
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
