"""Smart-contract execution layer: versioned rule deployment, event-driven
compliance checks, continuous audit, and transactional enforcement.

The engine is the ledger's single writer. Work is grouped into decision
cycles: every transaction raised during one cycle (threat alert,
compliance checks, the enforcement decision, per-endpoint results) lands
in one block. A decision is always recorded - and validated by the
simulated consensus - before any endpoint is touched; per-endpoint
outcomes are then recorded individually, which is how a 100%-reliable
contract layer coexists with a sub-100% endpoint application rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .canonical import substream
from .cti import Decision, DecisionKind, ThreatClass, ThreatReport
from .errors import InputError, LedgerUnavailable, UnknownContract
from .ledger import Ledger, LedgerBlock, TransactionRecord, TxKind, TxMetadata
from .policy import (
    EnforcementActionSpec,
    PolicyDocument,
    PolicyRule,
    RuleSet,
    encode_rules,
    resolve_conflicts,
)
from .simnet import AnalystTeam, ApplyResult, Fleet, NetworkModel, SimClock, apply_action, run_human_process, snapshot


@dataclass
class SmartContract:
    contract_id: str
    version: int
    rule_set: RuleSet
    documents: tuple[PolicyDocument, ...]
    lifecycle: str = "active"  # active | superseded
    deployed_at: int = 0


@dataclass(frozen=True)
class ContractEvent:
    event_id: str
    event_kind: str  # app_deployed | config_changed | threat_alert | scheduled_audit
    subject: str  # endpoint id or "fleet"
    occurred_at: int

    EVENT_KINDS = ("app_deployed", "config_changed", "threat_alert", "scheduled_audit")

    def __post_init__(self):
        if self.event_kind not in self.EVENT_KINDS:
            raise InputError(f"unknown event kind {self.event_kind!r}")


@dataclass(frozen=True)
class ComplianceCheckResult:
    endpoint_id: str
    rule_id: str
    verdict: str  # compliant | non_compliant
    observed: dict
    checked_at: int

    @property
    def compliant(self) -> bool:
        return self.verdict == "compliant"


@dataclass(frozen=True)
class PlannedAction:
    endpoint_id: str
    action: EnforcementActionSpec
    rule_id: Optional[str] = None


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
    contract_version: int
    taken_at: int
    results: list[ComplianceCheckResult]
    aggregate: float  # fraction of (endpoint, rule) pairs compliant
    per_policy: dict  # policy_id -> fraction compliant


class ContractEngine:
    """Single writer tying the fleet, the policy rules and the ledger."""

    def __init__(
        self,
        ledger: Optional[Ledger],
        fleet: Fleet,
        clock: SimClock,
        net: NetworkModel,
        master_seed: int,
        human_fleet: Optional[Fleet] = None,
        team: Optional[AnalystTeam] = None,
    ):
        self.ledger = ledger
        self.fleet = fleet
        self.human_fleet = human_fleet
        self.clock = clock
        self.net = net
        self.master_seed = master_seed
        self.team = team or AnalystTeam.default()
        self.contracts: dict[str, list[SmartContract]] = {}
        self._cycle = 0
        self._plan_seq = 0

    # -- plumbing ------------------------------------------------------------

    def _require_ledger(self) -> Ledger:
        if self.ledger is None:
            raise LedgerUnavailable("no ledger attached; refusing to act without an audit trail")
        return self.ledger

    def _submit(self, kind: TxKind, actor: str, body: dict, timestamp: int,
                metadata: Optional[TxMetadata] = None) -> TransactionRecord:
        ledger = self._require_ledger()
        tx = TransactionRecord.create(
            tx_id=ledger.next_tx_id(),
            timestamp=timestamp,
            kind=kind,
            actor=actor,
            body=body,
            metadata=metadata,
        )
        verdict = ledger.submit_transaction(tx)
        if not verdict:
            raise InputError(f"ledger rejected {kind.value} tx: {verdict.reason}")
        return tx

    def commit_cycle(self) -> Optional[LedgerBlock]:
        """Commit all transactions of the current decision cycle as one
        block; a cycle with nothing to record commits nothing."""
        ledger = self._require_ledger()
        self._cycle += 1
        if not ledger.pending:
            return None
        return ledger.commit_block(self.clock.now)

    def fleet_for(self, arm: str) -> Fleet:
        if arm == "automated":
            return self.fleet
        if arm == "human":
            if self.human_fleet is None:
                raise InputError("no human fleet configured")
            return self.human_fleet
        raise InputError(f"unknown arm {arm!r}")

    # -- contract lifecycle ----------------------------------------------------

    def active_contract(self, contract_id: str) -> SmartContract:
        versions = self.contracts.get(contract_id)
        if not versions:
            raise UnknownContract(contract_id)
        head = versions[-1]
        if head.lifecycle != "active":
            raise UnknownContract(f"{contract_id} has no active version")
        return head

    def _deploy_payloads(self, contract_id: str, version: int,
                         documents: list[PolicyDocument]) -> tuple[RuleSet, list[dict]]:
        if not documents or all(not doc.rules for doc in documents):
            raise InputError("contract requires a non-empty rule set")
        rule_sets = []
        payloads = []
        for doc in documents:
            rs, payload = encode_rules(doc)
            payload["contract_id"] = contract_id
            payload["contract_version"] = version
            rule_sets.append(rs)
            payloads.append(payload)
        merged: list[PolicyRule] = []
        for rs in rule_sets:
            merged.extend(rs.rules)
        merged.sort(key=lambda r: (-r.severity_weight, r.rule_id))
        kept = {r.rule_id for r in resolve_conflicts(merged)}
        if kept != {r.rule_id for r in merged}:
            dropped = sorted({r.rule_id for r in merged} - kept)
            raise InputError(f"combined rule set has unresolved conflicts: {dropped}")
        return RuleSet(tuple(merged)), payloads

    def deploy_contract(self, contract_id: str, documents: list[PolicyDocument]) -> SmartContract:
        """Deploy version 1; the PolicyDeploy transactions commit before
        the contract becomes usable."""
        if contract_id in self.contracts:
            raise InputError(f"contract {contract_id} already deployed; use upgrade")
        rule_set, payloads = self._deploy_payloads(contract_id, 1, documents)
        ledger = self._require_ledger()
        for payload in payloads:
            self._submit(TxKind.POLICY_DEPLOY, "policy-admin", payload, self.clock.now)
        ledger.commit_block(self.clock.now)
        contract = SmartContract(
            contract_id=contract_id,
            version=1,
            rule_set=rule_set,
            documents=tuple(documents),
            deployed_at=self.clock.now,
        )
        self.contracts[contract_id] = [contract]
        return contract

    def upgrade_contract(self, contract_id: str, documents: list[PolicyDocument]) -> SmartContract:
        """Supersede the active version; prior versions stay queryable and
        in-flight checks keep the version they started with."""
        previous = self.active_contract(contract_id)
        new_version = previous.version + 1
        prior_versions = {doc.policy_id: doc.version for doc in previous.documents}
        for doc in documents:
            expected = prior_versions.get(doc.policy_id)
            if expected is not None and doc.version != expected + 1:
                raise InputError(
                    f"policy {doc.policy_id} version must increment by 1 "
                    f"({expected} -> {doc.version})"
                )
        rule_set, payloads = self._deploy_payloads(contract_id, new_version, documents)
        ledger = self._require_ledger()
        for payload in payloads:
            self._submit(TxKind.POLICY_UPDATE, "policy-admin", payload, self.clock.now)
        ledger.commit_block(self.clock.now)
        previous.lifecycle = "superseded"
        contract = SmartContract(
            contract_id=contract_id,
            version=new_version,
            rule_set=rule_set,
            documents=tuple(documents),
            deployed_at=self.clock.now,
        )
        self.contracts[contract_id].append(contract)
        return contract

    # -- compliance checking ---------------------------------------------------

    def _check_endpoint(self, contract: SmartContract, fleet: Fleet,
                        endpoint_id: str, tick: int) -> list[ComplianceCheckResult]:
        attrs = fleet.get(endpoint_id).attrs()
        out = []
        for rule in contract.rule_set:
            verdict = "compliant" if rule.is_compliant(attrs) else "non_compliant"
            out.append(
                ComplianceCheckResult(
                    endpoint_id=endpoint_id,
                    rule_id=rule.rule_id,
                    verdict=verdict,
                    observed=rule.observed(attrs),
                    checked_at=tick,
                )
            )
        return out

    def _log_check(self, result: ComplianceCheckResult, policy_id: str) -> None:
        self._submit(
            TxKind.COMPLIANCE_CHECK,
            "contract-engine",
            {
                "endpoint_id": result.endpoint_id,
                "rule_id": result.rule_id,
                "policy_id": policy_id,
                "verdict": result.verdict,
                "observed": result.observed,
                "checked_at": result.checked_at,
            },
            result.checked_at,
        )

    def handle_event(self, event: ContractEvent, contract: Optional[SmartContract] = None,
                     contract_id: str = "compliancecontract") -> list[ComplianceCheckResult]:
        """Run the checks an event triggers; results are logged as
        compliance-check transactions in the current cycle.

        The contract version is pinned at entry so an upgrade never
        disturbs an in-flight check. An unknown subject yields no results
        plus one logged warning transaction.
        """
        contract = contract or self.active_contract(contract_id)
        self.clock.advance_to(event.occurred_at)
        if event.subject != "fleet" and event.subject not in self.fleet:
            self._submit(
                TxKind.COMPLIANCE_CHECK,
                "contract-engine",
                {
                    "warning": "unknown_subject",
                    "event_id": event.event_id,
                    "subject": event.subject,
                    "checked_at": event.occurred_at,
                },
                event.occurred_at,
            )
            return []
        subjects = self.fleet.ids() if event.subject == "fleet" else [event.subject]
        results = []
        rules_by_id = {r.rule_id: r for r in contract.rule_set}
        for endpoint_id in subjects:
            for result in self._check_endpoint(contract, self.fleet, endpoint_id, event.occurred_at):
                self._log_check(result, rules_by_id[result.rule_id].policy_id)
                results.append(result)
        return results

    def run_full_audit(self, contract_id: str = "compliancecontract",
                       fleet_snapshot: Optional[dict] = None) -> AuditReport:
        """Evaluate every (endpoint, rule) pair and commit the whole audit
        as one block."""
        contract = self.active_contract(contract_id)
        snap = fleet_snapshot if fleet_snapshot is not None else snapshot(self.fleet)
        tick = self.clock.now
        results: list[ComplianceCheckResult] = []
        per_policy_counts: dict[str, list[int]] = {}
        for endpoint_id in sorted(snap):
            attrs = snap[endpoint_id]
            for rule in contract.rule_set:
                verdict = "compliant" if rule.is_compliant(attrs) else "non_compliant"
                result = ComplianceCheckResult(
                    endpoint_id=endpoint_id,
                    rule_id=rule.rule_id,
                    verdict=verdict,
                    observed=rule.observed(attrs),
                    checked_at=tick,
                )
                results.append(result)
                self._log_check(result, rule.policy_id)
                bucket = per_policy_counts.setdefault(rule.policy_id, [0, 0])
                bucket[1] += 1
                if result.compliant:
                    bucket[0] += 1
        ledger = self._require_ledger()
        if ledger.pending:
            ledger.commit_block(tick)
        compliant = sum(1 for r in results if r.compliant)
        return AuditReport(
            contract_id=contract.contract_id,
            contract_version=contract.version,
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
                    actions.append(PlannedAction(endpoint_id, rule.remediation, rule.rule_id))
            if decision.kind == DecisionKind.IMMEDIATE_ACTION_REQUIRED:
                isolate = EnforcementActionSpec(kind="isolate_endpoint", params={"isolated": True})
                for endpoint_id in fleet.ids():
                    if fleet.get(endpoint_id).infected and not fleet.get(endpoint_id).isolated:
                        actions.append(PlannedAction(endpoint_id, isolate, None))
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
        tx = self._submit(TxKind.ENFORCEMENT_DECISION, actor, body, issued_at, metadata)
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
        # Conditions only read vocabulary attributes: no attrs() copy needed.
        return [
            ep.endpoint_id for ep in fleet.endpoints() if not rule.is_compliant(vars(ep))
        ]

    def _threat_metadata(self, threat_class, report, actions, arm) -> TxMetadata:
        kinds = sorted({pa.action.kind for pa in actions})
        return TxMetadata(
            threat_type=threat_class.category.value if threat_class else None,
            threat_actor=report.actor if report else None,
            technique_ids=report.technique_ids if report else (),
            recommended_change=",".join(kinds) if kinds else "none",
            priority=threat_class.severity if threat_class else 0,
            arm=arm,
        )

    # -- enforcement -----------------------------------------------------------

    def enforce(self, plan: EnforcementPlan) -> list[ApplyResult]:
        """Apply a committed plan across the fleet.

        Endpoints execute in parallel (per-endpoint substreams make the
        merge order-independent); actions for one endpoint run in plan
        order on that endpoint's own timeline. Every outcome, success or
        failure, is recorded as one enforcement-result transaction; a
        failure never rolls back another endpoint's success.
        """
        if plan.arm == "human":
            return self.enforce_with_team(plan)
        fleet = self.fleet_for(plan.arm)
        self._require_ledger()
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
        self._require_ledger()
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
            "plan_id": plan.plan_id,
            "endpoint_id": result.endpoint_id,
            "action_kind": result.action_kind,
            "params": pa.action.params,
            "rule_id": pa.rule_id,
            "outcome": result.outcome,
            "failure_reason": result.failure_reason,
            "duration_ms": result.duration_ms,
            "finished_at": result.finished_at,
            "applied": result.applied,
        }
        self._submit(
            TxKind.ENFORCEMENT_RESULT,
            actor,
            body,
            result.finished_at,
            TxMetadata(arm=plan.arm),
        )

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
