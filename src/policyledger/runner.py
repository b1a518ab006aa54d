"""Scenario orchestration: wires the fleet, contract engine, CTI pipeline
and metrics into reproducible end-to-end runs.

A run is: provision fleet(s) -> deploy the scenario's policies as one
contract -> heartbeat audit -> threat processing (Algorithm-style cycles
for the automated arm, the analyst-team baseline for the human arm, both
sharing one seed in ``both`` mode so the comparison is paired) -> report
and chain export. Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .canonical import digest_value, substream
from .contracts import ContractEngine
from .cti import (
    CycleOutcome,
    Decision,
    ForestModel,
    classify,
    decide,
    encode_features,
    ingest_feed,
    process_threat_intelligence,
    update_model,
)
from .errors import InputError
# Unused here, kept because perfbench's binding test reads runner.verify_chain.
from .ledger import Ledger, export_chain, verify_chain  # noqa: F401
from .metrics import ComparisonReport, build_comparison_report, render_report_text, samples_from_chain
from .policy import PolicyDocument, load_policy_file, query_policies
from .simnet import AnalystTeam, Fleet, NetworkModel, SimClock, ThreatScenario, inject_threat, provision_fleet, snapshot

SCENARIOS = ("smbv1", "rdp", "ransomware", "custom")
MODES = ("automated", "human", "both")

_CONFIG_KEYS = {
    "seed",
    "endpoints",
    "scenario",
    "mode",
    "network",
    "team",
    "policies",
    "feeds",
    "model",
    "infected_count",
    "validators",
}

_NETWORK_KEYS = {
    "auto_base_ms",
    "auto_base_by_kind",
    "auto_jitter_ms",
    "auto_failure_prob",
    "human_median_ms",
    "human_median_ms_by_kind",
    "human_sigma_log",
    "human_error_prob",
    "human_error_prob_by_kind",
}

_TEAM_KEYS = {"role_speed", "role_error"}


def fixture_path(*parts: str) -> Path:
    return Path(resources.files("policyledger").joinpath("fixtures", *parts))


_SCENARIO_POLICIES = {
    "smbv1": ["policies/smbv1.json"],
    "rdp": ["policies/rdp.json"],
    "ransomware": ["policies/ransomware.json"],
}

_SCENARIO_FEEDS = {
    "smbv1": ["feeds/smbv1_advisory.json"],
    "rdp": ["feeds/rdp_advisory.json"],
    "ransomware": [],  # the injected threat emits the synthetic report
}


@dataclass
class RunConfig:
    seed: int = 42
    endpoints: int = 60
    scenario: str = "smbv1"
    mode: str = "both"
    network: dict = field(default_factory=dict)
    team: dict = field(default_factory=dict)
    policies: list = field(default_factory=list)
    feeds: list = field(default_factory=list)
    model: Optional[str] = None
    infected_count: int = 10
    validators: int = 3

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InputError(f"unknown scenario {self.scenario!r}")
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.endpoints < 1:
            raise InputError("endpoints must be >= 1")
        if self.validators < 1:
            raise InputError("validators must be >= 1")
        unknown = set(self.network) - _NETWORK_KEYS
        if unknown:
            raise InputError(f"unknown network keys: {sorted(unknown)}")
        unknown = set(self.team) - _TEAM_KEYS
        if unknown:
            raise InputError(f"unknown team keys: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("config file must contain a JSON object")
        return cls.from_dict(data)

    def resolved_policy_paths(self) -> list[Path]:
        if self.policies:
            return [Path(p) for p in self.policies]
        if self.scenario == "custom":
            raise InputError("custom scenario requires explicit policy paths")
        return [fixture_path(rel) for rel in _SCENARIO_POLICIES[self.scenario]]

    def resolved_feed_paths(self) -> list[Path]:
        if self.feeds:
            return [Path(p) for p in self.feeds]
        if self.scenario == "custom":
            return []
        return [fixture_path(rel) for rel in _SCENARIO_FEEDS[self.scenario]]

    def resolved_model_path(self) -> Path:
        return Path(self.model) if self.model else fixture_path("model.json")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "endpoints": self.endpoints,
            "scenario": self.scenario,
            "mode": self.mode,
            "network": self.network,
            "team": self.team,
            "policies": [str(p) for p in self.policies],
            "feeds": [str(p) for p in self.feeds],
            "model": str(self.model) if self.model else None,
            "infected_count": self.infected_count,
            "validators": self.validators,
        }

    def digest(self) -> str:
        return digest_value(self.to_dict())


@dataclass
class RunResult:
    config: RunConfig
    config_digest: str
    report: ComparisonReport
    chain: list
    fleet: Fleet
    human_fleet: Optional[Fleet]
    fleet_snapshot: dict
    human_snapshot: Optional[dict]
    outcomes: list[CycleOutcome]
    audit_aggregate: float
    files: dict


def _load_documents(paths: list[Path]) -> list[PolicyDocument]:
    docs = []
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(str(path))
        docs.append(load_policy_file(path))
    return docs


def _merge_feed_items(paths: list[Path]) -> list[dict]:
    """Concatenate feed envelopes; per-item validation stays in the
    pipeline so malformed items are diagnosed, not dropped here."""
    from .errors import FeedSchemaError

    items: list[dict] = []
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(str(path))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FeedSchemaError(f"{path}: feed envelope is not valid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise FeedSchemaError(f"{path}: feed envelope must be an array")
        items.extend(data)
    return items


def _human_pipeline(
    engine: ContractEngine,
    decisions: list[tuple[Decision, list, object, object]],
) -> None:
    """Replays the decision sequence against the human fleet; one cycle
    (block) per decision, enforcement by the analyst team."""
    for decision, matched, threat_class, report in decisions:
        plan = engine.execute_decision(
            decision, matched, threat_class, report, arm="human"
        )
        engine.enforce_with_team(plan)
        engine.commit_cycle()


def run_scenario(
    config: RunConfig,
    outdir: Optional[str | Path] = None,
    report_format: str = "both",
) -> RunResult:
    """Execute one scenario end to end; write report + chain when outdir
    is given. ``report_format`` selects json, text, or both report files.
    Raises for config errors; missing files raise FileNotFoundError so the
    CLI can map exit codes."""
    if report_format not in ("json", "text", "both"):
        raise InputError(f"unknown report format {report_format!r}")
    config_digest = config.digest()
    clock = SimClock(0)
    fleet = provision_fleet(config.endpoints)
    human_fleet = provision_fleet(config.endpoints) if config.mode in ("human", "both") else None
    net_kwargs = dict(config.network)
    net = NetworkModel(seed=config.seed, **net_kwargs)
    team = AnalystTeam.default(
        role_speed=config.team.get("role_speed"),
        role_error=config.team.get("role_error"),
    )
    ledger = Ledger(
        validators=config.validators,
        genesis_timestamp=0,
        config_digest=config_digest,
    )
    engine = ContractEngine(
        ledger=ledger,
        fleet=fleet,
        clock=clock,
        net=net,
        master_seed=config.seed,
        human_fleet=human_fleet,
        team=team,
    )

    documents = _load_documents(config.resolved_policy_paths())
    clock.advance(1_000)
    engine.deploy_contract("compliancecontract", documents)
    contract = engine.active_contract("compliancecontract")

    # Heartbeat audit: every run starts with a full compliance picture.
    clock.advance(1_000)
    audit = engine.run_full_audit("compliancecontract")

    feed_items = _merge_feed_items(config.resolved_feed_paths())

    if config.scenario == "ransomware":
        stream = substream(config.seed, "inject")
        count = min(config.infected_count, len(fleet))
        affected = tuple(sorted(stream.sample(fleet.ids(), count)))
        scenario = ThreatScenario(affected_ids=affected)
        clock.advance(1_000)
        alert = inject_threat(fleet, scenario, clock.now)
        if human_fleet is not None:
            # The paired baseline faces the same infection.
            for eid in affected:
                human_fleet.get(eid).infected = True
        if alert is not None:
            engine.record_threat_alert(alert)
            feed_items.append(
                {
                    "report_id": alert["report_id"],
                    "source": "internal-telemetry",
                    "actor": alert["actor"],
                    "technique_ids": alert["technique_ids"],
                    "cve_ids": alert["cve_ids"],
                    "cvss": alert["cvss"],
                    "text": alert["text"],
                    "received_at": clock.now,
                }
            )

    feed_text = json.dumps(feed_items)
    model_path = config.resolved_model_path()
    if not model_path.exists():
        raise FileNotFoundError(str(model_path))
    model = ForestModel.from_file(model_path)

    outcomes: list[CycleOutcome] = []
    decision_log: list[tuple[Decision, list, object, object]] = []
    if config.mode in ("automated", "both"):
        clock.advance(1_000)
        outcomes, model, _diags = process_threat_intelligence(
            feed_text, model, contract.rule_set, engine
        )
        decision_log = [
            (o.decision, o.matched, o.threat_class, o.report) for o in outcomes
        ]
    else:
        # Human-only mode still needs the classification pass to reach a
        # decision; the model is not updated (no automated feedback loop).
        reports, _diags = ingest_feed(feed_text)
        for report in reports:
            threat_class = classify(model, encode_features(report))
            matched = query_policies(
                contract.rule_set, threat_class.severity, report.technique_ids
            )
            decision_log.append(
                (decide(matched, model.threshold), matched, threat_class, report)
            )

    if config.mode in ("human", "both"):
        clock.advance(1_000)
        _human_pipeline(engine, decision_log)

    chain = ledger.chain()
    # samples_from_chain's verification is the one check of the fresh chain.
    automated_samples, human_samples = samples_from_chain(chain)
    report = build_comparison_report(
        automated_samples,
        human_samples,
        chain_hash=ledger.head_hash(),
        seed=config.seed,
        config_digest=config_digest,
    )

    files: dict = {}
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        chain_path = out / "chain.ndjson"
        export_chain(chain, chain_path)
        files = {"chain": str(chain_path)}
        if report_format in ("json", "both"):
            report_json = out / "report.json"
            report_json.write_text(report.to_json() + "\n", encoding="utf-8")
            files["report_json"] = str(report_json)
        if report_format in ("text", "both"):
            report_txt = out / "report.txt"
            report_txt.write_text(render_report_text(report), encoding="utf-8")
            files["report_text"] = str(report_txt)

    return RunResult(
        config=config,
        config_digest=config_digest,
        report=report,
        chain=chain,
        fleet=fleet,
        human_fleet=human_fleet,
        fleet_snapshot=snapshot(fleet),
        human_snapshot=snapshot(human_fleet) if human_fleet is not None else None,
        outcomes=outcomes,
        audit_aggregate=audit.aggregate,
        files=files,
    )
