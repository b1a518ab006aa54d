"""Scenario orchestration: wires the fleet, contract engine, CTI pipeline
and metrics into reproducible end-to-end runs.

A run is: provision fleet(s) -> deploy the scenario's policies as one
contract -> heartbeat audit -> threat processing (Algorithm-style cycles
for the automated arm, the analyst-team baseline for the human arm, both
sharing one seed in ``both`` mode so the comparison is paired) -> report
and chain export. Identical configs produce byte-identical outputs.

A run pauses the cyclic garbage collector (see ``run_scenario``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .canonical import FieldSpec, check_config, collector_paused, digest_value, substream
from .contracts import ContractEngine
from .cti import CycleOutcome, ForestModel, assess, ingest_feed, process_threat_intelligence, read_feed
from .errors import InputError
# Unused here, kept because perfbench's binding test reads runner.verify_chain.
from .ledger import Ledger, export_chain, verify_chain  # noqa: F401
from .metrics import ComparisonReport, build_comparison_report, render_report_text, samples_from_chain
from .policy import load_policy_file
from .simnet import (MAX_ENDPOINTS, MAX_VALIDATORS, AnalystTeam, Fleet, NetworkModel, SimClock, ThreatScenario,
                     inject_threat, provision_fleet, snapshot)

SCENARIOS = ("smbv1", "rdp", "ransomware", "custom")
MODES = ("automated", "human", "both")


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

    SPEC = {
        "seed": FieldSpec("int"),
        "endpoints": FieldSpec("int", 1, MAX_ENDPOINTS, "endpoints"),
        "scenario": FieldSpec("str", of=SCENARIOS),
        "mode": FieldSpec("str", of=MODES),
        "network": FieldSpec("config", of=NetworkModel),
        "team": FieldSpec("config", of=AnalystTeam),
        "policies": FieldSpec("list", 0, of=FieldSpec("text")),
        "feeds": FieldSpec("list", 0, of=FieldSpec("text")),
        "model": FieldSpec("text", null=True),
        "infected_count": FieldSpec("int", 0, unit="endpoints"),
        "validators": FieldSpec("int", 1, MAX_VALIDATORS, "validators"),
    }

    def __post_init__(self):
        check_config(RunConfig, vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**check_config(cls, data))

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise InputError(f"config file is not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # also an integer too long to convert
            raise InputError(f"config file is not valid JSON: {exc}") from exc
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
        return {**vars(self), "model": self.model or None}

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
    diagnostics: list[str]  # one per malformed feed item that was skipped


@collector_paused
def run_scenario(
    config: RunConfig,
    outdir: Optional[str | Path] = None,
    report_format: str = "both",
) -> RunResult:
    """Execute one scenario end to end; write report + chain when outdir
    is given. ``report_format`` selects json, text, or both report files.
    Raises for config errors; missing files raise FileNotFoundError so the
    CLI can map exit codes.

    The cyclic garbage collector is paused for the run by
    ``canonical.collector_paused``, as for the auditor's import, replay and
    samples: a run makes no reference cycles, so each of the hundreds of
    passes a large run would trigger frees nothing
    (``test_run_scenario_makes_no_cycles_and_restores_the_collector`` pins
    this). It is enabled again on return or raise if it was on at entry.
    """
    if report_format not in ("json", "text", "both"):
        raise InputError(f"unknown report format {report_format!r}")
    documents = [load_policy_file(path) for path in config.resolved_policy_paths()]
    feed_items = [item for path in config.resolved_feed_paths() for item in read_feed(path)]
    model = ForestModel.from_file(config.resolved_model_path())

    config_digest = config.digest()
    clock = SimClock(0)
    fleet = provision_fleet(config.endpoints)
    human_fleet = provision_fleet(config.endpoints) if config.mode in ("human", "both") else None
    ledger = Ledger(
        validators=config.validators,
        genesis_timestamp=0,
        config_digest=config_digest,
    )
    engine = ContractEngine(
        ledger=ledger,
        fleet=fleet,
        clock=clock,
        net=NetworkModel(**config.network),
        master_seed=config.seed,
        human_fleet=human_fleet,
        team=AnalystTeam.default(**config.team),
    )

    clock.advance(1_000)
    engine.deploy_contract("compliancecontract", documents)
    rules = engine.active_contract("compliancecontract").rule_set

    # Heartbeat audit: every run starts with a full compliance picture.
    clock.advance(1_000)
    audit = engine.run_full_audit("compliancecontract")

    if config.scenario == "ransomware":
        stream = substream(config.seed, "inject")
        count = min(config.infected_count, len(fleet))
        scenario = ThreatScenario(affected_ids=tuple(sorted(stream.sample(fleet.ids(), count))))
        clock.advance(1_000)
        alert = inject_threat(fleet, scenario, clock.now)
        if human_fleet is not None:
            # The paired baseline faces the same infection.
            inject_threat(human_fleet, scenario, clock.now)
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
    reports, diagnostics = ingest_feed(feed_items)

    outcomes: list[CycleOutcome] = []
    if config.mode == "human":
        # No automated arm, so no feedback: every report meets the loaded model.
        memo: dict = {}
        decided = [(report, *assess(model, rules, report, memo)) for report in reports]
    else:
        clock.advance(1_000)
        outcomes, _ = process_threat_intelligence(reports, model, rules, engine)
        decided = [(o.report, o.threat_class, o.matched, o.decision) for o in outcomes]
    if human_fleet is not None:
        # The human arm replays the same decisions, one cycle (block) each.
        clock.advance(1_000)
        for report, threat_class, matched, decision in decided:
            engine.run_cycle(decision, matched, threat_class, report, arm="human")

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
        diagnostics=diagnostics,
    )
