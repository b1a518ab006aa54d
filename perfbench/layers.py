"""Per-layer metrics: which package names the traced run wraps, and how
each per-layer metric is computed from the spans and counters.

Layers are the package modules. A per-layer ``*_s`` metric is busy time:
the summed self time of the named functions' spans. Unless a name says
otherwise, a metric covers the spans under one ``run_scenario`` call (the
write path); ``ledger.import_s``, ``ledger.replay_s`` and the ``audit.*``
metrics cover the spans under the auditor's path over the exported chain.
"""

from __future__ import annotations

from collections import Counter

LAYERS = ("canonical", "ledger", "policy", "contracts", "cti", "simnet", "metrics", "runner")

RUN_ROOT = "runner.run_scenario"
AUDIT_ROOT = "bench.audit"

# Methods wrapped on their classes, beyond every public module function.
METHODS = {
    "ledger": [
        "Ledger.submit_transaction",
        "Ledger.commit_block",
        "TransactionRecord.create",
        "TransactionRecord.body",
        "TransactionRecord.record_digest",
    ],
    "policy": ["PolicyRule.is_compliant"],
    "contracts": [
        "ContractEngine.deploy_contract",
        "ContractEngine.run_full_audit",
        "ContractEngine.execute_decision",
        "ContractEngine.enforce",
        "ContractEngine.enforce_with_team",
        "ContractEngine.commit_cycle",
        "ContractEngine.record_threat_alert",
    ],
    "simnet": ["Endpoint.attrs", "Fleet.ids"],
}

_DECISION_METRIC = {
    "no_action_required": "cti.decisions.no_action",
    "standard_mitigation_required": "cti.decisions.standard",
    "immediate_action_required": "cti.decisions.immediate",
}


def _pending_peak(counters: Counter, args: tuple, verdict) -> None:
    ledger = args[0]
    counters["ledger.pending_peak"] = max(counters["ledger.pending_peak"], len(ledger.pending))
    if not verdict:
        counters["ledger.rejected_tx"] += 1


def _decision(counters: Counter, args: tuple, decision) -> None:
    counters[_DECISION_METRIC[decision.kind.value]] += 1


def _apply(counters: Counter, args: tuple, result) -> None:
    if not result.success:
        counters["simnet.apply_failed"] += 1


def _human(counters: Counter, args: tuple, results) -> None:
    counters["simnet.human_failed"] += sum(1 for r in results if not r.success)


OBSERVERS = {
    "ledger.Ledger.submit_transaction": _pending_peak,
    "cti.decide": _decision,
    "cti.ingest_feed": lambda c, a, r: c.update({"cti.reports": len(r[0])}),
    "contracts.ContractEngine.execute_decision": lambda c, a, r: c.update(
        {"contracts.planned_actions": len(r.actions)}
    ),
    "simnet.apply_action": _apply,
    "simnet.run_human_process": _human,
}


def install(tracer, pkg) -> None:
    """Wrap every layer's public functions at each module binding them,
    and the METHODS on their classes. ``pkg`` maps module short names
    (plus ``policyledger`` for the package) to modules."""
    sites = list(pkg.values())
    for layer in LAYERS:
        tracer.install_functions(pkg[layer], sites, OBSERVERS)
        for qualname in METHODS.get(layer, ()):
            tracer.install_method(pkg[layer], qualname, OBSERVERS)


# (metric, spans it sums): calls, or self time, of the named spans in the
# write path.
_CALLS = [
    ("canonical.digest_calls", ["canonical.digest_bytes"]),
    ("canonical.json_calls", ["canonical.canonical_json"]),
    ("canonical.substream_calls", ["canonical.substream"]),
    ("ledger.submit_calls", ["ledger.Ledger.submit_transaction"]),
    ("ledger.commit_calls", ["ledger.Ledger.commit_block"]),
    ("ledger.validate_calls", ["ledger.validate_transaction"]),
    ("ledger.verify_calls", ["ledger.verify_chain"]),
    ("ledger.query_calls", ["ledger.query_history"]),
    ("policy.is_compliant_calls", ["policy.PolicyRule.is_compliant"]),
    ("contracts.execute_decision_calls", ["contracts.ContractEngine.execute_decision"]),
    ("simnet.snapshot_calls", ["simnet.snapshot"]),
    ("simnet.attrs_calls", ["simnet.Endpoint.attrs"]),
    ("simnet.ids_calls", ["simnet.Fleet.ids"]),
    ("simnet.apply_calls", ["simnet.apply_action"]),
]
_TIMES = [
    ("canonical.digest_s", ["canonical.digest_bytes", "canonical.digest_value"]),
    ("canonical.json_s", ["canonical.canonical_json", "canonical.canonical_bytes"]),
    ("ledger.submit_s", ["ledger.Ledger.submit_transaction"]),
    ("ledger.commit_s", ["ledger.Ledger.commit_block"]),
    ("ledger.validate_s", ["ledger.validate_transaction"]),
    ("ledger.verify_s", ["ledger.verify_chain"]),
    ("ledger.query_s", ["ledger.query_history"]),
    ("ledger.export_s", ["ledger.export_chain"]),
    ("policy.is_compliant_s", ["policy.PolicyRule.is_compliant"]),
    ("policy.query_s", ["policy.query_policies"]),
    ("policy.resolve_conflicts_s", ["policy.resolve_conflicts"]),
    ("contracts.deploy_s", ["contracts.ContractEngine.deploy_contract"]),
    ("contracts.audit_s", ["contracts.ContractEngine.run_full_audit"]),
    ("contracts.execute_decision_s", ["contracts.ContractEngine.execute_decision"]),
    ("contracts.enforce_s", ["contracts.ContractEngine.enforce"]),
    ("contracts.enforce_team_s", ["contracts.ContractEngine.enforce_with_team"]),
    ("contracts.commit_cycle_s", ["contracts.ContractEngine.commit_cycle"]),
    ("cti.ingest_s", ["cti.ingest_feed"]),
    ("cti.encode_s", ["cti.encode_features"]),
    ("cti.classify_s", ["cti.classify"]),
    ("cti.update_model_s", ["cti.update_model"]),
    ("simnet.snapshot_s", ["simnet.snapshot"]),
    ("simnet.attrs_s", ["simnet.Endpoint.attrs"]),
    ("simnet.apply_s", ["simnet.apply_action"]),
    ("simnet.human_s", ["simnet.run_human_process"]),
    ("metrics.samples_s", ["metrics.samples_from_chain"]),
    ("metrics.report_s", ["metrics.build_comparison_report"]),
    ("metrics.render_s", ["metrics.render_report_text"]),
]
_AUDIT_TIMES = [
    ("ledger.import_s", ["ledger.import_chain"]),
    ("ledger.replay_s", ["ledger.replay_state"]),
    ("audit.verify_s", ["ledger.verify_chain"]),
]
_COUNTERS = [
    "ledger.pending_peak",
    "ledger.rejected_tx",
    "contracts.planned_actions",
    "cti.reports",
    "cti.decisions.no_action",
    "cti.decisions.standard",
    "cti.decisions.immediate",
    "simnet.apply_failed",
    "simnet.human_failed",
]

# Only these layers run on the audit path.
_AUDIT_LAYERS = ("canonical", "ledger", "metrics")
_PER_TX = [
    "ledger.validate_per_tx",
    "ledger.record_digest_per_tx",
    "ledger.body_parses_per_tx",
    "audit.record_digest_per_tx",
    "audit.body_parses_per_tx",
]
# Counts that describe the workload rather than a cost; the output
# digests pin them, and their direction is nominal.
_FACTS = [
    "ledger.tx_committed",
    "ledger.blocks",
    "cti.reports",
    "cti.decisions.no_action",
    "cti.decisions.standard",
    "cti.decisions.immediate",
]

#: Every per-layer metric: name -> (unit, better).
CATALOG: dict[str, tuple[str, str]] = {
    **{name: ("count", "lower") for name, _ in _CALLS},
    **{name: ("s", "lower") for name, _ in _TIMES + _AUDIT_TIMES},
    **{name: ("count", "lower") for name in _COUNTERS},
    **{name: ("count/tx", "lower") for name in _PER_TX},
    "ledger.chain_bytes": ("bytes", "lower"),
    "audit.verify_calls": ("count", "lower"),
    "audit.digest_calls": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"audit.{layer}_s": ("s", "lower") for layer in _AUDIT_LAYERS},
    "trace.overhead_s": ("s", "lower"),
    **{name: ("count", "higher") for name in _FACTS},
}

#: Metrics that must repeat exactly from one traced run to the next.
DETERMINISTIC = sorted(
    name for name, (unit, _) in CATALOG.items() if unit in ("count", "count/tx", "bytes")
)


def layer_metrics(agg: dict, counters: Counter, tx_committed: int, blocks: int,
                  chain_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced iteration. ``agg`` maps (root span,
    span name) to [calls, self seconds]; see ``Tracer.aggregate``."""

    def total(root: str, names: list[str], field: int):
        return sum(agg.get((root, n), (0, 0.0))[field] for n in names)

    def per_tx(root: str, span: str) -> float:
        return total(root, [span], 0) / tx_committed

    def layer_self(root: str, layer: str) -> float:
        return sum(v[1] for (r, n), v in agg.items() if r == root and n.split(".", 1)[0] == layer)

    out: dict[str, float] = {}
    for name, spans in _CALLS:
        out[name] = total(RUN_ROOT, spans, 0)
    for name, spans in _TIMES:
        out[name] = total(RUN_ROOT, spans, 1)
    for name, spans in _AUDIT_TIMES:
        out[name] = total(AUDIT_ROOT, spans, 1)
    for name in _COUNTERS:
        out[name] = counters.get(name, 0)
    out["ledger.validate_per_tx"] = out["ledger.validate_calls"] / tx_committed
    out["ledger.record_digest_per_tx"] = per_tx(RUN_ROOT, "ledger.TransactionRecord.record_digest")
    out["ledger.body_parses_per_tx"] = per_tx(RUN_ROOT, "ledger.TransactionRecord.body")
    out["ledger.tx_committed"] = tx_committed
    out["ledger.blocks"] = blocks
    out["ledger.chain_bytes"] = chain_bytes
    out["audit.verify_calls"] = total(AUDIT_ROOT, ["ledger.verify_chain"], 0)
    out["audit.record_digest_per_tx"] = per_tx(AUDIT_ROOT, "ledger.TransactionRecord.record_digest")
    out["audit.body_parses_per_tx"] = per_tx(AUDIT_ROOT, "ledger.TransactionRecord.body")
    out["audit.digest_calls"] = total(AUDIT_ROOT, ["canonical.digest_bytes"], 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self(RUN_ROOT, layer)
    for layer in _AUDIT_LAYERS:
        out[f"audit.{layer}_s"] = layer_self(AUDIT_ROOT, layer)
    return out
