"""Command-line entry points: run, verify-chain, replay, classify.

Exit codes are a stable contract:
  0 success
  1 verification or replay failure
  2 config or schema error
  3 missing input file
  4 internal invariant violation
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .canonical import canonical_json
from .cti import ForestModel, classify, decide, encode_features, ingest_feed
from .errors import (
    AmbiguityError,
    ConsensusFailure,
    CorruptChainError,
    FeedSchemaError,
    InputError,
    PolicyLedgerError,
    SchemaError,
)
from .ledger import import_chain, replay_state, verify_chain
from .policy import combine_rule_sets, encode_rules, load_policy_file, query_policies
from .runner import RunConfig, run_scenario

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_MISSING_INPUT = 3
EXIT_INTERNAL = 4

SEED_ENV_VAR = "POLICYLEDGER_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyledger",
        description="Deterministic compliance-automation simulator and ledger tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit report + chain export")
    run.add_argument("--config", help="JSON scenario config file")
    run.add_argument("--scenario", choices=["smbv1", "rdp", "ransomware", "custom"])
    run.add_argument("--mode", choices=["automated", "human", "both"])
    run.add_argument("--seed", type=int, help=f"overrides {SEED_ENV_VAR} and config")
    run.add_argument("--endpoints", type=int)
    run.add_argument("--out", default="out", help="output directory (default: ./out)")
    run.add_argument("--report-format", choices=["json", "text", "both"], default="both")
    run.add_argument("-v", "--verbose", action="store_true")

    verify = sub.add_parser("verify-chain", help="verify an exported chain file")
    verify.add_argument("chain_file")

    replay = sub.add_parser("replay", help="replay a chain into its world state")
    replay.add_argument("chain_file")

    cls = sub.add_parser("classify", help="classify a feed file, optionally deciding against policies")
    cls.add_argument("feed_file")
    cls.add_argument("--model", help="model file (default: shipped fixture)")
    cls.add_argument("--policies", nargs="*", default=[], help="policy files for decision output")
    return parser


def _resolve_seed(args, config: RunConfig) -> int:
    # Precedence: flag > environment > config file > default.
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return config.seed


def _cmd_run(args) -> int:
    try:
        config = RunConfig.from_file(args.config) if args.config else RunConfig()
        overrides = {}
        if args.scenario is not None:
            overrides["scenario"] = args.scenario
        if args.mode is not None:
            overrides["mode"] = args.mode
        if args.endpoints is not None:
            overrides["endpoints"] = args.endpoints
        merged = dict(config.to_dict())
        merged.update(overrides)
        config = RunConfig.from_dict(merged)
        merged["seed"] = _resolve_seed(args, config)
        config = RunConfig.from_dict(merged)
    except FileNotFoundError as exc:
        print(f"error: config file not found: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (InputError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        result = run_scenario(config, outdir=args.out, report_format=args.report_format)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (InputError, SchemaError, AmbiguityError, FeedSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ConsensusFailure, CorruptChainError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PolicyLedgerError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.verbose:
        print(f"config digest: {result.config_digest}")
        print(f"chain blocks:  {len(result.chain)}")
        print(f"audit aggregate: {result.audit_aggregate:.4f}")
    for name, path in sorted(result.files.items()):
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_verify_chain(args) -> int:
    path = Path(args.chain_file)
    if not path.exists():
        print(f"error: chain file not found: {path}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    chain = import_chain(path)
    verdict = verify_chain(chain)
    if verdict:
        print(f"ok: {len(chain)} blocks, head {chain[-1].block_hash}")
        return EXIT_OK
    print(f"corrupt: block {verdict.first_bad_index} ({verdict.reason})")
    return EXIT_VERIFY_FAILED


def _cmd_replay(args) -> int:
    path = Path(args.chain_file)
    if not path.exists():
        print(f"error: chain file not found: {path}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    chain = import_chain(path)
    try:
        state = replay_state(chain)
    except CorruptChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    dump = state.to_dict()
    dump["policy_versions"] = {
        pid: [doc.get("version") for doc in docs]
        for pid, docs in sorted(state.policy_history.items())
    }
    print(canonical_json(dump))
    return EXIT_OK


def _cmd_classify(args) -> int:
    feed_path = Path(args.feed_file)
    if not feed_path.exists():
        print(f"error: feed file not found: {feed_path}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    if args.model:
        model_path = Path(args.model)
    else:
        from .runner import fixture_path

        model_path = fixture_path("model.json")
    if not model_path.exists():
        print(f"error: model file not found: {model_path}", file=sys.stderr)
        return EXIT_MISSING_INPUT

    try:
        model = ForestModel.from_file(model_path)
        reports, diagnostics = ingest_feed(feed_path.read_text(encoding="utf-8"))
        rule_set = None
        if args.policies:
            sets = []
            for p in args.policies:
                if not Path(p).exists():
                    print(f"error: policy file not found: {p}", file=sys.stderr)
                    return EXIT_MISSING_INPUT
                rs, _ = encode_rules(load_policy_file(p))
                sets.append(rs)
            rule_set = combine_rule_sets(sets)
    except (FeedSchemaError, SchemaError, AmbiguityError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    for diag in diagnostics:
        print(f"warning: skipped malformed {diag}", file=sys.stderr)
    for report in reports:
        threat_class = classify(model, encode_features(report))
        line = f"{report.report_id} {threat_class.severity_name} {threat_class.category.value}"
        if rule_set is not None:
            matched = query_policies(rule_set, threat_class.severity, report.technique_ids)
            decision = decide(matched, model.threshold)
            line += f" {decision.kind.value}"
            if matched:
                line += f" [{','.join(r.rule_id for r in matched)}]"
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "verify-chain": _cmd_verify_chain,
        "replay": _cmd_replay,
        "classify": _cmd_classify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
