"""Command-line entry points: run, verify-chain, replay, classify.

Exit codes are a stable contract:
  0 success
  1 verification or replay failure
  2 config or schema error; also an input file that is not UTF-8, not
    JSON, or nested too deep to decode
  3 a file or directory the command names cannot be opened: missing, a
    directory, a path through a file, a symlink loop, or a name too long
  4 internal invariant violation
A command returns 0 or its verdict 1; ``main`` maps each error it raises.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .canonical import canonical_json
from .cti import ForestModel, assess, ingest_feed, read_feed
from .errors import CorruptChainError, InputError, PolicyLedgerError
from .ledger import import_chain, replay_state, verify_chain
from .policy import load_policy_file, rule_set
from .runner import MODES, SCENARIOS, RunConfig, fixture_path, run_scenario

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_CANNOT_OPEN = 3
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
    run.add_argument("--scenario", choices=SCENARIOS)
    run.add_argument("--mode", choices=MODES)
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


def _warn_skipped(diagnostics: list[str]) -> None:
    for diag in diagnostics:
        print(f"warning: skipped malformed {diag}", file=sys.stderr)


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    merged = config.to_dict()
    for name in ("scenario", "mode", "endpoints"):
        if getattr(args, name) is not None:
            merged[name] = getattr(args, name)
    merged["seed"] = _resolve_seed(args, config)
    config = RunConfig.from_dict(merged)
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise InputError(f"output path {path} exists and is not a directory")
    for name in ("chain.ndjson", "report.json", "report.txt"):
        if (out / name).is_dir():
            raise InputError(f"output file {out / name} is a directory")
    result = run_scenario(config, outdir=out, report_format=args.report_format)

    _warn_skipped(result.diagnostics)
    if args.verbose:
        print(f"config digest: {result.config_digest}")
        print(f"chain blocks:  {len(result.chain)}")
        print(f"audit aggregate: {result.audit_aggregate:.4f}")
    for name, path in sorted(result.files.items()):
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_verify_chain(args) -> int:
    chain = import_chain(args.chain_file)
    verdict = verify_chain(chain)
    if verdict:
        print(f"ok: {len(chain)} blocks, head {chain[-1].block_hash}")
        return EXIT_OK
    print(f"corrupt: block {verdict.first_bad_index} ({verdict.reason})")
    return EXIT_VERIFY_FAILED


def _cmd_replay(args) -> int:
    chain = import_chain(args.chain_file)
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
    items = read_feed(args.feed_file)
    model = ForestModel.from_file(args.model or fixture_path("model.json"))
    rules = rule_set(load_policy_file(p) for p in args.policies)
    reports, diagnostics = ingest_feed(items)
    _warn_skipped(diagnostics)
    memo: dict = {}
    for report in reports:
        threat_class, matched, decision = assess(model, rules, report, memo)
        line = f"{report.report_id} {threat_class.severity_name} {threat_class.category.value}"
        if args.policies:
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
    try:
        return handler(args)
    except OSError as exc:
        reason = f"cannot open {exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_CANNOT_OPEN
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except PolicyLedgerError as exc:
        print(f"internal invariant violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
