"""Run configuration, CLI commands, exit codes, and output determinism."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import audit_checks, run_configs

from policyledger import cli, errors, ledger as ledger_module, runner as runner_module
from policyledger.canonical import canonical_json, digest_bytes
from policyledger.cli import main
from policyledger.errors import CorruptChainError, InputError
from policyledger.ledger import (
    ChainVerdict,
    Ledger,
    TransactionRecord,
    TxKind,
    compute_block_hash,
    export_chain,
    import_chain,
    query_history,
    replay_state,
    verify_chain,
)
from policyledger.metrics import samples_from_chain
from policyledger.policy import load_policy_file
from policyledger.runner import RunConfig, fixture_path, run_scenario


# -- config ------------------------------------------------------------------


def test_unknown_config_keys_rejected():
    with pytest.raises(InputError):
        RunConfig.from_dict({"seed": 1, "grid": True})
    with pytest.raises(InputError):
        RunConfig.from_dict({"network": {"warp_factor": 9}})
    with pytest.raises(InputError):
        RunConfig.from_dict({"team": {"mascots": 2}})


#: Configs that load refuses; test_config_table.py keeps each as an example.
MISTYPED_CONFIGS = [
    {"endpoints": "10"},
    {"seed": "abc"},
    {"seed": True},
    {"infected_count": 2.5},
    {"scenario": "ransomware", "infected_count": -1, "endpoints": 5},
    {"validators": None},
    {"network": []},
    {"network": {"auto_failure_prob": "x"}},
    {"team": []},
    {"team": {"role_speed": {"lead": "fast"}}},
    {"team": {"role_error": {"intern": 1.0}}},
    {"team": {"role_speed": {"lead": True}}},
    {"team": {"role_speed": {"lead": float("nan")}}},
    {"endpoints": 5, "network": {"human_median_ms": 10**10},
     "team": {"role_speed": {"lead": 1e300, "senior": 1e300, "junior": 1e300}}},
    {"team": {"role_error": {"junior": 1e300}}},
    {"network": {"human_error_prob_by_kind": 5}},
    {"network": {"auto_base_by_kind": 5}},
    {"network": {"human_median_ms_by_kind": {"set_rdp_port": "slow"}}},
    {"network": {"auto_base_by_kind": {"set_rdp_port": True}}},
    {"scenario": "rdp", "network": {"human_median_ms_by_kind": {"set_rdp_port": 0}}},
    {"scenario": "rdp", "network": {"human_median_ms_by_kind": {"set_rdp_port": -60000}}},
    {"scenario": "rdp", "network": {"auto_base_by_kind": {"set_rdp_port": -5}}},
    {"network": {"auto_base_by_kind": {"set_rdp_port": 400}}},
    {"network": {"human_median_ms_by_kind": {"disable_smbv1": float("inf")}}},
    {"network": {"auto_base_ms": float("nan")}},
    {"network": {"auto_jitter_ms": 0.5}},
    {"network": {"human_sigma_log": "a"}},
    {"network": {"human_sigma_log": float("nan")}},
    {"network": {"human_sigma_log": 1e308}},
    {"network": {"human_sigma_log": -1}},
    {"network": {"human_median_ms": 1e300}},
    {"network": {"human_error_prob": True}},
    {"network": {"auto_failure_prob": True}},
    {"policies": 5},
    {"policies": "abc"},
    {"feeds": [1]},
    {"model": 5},
]


@pytest.mark.parametrize("config", MISTYPED_CONFIGS, ids=repr)
def test_mistyped_config_values_are_exit_two_at_load(tmp_path, capsys, config):
    with pytest.raises(InputError):
        RunConfig.from_dict(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_invalid_enum_values_rejected():
    with pytest.raises(InputError):
        RunConfig(scenario="nope")
    with pytest.raises(InputError):
        RunConfig(mode="dry-run")
    with pytest.raises(InputError):
        RunConfig(endpoints=0)


def test_config_digest_is_stable_and_sensitive():
    a = RunConfig(seed=1)
    b = RunConfig(seed=1)
    c = RunConfig(seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_custom_scenario_requires_policies():
    with pytest.raises(InputError):
        RunConfig(scenario="custom").resolved_policy_paths()


# -- the collector pause -------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(config=run_configs, enabled=st.booleans())
def test_run_scenario_makes_no_cycles_and_restores_the_collector(config, enabled):
    # run_scenario pauses the cyclic collector because a run makes no
    # reference cycles: with the collector off, a run leaves none behind.
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        gc.collect()
        with tempfile.TemporaryDirectory() as tmp:
            run_scenario(config, outdir=tmp)
        assert gc.collect() == 0
        assert not gc.isenabled()
        # It leaves the collector as it found it, on return and on raise.
        (gc.enable if enabled else gc.disable)()
        run_scenario(config)
        assert gc.isenabled() == enabled
        with pytest.raises(FileNotFoundError):
            run_scenario(RunConfig(seed=config.seed, scenario=config.scenario,
                                   feeds=["no/such/feed.json"]))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_the_run_and_the_audit_path_pause_the_collector_and_restore_it(tmp_path, monkeypatch, enabled):
    # import_chain, replay_state and samples_from_chain pause the collector
    # as run_scenario does, for the same reason: they make no cycles.
    config = RunConfig(seed=3, endpoints=6)
    path = Path(run_scenario(config, outdir=tmp_path).files["chain"])
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"actor":"', '"actor":"x', 1)  # a hash failure at block 1
    tampered = tmp_path / "tampered.ndjson"
    tampered.write_text("\n".join(lines) + "\n")
    # What each function calls inside, to see the collector there.
    seen = []
    for module, name in [(ledger_module, "decode_json"), (ledger_module, "_apply_tx_to_state"),
                         (ledger_module, "query_history"), (runner_module, "load_policy_file")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: seen.append(gc.isenabled()) or real(*a))
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        gc.collect()
        chain = import_chain(path)
        replay_state(chain)
        samples_from_chain(chain)
        assert gc.collect() == 0
        assert not gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        broken = import_chain(tampered)
        calls = [(run_scenario, config, None),
                 (import_chain, path, None), (replay_state, chain, None), (samples_from_chain, chain, None),
                 (import_chain, tmp_path / "missing.ndjson", FileNotFoundError),
                 (replay_state, broken, CorruptChainError), (samples_from_chain, broken, CorruptChainError)]
        for audit, arg, error in calls:
            seen.clear()
            if error is None:
                audit(arg)
            else:
                with pytest.raises(error):
                    audit(arg)
            assert gc.isenabled() == enabled
            assert not any(seen), audit.__name__
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


#: Run in a fresh interpreter with the collector off from its first line.
#: ``dataclasses`` imports ``ast``, whose enum leaves cycles; they are the
#: standard library's, collected before the package is imported.
_FRESH_PROCESS_PROBE = """
import gc, inspect, sys
gc.disable()
import dataclasses
gc.collect()
import policyledger
from policyledger import canonical, cli, contracts, cti, ledger, metrics, policy, runner, simnet
for module in (cli, contracts, cti, ledger, metrics, policy, runner, simnet):
    for name, cls in inspect.getmembers(module, inspect.isclass):
        if isinstance(cls.__dict__.get("SPEC"), dict):
            canonical.compile_fields(cls.SPEC, name)
for cls in (ledger.TxMetadata, ledger.TransactionRecord, ledger.LedgerBlock):
    ledger._reader(cls)
config = runner.RunConfig(seed=3, endpoints=6, mode="both")
path = runner.run_scenario(config, outdir=sys.argv[1]).files["chain"]
chain = ledger.import_chain(path)
assert ledger.verify_chain(chain)
ledger.replay_state(chain)
metrics.build_comparison_report(*metrics.samples_from_chain(chain), chain_hash=chain[-1].block_hash,
                                seed=config.seed, config_digest=chain[0].meta["config_digest"])
assert not gc.isenabled()
print(gc.collect())
"""


def test_a_fresh_process_compiles_runs_and_audits_without_making_cycles(tmp_path):
    # Independent of test order: nothing compiled or cached by another test.
    src = Path(ledger_module.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS_PROBE, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


# -- the audit -----------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(config=run_configs)
def test_audit_aggregate_is_the_compliant_share_of_the_audit_block(config):
    result = run_scenario(config)
    verdicts = [check["verdict"] for check in audit_checks(result.chain)]
    assert len(query_history(result.chain, kind=TxKind.COMPLIANCE_CHECK)) == len(verdicts)
    rules = sum(len(load_policy_file(path).rules) for path in config.resolved_policy_paths())
    assert len(verdicts) == config.endpoints * rules
    assert result.audit_aggregate == verdicts.count("compliant") / len(verdicts)


def test_cli_run_verbose_prints_the_audit_blocks_compliant_share(tmp_path, capsys):
    # Every endpoint fails the smbv1 rule and passes the edited rdp rule.
    rdp = json.loads(fixture_path("policies", "rdp.json").read_text())
    rdp["rules"][0]["condition"] = [{"attribute": "rdp_port", "comparator": "not_equals", "value": 22}]
    policy = tmp_path / "rdp.json"
    policy.write_text(json.dumps(rdp))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "smbv1", "endpoints": 5,
                                  "policies": [str(fixture_path("policies", "smbv1.json")), str(policy)]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "-v"]) == 0
    verdicts = [check["verdict"] for check in audit_checks(import_chain(out / "chain.ndjson"))]
    assert verdicts.count("compliant") == 5 and len(verdicts) == 10
    assert "audit aggregate: 0.5000\n" in capsys.readouterr().out


# -- determinism (runs twice, byte-identical) -----------------------------------


def test_same_seed_produces_byte_identical_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"), outdir=out1)
    run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"), outdir=out2)
    for name in ("chain.ndjson", "report.json", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


#: SHA-256 of each output at 60 endpoints, for every scenario with a
#: fixture and every mode. A change to any of them is a change of output
#: bytes, which bumps a format string.
PINNED_OUTPUT_DIGESTS = {
    ("ransomware", "automated", 7): {
        "chain.ndjson": "e4105c70aa2186864653dec3be71d602b2e24a8054955d5e5ecbada6e8dcdd4b",
        "report.json": "36665c1e990f397ff00f9be9c81dbc0aa049144b2f3c1b9e8a4b30723acb7b68",
        "report.txt": "f38c49b3ac39cf570a5caf6c06d5042ceb19884bbd64785dd5818ee7b9a8fbbb",
    },
    ("ransomware", "both", 7): {
        "chain.ndjson": "af6cdfc19165f10f669b465a0ad53e7d7089897f8a23de79ea8a6835b66d94af",
        "report.json": "809ec1c7bf24d04653efc10cb17b1dec3f6844ca07e3b3af2bd6c9565602bd65",
        "report.txt": "9f70dcab968a2dc218c9e5d53efec7d195bb2f76a87433f30b0681c3020bed71",
    },
    ("ransomware", "human", 7): {
        "chain.ndjson": "dcbb87f6645f41388f55f87798f105fbbb8230ddd0aa1695f623561f5e374da9",
        "report.json": "6f76c56cb92bd2663307e6a743d1bdbb99171d0889fa08edba12de43e8a4a45e",
        "report.txt": "c4b4b8c20a670bc2603afaff652200342e12ef927b63d93c9920a1c4e0e4593d",
    },
    ("rdp", "automated", 11): {
        "chain.ndjson": "9645a4b57440c99db8909127a4db721cb28ba84c9c87a49c522d50085dfc4311",
        "report.json": "cd20e49883f66f395f1a88e79706976c6a50126df120797a9c7084e57e1e5ed9",
        "report.txt": "96533f4c050865144f1291902ee3260c1b9d8e98d2bb67162450271bc028ae9f",
    },
    ("rdp", "both", 11): {
        "chain.ndjson": "7a6caa5841d8ac2d0159cb3365b7e7ebe3620eef941a4f74ae1ccdb86047847f",
        "report.json": "86c0cace3aead7dc17f52fd3f028efcf943953fa4d9a5a4841c33cde599d3994",
        "report.txt": "8992b0a67c3fff96afcbe23ec9e35444d7ec236ccbc53fbc607d3d3b2b115d84",
    },
    ("rdp", "human", 11): {
        "chain.ndjson": "1e3c2326beddab16b8680bd561cc9926f455be7d3ee402efeeae810fd786089e",
        "report.json": "516d0f2398ee3282db09ead98632516d77bfcb3350bb8073e28c6760775be0f7",
        "report.txt": "6dd3204eff7c50fb6ee74e737198c5227b8418cc362be6da9b6e99e8e3cf3f40",
    },
    ("smbv1", "automated", 42): {
        "chain.ndjson": "8d9f135b6aa311de95c00e423137ea8f57d940141c78c063beb0dd8fcc818505",
        "report.json": "4e056557b1a411192a925c6af4e1d43bea5ed56f46eb97613d709f87079bf746",
        "report.txt": "5c845141855d7d2c369a0803b50966eb431790c2cd890a8df790ef99ed74a370",
    },
    ("smbv1", "both", 42): {
        "chain.ndjson": "0c4874aee75ca965b15eb1091e5fd373e65e652071bb726f9b42a5f55102e8d7",
        "report.json": "297ac0137b5f0a448da0f4d43e6b58cbc00a18a12e4ed287637f26eada5aae23",
        "report.txt": "7e2e3671635e0f9109ef650cbf313a6c6498735124f004a688c976c43f75cabe",
    },
    ("smbv1", "human", 42): {
        "chain.ndjson": "cbc38d960e31c618d7c259e3c37ed9e88c7844927d7adb5652fa2288b5acfd79",
        "report.json": "b4ee04052ff3976308dae589923e9ba883c580cd853f2ee936c5ef4791d789c2",
        "report.txt": "880b5afcc89774e7636bb0608c456884a30c245193108ded33a3d07a409274f5",
    },
}


@pytest.mark.parametrize("scenario, mode, seed", sorted(PINNED_OUTPUT_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, scenario, mode, seed):
    import hashlib

    run_scenario(RunConfig(seed=seed, scenario=scenario, mode=mode, endpoints=60),
                 outdir=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_OUTPUT_DIGESTS[(scenario, mode, seed)]
    }
    assert digests == PINNED_OUTPUT_DIGESTS[(scenario, mode, seed)]


def test_report_digest_is_the_sha256_of_report_json(tmp_path):
    import hashlib

    report = run_scenario(RunConfig(seed=3, scenario="smbv1", mode="both", endpoints=10),
                          outdir=tmp_path).report
    data = (tmp_path / "report.json").read_bytes()
    assert data.endswith(b"\n")
    assert report.digest() == hashlib.sha256(data[:-1]).hexdigest()


def test_different_seeds_differ(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_scenario(RunConfig(seed=1, scenario="smbv1", mode="automated"), outdir=out1)
    run_scenario(RunConfig(seed=2, scenario="smbv1", mode="automated"), outdir=out2)
    assert (out1 / "chain.ndjson").read_bytes() != (out2 / "chain.ndjson").read_bytes()


def test_report_rebuilt_from_exported_chain_matches_live(tmp_path):
    from policyledger.ledger import import_chain
    from policyledger.metrics import build_comparison_report, samples_from_chain

    out = tmp_path / "run"
    result = run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"), outdir=out)
    chain = import_chain(out / "chain.ndjson")
    automated, human = samples_from_chain(chain)
    rebuilt = build_comparison_report(
        automated,
        human,
        chain_hash=chain[-1].block_hash,
        seed=result.config.seed,
        config_digest=result.config_digest,
    )
    assert rebuilt.to_json() == result.report.to_json()


# -- cli: run -----------------------------------------------------------------


def test_cli_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", "smbv1", "--mode", "both", "--seed", "42",
         "--endpoints", "12", "--out", str(out)]
    )
    assert code == 0
    assert (out / "chain.ndjson").exists()
    assert (out / "report.json").exists()
    assert (out / "report.txt").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["format"] == "policyledger-report/1"
    assert report["seed"] == 42


def test_cli_run_zero_endpoints_is_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", "smbv1", "--endpoints", "0", "--out", str(tmp_path)])
    assert code == 2


def test_cli_run_missing_fixture_is_exit_three(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"policies": [str(tmp_path / "missing.json")]}))
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_run_bad_config_json_is_exit_two(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{broken")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


def test_cli_run_missing_config_file_is_exit_three(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3


def test_seed_precedence_flag_over_env_over_config(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 5, "endpoints": 4, "scenario": "smbv1", "mode": "automated"}))

    def run_and_get_seed(argv):
        out = tmp_path / "o"
        code = main(argv + ["--out", str(out)])
        assert code == 0
        return json.loads((out / "report.json").read_text())["seed"]

    assert run_and_get_seed(["run", "--config", str(config)]) == 5
    monkeypatch.setenv("POLICYLEDGER_SEED", "9")
    assert run_and_get_seed(["run", "--config", str(config)]) == 9
    assert run_and_get_seed(["run", "--config", str(config), "--seed", "13"]) == 13
    monkeypatch.setenv("POLICYLEDGER_SEED", "not-a-number")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


# -- cli: verify-chain -----------------------------------------------------------


def test_cli_verify_clean_chain(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "smbv1", "--mode", "automated", "--seed", "3",
          "--endpoints", "6", "--out", str(out)])
    assert main(["verify-chain", str(out / "chain.ndjson")]) == 0
    captured = capsys.readouterr()
    assert "ok:" in captured.out


def test_cli_verify_detects_flipped_byte(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "smbv1", "--mode", "automated", "--seed", "3",
          "--endpoints", "6", "--out", str(out)])
    chain_file = out / "chain.ndjson"
    raw = bytearray(chain_file.read_bytes())
    lines = chain_file.read_bytes().split(b"\n")
    offset = len(lines[0]) + 1 + len(lines[1]) // 2  # inside block 1
    raw[offset] ^= 0x04
    chain_file.write_bytes(bytes(raw))
    assert main(["verify-chain", str(chain_file)]) == 1
    captured = capsys.readouterr()
    assert "block 1" in captured.out


def test_cli_verify_missing_file(tmp_path):
    assert main(["verify-chain", str(tmp_path / "none.ndjson")]) == 3


# -- cli: replay -----------------------------------------------------------------


def test_cli_replay_dumps_policy_versions(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "smbv1", "--mode", "automated", "--seed", "3",
          "--endpoints", "6", "--out", str(out)])
    assert main(["replay", str(out / "chain.ndjson")]) == 0
    dump = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert dump["policy_versions"] == {"smbv1-hardening": [1]}
    assert "smbv1-hardening" in dump["policies"]


def test_cli_replay_genesis_only_chain(tmp_path, capsys):
    from policyledger.ledger import Ledger, export_chain

    path = tmp_path / "genesis.ndjson"
    export_chain(Ledger().chain(), path)
    assert main(["replay", str(path)]) == 0
    dump = json.loads(capsys.readouterr().out.strip())
    assert dump["policies"] == {}


def test_cli_replay_corrupt_chain_is_exit_one(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", "smbv1", "--mode", "automated", "--seed", "3",
          "--endpoints", "6", "--out", str(out)])
    chain_file = out / "chain.ndjson"
    raw = bytearray(chain_file.read_bytes())
    raw[len(raw) // 2] ^= 0x10
    chain_file.write_bytes(bytes(raw))
    assert main(["replay", str(chain_file)]) == 1


def _resealed(chain, pick, edit):
    """``chain`` with the body of the first record ``pick`` accepts replaced
    by ``edit(body)``, and its payload digest, every record digest, block
    hash and link from its block on recomputed: it verifies. Returns the
    chain and the edited block's index."""
    blocks = list(chain)
    pos, at = next((pos, at) for pos, block in enumerate(blocks)
                   for at, tx in enumerate(block.transactions) if pick(tx))
    tx = blocks[pos].transactions[at]
    payload = canonical_json(edit(tx.body()))
    txs = list(blocks[pos].transactions)
    txs[at] = dataclasses.replace(tx, payload=payload,
                                  payload_digest=digest_bytes(payload.encode("utf-8")))
    blocks[pos] = dataclasses.replace(blocks[pos], transactions=tuple(txs))
    for i in range(pos, len(blocks)):
        block = dataclasses.replace(blocks[i], prev_hash=blocks[i - 1].block_hash)
        digests = [tx.record_digest() for tx in block.transactions]
        blocks[i] = dataclasses.replace(block, block_hash=compute_block_hash(
            block.index, block.prev_hash, block.timestamp, digests))
    return blocks, pos


def _applied_result(tx):
    return tx.kind == TxKind.ENFORCEMENT_RESULT and tx.body()["outcome"] == "success"


@pytest.mark.parametrize(
    "pick, edit",
    [
        (_applied_result, lambda body: []),
        (_applied_result, lambda body: {**body, "applied": 5}),
        (lambda tx: tx.kind == TxKind.THREAT_ALERT, lambda body: {**body, "affected": 5}),
        (_applied_result, lambda body: {**body, "endpoint_id": [1]}),
        (lambda tx: tx.kind == TxKind.COMPLIANCE_CHECK, lambda body: {**body, "endpoint_id": None}),
    ],
    ids=["result-list", "applied-int", "affected-int", "endpoint-list", "check-endpoint-null"],
)
def test_cli_replay_refuses_a_verifying_chain_with_an_unfoldable_body(tmp_path, capsys,
                                                                      pick, edit):
    result = run_scenario(RunConfig(seed=3, scenario="ransomware", mode="automated",
                                    endpoints=6, infected_count=2))
    chain, pos = _resealed(result.chain, pick, edit)
    assert verify_chain(chain)
    path = tmp_path / "chain.ndjson"
    export_chain(chain, path)
    assert main(["verify-chain", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: chain corrupt at block {pos} (body of tx-")


def test_cli_replay_refuses_a_body_nested_too_deep_to_decode(tmp_path, capsys):
    # A threat alert's body is read first at replay: no check before parses it.
    ledger = Ledger(config_digest="test")
    alert = TransactionRecord.create(ledger.next_tx_id(), 1, TxKind.THREAT_ALERT, "cti-engine", {})
    deep = "[" * 200_000 + "]" * 200_000
    ledger.pending.append(dataclasses.replace(alert, payload=deep,
                                              payload_digest=digest_bytes(deep.encode("utf-8"))))
    ledger.commit_block(1)
    path = tmp_path / "chain.ndjson"
    export_chain(ledger.chain(), path)
    assert main(["verify-chain", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: chain corrupt at block 1 (body of tx-000001: RecursionError(")
    assert captured.err.count("\n") == 1


# -- cli: classify -----------------------------------------------------------------


def test_cli_classify_ransomware_feed(capsys):
    feed = fixture_path("feeds", "ransomware.json")
    assert main(["classify", str(feed)]) == 0
    out = capsys.readouterr().out
    assert "feed-ransom-001 critical ransomware" in out


def test_cli_classify_with_policies_shows_decision(capsys):
    feed = fixture_path("feeds", "ransomware.json")
    policy = fixture_path("policies", "ransomware.json")
    assert main(["classify", str(feed), "--policies", str(policy)]) == 0
    out = capsys.readouterr().out
    assert "immediate_action_required" in out
    assert "outbound-deny-all" in out


def test_cli_classify_empty_feed_is_quiet_success(tmp_path, capsys):
    feed = tmp_path / "empty.json"
    feed.write_text("[]")
    assert main(["classify", str(feed)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_classify_malformed_envelope_is_exit_two(tmp_path):
    feed = tmp_path / "bad.json"
    feed.write_text('{"not": "an array"}')
    assert main(["classify", str(feed)]) == 2


_LATIN1 = "café".encode("latin-1")


@pytest.mark.parametrize("bad", ["feed", "model", "policy"])
def test_cli_classify_non_utf8_input_is_exit_two(tmp_path, capsys, bad):
    files = {
        "feed": fixture_path("feeds", "smbv1_advisory.json").read_bytes(),
        "model": fixture_path("model.json").read_bytes(),
        "policy": fixture_path("policies", "smbv1.json").read_bytes(),
    }
    files[bad] = b'[{"text": "' + _LATIN1 + b'"}]'
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = ["classify", str(tmp_path / "feed"), "--model", str(tmp_path / "model"),
            "--policies", str(tmp_path / "policy")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


def _run_inputs_with(tmp_path, bad, member: bytes) -> list:
    """``run`` argv for a config naming copies of the fixture feed, model and
    policy, with ``member`` put first in the first object of file ``bad``."""
    paths = {name: tmp_path / name for name in ("feed", "model", "policy")}
    config = {"scenario": "smbv1", "endpoints": 4, "feeds": [str(paths["feed"])],
              "model": str(paths["model"]), "policies": [str(paths["policy"])]}
    paths["feed"].write_bytes(fixture_path("feeds", "smbv1_advisory.json").read_bytes())
    paths["model"].write_bytes(fixture_path("model.json").read_bytes())
    paths["policy"].write_bytes(fixture_path("policies", "smbv1.json").read_bytes())
    (tmp_path / "config").write_text(json.dumps(config))
    target = tmp_path / bad
    target.write_bytes(target.read_bytes().replace(b"{", b"{" + member + b", ", 1))
    return ["run", "--config", str(tmp_path / "config"), "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("bad", ["config", "feed", "model", "policy"])
def test_cli_run_non_utf8_input_is_exit_two(tmp_path, capsys, bad):
    assert main(_run_inputs_with(tmp_path, bad, b'"' + _LATIN1 + b'": 0')) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", ["config", "feed", "model", "policy"])
def test_cli_run_input_with_an_integer_too_long_to_read_is_exit_two(tmp_path, capsys, bad):
    # json.loads refuses an integer of more than 4300 digits with a ValueError.
    assert main(_run_inputs_with(tmp_path, bad, b'"n": 1' + b"0" * 5000)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "digits" in err
    assert not (tmp_path / "o").exists()


def test_cli_classify_missing_feed_is_exit_three(tmp_path):
    assert main(["classify", str(tmp_path / "none.json")]) == 3


def _run_config_naming(tmp_path, **config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"endpoints": 4, **config}))
    return ["run", "--config", str(path), "--out", str(tmp_path / "o")]


_FEED = str(fixture_path("feeds", "smbv1_advisory.json"))
_LONG = "x" * 300  # longer than a file name may be


@pytest.mark.parametrize(
    "argv, code",
    [
        (lambda t: ["verify-chain", str(t / "dir")], 3),
        (lambda t: ["replay", str(t / "dir")], 3),
        (lambda t: ["classify", str(t / "dir")], 3),
        (lambda t: ["classify", _FEED, "--model", str(t / "dir")], 3),
        (lambda t: ["classify", _FEED, "--policies", str(t / "dir")], 3),
        (lambda t: ["run", "--config", str(t / "dir"), "--out", str(t / "o")], 3),
        (lambda t: _run_config_naming(t, scenario="custom", policies=[str(t / "dir")]), 3),
        (lambda t: _run_config_naming(t, feeds=[str(t / "dir")]), 3),
        (lambda t: _run_config_naming(t, model=str(t / "dir")), 3),
        # An output path that is a file: refused before the run.
        (lambda t: ["run", "--endpoints", "4", "--out", str(t / "file")], 2),
        # A name too long to open.
        (lambda t: ["verify-chain", str(t / _LONG)], 3),
        (lambda t: ["replay", str(t / _LONG)], 3),
        (lambda t: ["classify", str(t / _LONG)], 3),
        (lambda t: ["run", "--config", str(t / _LONG), "--out", str(t / "o")], 3),
        (lambda t: ["run", "--endpoints", "4", "--out", str(t / _LONG)], 3),
        # A path through a file.
        (lambda t: ["classify", str(t / "file" / "x")], 3),
        (lambda t: ["classify", _FEED, "--policies", str(t / "file" / "x")], 3),
        (lambda t: ["run", "--config", str(t / "file" / "x"), "--out", str(t / "o")], 3),
        # A symlink loop.
        (lambda t: ["classify", str(t / "loop")], 3),
        (lambda t: ["classify", _FEED, "--model", str(t / "loop")], 3),
        (lambda t: ["run", "--config", str(t / "loop"), "--out", str(t / "o")], 3),
        (lambda t: _run_config_naming(t, scenario="custom", policies=[str(t / "loop")]), 3),
        # A file nested too deep to decode.
        (lambda t: ["run", "--config", str(t / "deep"), "--out", str(t / "o")], 2),
        (lambda t: _run_config_naming(t, scenario="custom", policies=[str(t / "deep")]), 2),
        (lambda t: _run_config_naming(t, feeds=[str(t / "deep")]), 2),
        (lambda t: _run_config_naming(t, model=str(t / "deep")), 2),
        (lambda t: ["classify", str(t / "deep")], 2),
        (lambda t: ["classify", _FEED, "--model", str(t / "deep")], 2),
        (lambda t: ["classify", _FEED, "--policies", str(t / "deep")], 2),
    ],
    ids=["verify-chain", "replay", "classify", "classify-model", "classify-policies",
         "run-config", "config-policies", "config-feeds", "config-model", "run-out-file",
         "long-verify-chain", "long-replay", "long-classify", "long-run-config", "long-run-out",
         "through-classify", "through-classify-policies", "through-run-config",
         "loop-classify", "loop-classify-model", "loop-run-config", "loop-config-policies",
         "deep-run-config", "deep-config-policies", "deep-config-feeds", "deep-config-model",
         "deep-classify", "deep-classify-model", "deep-classify-policies"],
)
def test_cli_input_directory_or_output_file_is_an_error_exit(tmp_path, capsys, argv, code):
    # A file or directory that cannot be opened exits 3; an input nested
    # too deep to decode, or an output path that is a file, exits 2.
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    (tmp_path / "deep").write_text("[" * 200_000 + "]" * 200_000)
    args = argv(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept"


#: The exit code ``main`` gives an error of each base class, the first of
#: an error's bases listed here deciding.
_EXIT_BY_BASE = [(OSError, 3), (errors.InputError, 2), (errors.PolicyLedgerError, 4)]
_ERROR_CLASSES = sorted((cls for cls in vars(errors).values()
                         if isinstance(cls, type) and cls.__module__ == errors.__name__),
                        key=lambda cls: cls.__name__)


@pytest.mark.parametrize("command, argv", [
    ("_cmd_run", ["run"]), ("_cmd_verify_chain", ["verify-chain", "c"]),
    ("_cmd_replay", ["replay", "c"]), ("_cmd_classify", ["classify", "f"])])
@pytest.mark.parametrize("error", [*_ERROR_CLASSES, OSError], ids=lambda cls: cls.__name__)
def test_main_maps_each_error_class_to_its_exit_code(monkeypatch, capsys, command, argv, error):
    code = next((code for base, code in _EXIT_BY_BASE if issubclass(error, base)), None)
    assert code is not None, f"main gives {error.__name__} no exit code"
    if error is OSError:
        raised = OSError(2, "No such file or directory", "in.json")
    else:
        raised = error("$.x", "boom") if issubclass(error, errors.SchemaError) else error("boom")

    def handler(args):
        raise raised

    monkeypatch.setattr(cli, command, handler)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    if code == 3:
        assert captured.err == "error: cannot open in.json: No such file or directory\n"
    elif code == 2:
        assert captured.err == f"error: {raised}\n"
    else:
        assert captured.err == f"internal invariant violation: {error.__name__}: boom\n"


@pytest.mark.parametrize("name", ["chain.ndjson", "report.json", "report.txt"])
def test_cli_run_output_file_that_is_a_directory_is_exit_two_before_the_run(tmp_path, capsys, name):
    (tmp_path / "o" / name).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--endpoints", "4", "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def _fixture_model_with(**edit) -> str:
    return json.dumps({**json.loads(fixture_path("model.json").read_text()), **edit})


def _fixture_model_edited(edit) -> str:
    model = json.loads(fixture_path("model.json").read_text())
    edit(model)
    return json.dumps(model)


@pytest.mark.parametrize("command", ["run", "classify"])
@pytest.mark.parametrize(
    "model_text",
    ["{not json", '{"format": "policyledger-model/1"}', "[1, 2]",
     _fixture_model_with(learning_rate=2.0, weight_floor=-1.0),
     _fixture_model_with(weight_floor=5.0, weight_cap=1.0),
     _fixture_model_edited(lambda m: m["stumps"][0].update(feature_index=3.7)),
     _fixture_model_edited(lambda m: m["stumps"][0].update(feature_index="3")),
     _fixture_model_edited(lambda m: m["weights"].__setitem__(0, math.nan)),
     _fixture_model_edited(lambda m: m["weights"].__setitem__(0, "1.5")),
     _fixture_model_edited(lambda m: m["weights"].__setitem__(0, True)),
     _fixture_model_edited(lambda m: m["weights"].__setitem__(0, 100.5)),
     _fixture_model_edited(lambda m: m["weights"].__setitem__(0, 10**400)),
     _fixture_model_with(weight_cap=10**6 + 1),
     _fixture_model_with(weight_cap=math.inf),
     _fixture_model_with(threshold=3.5),
     _fixture_model_with(learning_rte=0.5)],
    ids=["not-json", "no-stumps", "array", "rate-and-floor", "floor-above-cap",
         "index-float", "index-string", "weight-nan", "weight-string", "weight-bool",
         "weight-above-cap", "weight-huge", "cap-above-bound", "cap-infinite",
         "threshold-float", "unknown-key"],
)
def test_cli_bad_model_file_is_exit_two(tmp_path, capsys, command, model_text):
    model = tmp_path / "model.json"
    model.write_text(model_text)
    if command == "run":
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"endpoints": 4, "model": str(model)}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    else:
        argv = ["classify", str(fixture_path("feeds", "smbv1_advisory.json")),
                "--model", str(model)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_cli_run_warns_about_skipped_feed_items_like_classify(tmp_path, capsys):
    good = json.loads(fixture_path("feeds", "smbv1_advisory.json").read_text())
    feed = tmp_path / "feed.json"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": "smbv1", "endpoints": 4, "feeds": [str(feed)]}))
    feed.write_text(json.dumps(good))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "clean")]) == 0
    assert "warning" not in capsys.readouterr().err

    feed.write_text(json.dumps(good + [{"report_id": "bad", "source": "s"}]))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "skip")]) == 0
    warning = "warning: skipped malformed item[1].text: missing field\n"
    assert capsys.readouterr().err == warning
    assert main(["classify", str(feed)]) == 0
    assert capsys.readouterr().err == warning
    for name in ("chain.ndjson", "report.json", "report.txt"):
        assert (tmp_path / "skip" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


@pytest.mark.parametrize("mode", ["automated", "human"])
@pytest.mark.parametrize("scenario", ["smbv1", "rdp"])
def test_run_and_classify_decide_alike(capsys, scenario, mode):
    feed = fixture_path("feeds", f"{scenario}_advisory.json")
    policy = fixture_path("policies", f"{scenario}.json")
    assert main(["classify", str(feed), "--policies", str(policy)]) == 0
    # report_id severity category decision [rule ids]
    _, _, _, kind, rule_ids = capsys.readouterr().out.splitlines()[0].split()
    result = run_scenario(RunConfig(scenario=scenario, mode=mode, endpoints=4, seed=1))
    body = query_history(result.chain, kind=TxKind.ENFORCEMENT_DECISION)[0].body()
    assert body["decision"] == kind
    assert body["matched_rule_ids"] == rule_ids.strip("[]").split(",")


def test_cli_replay_lists_both_versions_after_upgrade(tmp_path, capsys):
    from conftest import make_engine

    engine = make_engine(endpoints=4)
    doc_v1 = load_policy_file(fixture_path("policies", "smbv1.json"))
    engine.clock.advance(100)
    engine.deploy_contract([doc_v1])
    # No run updates a policy, but a chain may hold the update record.
    update = dict(doc_v1.to_dict(), version=2, contract_id="compliancecontract", contract_version=2)
    ledger = engine.ledger
    assert ledger.submit_transaction(TransactionRecord.create(
        ledger.next_tx_id(), 200, TxKind.POLICY_UPDATE, "policy-admin", update))
    ledger.commit_block(200)
    history = query_history(ledger.chain(), policy_id="smbv1-hardening")
    assert [(tx.kind, tx.body()["version"]) for tx in history] == [
        (TxKind.POLICY_DEPLOY, 1), (TxKind.POLICY_UPDATE, 2)]
    path = tmp_path / "upgraded.ndjson"
    export_chain(engine.ledger.chain(), path)
    assert main(["replay", str(path)]) == 0
    dump = json.loads(capsys.readouterr().out.strip())
    assert dump["policy_versions"] == {"smbv1-hardening": [1, 2]}
    assert dump["policies"]["smbv1-hardening"]["version"] == 2


def test_cli_report_format_selector(tmp_path):
    out = tmp_path / "json-only"
    code = main(["run", "--scenario", "smbv1", "--mode", "automated", "--seed", "1",
                 "--endpoints", "4", "--out", str(out), "--report-format", "json"])
    assert code == 0
    assert (out / "report.json").exists()
    assert not (out / "report.txt").exists()


def _run_with_smbv1_policy(tmp_path, edit):
    """``policyledger run`` on 4 endpoints with the smbv1 fixture policy
    changed by ``edit``; returns the exit code."""
    doc = json.loads(fixture_path("policies", "smbv1.json").read_text())
    edit(doc)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(doc))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "smbv1", "endpoints": 4,
                                  "policies": [str(policy)]}))
    return main(["run", "--config", str(config), "--out", str(tmp_path / "out")])


def _run_with_smbv1_rule(tmp_path, edit):
    """The same, with the policy's first rule changed by ``edit``."""
    return _run_with_smbv1_policy(tmp_path, lambda doc: edit(doc["rules"][0]))


def test_cli_run_unknown_target_endpoint_is_exit_two_at_load(tmp_path, capsys):
    def edit(rule):
        rule["remediation"]["target_selector"] = ["ep-999"]

    assert _run_with_smbv1_rule(tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and "ep-999" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("target_selector", "everyone"),
        ("target_selector", ["ep-0000", 3]),
        # A repeated endpoint would be enforced, and counted, twice.
        ("target_selector", ["ep-001", "ep-001"]),
        ("condition", {"attribute": "firewall_rules", "comparator": "lt", "value": 1}),
        ("condition", {"attribute": "rdp_port", "comparator": "gt", "value": "3389"}),
        ("condition", {"attribute": "patch_level", "comparator": "lt", "value": True}),
        ("condition", {"attribute": "rdp_port", "comparator": "in", "value": 3389}),
        ("remediation", {"kind": "apply_patch", "params": {"level": "abc"}}),
        ("remediation", {"kind": "apply_patch", "params": {"level": True}}),
        ("remediation", {"kind": "set_rdp_port", "params": 5}),
        ("remediation", {"kind": "set_rdp_port", "params": []}),
        ("remediation", {"kind": "update_firewall_rule", "params": ["direction", "target", "verdict"]}),
        ("remediation", {"kind": "update_firewall_rule",
                         "params": {"direction": "outbound", "target": "*", "verdict": 0}}),
        ("remediation", {"kind": "disable_smbv1", "params": {"port": 33089}}),
        # Params left out read as {}, which these kinds' params do not fit.
        ("remediation", {"kind": "set_rdp_port"}),
        ("remediation", {"kind": "update_firewall_rule"}),
        # A technique id must be the whole string: this one would never match a report's.
        ("technique_tags", ["T1210\n"]),
    ],
)
def test_cli_run_invalid_rule_is_exit_two_at_load(tmp_path, capsys, field, value):
    def edit(rule):
        if field == "condition":
            rule["condition"].append(value)
        elif field in ("remediation", "technique_tags"):
            rule[field] = value
        else:
            rule["remediation"][field] = value

    assert _run_with_smbv1_rule(tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: $.rules[0]")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit",
    [lambda d: d.update(rules=[5]), lambda d: d["rules"][0].update(technique_tag=["T1210"])],
    ids=["rule-not-an-object", "unknown-rule-field"],
)
def test_cli_run_mistyped_policy_is_exit_two_at_load(tmp_path, capsys, edit):
    assert _run_with_smbv1_policy(tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: $.rules[0]")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["sub", "sub/deeper"])
def test_cli_run_out_below_a_file_is_exit_two_before_the_run(tmp_path, capsys, monkeypatch, below):
    from policyledger import cli

    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("the run started"))
    (tmp_path / "file").write_text("kept")
    assert main(["run", "--endpoints", "4", "--out", str(tmp_path / "file" / below)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output path {tmp_path / 'file'} exists and is not a directory\n"
    assert captured.out == "" and (tmp_path / "file").read_text() == "kept"


def _patch_verify_chain(monkeypatch, replacement):
    """Replace verify_chain in every package module that holds a reference."""
    for name, module in list(sys.modules.items()):
        if name.startswith("policyledger") and hasattr(module, "verify_chain"):
            monkeypatch.setattr(module, "verify_chain", replacement)


def test_run_verifies_its_chain_once(monkeypatch):
    from policyledger import ledger

    real = ledger.verify_chain
    calls = []

    def counting(chain):
        calls.append(len(chain))
        return real(chain)

    _patch_verify_chain(monkeypatch, counting)
    result = run_scenario(RunConfig(scenario="smbv1", mode="both", endpoints=4, seed=3))
    assert calls == [len(result.chain)]


def test_cli_run_failed_fresh_chain_verification_is_exit_four(tmp_path, monkeypatch, capsys):
    _patch_verify_chain(monkeypatch, lambda chain: ChainVerdict(False, 2, "hash"))
    code = main(["run", "--scenario", "smbv1", "--endpoints", "4",
                 "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("internal invariant violation:")
