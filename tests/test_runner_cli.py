"""Run configuration, CLI commands, exit codes, and output determinism."""

import json
import sys

import pytest

from policyledger.cli import main
from policyledger.errors import InputError
from policyledger.ledger import ChainVerdict
from policyledger.runner import RunConfig, fixture_path, run_scenario


# -- config ------------------------------------------------------------------


def test_unknown_config_keys_rejected():
    with pytest.raises(InputError):
        RunConfig.from_dict({"seed": 1, "grid": True})
    with pytest.raises(InputError):
        RunConfig.from_dict({"network": {"warp_factor": 9}})
    with pytest.raises(InputError):
        RunConfig.from_dict({"team": {"mascots": 2}})


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


# -- determinism (runs twice, byte-identical) -----------------------------------


def test_same_seed_produces_byte_identical_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"), outdir=out1)
    run_scenario(RunConfig(seed=42, scenario="smbv1", mode="both"), outdir=out2)
    for name in ("chain.ndjson", "report.json", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


#: SHA-256 of each output at 60 endpoints in "both" mode. A change to any
#: of them is a change of output bytes, which bumps a format string.
PINNED_OUTPUT_DIGESTS = {
    ("smbv1", 42): {
        "chain.ndjson": "0c4874aee75ca965b15eb1091e5fd373e65e652071bb726f9b42a5f55102e8d7",
        "report.json": "297ac0137b5f0a448da0f4d43e6b58cbc00a18a12e4ed287637f26eada5aae23",
        "report.txt": "7e2e3671635e0f9109ef650cbf313a6c6498735124f004a688c976c43f75cabe",
    },
    ("ransomware", 7): {
        "chain.ndjson": "af6cdfc19165f10f669b465a0ad53e7d7089897f8a23de79ea8a6835b66d94af",
        "report.json": "809ec1c7bf24d04653efc10cb17b1dec3f6844ca07e3b3af2bd6c9565602bd65",
        "report.txt": "9f70dcab968a2dc218c9e5d53efec7d195bb2f76a87433f30b0681c3020bed71",
    },
}


@pytest.mark.parametrize("scenario, seed", sorted(PINNED_OUTPUT_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, scenario, seed):
    import hashlib

    run_scenario(RunConfig(seed=seed, scenario=scenario, mode="both", endpoints=60),
                 outdir=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_OUTPUT_DIGESTS[(scenario, seed)]
    }
    assert digests == PINNED_OUTPUT_DIGESTS[(scenario, seed)]


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


def test_cli_classify_missing_feed_is_exit_three(tmp_path):
    assert main(["classify", str(tmp_path / "none.json")]) == 3


def test_cli_replay_lists_both_versions_after_upgrade(tmp_path, capsys):
    import json as _json

    from conftest import make_engine
    from policyledger.ledger import export_chain
    from policyledger.policy import load_policy_document, load_policy_file

    engine = make_engine(endpoints=4)
    doc_v1 = load_policy_file(fixture_path("policies", "smbv1.json"))
    engine.clock.advance(100)
    engine.deploy_contract("compliancecontract", [doc_v1])
    raw = doc_v1.to_dict()
    raw["version"] = 2
    engine.clock.advance(100)
    engine.upgrade_contract("compliancecontract", [load_policy_document(_json.dumps(raw))])
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


def test_cli_run_unknown_target_endpoint_is_exit_four(tmp_path, capsys):
    doc = json.loads(fixture_path("policies", "smbv1.json").read_text())
    doc["rules"][0]["remediation"]["target_selector"] = ["ep-999"]
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(doc))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "smbv1", "endpoints": 4,
                                  "policies": [str(policy)]}))
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == "error: UnknownEndpoint: ep-999"


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
