"""Ledger unit tests: validation, consensus, tamper evidence, replay."""

import json
import random

import pytest

from conftest import make_tx
from policyledger import ledger as ledger_module
from policyledger.canonical import canonical_json, digest_value, substream
from policyledger.errors import (
    ConsensusFailure,
    CorruptChainError,
    InputError,
    MalformedTransaction,
)
from policyledger.ledger import (
    CHAIN_FORMAT,
    DEFAULT_AUTHORIZATION,
    Ledger,
    LedgerBlock,
    TransactionRecord,
    TxKind,
    TxMetadata,
    ZERO_DIGEST,
    export_chain,
    import_chain,
    query_history,
    replay_state,
    verify_chain,
)


def fresh_ledger(validators=3):
    return Ledger(validators=validators, genesis_timestamp=0, config_digest="test")


def committed_chain(n_blocks=5, txs_per_block=2):
    """A clean chain of decision blocks built through the public API."""
    ledger = fresh_ledger()
    t = 0
    for b in range(n_blocks):
        for i in range(txs_per_block):
            t += 10
            tx = make_tx(
                ledger,
                body={
                    "plan_id": f"plan-{b}-{i}",
                    "planned": [],
                    "target_endpoints": [],
                },
                timestamp=t,
            )
            assert ledger.submit_transaction(tx)
        ledger.commit_block(t)
    return ledger


# -- canonical helpers -------------------------------------------------------


def test_canonical_json_sorts_keys_and_is_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_digest_is_sha256_hex():
    d = digest_value({"x": 1})
    assert len(d) == 64 and int(d, 16) >= 0


def test_substreams_are_label_independent():
    a1 = [substream(42, "ep", i).random() for i in range(5)]
    a2 = [substream(42, "ep", i).random() for i in range(8)][:5]
    assert a1 == a2  # adding consumers never perturbs existing streams


# -- submit_transaction ------------------------------------------------------


def test_submit_accepts_clean_decision_on_empty_state():
    ledger = fresh_ledger()
    verdict = ledger.submit_transaction(make_tx(ledger))
    assert verdict.accepted


def test_submit_rejects_mutated_payload_as_malformed():
    ledger = fresh_ledger()
    tx = make_tx(ledger)
    tampered = TransactionRecord(
        tx_id=tx.tx_id,
        timestamp=tx.timestamp,
        kind=tx.kind,
        actor=tx.actor,
        payload=tx.payload + " ",
        payload_digest=tx.payload_digest,
        metadata=tx.metadata,
    )
    with pytest.raises(MalformedTransaction):
        ledger.submit_transaction(tampered)


@pytest.mark.parametrize("actor", sorted(DEFAULT_AUTHORIZATION))
@pytest.mark.parametrize("kind", list(TxKind))
def test_authorization_table_is_enforced_exactly(actor, kind):
    # Oracle: direct lookup in the authorization table fixture.
    expected = kind in DEFAULT_AUTHORIZATION[actor]
    ledger = fresh_ledger()
    body = {"policy_id": "p", "rules": []} if kind in (
        TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE
    ) else {"planned": [], "target_endpoints": []}
    verdict = ledger.submit_transaction(make_tx(ledger, kind=kind, actor=actor, body=body))
    assert verdict.accepted is expected
    if not expected:
        assert verdict.reason == "authorization"


def test_cti_engine_cannot_update_policy():
    ledger = fresh_ledger()
    tx = make_tx(ledger, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
                 body={"policy_id": "p", "rules": []})
    verdict = ledger.submit_transaction(tx)
    assert not verdict and verdict.reason == "authorization"


def test_decision_conflicting_with_active_policy_is_rejected():
    ledger = fresh_ledger()
    deploy = make_tx(
        ledger,
        kind=TxKind.POLICY_DEPLOY,
        actor="policy-admin",
        body={
            "policy_id": "rdp-port",
            "rules": [
                {
                    "rule_id": "r1",
                    "condition": [
                        {"attribute": "rdp_port", "comparator": "equals", "value": 33089}
                    ],
                }
            ],
        },
    )
    assert ledger.submit_transaction(deploy)
    ledger.commit_block(1)
    bad = make_tx(
        ledger,
        body={
            "planned": [
                {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": 3389}}
            ],
            "target_endpoints": ["ep-000"],
        },
    )
    verdict = ledger.submit_transaction(bad)
    assert not verdict and verdict.reason == "policy_conflict"


def test_conflicting_pending_transactions_are_rejected():
    ledger = fresh_ledger()
    first = make_tx(
        ledger,
        body={
            "planned": [
                {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": 33089}}
            ],
        },
    )
    assert ledger.submit_transaction(first)
    second = make_tx(
        ledger,
        body={
            "planned": [
                {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": 4000}}
            ],
        },
    )
    verdict = ledger.submit_transaction(second)
    assert not verdict and verdict.reason == "pending_conflict"


# -- commit_block ------------------------------------------------------------


def test_first_block_links_to_genesis():
    ledger = fresh_ledger()
    ledger.submit_transaction(make_tx(ledger))
    block = ledger.commit_block(5)
    genesis = ledger.blocks[0]
    assert block.index == 1
    assert block.prev_hash == genesis.block_hash
    assert genesis.prev_hash == ZERO_DIGEST
    assert genesis.meta["format"] == CHAIN_FORMAT
    assert genesis.meta["hash_function"] == "sha-256"


def test_same_pending_list_twice_yields_different_hashes():
    ledger = fresh_ledger()
    body = {"plan_id": "same", "planned": [], "target_endpoints": []}
    ledger.submit_transaction(make_tx(ledger, body=body))
    b1 = ledger.commit_block(5)
    ledger.submit_transaction(make_tx(ledger, body=body))
    b2 = ledger.commit_block(5)
    assert b1.block_hash != b2.block_hash  # index is hashed


def test_commit_requires_pending():
    with pytest.raises(InputError):
        fresh_ledger().commit_block(1)


def test_all_validators_vote_accept_on_committed_blocks():
    ledger = committed_chain()
    for block in ledger.blocks:
        assert set(block.validator_votes) == set(ledger.validator_ids)
        assert all(v == "accept" for v in block.validator_votes.values())


def test_consensus_failure_on_unvalidated_pending():
    # Bypassing submit-side validation makes the replicas reject.
    ledger = fresh_ledger()
    rogue = make_tx(ledger, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
                    body={"policy_id": "p", "rules": []})
    ledger.pending.append(rogue)
    with pytest.raises(ConsensusFailure):
        ledger.commit_block(1)


def test_duplicate_tx_id_is_refused():
    ledger = fresh_ledger()
    tx = make_tx(ledger)
    assert ledger.submit_transaction(tx)
    with pytest.raises(InputError):
        ledger.submit_transaction(tx)


def test_tx_id_is_refused_while_pending_and_after_commit():
    ledger = fresh_ledger()
    tx = make_tx(ledger)
    assert ledger.submit_transaction(tx)
    with pytest.raises(InputError):
        ledger.submit_transaction(tx)
    ledger.commit_block(1)
    with pytest.raises(InputError):
        ledger.submit_transaction(tx)
    fresh = make_tx(ledger, timestamp=2)
    assert ledger.submit_transaction(fresh)
    assert ledger.pending == [fresh]


def test_consensus_failure_leaves_pending_intact():
    ledger = fresh_ledger()
    clean = make_tx(ledger)
    assert ledger.submit_transaction(clean)
    rogue = make_tx(ledger, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
                    body={"policy_id": "p", "rules": []})
    ledger.pending.append(rogue)
    with pytest.raises(ConsensusFailure):
        ledger.commit_block(1)
    assert ledger.pending == [clean, rogue]
    assert len(ledger.blocks) == 1
    with pytest.raises(InputError):
        ledger.submit_transaction(clean)


def test_commit_does_not_revalidate_admitted_records(monkeypatch):
    # submit_transaction already validated each record against the same
    # committed state and pending prefix; the vote need not repeat it.
    ledger = fresh_ledger()
    bodies = [
        (TxKind.ENFORCEMENT_DECISION, None),
        (TxKind.COMPLIANCE_CHECK,
         {"endpoint_id": "ep-000", "rule_id": "r", "verdict": "compliant", "checked_at": 1}),
        (TxKind.ENFORCEMENT_RESULT,
         {"endpoint_id": "ep-000", "outcome": "success", "duration_ms": 5, "applied": {}}),
    ]
    for kind, body in bodies:
        assert ledger.submit_transaction(make_tx(ledger, kind=kind, body=body))
    calls = []
    real = ledger_module.validate_transaction

    def counting(*args):
        calls.append(args[0].tx_id)
        return real(*args)

    monkeypatch.setattr(ledger_module, "validate_transaction", counting)
    block = ledger.commit_block(1)
    assert calls == []
    assert block.validator_votes == {vid: "accept" for vid in ledger.validator_ids}


def _port_plan(port):
    return {"planned": [
        {"endpoint_id": "ep-000", "kind": "set_rdp_port", "params": {"port": port}}
    ]}


def test_records_behind_a_bypassing_record_are_revalidated():
    # The admitted record never saw the rogue one ahead of it at submit.
    ledger = fresh_ledger()
    assert ledger.submit_transaction(make_tx(ledger, body=_port_plan(4000)))
    ledger.pending.insert(0, make_tx(ledger, body=_port_plan(33089)))
    with pytest.raises(ConsensusFailure, match="pending_conflict"):
        ledger.commit_block(1)


def test_record_swapped_in_under_an_admitted_tx_id_is_revalidated():
    ledger = fresh_ledger()
    clean = make_tx(ledger)
    assert ledger.submit_transaction(clean)
    forged = TransactionRecord.create(
        tx_id=clean.tx_id, timestamp=1, kind=TxKind.POLICY_UPDATE, actor="cti-engine",
        body={"policy_id": "p", "rules": []},
    )
    ledger.pending[0] = forged
    with pytest.raises(ConsensusFailure, match="authorization"):
        ledger.commit_block(1)


class _UniterablePending(list):
    def __iter__(self):
        raise AssertionError("submit iterated the whole pending list")


@pytest.mark.parametrize(
    "kind, body",
    [
        (TxKind.COMPLIANCE_CHECK,
         {"endpoint_id": "ep-000", "rule_id": "r", "verdict": "compliant", "checked_at": 1}),
        (TxKind.ENFORCEMENT_RESULT,
         {"endpoint_id": "ep-000", "outcome": "success", "duration_ms": 5, "applied": {}}),
    ],
)
def test_submit_does_not_scan_pending(kind, body):
    # An O(pending) scan per submit makes an N-endpoint audit O(N^2).
    ledger = fresh_ledger()
    for _ in range(3):
        assert ledger.submit_transaction(make_tx(ledger, kind=kind, body=body))
    ledger.pending = _UniterablePending(ledger.pending)
    tx = make_tx(ledger, kind=kind, body=body)
    assert ledger.submit_transaction(tx)
    assert len(ledger.pending) == 4 and ledger.pending[-1] is tx


# -- verify_chain ------------------------------------------------------------


def test_fresh_chain_verifies():
    ledger = committed_chain(5)
    assert verify_chain(ledger.chain()).ok


def _rebuild_with_payload_flip(chain, block_idx, tx_idx=0, bit=3):
    block = chain[block_idx]
    tx = block.transactions[tx_idx]
    raw = bytearray(tx.payload.encode("utf-8"))
    raw[-2] ^= 1 << bit
    flipped = TransactionRecord(
        tx_id=tx.tx_id,
        timestamp=tx.timestamp,
        kind=tx.kind,
        actor=tx.actor,
        payload=raw.decode("utf-8", errors="replace"),
        payload_digest=tx.payload_digest,
        metadata=tx.metadata,
    )
    txs = list(block.transactions)
    txs[tx_idx] = flipped
    mutated = LedgerBlock(
        index=block.index,
        prev_hash=block.prev_hash,
        block_hash=block.block_hash,
        timestamp=block.timestamp,
        transactions=tuple(txs),
        validator_votes=block.validator_votes,
        meta=block.meta,
    )
    out = list(chain)
    out[block_idx] = mutated
    return out


def test_payload_bit_flip_detected_as_digest_failure():
    ledger = committed_chain(5)
    mutated = _rebuild_with_payload_flip(ledger.chain(), 3)
    verdict = verify_chain(mutated)
    assert not verdict.ok
    assert verdict.first_bad_index == 3
    assert verdict.reason == "digest"


def test_forged_block_detected_at_successor_link():
    from policyledger.ledger import compute_block_hash

    ledger = committed_chain(5)
    chain = ledger.chain()
    original = chain[2]
    forged_tx = TransactionRecord.create(
        tx_id="tx-forged",
        timestamp=original.timestamp,
        kind=TxKind.ENFORCEMENT_DECISION,
        actor="contract-engine",
        body={"plan_id": "forged", "planned": [], "target_endpoints": []},
    )
    digests = [forged_tx.record_digest()]
    forged = LedgerBlock(
        index=2,
        prev_hash=original.prev_hash,
        block_hash=compute_block_hash(2, original.prev_hash, original.timestamp, digests),
        timestamp=original.timestamp,
        transactions=(forged_tx,),
        validator_votes=dict(original.validator_votes),
    )
    chain[2] = forged
    verdict = verify_chain(chain)
    assert not verdict.ok
    assert verdict.first_bad_index == 3
    assert verdict.reason == "link"


def test_vote_tampering_is_detected():
    ledger = committed_chain(4)
    chain = ledger.chain()
    block = chain[2]
    votes = dict(block.validator_votes)
    votes["validator-1"] = "reject"
    chain[2] = LedgerBlock(
        index=block.index,
        prev_hash=block.prev_hash,
        block_hash=block.block_hash,
        timestamp=block.timestamp,
        transactions=block.transactions,
        validator_votes=votes,
        meta=block.meta,
    )
    verdict = verify_chain(chain)
    assert (verdict.first_bad_index, verdict.reason) == (2, "votes")


def mutate_export_single_bit(path, rng):
    """Flip one random bit of one random block line; returns the line index."""
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    block_lines = [i for i, line in enumerate(lines) if line.strip()]
    target = rng.choice(block_lines)
    line = bytearray(lines[target])
    byte_idx = rng.randrange(len(line))
    line[byte_idx] ^= 1 << rng.randrange(8)
    lines[target] = bytes(line)
    path.write_bytes(b"\n".join(lines))
    return target


def test_randomized_single_bit_mutations_always_detected(tmp_path):
    ledger = committed_chain(10, txs_per_block=2)
    clean = tmp_path / "chain.ndjson"
    export_chain(ledger.chain(), clean)
    rng = random.Random(1234)
    for trial in range(300):
        work = tmp_path / "mutated.ndjson"
        work.write_bytes(clean.read_bytes())
        target = mutate_export_single_bit(work, rng)
        verdict = verify_chain(import_chain(work))
        assert not verdict.ok, f"trial {trial}: mutation at block {target} undetected"
        assert verdict.first_bad_index == target, (
            f"trial {trial}: expected first bad {target}, got {verdict.first_bad_index}"
        )


# -- replay_state ------------------------------------------------------------


def test_replay_of_genesis_only_chain_is_empty_state():
    ledger = fresh_ledger()
    state = replay_state(ledger.chain())
    assert state.policies == {} and state.endpoint_attrs == {}


def test_replay_tracks_policy_deploy():
    ledger = fresh_ledger()
    deploy = make_tx(
        ledger,
        kind=TxKind.POLICY_DEPLOY,
        actor="policy-admin",
        body={"policy_id": "p1", "version": 1, "rules": []},
    )
    ledger.submit_transaction(deploy)
    ledger.commit_block(1)
    state = replay_state(ledger.chain())
    assert state.policies["p1"]["version"] == 1
    assert [d["version"] for d in state.policy_history["p1"]] == [1]


def test_replay_is_pure():
    ledger = committed_chain(4)
    s1 = replay_state(ledger.chain())
    s2 = replay_state(ledger.chain())
    assert s1 == s2


def test_replay_refuses_corrupt_chain():
    ledger = committed_chain(4)
    mutated = _rebuild_with_payload_flip(ledger.chain(), 2)
    with pytest.raises(CorruptChainError):
        replay_state(mutated)


# -- query_history -----------------------------------------------------------


def test_empty_filter_returns_every_transaction():
    ledger = committed_chain(3, txs_per_block=2)
    records = query_history(ledger.chain())
    assert len(records) == 6
    # commit order is preserved
    assert [r.tx_id for r in records] == sorted([r.tx_id for r in records])


def test_empty_filter_returns_every_kind_of_transaction():
    from policyledger.runner import RunConfig, run_scenario

    chain = run_scenario(RunConfig(seed=7, scenario="ransomware", mode="both",
                                   endpoints=12)).chain
    every = [tx for block in chain for tx in block.transactions]
    assert query_history(chain) == every
    # A run never upgrades its contract, so it writes every other kind.
    assert {tx.kind for tx in every} == set(TxKind) - {TxKind.POLICY_UPDATE}


def test_filter_on_missing_policy_is_empty():
    ledger = committed_chain(3)
    assert query_history(ledger.chain(), policy_id="nope") == []


def test_filter_by_kind_and_time_range():
    ledger = committed_chain(3, txs_per_block=2)
    records = query_history(ledger.chain(), kind=TxKind.ENFORCEMENT_DECISION,
                            time_range=(0, 20))
    assert all(r.timestamp <= 20 for r in records)
    assert len(records) == 2


def test_query_refuses_corrupt_chain():
    ledger = committed_chain(3)
    mutated = _rebuild_with_payload_flip(ledger.chain(), 1)
    with pytest.raises(CorruptChainError):
        query_history(mutated)


# -- export / import ---------------------------------------------------------


def test_export_import_round_trip_bytes(tmp_path):
    ledger = committed_chain(4)
    p1 = tmp_path / "a.ndjson"
    p2 = tmp_path / "b.ndjson"
    export_chain(ledger.chain(), p1)
    export_chain(import_chain(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert verify_chain(import_chain(p2)).ok


def test_metadata_priority_bounds():
    with pytest.raises(InputError):
        TxMetadata(priority=5)
    with pytest.raises(InputError):
        TxMetadata(priority=-1)


def test_chain_length_is_monotone_over_a_run():
    ledger = fresh_ledger()
    lengths = [len(ledger.blocks)]
    for i in range(5):
        ledger.submit_transaction(make_tx(ledger, timestamp=i + 1))
        ledger.commit_block(i + 1)
        lengths.append(len(ledger.blocks))
    assert lengths == sorted(lengths)
    assert lengths[-1] == 6
