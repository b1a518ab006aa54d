"""Tamper-evident, append-only hash-chained ledger with simulated consensus.

A committed chain is a list of blocks. Each transaction carries a payload
digest; each block hash covers the block header plus the digests of its
whole transaction records, and links to the previous block hash. Each
transaction is validated once, at submission; the block vote re-checks
only records that bypassed that, and its verdict is stamped for every
validator id. Live state folds only the policy records validation
reads; world state is derived by replaying the chain, so two replays of
the same chain are always identical.

Chain files are newline-delimited: one canonical-JSON block per line.
The genesis block records the hash function name, the export format
version, the validator set, and the run's config digest; all of it is
covered by the genesis block hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

from .canonical import (
    HASH_FUNCTION_NAME,
    ZERO_DIGEST,
    canonical_bytes,
    canonical_json,
    digest_bytes,
    digest_value,
)
from .errors import (
    ConsensusFailure,
    CorruptChainError,
    InputError,
    MalformedTransaction,
)

CHAIN_FORMAT = "policyledger-chain/1"
VOTE_ACCEPT = "accept"


class TxKind(str, Enum):
    POLICY_DEPLOY = "policy_deploy"
    POLICY_UPDATE = "policy_update"
    COMPLIANCE_CHECK = "compliance_check"
    ENFORCEMENT_DECISION = "enforcement_decision"
    ENFORCEMENT_RESULT = "enforcement_result"
    THREAT_ALERT = "threat_alert"


#: Static actor -> kinds map per the default scenario configuration. The
#: contract engine is the only component allowed to write check/decision
#: records; the analyst-team baseline writes its own decisions/results so
#: both arms are auditable from one chain.
DEFAULT_AUTHORIZATION: dict[str, frozenset[TxKind]] = {
    "policy-admin": frozenset({TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE}),
    "contract-engine": frozenset(
        {
            TxKind.COMPLIANCE_CHECK,
            TxKind.ENFORCEMENT_DECISION,
            TxKind.ENFORCEMENT_RESULT,
        }
    ),
    "cti-engine": frozenset({TxKind.THREAT_ALERT}),
    "human-team": frozenset({TxKind.ENFORCEMENT_DECISION, TxKind.ENFORCEMENT_RESULT}),
}


@dataclass(frozen=True)
class TxMetadata:
    """Threat context attached to a transaction (type of threat, actor,
    technique ids, recommended change, priority 0-4)."""

    threat_type: Optional[str] = None
    threat_actor: Optional[str] = None
    technique_ids: tuple[str, ...] = ()
    recommended_change: Optional[str] = None
    priority: int = 0
    arm: str = "automated"

    def __post_init__(self):
        if not 0 <= self.priority <= 4:
            raise InputError(f"metadata priority {self.priority} outside 0..4")

    def to_dict(self) -> dict:
        return {
            "threat_type": self.threat_type,
            "threat_actor": self.threat_actor,
            "technique_ids": list(self.technique_ids),
            "recommended_change": self.recommended_change,
            "priority": self.priority,
            "arm": self.arm,
        }

    _WIRE_KEYS = frozenset(
        {"threat_type", "threat_actor", "technique_ids", "recommended_change", "priority", "arm"}
    )

    @classmethod
    def from_dict(cls, data: dict) -> "TxMetadata":
        # Strict keys: a lenient default here would let a flipped key name
        # round-trip to the same semantics and dodge tamper detection.
        if set(data) != cls._WIRE_KEYS:
            raise ValueError(f"unexpected metadata keys {sorted(set(data) ^ cls._WIRE_KEYS)}")
        return cls(
            threat_type=data["threat_type"],
            threat_actor=data["threat_actor"],
            technique_ids=tuple(data["technique_ids"]),
            recommended_change=data["recommended_change"],
            priority=int(data["priority"]),
            arm=data["arm"],
        )


@dataclass(frozen=True)
class TransactionRecord:
    """One audited event: a policy deploy/update, a compliance check, an
    enforcement decision or per-endpoint result, or a threat alert."""

    tx_id: str
    timestamp: int
    kind: TxKind
    actor: str
    payload: str  # canonical-JSON body
    payload_digest: str
    metadata: TxMetadata = field(default_factory=TxMetadata)

    @classmethod
    def create(
        cls,
        tx_id: str,
        timestamp: int,
        kind: TxKind,
        actor: str,
        body: dict,
        metadata: Optional[TxMetadata] = None,
    ) -> "TransactionRecord":
        payload = canonical_json(body)
        return cls(
            tx_id=tx_id,
            timestamp=timestamp,
            kind=kind,
            actor=actor,
            payload=payload,
            payload_digest=digest_bytes(payload.encode("utf-8")),
            metadata=metadata or TxMetadata(),
        )

    def body(self) -> dict:
        import json

        return json.loads(self.payload)

    def record_digest(self) -> str:
        """Digest of the whole record (envelope + payload digest).

        Block hashes concatenate these, so every transaction field is
        covered by the chain, not just the payload.
        """
        return digest_value(
            {
                "tx_id": self.tx_id,
                "timestamp": self.timestamp,
                "kind": self.kind.value,
                "actor": self.actor,
                "payload_digest": self.payload_digest,
                "metadata": self.metadata.to_dict(),
            }
        )

    def to_dict(self) -> dict:
        return {
            "tx_id": self.tx_id,
            "timestamp": self.timestamp,
            "kind": self.kind.value,
            "actor": self.actor,
            "payload": self.payload,
            "payload_digest": self.payload_digest,
            "metadata": self.metadata.to_dict(),
        }

    _WIRE_KEYS = frozenset(
        {"tx_id", "timestamp", "kind", "actor", "payload", "payload_digest", "metadata"}
    )

    @classmethod
    def from_dict(cls, data: dict) -> "TransactionRecord":
        if set(data) != cls._WIRE_KEYS:
            raise ValueError(f"unexpected tx keys {sorted(set(data) ^ cls._WIRE_KEYS)}")
        return cls(
            tx_id=data["tx_id"],
            timestamp=int(data["timestamp"]),
            kind=TxKind(data["kind"]),
            actor=data["actor"],
            payload=data["payload"],
            payload_digest=data["payload_digest"],
            metadata=TxMetadata.from_dict(data["metadata"]),
        )


@dataclass(frozen=True)
class LedgerBlock:
    index: int
    prev_hash: str
    block_hash: str
    timestamp: int
    transactions: tuple[TransactionRecord, ...]
    validator_votes: dict[str, str]
    meta: Optional[dict] = None  # genesis only

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "block_hash": self.block_hash,
            "timestamp": self.timestamp,
            "transactions": [tx.to_dict() for tx in self.transactions],
            "validator_votes": dict(sorted(self.validator_votes.items())),
        }
        if self.meta is not None:
            out["meta"] = self.meta
        return out

    _WIRE_KEYS = frozenset(
        {"index", "prev_hash", "block_hash", "timestamp", "transactions", "validator_votes"}
    )

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerBlock":
        extra = set(data) - cls._WIRE_KEYS - {"meta"}
        missing = cls._WIRE_KEYS - set(data)
        if extra or missing:
            raise ValueError(f"unexpected block keys {sorted(extra | missing)}")
        return cls(
            index=int(data["index"]),
            prev_hash=data["prev_hash"],
            block_hash=data["block_hash"],
            timestamp=int(data["timestamp"]),
            transactions=tuple(
                TransactionRecord.from_dict(t) for t in data["transactions"]
            ),
            validator_votes=dict(data["validator_votes"]),
            meta=data.get("meta"),
        )


def compute_block_hash(
    index: int,
    prev_hash: str,
    timestamp: int,
    tx_digests: Iterable[str],
    meta: Optional[dict] = None,
) -> str:
    """H(index, prev_hash, timestamp, concatenated tx record digests).

    Genesis additionally folds its metadata into the preimage so that the
    hash-function name, format version and validator set are themselves
    tamper-evident.
    """
    preimage: dict = {
        "index": index,
        "prev_hash": prev_hash,
        "timestamp": timestamp,
        "tx_digests": list(tx_digests),
    }
    if meta is not None:
        preimage["meta"] = meta
    return digest_bytes(canonical_bytes(preimage))


# --------------------------------------------------------------------------
# World state


@dataclass
class WorldState:
    """Configuration view derived entirely by replaying a chain.

    ``endpoint_attrs`` is keyed by arm ("automated"/"human") then endpoint
    id; only attributes actually touched by committed transactions appear.
    """

    policies: dict = field(default_factory=dict)  # policy_id -> latest doc body
    policy_history: dict = field(default_factory=dict)  # policy_id -> [doc bodies]
    contracts: dict = field(default_factory=dict)  # contract_id -> {version, lifecycle}
    endpoint_attrs: dict = field(default_factory=dict)  # arm -> endpoint -> attrs
    compliance: dict = field(default_factory=dict)  # endpoint -> rule_id -> verdict
    alerts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "policies": self.policies,
            "policy_history": self.policy_history,
            "contracts": self.contracts,
            "endpoint_attrs": self.endpoint_attrs,
            "compliance": self.compliance,
            "alerts": self.alerts,
        }


def _apply_tx_to_state(state: WorldState, tx: TransactionRecord) -> None:
    body = tx.body()
    if tx.kind in (TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE):
        pid = body["policy_id"]
        state.policies[pid] = body
        state.policy_history.setdefault(pid, []).append(body)
        cid = body.get("contract_id")
        if cid:
            state.contracts[cid] = {
                "version": body.get("contract_version", 1),
                "lifecycle": "active",
            }
    elif tx.kind == TxKind.COMPLIANCE_CHECK:
        if body.get("warning"):
            return
        ep = body["endpoint_id"]
        state.compliance.setdefault(ep, {})[body["rule_id"]] = {
            "verdict": body["verdict"],
            "checked_at": body["checked_at"],
        }
    elif tx.kind == TxKind.ENFORCEMENT_RESULT:
        if body["outcome"] != "success":
            return
        arm = tx.metadata.arm
        attrs = state.endpoint_attrs.setdefault(arm, {}).setdefault(
            body["endpoint_id"], {}
        )
        for attr, value in body.get("applied", {}).items():
            attrs[attr] = value
    elif tx.kind == TxKind.THREAT_ALERT:
        state.alerts.append(
            {"report_id": body.get("report_id"), "affected": body.get("affected", [])}
        )
        for ep in body.get("affected", []):
            state.endpoint_attrs.setdefault("automated", {}).setdefault(ep, {})[
                "infected"
            ] = True
    # ENFORCEMENT_DECISION carries intent only; it does not mutate state.


# --------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class TxVerdict:
    accepted: bool
    reason: Optional[str] = None  # authorization | policy_conflict | pending_conflict

    def __bool__(self) -> bool:
        return self.accepted


ACCEPT = TxVerdict(True)


@dataclass(frozen=True)
class ChainVerdict:
    ok: bool
    first_bad_index: Optional[int] = None
    reason: Optional[str] = None  # hash | link | digest | votes | format | index

    def __bool__(self) -> bool:
        return self.ok


# --------------------------------------------------------------------------
# Validation (shared by submission and the block vote)


def _planned_settings(body: dict) -> list[tuple[str, str, object]]:
    """(endpoint, attribute, value) writes implied by a decision payload."""
    out = []
    for item in body.get("planned", []):
        attr_val = _action_write(item.get("kind"), item.get("params", {}))
        if attr_val is not None:
            out.append((item["endpoint_id"], attr_val[0], attr_val[1]))
    return out


def _action_write(kind: Optional[str], params: dict):
    """Attribute write performed by an action kind, if it is modeled."""
    if kind == "disable_smbv1":
        return ("smbv1_enabled", False)
    if kind == "set_rdp_port":
        return ("rdp_port", params.get("port"))
    if kind == "update_proxy_rule":
        return ("proxy_outbound_blocked", bool(params.get("blocked", True)))
    if kind == "isolate_endpoint":
        return ("isolated", bool(params.get("isolated", True)))
    return None


def _active_required_values(state: WorldState, skip_policy: Optional[str] = None):
    """attribute -> (value, policy_id) for every equals-condition of every
    active policy version."""
    required: dict[str, tuple[object, str]] = {}
    for pid, doc in state.policies.items():
        if pid == skip_policy:
            continue
        for rule in doc.get("rules", []):
            for cond in rule.get("condition", []):
                if cond.get("comparator") == "equals":
                    required[cond["attribute"]] = (cond["value"], pid)
    return required


def validate_transaction(
    tx: TransactionRecord,
    state: WorldState,
    pending: list[TransactionRecord],
    authorization: dict[str, frozenset[TxKind]],
) -> TxVerdict:
    """Deterministic admission checks: authorization, consistency with
    active policy, and absence of conflicting pending writes.

    Raises MalformedTransaction when the payload digest does not
    recompute; that is corruption, not a validation outcome.
    """
    if digest_bytes(tx.payload.encode("utf-8")) != tx.payload_digest:
        raise MalformedTransaction(f"tx {tx.tx_id}: payload digest mismatch")

    allowed = authorization.get(tx.actor, frozenset())
    if tx.kind not in allowed:
        return TxVerdict(False, "authorization")

    # Only these kinds are checked against active policy and pending writes.
    if tx.kind not in (TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE, TxKind.ENFORCEMENT_DECISION):
        return ACCEPT
    body = tx.body()
    required = _active_required_values(state, skip_policy=body.get("policy_id"))

    if tx.kind in (TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE):
        # A new document must not demand a value another active policy forbids.
        for rule in body.get("rules", []):
            for cond in rule.get("condition", []):
                if cond.get("comparator") != "equals":
                    continue
                prior = required.get(cond["attribute"])
                if prior is not None and prior[0] != cond["value"]:
                    return TxVerdict(False, "policy_conflict")
    elif tx.kind == TxKind.ENFORCEMENT_DECISION:
        planned = _planned_settings(body)
        for endpoint, attr, value in planned:
            prior = required.get(attr)
            if prior is not None and prior[0] != value:
                return TxVerdict(False, "policy_conflict")
        # Conflicting pending writes to the same endpoint attribute.
        mine = {(ep, attr): val for ep, attr, val in planned}
        for other in pending:
            if other.kind != TxKind.ENFORCEMENT_DECISION:
                continue
            for ep, attr, val in _planned_settings(other.body()):
                if (ep, attr) in mine and mine[(ep, attr)] != val:
                    return TxVerdict(False, "pending_conflict")

    return ACCEPT


# --------------------------------------------------------------------------
# Ledger


class Ledger:
    """Single-writer, append-only chain with a unanimous validator vote.

    The happy path is submit_transaction() per event then commit_block()
    per decision cycle. Committed blocks are immutable; reads (verify,
    query, replay) operate on the committed prefix only.
    """

    def __init__(
        self,
        validators: int = 3,
        authorization: Optional[dict[str, frozenset[TxKind]]] = None,
        genesis_timestamp: int = 0,
        config_digest: str = "",
    ):
        if validators < 1:
            raise InputError("at least one validator required")
        self.authorization = dict(authorization or DEFAULT_AUTHORIZATION)
        self.validator_ids = [f"validator-{i}" for i in range(validators)]
        meta = {
            "format": CHAIN_FORMAT,
            "hash_function": HASH_FUNCTION_NAME,
            "validators": self.validator_ids,
            "config_digest": config_digest,
        }
        genesis_hash = compute_block_hash(0, ZERO_DIGEST, genesis_timestamp, [], meta)
        genesis = LedgerBlock(
            index=0,
            prev_hash=ZERO_DIGEST,
            block_hash=genesis_hash,
            timestamp=genesis_timestamp,
            transactions=(),
            validator_votes={vid: VOTE_ACCEPT for vid in self.validator_ids},
            meta=meta,
        )
        self.blocks: list[LedgerBlock] = [genesis]
        self.pending: list[TransactionRecord] = []
        self._state = WorldState()
        self._seq = 0
        self._seen_tx_ids: set[str] = set()
        # tx_id -> the record submit_transaction admitted under that id.
        self._admitted: dict[str, TransactionRecord] = {}

    # -- writing -----------------------------------------------------------

    def next_tx_id(self) -> str:
        self._seq += 1
        return f"tx-{self._seq:06d}"

    def submit_transaction(self, tx: TransactionRecord) -> TxVerdict:
        """Validate ``tx`` against committed state and the pending set;
        queue it for the next block when accepted."""
        if tx.tx_id in self._seen_tx_ids or tx.tx_id in self._admitted:
            raise InputError(f"duplicate tx_id {tx.tx_id}")
        verdict = validate_transaction(tx, self._state, self.pending, self.authorization)
        if verdict:
            self.pending.append(tx)
            self._admitted[tx.tx_id] = tx
        return verdict

    def commit_block(self, timestamp: int) -> LedgerBlock:
        """Commit all pending transactions as one block.

        The validators are identical deterministic checks, so the vote runs
        once and is stamped for every validator id; one block per cycle.
        """
        if not self.pending:
            raise InputError("nothing to commit")
        pending = list(self.pending)
        vote = self._validator_vote(pending)
        if vote != VOTE_ACCEPT:
            raise ConsensusFailure(f"validator rejected pending block: {vote}")
        votes = {vid: vote for vid in self.validator_ids}

        prev = self.blocks[-1]
        digests = [tx.record_digest() for tx in pending]
        block_hash = compute_block_hash(prev.index + 1, prev.block_hash, timestamp, digests)
        block = LedgerBlock(
            index=prev.index + 1,
            prev_hash=prev.block_hash,
            block_hash=block_hash,
            timestamp=timestamp,
            transactions=tuple(pending),
            validator_votes=votes,
        )
        self.blocks.append(block)
        for tx in pending:
            self._seen_tx_ids.add(tx.tx_id)
            # Validation reads only the active policies from live state.
            if tx.kind in (TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE):
                _apply_tx_to_state(self._state, tx)
        self.pending.clear()
        self._admitted.clear()
        return block

    def _validator_vote(self, pending: list[TransactionRecord]) -> str:
        """The validators' common verdict on the batch. An admitted record
        is validated again only behind a record that bypassed submission,
        which it was never checked against."""
        seen: list[TransactionRecord] = []
        bypassed = False
        for tx in pending:
            bypassed = bypassed or self._admitted.get(tx.tx_id) is not tx
            if bypassed:
                try:
                    verdict = validate_transaction(tx, self._state, seen, self.authorization)
                except MalformedTransaction:
                    return "reject:malformed"
                if not verdict:
                    return f"reject:{verdict.reason}"
            seen.append(tx)
        return VOTE_ACCEPT

    # -- reading -----------------------------------------------------------

    def chain(self) -> list[LedgerBlock]:
        return list(self.blocks)

    def head_hash(self) -> str:
        return self.blocks[-1].block_hash


# --------------------------------------------------------------------------
# Chain-level functions (operate on any committed chain, incl. imports)


def verify_chain(chain: list[LedgerBlock]) -> ChainVerdict:
    """Recompute every digest, hash, link and vote set.

    Returns Ok, or the earliest violated block and the failed check:
    digest (payload), hash (block hash), link (prev_hash), votes, index,
    or format (unparseable import line).
    """
    if not chain:
        return ChainVerdict(False, 0, "format")
    genesis = chain[0]
    if genesis.meta is None or genesis.index != 0 or genesis.prev_hash != ZERO_DIGEST:
        return ChainVerdict(False, 0, "format")
    expected_votes = set(genesis.meta.get("validators", []))

    for pos, block in enumerate(chain):
        if isinstance(block, CorruptBlock):
            return ChainVerdict(False, pos, "format")
        if block.index != pos:
            return ChainVerdict(False, pos, "index")
        for tx in block.transactions:
            if digest_bytes(tx.payload.encode("utf-8")) != tx.payload_digest:
                return ChainVerdict(False, pos, "digest")
        digests = [tx.record_digest() for tx in block.transactions]
        recomputed = compute_block_hash(
            block.index, block.prev_hash, block.timestamp, digests, block.meta
        )
        if recomputed != block.block_hash:
            return ChainVerdict(False, pos, "hash")
        if set(block.validator_votes) != expected_votes or any(
            v != VOTE_ACCEPT for v in block.validator_votes.values()
        ):
            return ChainVerdict(False, pos, "votes")
        if pos > 0 and block.prev_hash != chain[pos - 1].block_hash:
            return ChainVerdict(False, pos, "link")
    return ChainVerdict(True)


def replay_state(chain: list[LedgerBlock]) -> WorldState:
    """Fold every transaction in block/tx order into a fresh WorldState.

    Pure: the same chain always replays to the same state. Refuses
    chains that do not verify.
    """
    verdict = verify_chain(chain)
    if not verdict:
        raise CorruptChainError(
            f"chain corrupt at block {verdict.first_bad_index} ({verdict.reason})"
        )
    state = WorldState()
    for block in chain:
        for tx in block.transactions:
            _apply_tx_to_state(state, tx)
    return state


@dataclass(frozen=True)
class HistoryFilter:
    kind: Optional[TxKind] = None
    actor: Optional[str] = None
    policy_id: Optional[str] = None
    endpoint_id: Optional[str] = None
    time_range: Optional[tuple[int, int]] = None  # inclusive ticks


def _tx_matches(tx: TransactionRecord, f: HistoryFilter) -> bool:
    if f.kind is not None and tx.kind != f.kind:
        return False
    if f.actor is not None and tx.actor != f.actor:
        return False
    if f.time_range is not None:
        lo, hi = f.time_range
        if not lo <= tx.timestamp <= hi:
            return False
    if f.policy_id is None and f.endpoint_id is None:
        return True
    body = tx.body()
    if f.policy_id is not None:
        if body.get("policy_id") != f.policy_id and f.policy_id not in body.get(
            "matched_policy_ids", []
        ):
            return False
    if f.endpoint_id is not None:
        if body.get("endpoint_id") != f.endpoint_id and f.endpoint_id not in body.get(
            "target_endpoints", []
        ) and f.endpoint_id not in body.get("affected", []):
            return False
    return True


def query_history(
    chain: list[LedgerBlock], filter: Optional[HistoryFilter] = None, **kwargs
) -> list[TransactionRecord]:
    """All and only matching records, in commit order.

    Accepts a HistoryFilter or the same fields as keywords. Requires a
    verifying chain, like every other read of an imported chain.
    """
    f = filter if filter is not None else HistoryFilter(**kwargs)
    verdict = verify_chain(chain)
    if not verdict:
        raise CorruptChainError(
            f"chain corrupt at block {verdict.first_bad_index} ({verdict.reason})"
        )
    out: list[TransactionRecord] = []
    for block in chain:
        for tx in block.transactions:
            if _tx_matches(tx, f):
                out.append(tx)
    return out


# --------------------------------------------------------------------------
# Export / import


@dataclass(frozen=True)
class CorruptBlock(LedgerBlock):
    """Placeholder for an unparseable chain-file line; verify_chain reports
    it as a format failure at its position."""

    @classmethod
    def at(cls, pos: int) -> "CorruptBlock":
        return cls(
            index=pos,
            prev_hash="",
            block_hash="",
            timestamp=0,
            transactions=(),
            validator_votes={},
        )


def export_chain(chain: list[LedgerBlock], path: str | Path) -> None:
    """Write the chain as newline-delimited canonical JSON blocks."""
    lines = [canonical_json(block.to_dict()) for block in chain]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def import_chain(path: str | Path) -> list[LedgerBlock]:
    """Read a chain file leniently: unparseable lines become CorruptBlock
    entries so verification can still report the earliest bad position."""
    import json

    raw = Path(path).read_bytes()
    chain: list[LedgerBlock] = []
    for pos, line in enumerate(raw.split(b"\n")):
        if not line.strip():
            continue
        try:
            chain.append(LedgerBlock.from_dict(json.loads(line.decode("utf-8"))))
        except Exception:
            chain.append(CorruptBlock.at(pos))
    return chain
