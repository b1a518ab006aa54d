"""Tamper-evident, append-only hash-chained ledger with simulated consensus.

A committed chain is a list of blocks. Each transaction carries a payload
digest; each block hash covers the block header plus the digests of its
whole transaction records, and links to the previous block hash. Each
transaction is validated once, at submission; the block vote re-checks
only records that bypassed that, and its verdict is stamped for every
validator id. Live state folds only the policy records validation
reads, and validation derives from it the values active policy requires;
world state is derived by replaying the chain, so two replays of the same
chain are always identical. Validation parses the payloads of the kinds
whose bodies it reads.

A decision is checked for the writes of its planned actions, as
``policy.action_writes`` defines them from the params alone: a firewall
rule's append is unknown before the endpoint is touched, but an outbound
deny-all still sets ``proxy_outbound_blocked``, and a patch with an
explicit ``level`` sets ``patch_level``.

A record is frozen and every digest input is immutable, so each record
object computes its payload check and its record digest once, on first
use, and keeps them. Likewise, block hashes are recomputed once per block
object; links, votes and indices are checked on every call. Genesis is
the exception: its ``meta`` is a mutable dict, so its hash is recomputed
on every call. A record digest's preimage is spliced around its metadata's
canonical JSON fragment, which each ``TxMetadata`` object encodes once.
Metadata field types are checked when it is built, so equal metadata
encodes alike; an import interns it by its typed field values, one object
per distinct value, so a chain with a handful of distinct metadata values
encodes only that many fragments.

Chain files are newline-delimited: one canonical-JSON block per line.
The genesis block records the hash function name, the export format
version, the validator set, and the run's config digest; all of it is
covered by the genesis block hash. Record and block field types are
checked once, when the object is built, however it is built; a mistyped
field raises ``TypeError``, which an import reads as a corrupt line. Every
record and block a run commits or an import reads is built once, slot by
slot (``canonical.slot_builder``), after that check. So each record,
block and block-hash preimage has one encoder: a splice of
its fields' encodings (genesis's ``meta`` is one) and its metadata's kept
fragment, by functions ``canonical.object_splicer`` generates at import.
Export writes each line one record at a time; import reads one line at a
time. Lines and payloads are parsed by
``canonical.decode_json``, one C scan with ``json.loads`` as its
fallback, so every value read and every line refused is ``json.loads``'s.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .canonical import (
    HASH_FUNCTION_NAME,
    ZERO_DIGEST,
    canonical_json,
    collector_paused,
    decode_json,
    digest_bytes,
    encode_array,
    encode_str,
    generated_function,
    object_splicer,
    slot_builder,
)
from .errors import (
    ConsensusFailure,
    CorruptChainError,
    InputError,
    MalformedTransaction,
)
from .policy import action_writes

CHAIN_FORMAT = "policyledger-chain/1"
VOTE_ACCEPT = "accept"

# A record digest's preimage: canonical JSON of every field but the payload.
_ENVELOPE_KEYS = ("tx_id", "timestamp", "kind", "actor", "payload_digest", "metadata")
_ENVELOPE = object_splicer(*_ENVELOPE_KEYS)
# A record as a chain file holds it: the envelope plus the payload.
_RECORD = object_splicer(*_ENVELOPE_KEYS, "payload")
# A block hash's preimage; genesis adds its meta.
_BLOCK_KEYS = ("index", "prev_hash", "timestamp", "tx_digests")
_BLOCK = object_splicer(*_BLOCK_KEYS)
_GENESIS = object_splicer(*_BLOCK_KEYS, "meta")
# A block as a chain file holds it: the text before and after its records.
_LINE_KEYS = ("index", "prev_hash", "block_hash", "timestamp", "transactions", "validator_votes")
_BLOCK_ENDS = object_splicer(*_LINE_KEYS, cut="transactions")
_GENESIS_ENDS = object_splicer(*_LINE_KEYS, "meta", cut="transactions")


def _type_check(owner: str, **types: type | tuple[type, ...]):
    """A function of one value per keyword, in order, that raises TypeError
    unless each value is exactly of its keyword's type, or of one of its
    tuple of types: the splices encode no other, and digests cover the
    value as read, so reading ``false`` or ``0.0`` as ``0`` would let a
    changed chain file verify. A bool is not an int. Its code is generated,
    one ``type(value) is T`` test per keyword, as every record and block
    an import reads is checked by it."""
    allowed = {name: want if type(want) is tuple else (want,) for name, want in types.items()}

    def refuse(*values) -> None:
        name, want, value = next((name, want, value) for (name, want), value
                                 in zip(allowed.items(), values) if type(value) not in want)
        want = " or ".join(t.__name__ for t in want)
        raise TypeError(f"{owner}.{name} must be {want}, got {value!r}")

    scope: dict = {"_refuse": refuse}
    tests = []
    for name, want in allowed.items():
        scope[f"_{name}"] = want[0] if len(want) == 1 else want
        tests.append(f"type({name}) {'is' if len(want) == 1 else 'in'} _{name}")
    args = ", ".join(allowed)
    source = f"def check({args}):\n    if not ({' and '.join(tests)}):\n        _refuse({args})"
    return generated_function(source, scope, "check")


class TxKind(str, Enum):
    POLICY_DEPLOY = "policy_deploy"
    POLICY_UPDATE = "policy_update"
    COMPLIANCE_CHECK = "compliance_check"
    ENFORCEMENT_DECISION = "enforcement_decision"
    ENFORCEMENT_RESULT = "enforcement_result"
    THREAT_ALERT = "threat_alert"


#: Each kind by its wire value, and its value as canonical JSON.
_KIND_OF = {kind.value: kind for kind in TxKind}
_KIND_JSON = {kind: encode_str(kind.value) for kind in TxKind}

#: The kinds whose bodies validation reads, to check them against active
#: policy and pending writes.
_BODY_CHECKED = frozenset({TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE, TxKind.ENFORCEMENT_DECISION})

# Kinds as module globals for per-record loops: an attribute read of the
# enum costs more.
_POLICY_KINDS = (TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE)
_CHECK = TxKind.COMPLIANCE_CHECK
_DECISION = TxKind.ENFORCEMENT_DECISION
_RESULT = TxKind.ENFORCEMENT_RESULT
_ALERT = TxKind.THREAT_ALERT
_NO_KINDS: frozenset = frozenset()


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
    technique ids, recommended change, priority 0-4).

    Its field types are checked when it is built: ``threat_type``,
    ``threat_actor`` and ``recommended_change`` are str or None, ``arm`` a
    str, ``priority`` an int (not a bool) and ``technique_ids`` a list or
    tuple of strs, kept as a tuple; so equal objects encode alike.

    Its canonical JSON fragment, which every record digest embeds, is
    encoded once per object and kept; it takes no part in equality or
    repr, and ``dataclasses.replace`` starts a copy without it. Records
    that share one object share the fragment.
    """

    threat_type: Optional[str] = None
    threat_actor: Optional[str] = None
    technique_ids: tuple[str, ...] = ()
    recommended_change: Optional[str] = None
    priority: int = 0
    arm: str = "automated"
    _fragment: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = _technique_ids(self.technique_ids)
        object.__setattr__(self, "technique_ids", ids)
        _check_metadata(self.threat_type, self.threat_actor, ids, self.recommended_change,
                        self.priority, self.arm)
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

    def fragment(self) -> str:
        """Canonical JSON of ``to_dict()``, encoded on first use."""
        fragment = self._fragment
        if fragment is None:
            fragment = canonical_json(self.to_dict())
            object.__setattr__(self, "_fragment", fragment)
        return fragment

    _WIRE_KEYS = frozenset(
        {"threat_type", "threat_actor", "technique_ids", "recommended_change", "priority", "arm"}
    )

    @classmethod
    def from_dict(cls, data: dict, interned: dict) -> "TxMetadata":
        """Build from the wire form. ``interned`` is a dict the caller keeps
        for one import: equal typed values get one shared object."""
        # Strict keys: a lenient default here would let a flipped key name
        # round-trip to the same semantics and dodge tamper detection.
        if data.keys() != cls._WIRE_KEYS:
            raise ValueError(f"unexpected metadata keys {sorted(set(data) ^ cls._WIRE_KEYS)}")
        key = (data["threat_type"], data["threat_actor"], _technique_ids(data["technique_ids"]),
               data["recommended_change"], data["priority"], data["arm"])
        # Checked before the lookup: 1, true and 1.0 are equal keys, but
        # encode differently.
        _check_metadata(*key)
        metadata = interned.get(key)
        if metadata is None:
            metadata = interned[key] = cls(*key)
        return metadata


def _technique_ids(ids) -> tuple[str, ...]:
    """``ids``, a list or tuple of strs, as a tuple: a caller's list stays
    mutable, and record digests must not follow it."""
    if type(ids) is list or type(ids) is tuple:
        for i in ids:
            if type(i) is not str:
                break
        else:
            return tuple(ids)
    raise TypeError(f"TxMetadata.technique_ids must be a list of str, got {ids!r}")


_STR_OR_NONE = (str, type(None))
_check_metadata = _type_check("TxMetadata", threat_type=_STR_OR_NONE, threat_actor=_STR_OR_NONE,
                              technique_ids=tuple, recommended_change=_STR_OR_NONE, priority=int,
                              arm=str)


_check_record = _type_check("TransactionRecord", tx_id=str, timestamp=int, kind=TxKind, actor=str,
                            payload=str, payload_digest=str, metadata=TxMetadata)
_check_block = _type_check("LedgerBlock", index=int, prev_hash=str, block_hash=str, timestamp=int,
                           validator_votes=dict)


@dataclass(frozen=True, slots=True)
class TransactionRecord:
    """One audited event: a policy deploy/update, a compliance check, an
    enforcement decision or per-endpoint result, or a threat alert.

    The two digest results are derived from the frozen fields on first use
    and kept on the object; they take no part in equality, repr or the
    wire format, and ``dataclasses.replace`` starts a copy without them.
    The record digest's preimage embeds the metadata's kept fragment, so
    records sharing a ``TxMetadata`` object encode it once between them.

    ``__post_init__`` checks the field types; ``create`` and ``from_dict``
    check them too, and build through ``_build_record``
    (``canonical.slot_builder``), which sets each of the nine slots once, to
    what ``__init__`` would set it: every record a run writes or an audit
    imports is built so.
    """

    tx_id: str
    timestamp: int
    kind: TxKind
    actor: str
    payload: str  # canonical-JSON body
    payload_digest: str
    metadata: TxMetadata = field(default_factory=TxMetadata)
    _payload_ok: Optional[bool] = field(default=None, init=False, repr=False, compare=False)
    _digest: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_record(self.tx_id, self.timestamp, self.kind, self.actor, self.payload,
                      self.payload_digest, self.metadata)

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
        """A record whose payload is ``body`` in canonical JSON."""
        payload = canonical_json(body)
        fields = (tx_id, timestamp, kind, actor, payload, digest_bytes(payload.encode("utf-8")),
                  TxMetadata() if metadata is None else metadata)
        _check_record(*fields)
        # The digest is computed here from this payload: it is intact.
        return _build_record(*fields, True, None)

    def body(self) -> dict:
        return decode_json(self.payload)

    def payload_intact(self) -> bool:
        """Whether ``payload`` still hashes to ``payload_digest``."""
        ok = self._payload_ok
        if ok is None:
            ok = digest_bytes(self.payload.encode("utf-8")) == self.payload_digest
            object.__setattr__(self, "_payload_ok", ok)
        return ok

    def record_digest(self) -> str:
        """Digest of the whole record (envelope + payload digest).

        Block hashes concatenate these, so every transaction field is
        covered by the chain, not just the payload.
        """
        digest = self._digest
        if digest is None:
            digest = digest_bytes(self._envelope().encode("utf-8"))
            object.__setattr__(self, "_digest", digest)
        return digest

    def _envelope(self) -> str:
        """Canonical JSON of the envelope (every field but the payload,
        metadata as a dict), spliced around the metadata's kept fragment."""
        return _ENVELOPE(*self._envelope_members())

    def wire_json(self) -> str:
        """The record as a chain file holds it: the envelope's members and
        the payload, spliced like ``_envelope``."""
        return _RECORD(*self._envelope_members(), encode_str(self.payload))

    def _envelope_members(self) -> tuple:
        """Each envelope field as canonical JSON, or an int, in
        ``_ENVELOPE_KEYS`` order."""
        return (encode_str(self.tx_id), self.timestamp, _KIND_JSON[self.kind],
                encode_str(self.actor), encode_str(self.payload_digest), self.metadata.fragment())

    _WIRE_KEYS = frozenset({*_ENVELOPE_KEYS, "payload"})

    @classmethod
    def from_dict(cls, data: dict, interned: dict) -> "TransactionRecord":
        if data.keys() != cls._WIRE_KEYS:
            raise ValueError(f"unexpected tx keys {sorted(set(data) ^ cls._WIRE_KEYS)}")
        fields = (data["tx_id"], data["timestamp"], _KIND_OF[data["kind"]], data["actor"],
                  data["payload"], data["payload_digest"],
                  TxMetadata.from_dict(data["metadata"], interned))
        _check_record(*fields)
        return _build_record(*fields, None, None)


_build_record = slot_builder(TransactionRecord)


@dataclass(frozen=True, slots=True)
class LedgerBlock:
    """One committed block: header, records, and the validators' votes.

    The hash recomputed from the header and the records' digests is kept
    on the object after first use, like a record's digests; it takes no
    part in equality or repr, and ``dataclasses.replace`` starts a copy
    without it. Genesis keeps none, since its ``meta`` is a mutable dict.

    ``__post_init__`` checks the header's field types; ``from_dict`` and
    ``Ledger.commit_block`` check them first too, and build through
    ``_build_block``, as records are built through ``_build_record``:
    every block a run commits or an audit imports is built so.
    """

    index: int
    prev_hash: str
    block_hash: str
    timestamp: int
    transactions: tuple[TransactionRecord, ...]
    validator_votes: dict[str, str]
    meta: Optional[dict] = None  # genesis only
    _recomputed: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_block(self.index, self.prev_hash, self.block_hash, self.timestamp,
                     self.validator_votes)
        # A caller's list stays mutable; the kept hash must not follow it.
        object.__setattr__(self, "transactions", tuple(self.transactions))

    def recomputed_hash(self) -> str:
        """``compute_block_hash`` of this block's fields, kept after first
        use unless the block has ``meta``."""
        recomputed = self._recomputed
        if recomputed is None:
            recomputed = compute_block_hash(
                self.index,
                self.prev_hash,
                self.timestamp,
                [tx.record_digest() for tx in self.transactions],
                self.meta,
            )
            if self.meta is None:
                object.__setattr__(self, "_recomputed", recomputed)
        return recomputed

    def wire_json(self) -> str:
        """The block's chain-file line."""
        return "".join(self.wire_parts())

    def wire_parts(self) -> Iterator[str]:
        """``wire_json()`` in pieces, one record at a time: the header, with
        genesis's ``meta`` as one member, spliced around each record's
        ``wire_json``."""
        header = (self.index, encode_str(self.prev_hash), encode_str(self.block_hash),
                  self.timestamp, canonical_json(self.validator_votes))
        if self.meta is None:
            head, tail = _BLOCK_ENDS(*header)
        else:
            head, tail = _GENESIS_ENDS(*header, canonical_json(self.meta))
        yield head + "["
        for i, tx in enumerate(self.transactions):
            if i:
                yield ","
            yield tx.wire_json()
        yield "]" + tail

    _WIRE_KEYS = frozenset(_LINE_KEYS)

    @classmethod
    def from_dict(cls, data: dict, interned: dict) -> "LedgerBlock":
        if data.keys() != cls._WIRE_KEYS and data.keys() != cls._WIRE_KEYS | {"meta"}:
            bad = (set(data) ^ cls._WIRE_KEYS) - {"meta"}
            raise ValueError(f"unexpected block keys {sorted(bad)}")
        header = (data["index"], data["prev_hash"], data["block_hash"], data["timestamp"])
        votes = data["validator_votes"]
        _check_block(*header, votes)
        transactions = tuple([TransactionRecord.from_dict(t, interned) for t in data["transactions"]])
        return _build_block(*header, transactions, votes, data.get("meta"), None)


_build_block = slot_builder(LedgerBlock)


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

    The preimage is the canonical JSON object of these fields, spliced
    from their encodings, with ``meta`` as one member. ``index`` and
    ``timestamp`` must be ints and the rest strs, as a block's fields are.
    """
    digests = encode_array(map(encode_str, tx_digests))
    if meta is None:
        preimage = _BLOCK(index, encode_str(prev_hash), timestamp, digests)
    else:
        preimage = _GENESIS(index, encode_str(prev_hash), timestamp, digests, canonical_json(meta))
    return digest_bytes(preimage.encode("utf-8"))


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


def _id(value) -> str:
    """``value``, a world-state key: a str, or the state would not encode."""
    if type(value) is not str:
        raise TypeError(f"id {value!r} is not a string")
    return value


def _apply_tx_to_state(state: WorldState, tx: TransactionRecord) -> None:
    """Fold one record into ``state``; a body it cannot fold raises."""
    kind = tx.kind
    if kind == _DECISION:
        return  # intent only; it does not mutate state, so it is not parsed
    body = tx.body()
    if kind in _POLICY_KINDS:
        pid = _id(body["policy_id"])
        state.policies[pid] = body
        state.policy_history.setdefault(pid, []).append(body)
        cid = body.get("contract_id")
        if cid:
            state.contracts[_id(cid)] = {
                "version": body.get("contract_version", 1),
                "lifecycle": "active",
            }
    elif kind == _CHECK:
        if body.get("warning"):
            return
        ep = _id(body["endpoint_id"])
        state.compliance.setdefault(ep, {})[_id(body["rule_id"])] = {
            "verdict": body["verdict"],
            "checked_at": body["checked_at"],
        }
    elif kind == _RESULT:
        if body["outcome"] != "success":
            return
        arm = _id(tx.metadata.arm)
        attrs = state.endpoint_attrs.setdefault(arm, {}).setdefault(
            _id(body["endpoint_id"]), {}
        )
        for attr, value in body.get("applied", {}).items():
            attrs[attr] = value
    elif kind == _ALERT:
        state.alerts.append(
            {"report_id": body.get("report_id"), "affected": body.get("affected", [])}
        )
        for ep in body.get("affected", []):
            state.endpoint_attrs.setdefault("automated", {}).setdefault(_id(ep), {})[
                "infected"
            ] = True


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

    def require(self) -> None:
        """Raise CorruptChainError unless the chain verified."""
        if not self.ok:
            raise CorruptChainError(
                f"chain corrupt at block {self.first_bad_index} ({self.reason})"
            )


# --------------------------------------------------------------------------
# Validation (shared by submission and the block vote)


def _planned_settings(body: dict) -> list[tuple[str, str, object]]:
    """(endpoint, attribute, value) writes implied by a decision payload:
    those its params alone fix, as no endpoint has been touched yet. Every
    item must name its endpoint, whether or not its action writes."""
    settings = []
    for item in body.get("planned", []):
        endpoint = item["endpoint_id"]
        for attr, value in action_writes(item.get("kind"), item.get("params", {})).items():
            settings.append((endpoint, attr, value))
    return settings


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
    recompute, or when a body lacks a field the checks read or holds one
    of the wrong type; that is corruption, not a validation outcome.
    """
    if not tx.payload_intact():
        raise MalformedTransaction(f"tx {tx.tx_id}: payload digest mismatch")

    kind = tx.kind
    if kind not in authorization.get(tx.actor, _NO_KINDS):
        return TxVerdict(False, "authorization")

    if kind not in _BODY_CHECKED:
        return ACCEPT
    try:
        return _check_body(kind, tx.body(), state, pending)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedTransaction(f"tx {tx.tx_id}: malformed body ({exc!r})") from exc


def _check_body(kind, body, state: WorldState, pending: list) -> TxVerdict:
    """``validate_transaction``'s checks of a policy or decision body."""
    required = _active_required_values(state, skip_policy=body.get("policy_id"))

    if kind in _POLICY_KINDS:
        _id(body["policy_id"])  # live state folds the policy by it at commit,
        if body.get("contract_id"):  # and the contract the policy names by its id
            _id(body["contract_id"])
        # A new document must not demand a value another active policy forbids.
        for rule in body.get("rules", []):
            for cond in rule.get("condition", []):
                if cond.get("comparator") != "equals":
                    continue
                prior = required.get(cond["attribute"])
                if prior is not None and prior[0] != cond["value"]:
                    return TxVerdict(False, "policy_conflict")
    elif kind == _DECISION:
        planned = _planned_settings(body)
        for _, attr, value in planned:
            prior = required.get(attr)
            if prior is not None and prior[0] != value:
                return TxVerdict(False, "policy_conflict")
        # Conflicting pending writes to the same endpoint attribute.
        mine = {(ep, attr): val for ep, attr, val in planned}
        for other in pending:
            if other.kind != _DECISION:
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
        if verdict.accepted:
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
        pending = tuple(self.pending)
        vote = self._validator_vote(pending)
        if vote != VOTE_ACCEPT:
            raise ConsensusFailure(f"validator rejected pending block: {vote}")
        votes = {vid: vote for vid in self.validator_ids}

        prev = self.blocks[-1]
        index, prev_hash = prev.index + 1, prev.block_hash
        block_hash = compute_block_hash(index, prev_hash, timestamp, [tx.record_digest() for tx in pending])
        _check_block(index, prev_hash, block_hash, timestamp, votes)
        # The hash was just computed from these fields: keep it.
        block = _build_block(index, prev_hash, block_hash, timestamp, pending, votes, None, block_hash)
        self.blocks.append(block)
        for tx in pending:
            self._seen_tx_ids.add(tx.tx_id)
            # Validation reads only the active policies from live state.
            if tx.kind in _POLICY_KINDS:
                _apply_tx_to_state(self._state, tx)
        self.pending.clear()
        self._admitted.clear()
        return block

    def _validator_vote(self, pending: tuple[TransactionRecord, ...]) -> str:
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
    """Check every payload digest, block hash, link and vote set.

    Block hashes are recomputed once per block object, and each record's
    payload check and record digest once per record object, all from
    frozen fields; links, votes and indices, and each comparison with a
    stored hash, are checked on every call. Genesis, whose ``meta`` is
    mutable, has its hash recomputed on every call.

    Returns Ok, or the earliest violated block and the failed check:
    digest (payload), hash (block hash), link (prev_hash), votes, index,
    or format (an unparseable or mistyped import line, or a genesis whose
    ``meta`` is not a dict or whose validators are not a list of strs).
    """
    if not chain:
        return ChainVerdict(False, 0, "format")
    genesis = chain[0]
    meta = genesis.meta
    validators = meta.get("validators", []) if type(meta) is dict else None
    if (genesis.index != 0 or genesis.prev_hash != ZERO_DIGEST or type(validators) is not list
            or not all(type(v) is str for v in validators)):
        return ChainVerdict(False, 0, "format")
    # Every validator, and no other id, voted to accept.
    expected_votes = dict.fromkeys(validators, VOTE_ACCEPT)

    for pos, block in enumerate(chain):
        if isinstance(block, CorruptBlock):
            return ChainVerdict(False, pos, "format")
        if block.index != pos:
            return ChainVerdict(False, pos, "index")
        for tx in block.transactions:
            if not tx.payload_intact():
                return ChainVerdict(False, pos, "digest")
        if block.recomputed_hash() != block.block_hash:
            return ChainVerdict(False, pos, "hash")
        if block.validator_votes != expected_votes:
            return ChainVerdict(False, pos, "votes")
        if pos > 0 and block.prev_hash != chain[pos - 1].block_hash:
            return ChainVerdict(False, pos, "link")
    return ChainVerdict(True)


@collector_paused
def replay_state(chain: list[LedgerBlock]) -> WorldState:
    """Fold every transaction in block/tx order into a fresh WorldState.

    Pure: the same chain always replays to the same state. Refuses
    chains that do not verify, and a verifying chain holding a body that
    cannot be folded, naming its block.
    """
    verify_chain(chain).require()
    state = WorldState()
    for block in chain:
        for tx in block.transactions:
            try:
                _apply_tx_to_state(state, tx)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CorruptChainError(
                    f"chain corrupt at block {block.index} (body of {tx.tx_id}: {exc!r})"
                ) from exc
    return state


@dataclass(frozen=True)
class HistoryFilter:
    kind: Optional[TxKind] = None
    actor: Optional[str] = None
    policy_id: Optional[str] = None
    endpoint_id: Optional[str] = None
    time_range: Optional[tuple[int, int]] = None  # inclusive ticks


_EVERYTHING = HistoryFilter()


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
    verify_chain(chain).require()
    txs = [tx for block in chain for tx in block.transactions]
    return txs if f == _EVERYTHING else [tx for tx in txs if _tx_matches(tx, f)]


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
    """Write the chain as newline-delimited canonical JSON blocks.

    Each block's line is written one record at a time, as ``wire_parts``
    builds it, to a sibling temporary file that then replaces ``path``; if
    any block fails to encode, ``path`` keeps what it held and the
    temporary file is removed.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as out:
            for block in chain:
                out.writelines(block.wire_parts())
                out.write("\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


@collector_paused
def import_chain(path: str | Path) -> list[LedgerBlock]:
    """Read a chain file leniently, one line at a time: unparseable lines
    become CorruptBlock entries so verification can still report the
    earliest bad position. Positions count every line, blank ones too.

    Each line is parsed by ``decode_json``, which leaves any line its scan
    does not cover (a CRLF ending, say, or an error) to ``json.loads``.

    Metadata is interned for this call only: records whose metadata reads
    the same, type for type, share one ``TxMetadata`` object, and with it
    one fragment.
    """
    chain: list[LedgerBlock] = []
    interned: dict[tuple, TxMetadata] = {}
    with open(path, "rb") as lines:
        for pos, line in enumerate(lines):
            if not line or line.isspace():
                continue
            try:
                chain.append(LedgerBlock.from_dict(decode_json(line.decode("utf-8")), interned))
            except Exception:
                chain.append(CorruptBlock.at(pos))
    return chain
