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
object computes its payload check, its record digest and a result's
checked reading once, on first use, and keeps them. Likewise, block
hashes are recomputed once per block object; links, votes and indices
are checked on every call. Genesis is the exception: its ``meta`` is a
mutable dict, so its hash is recomputed on every call. A record digest's
preimage is spliced around its metadata's canonical JSON fragment, which
each ``TxMetadata`` object encodes once.
Metadata field types are checked when it is built, so equal metadata
encodes alike; an import interns it by its typed field values, one object
per distinct value, so a chain with a handful of distinct metadata values
encodes only that many fragments.

Chain files are newline-delimited: one canonical-JSON block per line.
The genesis block records the hash function name, the export format
version, the validator set, and the run's config digest; all of it is
covered by the genesis block hash. Record, block and metadata fields are
checked against their tables (``SPEC``) once, however the object is
built; an import reads each line in one generated call that checks every
header, record and metadata field before it uses it. A field that breaks
its table raises ``TypeError`` (``Owner.field must be ...``), which an
import reads as a corrupt line: ``format``, exit 1. Every record and
block a run commits or an import reads is built once, slot by slot
(``canonical.slot_builder``), after that check. So each record, block
and block-hash preimage has one encoder: a splice of
its fields' encodings (genesis's ``meta`` is one) and its metadata's kept
fragment, by functions ``canonical.object_splicer`` generates at import.
Export writes each line one record at a time; import reads one line at a
time. Lines and payloads are parsed by
``canonical.decode_json``, one C scan with ``json.loads`` as its
fallback, so every value read and every line refused is ``json.loads``'s.

A committed chain has one verified walk, ``query_history``, which replay
and ``metrics.samples_from_chain`` fold over. Every reader of a body
(validation, replay, samples, the query filters) checks it where it reads
it against its kind's one table, ``BODY_SPECS``, so all refuse alike a
body that does not fit, naming its block. A result keeps its reading once
its body fits, so an audit parses each result body once.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .canonical import (
    HASH_FUNCTION_NAME,
    ZERO_DIGEST,
    FieldSpec,
    canonical_json,
    collector_paused,
    compile_fields,
    compile_reader,
    compile_values,
    decode_json,
    digest_bytes,
    encode_array,
    encode_str,
    object_splicer,
    slot_builder,
)
from .errors import (
    ConsensusFailure,
    CorruptChainError,
    InputError,
    MalformedTransaction,
)
from .policy import ACTION_KINDS, ACTION_PARAMS, action_writes

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


class TxKind(str, Enum):
    POLICY_DEPLOY = "policy_deploy"
    POLICY_UPDATE = "policy_update"
    COMPLIANCE_CHECK = "compliance_check"
    ENFORCEMENT_DECISION = "enforcement_decision"
    ENFORCEMENT_RESULT = "enforcement_result"
    THREAT_ALERT = "threat_alert"


#: Each kind's value as canonical JSON.
_KIND_JSON = {kind: encode_str(kind.value) for kind in TxKind}

#: The kinds whose bodies validation reads, to check them against active
#: policy and pending writes.
_BODY_CHECKED = frozenset({TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE, TxKind.ENFORCEMENT_DECISION})

#: What reading a body may raise: a payload that does not decode, or a body
#: that does not fit its table. Validation and the chain's readers catch it.
_BODY_ERRORS = (RecursionError, TypeError, ValueError)

# Kinds as module globals for per-record loops: an attribute read of the
# enum costs more.
_POLICY_KINDS = (TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE)
_CHECK = TxKind.COMPLIANCE_CHECK
_DECISION = TxKind.ENFORCEMENT_DECISION
_RESULT = TxKind.ENFORCEMENT_RESULT
_ALERT = TxKind.THREAT_ALERT
_NO_KINDS: frozenset = frozenset()


#: Static actor -> kinds map that every ledger enforces. The
#: contract engine is the only component allowed to write check/decision
#: records; the analyst-team baseline writes its own decisions/results so
#: both arms are auditable from one chain.
AUTHORIZATION: dict[str, frozenset[TxKind]] = {
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

    Its fields are checked against ``SPEC`` when it is built, however it
    is built, so equal objects encode alike; ``technique_ids`` may be a
    list or a tuple, and is kept as a tuple.

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

    SPEC = {
        "threat_type": FieldSpec("text", required=True, null=True),
        "threat_actor": FieldSpec("text", required=True, null=True),
        "technique_ids": FieldSpec("strings", required=True),
        "recommended_change": FieldSpec("text", required=True, null=True),
        "priority": FieldSpec("int", 0, 4, required=True),
        "arm": FieldSpec("str", of=("automated", "human"), required=True),
    }

    def __post_init__(self):
        _metadata_check(self.threat_type, self.threat_actor, self.technique_ids,
                        self.recommended_change, self.priority, self.arm)
        # A caller's list stays mutable; record digests must not follow it.
        object.__setattr__(self, "technique_ids", tuple(self.technique_ids))

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


@dataclass(frozen=True, slots=True)
class TransactionRecord:
    """One audited event: a policy deploy/update, a compliance check, an
    enforcement decision or per-endpoint result, or a threat alert.

    The two digests and a result's reading (``_result_reading``) are kept
    on the object after first use; they take no part in equality, repr or
    the wire format, and ``dataclasses.replace`` starts a copy without them.
    The record digest's preimage embeds the metadata's kept fragment, so
    records sharing a ``TxMetadata`` object encode it once between them.

    ``__post_init__`` checks the fields against ``SPEC``; ``create`` and
    the chain-line reader check them too, and build through
    ``_build_record`` (``canonical.slot_builder``), which sets each of the
    ten slots once, to what ``__init__`` would set it: every record a run
    writes or an audit imports is built so.
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
    _reading: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    SPEC = {
        "tx_id": FieldSpec("text", required=True),
        "timestamp": FieldSpec("int", unit="ms", required=True),
        "kind": FieldSpec("enum", of=TxKind, required=True),
        "actor": FieldSpec("text", required=True),
        "payload": FieldSpec("text", required=True),
        "payload_digest": FieldSpec("text", required=True),
        "metadata": FieldSpec("record", of=TxMetadata, required=True),
    }

    def __post_init__(self):
        _record_check(self.tx_id, self.timestamp, self.kind, self.actor, self.payload,
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
        _record_check(*fields)
        # The digest is computed here from this payload: it is intact.
        tx = _build_record(*fields, True, None)
        if kind is _RESULT:
            try:  # a result's reading is read from the body it encodes
                _result_reading(tx, _body(tx, body))
            except _BODY_ERRORS:
                pass  # none is kept: each reader parses the payload and refuses it
        return tx

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


_build_record = slot_builder(TransactionRecord)


@dataclass(frozen=True, slots=True)
class LedgerBlock:
    """One committed block: header, records, and the validators' votes.

    The hash recomputed from the header and the records' digests is kept
    on the object after first use, like a record's digests; it takes no
    part in equality or repr, and ``dataclasses.replace`` starts a copy
    without it. Genesis keeps none, since its ``meta`` is a mutable dict.

    ``__post_init__`` checks the fields against ``SPEC``; the chain-line
    reader and ``Ledger.commit_block`` check them first too, and build
    through ``_build_block``, as records are built through
    ``_build_record``: every block a run commits or an audit imports is
    built so. Genesis's ``meta`` is checked against ``GENESIS_META`` by
    ``verify_chain``.
    """

    index: int
    prev_hash: str
    block_hash: str
    timestamp: int
    transactions: tuple[TransactionRecord, ...]
    validator_votes: dict[str, str]
    meta: Optional[dict] = None  # genesis only
    _recomputed: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    SPEC = {
        "index": FieldSpec("int", required=True),
        "prev_hash": FieldSpec("text", required=True),
        "block_hash": FieldSpec("text", required=True),
        "timestamp": FieldSpec("int", unit="ms", required=True),
        "transactions": FieldSpec("list", 0, of=FieldSpec("record", of=TransactionRecord), required=True),
        "validator_votes": FieldSpec("object", of={"*": FieldSpec("any")}, required=True),
        "meta": FieldSpec("any"),
    }

    def __post_init__(self):
        _block_check(self.index, self.prev_hash, self.block_hash, self.timestamp, self.transactions,
                     self.validator_votes, self.meta)
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


_build_block = slot_builder(LedgerBlock)

#: The genesis block's ``meta``.
GENESIS_META = {name: FieldSpec("strings" if name == "validators" else "text", required=True)
                for name in ("format", "hash_function", "validators", "config_digest")}


def _wire_error(path: str, text: str) -> TypeError:
    """A chain field's error: a TypeError naming ``Owner.field``, which an
    import reads as a corrupt line, never a schema error."""
    return TypeError(f"{path} {text}")


# Every check of a chain field is generated from the three tables: one
# check per class of the values of an object being built, and one reader
# per class, compiled on first use, which checks a wire dict's fields
# before using them, interns metadata by its checked values and builds
# records and blocks slot by slot. Types are exact and key sets strict:
# the splices encode no other type, and digests cover the value as read,
# so reading false or 0.0 as 0 (equal keys too), or a renamed key as its
# default, would let a changed chain file verify.
_metadata_check = compile_values(TxMetadata, _wire_error)
_record_check = compile_values(TransactionRecord, _wire_error)
_block_check = compile_values(LedgerBlock, _wire_error)
_meta_check = compile_fields(GENESIS_META, "genesis meta check", _wire_error)
_READS = {TxMetadata: "memo.get(_k := ({},)) or memo.setdefault(_k, TxMetadata(*_k))",
          TransactionRecord: "_build_record({})", LedgerBlock: "_build_block({})"}


@functools.cache
def _reader(cls: type):
    return compile_reader(cls, _READS, _wire_error, TxMetadata=TxMetadata, _build_record=_build_record,
                          _build_block=_build_block)


# ``from_dict(data, interned)``: the object one wire dict holds.
TxMetadata.from_dict = staticmethod(lambda data, interned: _reader(TxMetadata)(data, interned))
TransactionRecord.from_dict = staticmethod(lambda data, interned: _reader(TransactionRecord)(data, interned))
LedgerBlock.from_dict = staticmethod(lambda data, interned: _reader(LedgerBlock)(data, interned))


_ANY, _IDS, _TEXT, _ID = FieldSpec("any"), FieldSpec("strings"), FieldSpec("text"), FieldSpec("text", required=True)


def _items(**spec: FieldSpec) -> FieldSpec:
    """A list of objects of ``spec``'s fields and any other field."""
    return FieldSpec("list", 0, of=FieldSpec("object", of={**spec, "*": _ANY}))


#: Each kind's body: every field some reader reads, with its type, and
#: ``"*"`` for the fields no reader reads. Validation reads policy and
#: decision bodies; replay every kind but decisions; samples policies and
#: results; and ``query_history``'s filters every kind.
BODY_SPECS = {
    TxKind.POLICY_DEPLOY: {
        "policy_id": _ID, "contract_id": FieldSpec("text", null=True), "contract_version": FieldSpec("int"),
        "rules": _items(rule_id=_ID, condition=_items(attribute=_ID, comparator=_TEXT,
                                                      value=FieldSpec("any", required=True))), "*": _ANY},
    TxKind.COMPLIANCE_CHECK: {
        "endpoint_id": _ID, "rule_id": _ID, "policy_id": _TEXT,
        "verdict": FieldSpec("str", of=("compliant", "non_compliant"), required=True),
        "checked_at": FieldSpec("int", unit="ms", required=True), "*": _ANY},
    TxKind.ENFORCEMENT_DECISION: {
        "policy_id": _TEXT, "matched_policy_ids": _IDS, "target_endpoints": _IDS,
        "planned": _items(endpoint_id=_ID, kind=FieldSpec("str", of=ACTION_KINDS, required=True),
                          params=FieldSpec("params", of=ACTION_PARAMS, required=True)), "*": _ANY},
    TxKind.ENFORCEMENT_RESULT: {
        "endpoint_id": _ID, "outcome": FieldSpec("str", of=("success", "failure"), required=True),
        # An integer a float holds: samples reads it as one.
        "duration_ms": FieldSpec("int", -sys.float_info.max, sys.float_info.max, "ms", required=True),
        "rule_id": FieldSpec("text", null=True), "applied": FieldSpec("object", of={"*": _ANY}), "*": _ANY},
    TxKind.THREAT_ALERT: {"report_id": FieldSpec("text", null=True), "affected": _IDS, "*": _ANY},
}
_BODY_CHECKS = {kind: compile_fields(spec, f"{kind.value} body check", _wire_error)
                for kind, spec in BODY_SPECS.items()}
BODY_SPECS[TxKind.POLICY_UPDATE] = BODY_SPECS[TxKind.POLICY_DEPLOY]
_BODY_CHECKS[TxKind.POLICY_UPDATE] = _BODY_CHECKS[TxKind.POLICY_DEPLOY]


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
        return dict(vars(self))


def _body(tx: TransactionRecord, body=None) -> dict:
    """``tx``'s body (by default its parsed payload) once it fits its kind's
    table in ``BODY_SPECS``, through which every reader reads it; a check
    whose ``warning`` is set, which replay skips, is not checked."""
    if body is None:
        body = tx.body()
    kind = tx.kind
    if kind is not _CHECK or type(body) is not dict or not body.get("warning"):
        _BODY_CHECKS[kind](body, "body")
    return body


def _result_reading(tx: TransactionRecord, body: Optional[dict] = None) -> tuple:
    """A result's ``(endpoint_id, succeeded, duration_ms, rule_id)``, read
    from ``body``, which fits the result table, or else from ``_body(tx)``,
    and kept on ``tx``."""
    reading = tx._reading
    if reading is None:
        if body is None:
            body = _body(tx)
        reading = body["endpoint_id"], body["outcome"] == "success", float(body["duration_ms"]), body.get("rule_id")
        object.__setattr__(tx, "_reading", reading)
    return reading


def _apply_tx_to_state(state: WorldState, tx: TransactionRecord) -> None:
    """Fold one record into ``state``; a body that does not fit its table raises."""
    kind = tx.kind
    if kind is _DECISION:
        return  # intent only; it does not mutate state, so it is not parsed
    body = _body(tx)
    if kind is _RESULT:
        endpoint_id, succeeded, _, _ = _result_reading(tx, body)
        if succeeded:
            state.endpoint_attrs.setdefault(tx.metadata.arm, {}).setdefault(endpoint_id, {}).update(
                body.get("applied", {}))
    elif kind is _CHECK:
        if not body.get("warning"):
            state.compliance.setdefault(body["endpoint_id"], {})[body["rule_id"]] = {
                "verdict": body["verdict"], "checked_at": body["checked_at"]}
    elif kind is _ALERT:
        affected = body.get("affected", [])
        state.alerts.append({"report_id": body.get("report_id"), "affected": affected})
        for ep in affected:
            state.endpoint_attrs.setdefault("automated", {}).setdefault(ep, {})["infected"] = True
    else:  # a policy deploy or update
        pid, cid = body["policy_id"], body.get("contract_id")
        state.policies[pid] = body
        state.policy_history.setdefault(pid, []).append(body)
        if cid:
            state.contracts[cid] = {"version": body.get("contract_version", 1), "lifecycle": "active"}


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
    """(endpoint, attribute, value) writes implied by a decision body that
    fits its table: those its params alone fix, as no endpoint has been
    touched yet."""
    return [(item["endpoint_id"], attr, value) for item in body.get("planned", [])
            for attr, value in action_writes(item["kind"], item["params"]).items()]


def _pins(body: dict) -> list[tuple[str, object]]:
    """(attribute, value) of each equals-condition of a policy body that
    fits its table, in rule and condition order."""
    return [(cond["attribute"], cond["value"]) for rule in body.get("rules", [])
            for cond in rule.get("condition", []) if cond.get("comparator") == "equals"]


def _active_required_values(state: WorldState, skip_policy: Optional[str] = None):
    """attribute -> (value, policy_id) for every equals-condition of every
    active policy version."""
    return {attr: (value, pid) for pid, doc in state.policies.items() if pid != skip_policy
            for attr, value in _pins(doc)}


def validate_transaction(
    tx: TransactionRecord,
    state: WorldState,
    pending: list[TransactionRecord],
) -> TxVerdict:
    """Deterministic admission checks: authorization, consistency with
    active policy, and absence of conflicting pending writes.

    Raises MalformedTransaction when the payload digest does not
    recompute, or when a policy or decision body does not fit its table
    (``BODY_SPECS``) or nests too deep to decode; that is corruption, not
    a validation outcome.
    """
    if not tx.payload_intact():
        raise MalformedTransaction(f"tx {tx.tx_id}: payload digest mismatch")

    kind = tx.kind
    if kind not in AUTHORIZATION.get(tx.actor, _NO_KINDS):
        return TxVerdict(False, "authorization")

    if kind not in _BODY_CHECKED:
        return ACCEPT
    # A document or plan must not require a value another active policy
    # pins otherwise, nor a plan set one a pending plan sets otherwise.
    other = tx  # the record whose body is read, which a malformed body names
    try:
        body = _body(tx)
        required = _active_required_values(state, skip_policy=body.get("policy_id"))
        if kind in _POLICY_KINDS:
            planned, writes = [], _pins(body)
        else:
            planned = _planned_settings(body)
            writes = [(attr, value) for _, attr, value in planned]
        if any(attr in required and required[attr][0] != value for attr, value in writes):
            return TxVerdict(False, "policy_conflict")
        mine = {(ep, attr): val for ep, attr, val in planned}
        for other in pending if kind is _DECISION else ():
            if other.kind is _DECISION and any(mine.get((ep, attr), val) != val
                                               for ep, attr, val in _planned_settings(_body(other))):
                return TxVerdict(False, "pending_conflict")
    except _BODY_ERRORS as exc:
        raise MalformedTransaction(f"tx {other.tx_id}: malformed body ({exc!r})") from exc
    return ACCEPT


# --------------------------------------------------------------------------
# Ledger


class Ledger:
    """Single-writer, append-only chain with a unanimous validator vote.

    The happy path is submit_transaction() per event then commit_block()
    per decision cycle. Committed blocks are immutable; reads (verify,
    query, replay) operate on the committed prefix only.
    """

    def __init__(self, validators: int = 3, config_digest: str = ""):
        if validators < 1:
            raise InputError("at least one validator required")
        self.validator_ids = [f"validator-{i}" for i in range(validators)]
        meta = {
            "format": CHAIN_FORMAT,
            "hash_function": HASH_FUNCTION_NAME,
            "validators": self.validator_ids,
            "config_digest": config_digest,
        }
        # Genesis is stamped at tick 0, where every run's clock starts.
        genesis_hash = compute_block_hash(0, ZERO_DIGEST, 0, [], meta)
        genesis = LedgerBlock(
            index=0,
            prev_hash=ZERO_DIGEST,
            block_hash=genesis_hash,
            timestamp=0,
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
        verdict = validate_transaction(tx, self._state, self.pending)
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
        _block_check(index, prev_hash, block_hash, timestamp, pending, votes, None)
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
                    verdict = validate_transaction(tx, self._state, seen)
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
    ``meta`` does not fit ``GENESIS_META``).
    """
    if not chain:
        return ChainVerdict(False, 0, "format")
    genesis = chain[0]
    try:
        _meta_check(genesis.meta, "meta")
    except TypeError:
        return ChainVerdict(False, 0, "format")
    if genesis.index != 0 or genesis.prev_hash != ZERO_DIGEST:
        return ChainVerdict(False, 0, "format")
    # Every validator, and no other id, voted to accept.
    expected_votes = dict.fromkeys(genesis.meta["validators"], VOTE_ACCEPT)

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


def _unreadable(chain: list[LedgerBlock], tx: TransactionRecord, exc: Exception) -> CorruptChainError:
    """The error of a verifying ``chain`` whose record ``tx`` holds a body
    a reader cannot read, naming the block that holds it."""
    index = next(block.index for block in chain if any(t is tx for t in block.transactions))
    return CorruptChainError(f"chain corrupt at block {index} (body of {tx.tx_id}: {exc!r})")


@collector_paused
def replay_state(chain: list[LedgerBlock]) -> WorldState:
    """Fold every transaction in block/tx order into a fresh WorldState.

    Pure: the same chain always replays to the same state. Refuses what
    ``query_history`` refuses, and a body it cannot fold, naming its block.
    """
    records, state = query_history(chain), WorldState()
    try:
        for tx in records:
            _apply_tx_to_state(state, tx)
    except _BODY_ERRORS as exc:
        raise _unreadable(chain, tx, exc) from exc
    return state


#: Per kind, the body fields that name a policy and an endpoint, which
#: ``query_history``'s filters read: an id, or a list of ids.
_NAMES = {TxKind.POLICY_DEPLOY: ("policy_id", None), TxKind.POLICY_UPDATE: ("policy_id", None),
          _CHECK: ("policy_id", "endpoint_id"), _DECISION: ("matched_policy_ids", "target_endpoints"),
          _RESULT: (None, "endpoint_id"), _ALERT: (None, "affected")}


def query_history(chain: list[LedgerBlock], *, kind: Optional[TxKind] = None, actor: Optional[str] = None,
                  policy_id: Optional[str] = None, endpoint_id: Optional[str] = None,
                  time_range: Optional[tuple[int, int]] = None) -> list[TransactionRecord]:
    """All and only matching records, in commit order, ``time_range``'s
    ticks inclusive: the one walk of a committed chain, which replay and
    samples fold over. Refuses a chain that does not verify. A policy or
    endpoint filter reads every body of the records left, through
    ``_body``, and refuses one that does not fit its table, naming its
    block; it matches a body whose field in ``_NAMES`` is or lists the id."""
    verify_chain(chain).require()
    txs = [tx for block in chain for tx in block.transactions]
    if kind is not None or actor is not None or time_range is not None:
        txs = [tx for tx in txs
               if not (kind is not None and tx.kind != kind or actor is not None and tx.actor != actor
                       or time_range is not None and not time_range[0] <= tx.timestamp <= time_range[1])]
    if policy_id is None and endpoint_id is None:
        return txs
    matched = []
    try:
        for tx in txs:
            body = _body(tx)
            if all(wanted is None or wanted in (named if type(named) is list else [named])
                   for wanted, named in zip((policy_id, endpoint_id), map(body.get, _NAMES[tx.kind]))):
                matched.append(tx)
    except _BODY_ERRORS as exc:
        raise _unreadable(chain, tx, exc) from exc
    return matched


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
    read = _reader(LedgerBlock)
    with open(path, "rb") as lines:
        for pos, line in enumerate(lines):
            if not line or line.isspace():
                continue
            try:
                chain.append(read(decode_json(line.decode("utf-8")), interned))
            except Exception:
                chain.append(CorruptBlock.at(pos))
    return chain
