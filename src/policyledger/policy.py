"""Policy documents, executable compliance rules, and conflict resolution.

Documents are structured JSON (one per file) and compile into predicate
rules over the closed endpoint attribute vocabulary. Rules that reference
an unknown attribute raise AmbiguityError at load time: an ambiguous
policy is a surfaced failure, never a silent skip. A condition whose
value the comparator cannot take, an unknown target selector, or an
``apply_patch`` level that is not an integer raises SchemaError at load
time rather than failing mid-run.

Each rule compiles its condition once, when the rule is built, into one
filter over a sequence of attribute mappings, ``PolicyRule.failing``: the
only evaluator of a condition. It returns the mappings that fail the rule,
scanning them afresh on every call in one loop, with no Python call per
mapping. ``PolicyRule.is_compliant`` is that filter over one mapping. One
comparator table serves the filter and the ``COMPARATORS`` vocabulary, so
the two cannot disagree.

``action_writes`` is the one definition of what each action kind writes
to an endpoint: the simulator applies it, and the ledger checks a planned
action's writes against active policy and pending decisions.

Conflicts between rules that pin the same attribute to different values
are resolved by a weighted matrix: score = 2 * regulatory_importance +
severity_weight, ties to the lexicographically smaller rule id.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from .canonical import canonical_json
from .errors import AmbiguityError, InputError, SchemaError

#: Closed attribute set; identical to the simulated endpoint's fields.
ENDPOINT_ATTRIBUTES = (
    "smbv1_enabled",
    "rdp_port",
    "firewall_rules",
    "proxy_outbound_blocked",
    "isolated",
    "patch_level",
    "infected",
)

#: Comparator name -> test(observed, value).
_COMPARE: dict[str, Callable[[object, object], bool]] = {
    "equals": operator.eq,
    "not_equals": operator.ne,
    "lt": operator.lt,
    "gt": operator.gt,
    "in": lambda observed, value: observed in value,
}

COMPARATORS = tuple(_COMPARE)

#: Attributes that ``lt``/``gt`` may order: the integer-valued ones.
ORDERED_ATTRIBUTES = ("rdp_port", "patch_level")

ACTION_KINDS = (
    "disable_smbv1",
    "set_rdp_port",
    "update_firewall_rule",
    "update_proxy_rule",
    "isolate_endpoint",
    "revoke_access",
    "update_permissions",
    "apply_patch",
    "update_ids_params",
)


def action_writes(kind: str, params: dict, fields: Optional[dict] = None) -> dict:
    """{attribute: value} that an action of ``kind`` writes, in write order.

    ``fields`` is the endpoint's current field mapping; only the
    firewall-rule append and ``apply_patch`` without a ``level`` (one above
    the current patch level) read it. Without it, the result holds every
    write the params alone fix. Kinds with no modeled attribute
    (revoke_access, update_permissions, update_ids_params) write nothing.
    """
    if kind == "disable_smbv1":
        return {"smbv1_enabled": False}
    if kind == "set_rdp_port":
        return {"rdp_port": int(params["port"])}
    if kind == "update_proxy_rule":
        return {"proxy_outbound_blocked": bool(params.get("blocked", True))}
    if kind == "isolate_endpoint":
        return {"isolated": bool(params.get("isolated", True))}
    writes: dict = {}
    if kind == "update_firewall_rule":
        rule = [str(params[key]) for key in ("direction", "target", "verdict")]
        if fields is not None:
            writes["firewall_rules"] = [list(r) for r in fields["firewall_rules"]] + [rule]
        # An outbound deny-all is what "outbound blocked" means here.
        if rule == ["outbound", "*", "deny"]:
            writes["proxy_outbound_blocked"] = True
    elif kind == "apply_patch":
        if "level" in params:
            writes["patch_level"] = int(params["level"])
        elif fields is not None:
            writes["patch_level"] = fields["patch_level"] + 1
    return writes


TECHNIQUE_ID_RE = re.compile(r"^T\d{4}(\.\d{3})?$")


@dataclass(frozen=True)
class EnforcementActionSpec:
    """One remediation: an action kind plus kind-specific params and a
    target selector ("all", explicit endpoint ids, or "non_compliant")."""

    kind: str
    params: dict = field(default_factory=dict)
    target_selector: object = "non_compliant"

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise InputError(f"unknown action kind {self.kind!r}")
        if self.kind == "set_rdp_port":
            port = self.params.get("port")
            if not isinstance(port, int) or not 1 <= port <= 65535:
                raise InputError(f"set_rdp_port requires port in 1..65535, got {port!r}")
        if self.kind == "apply_patch" and "level" in self.params:
            level = self.params["level"]
            if not isinstance(level, int) or isinstance(level, bool):
                raise InputError(f"apply_patch level must be an integer, got {level!r}")
        if self.kind == "update_firewall_rule":
            for key in ("direction", "target", "verdict"):
                if key not in self.params:
                    raise InputError(f"update_firewall_rule missing param {key!r}")
        selector = self.target_selector
        if selector not in ("all", "non_compliant") and not (
            isinstance(selector, list) and all(isinstance(ep, str) for ep in selector)
        ):
            raise InputError(
                f"target_selector must be 'all', 'non_compliant' or a list of "
                f"endpoint ids, got {selector!r}"
            )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params, "target_selector": self.target_selector}


def _comparator(name: str) -> Callable[[object, object], bool]:
    """The test for comparator ``name``; an unknown name gives a test that
    raises InputError when evaluated, not when the condition is built."""
    if name in _COMPARE:
        return _COMPARE[name]

    def unknown(observed, value):
        raise InputError(f"unknown comparator {name!r}")

    return unknown


def _compile(conditions: Iterable["Condition"]) -> Callable[[Iterable[dict]], list[dict]]:
    """One filter for a conjunction: the mappings, in order, for which some
    comparison fails, a missing attribute reading as None. Each mapping's
    comparisons run in condition order and stop at the first that fails."""
    tests = tuple((c.attribute, _comparator(c.comparator), c.value) for c in conditions)

    def failing(rows: Iterable[dict]) -> list[dict]:
        out = []
        for row in rows:
            for attribute, compare, value in tests:
                if not compare(row.get(attribute), value):
                    out.append(row)
                    break
        return out

    return failing


@dataclass(frozen=True)
class Condition:
    attribute: str
    comparator: str
    value: object

    def to_dict(self) -> dict:
        return {"attribute": self.attribute, "comparator": self.comparator, "value": self.value}


@dataclass(frozen=True)
class PolicyRule:
    """Executable encoding of one policy condition.

    The condition is a conjunction of attribute comparisons; an endpoint
    is compliant with the rule when every comparison holds. The condition
    compiles once, at construction, into ``_check``, the filter that
    ``failing`` calls once per fleet over the shared comparator table; its
    conflict rank and pinned values are computed then too, for
    ``resolve_conflicts``. ``dataclasses.replace`` compiles the copy afresh.
    """

    rule_id: str
    condition: tuple[Condition, ...]
    severity_weight: int
    regulatory_importance: int
    remediation: EnforcementActionSpec
    technique_tags: tuple[str, ...] = ()
    policy_id: str = ""
    _check: Callable[[Iterable[dict]], list[dict]] = field(init=False, repr=False, compare=False)
    _rank: tuple = field(init=False, repr=False, compare=False)
    _pins: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_check", _compile(self.condition))
        object.__setattr__(self, "_rank", (-self.conflict_score(), self.rule_id))
        object.__setattr__(self, "_pins", tuple(self.pinned_values().items()))

    def failing(self, rows: Iterable[dict]) -> list[dict]:
        """The attribute mappings in ``rows`` that fail this rule, in order."""
        return self._check(rows)

    def is_compliant(self, attrs: dict) -> bool:
        return not self._check((attrs,))

    def observed(self, attrs: dict) -> dict:
        """The endpoint's actual values for this rule's attributes."""
        return {c.attribute: attrs.get(c.attribute) for c in self.condition}

    def conflict_score(self) -> int:
        # Weighted decision matrix: regulatory importance counts double.
        return 2 * self.regulatory_importance + self.severity_weight

    def pinned_values(self) -> dict:
        """attribute -> required value for equals-conditions (conflict axis)."""
        return {
            c.attribute: c.value for c in self.condition if c.comparator == "equals"
        }

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "condition": [c.to_dict() for c in self.condition],
            "severity_weight": self.severity_weight,
            "regulatory_importance": self.regulatory_importance,
            "remediation": self.remediation.to_dict(),
            "technique_tags": list(self.technique_tags),
        }


@dataclass(frozen=True)
class PolicyDocument:
    policy_id: str
    title: str
    version: int
    source_framework: str
    effective_from: int
    rules: tuple[PolicyRule, ...]

    def to_dict(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "title": self.title,
            "version": self.version,
            "source_framework": self.source_framework,
            "effective_from": self.effective_from,
            "rules": [r.to_dict() for r in self.rules],
        }


# --------------------------------------------------------------------------
# Loading


def _require(data: dict, key: str, typ, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}", "missing field")
    value = data[key]
    if typ is int and isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "expected integer, got boolean")
    if not isinstance(value, typ):
        raise SchemaError(f"{path}.{key}", f"expected {typ.__name__}, got {type(value).__name__}")
    return value


def _load_rule(data: dict, path: str, policy_id: str) -> PolicyRule:
    rule_id = _require(data, "rule_id", str, path)
    raw_conditions = _require(data, "condition", list, path)
    if not raw_conditions:
        raise SchemaError(f"{path}.condition", "must not be empty")
    conditions = []
    for i, raw in enumerate(raw_conditions):
        cpath = f"{path}.condition[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(cpath, "expected object")
        attribute = _require(raw, "attribute", str, cpath)
        comparator = _require(raw, "comparator", str, cpath)
        if "value" not in raw:
            raise SchemaError(f"{cpath}.value", "missing field")
        if attribute not in ENDPOINT_ATTRIBUTES:
            raise AmbiguityError(
                f"{cpath}: attribute {attribute!r} is not in the endpoint vocabulary; "
                f"ambiguous conditions are rejected, not skipped"
            )
        if comparator not in COMPARATORS:
            raise SchemaError(f"{cpath}.comparator", f"unknown comparator {comparator!r}")
        value = raw["value"]
        if comparator in ("lt", "gt"):
            if attribute not in ORDERED_ATTRIBUTES:
                raise SchemaError(
                    f"{cpath}.comparator",
                    f"{comparator!r} needs an integer attribute, not {attribute!r}",
                )
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(
                    f"{cpath}.value", f"{comparator!r} needs an integer, got {value!r}"
                )
        if comparator == "in" and not isinstance(value, list):
            raise SchemaError(f"{cpath}.value", f"'in' needs a list, got {value!r}")
        conditions.append(Condition(attribute, comparator, value))

    severity = _require(data, "severity_weight", int, path)
    importance = _require(data, "regulatory_importance", int, path)
    if not 0 <= severity <= 4:
        raise SchemaError(f"{path}.severity_weight", f"{severity} outside 0..4")
    if not 0 <= importance <= 4:
        raise SchemaError(f"{path}.regulatory_importance", f"{importance} outside 0..4")

    raw_rem = _require(data, "remediation", dict, path)
    kind = _require(raw_rem, "kind", str, f"{path}.remediation")
    try:
        remediation = EnforcementActionSpec(
            kind=kind,
            params=raw_rem.get("params", {}),
            target_selector=raw_rem.get("target_selector", "non_compliant"),
        )
    except InputError as exc:
        raise SchemaError(f"{path}.remediation", str(exc)) from exc

    tags = data.get("technique_tags", [])
    if not isinstance(tags, list):
        raise SchemaError(f"{path}.technique_tags", "expected list")
    for tag in tags:
        if not isinstance(tag, str) or not TECHNIQUE_ID_RE.match(tag):
            raise SchemaError(f"{path}.technique_tags", f"bad technique id {tag!r}")

    return PolicyRule(
        rule_id=rule_id,
        condition=tuple(conditions),
        severity_weight=severity,
        regulatory_importance=importance,
        remediation=remediation,
        technique_tags=tuple(tags),
        policy_id=policy_id,
    )


def load_policy_document(source: str) -> PolicyDocument:
    """Parse and fully validate one policy document from JSON text."""
    try:
        data = json.loads(source)
    except ValueError as exc:  # also an integer too long to convert
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("$", "document must be an object")

    policy_id = _require(data, "policy_id", str, "$")
    title = _require(data, "title", str, "$")
    version = _require(data, "version", int, "$")
    if version < 1:
        raise SchemaError("$.version", "must be a positive integer")
    framework = _require(data, "source_framework", str, "$")
    effective = _require(data, "effective_from", int, "$")
    raw_rules = _require(data, "rules", list, "$")
    if not raw_rules:
        raise SchemaError("$.rules", "must not be empty")
    known = set(data) - {
        "policy_id", "title", "version", "source_framework", "effective_from", "rules",
    }
    if known:
        raise SchemaError("$", f"unknown fields: {sorted(known)}")

    rules = tuple(
        _load_rule(raw, f"$.rules[{i}]", policy_id)
        for i, raw in enumerate(raw_rules)
    )
    seen_ids = [r.rule_id for r in rules]
    if len(set(seen_ids)) != len(seen_ids):
        raise SchemaError("$.rules", "duplicate rule_id")
    return PolicyDocument(policy_id, title, version, framework, effective, rules)


def load_policy_file(path: str | Path) -> PolicyDocument:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"not UTF-8 text: {exc}") from exc
    return load_policy_document(source)


# --------------------------------------------------------------------------
# Encoding and querying


@dataclass(frozen=True)
class RuleSet:
    """Compiled rules in deterministic order: severity desc, rule_id asc."""

    rules: tuple[PolicyRule, ...]

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


def encode_rules(doc: PolicyDocument) -> tuple[RuleSet, dict]:
    """Compile a document into an ordered rule set plus the canonical
    deploy payload whose digest is stable across runs."""
    ordered = tuple(
        sorted(doc.rules, key=lambda r: (-r.severity_weight, r.rule_id))
    )
    return RuleSet(ordered), doc.to_dict()


def combine_rule_sets(rule_sets: Iterable[RuleSet]) -> RuleSet:
    merged: list[PolicyRule] = []
    for rs in rule_sets:
        merged.extend(rs.rules)
    merged.sort(key=lambda r: (-r.severity_weight, r.rule_id))
    return RuleSet(tuple(merged))


def serialize_document(doc: PolicyDocument) -> str:
    """Canonical single-line form; load(serialize(load(x))) is idempotent."""
    return canonical_json(doc.to_dict())


def query_policies(
    rules: RuleSet, severity: int, technique_ids: Iterable[str] = ()
) -> list[PolicyRule]:
    """Rules relevant to a classified threat.

    Tagged threats match on technique intersection. Untagged threats
    match every rule whose severity weight is at least the threat
    severity — except severity 0 (informational), which matches nothing
    and so drives "no action required".
    """
    tags = set(technique_ids)
    if tags:
        matched = [r for r in rules if tags & set(r.technique_tags)]
    elif severity <= 0:
        matched = []
    else:
        matched = [r for r in rules if r.severity_weight >= severity]
    return sorted(matched, key=lambda r: (-r.severity_weight, r.rule_id))


def resolve_conflicts(candidates: list[PolicyRule]) -> list[PolicyRule]:
    """Keep, per contradicted attribute, the rule with the highest
    weighted-matrix score; output sorted by score desc, rule_id asc.

    Deterministic and idempotent; the result never pins one attribute to
    two different values.
    """
    if len(candidates) < 2:
        return list(candidates)
    pinned: dict[str, object] = {}
    kept: list[PolicyRule] = []
    for rule in sorted(candidates, key=operator.attrgetter("_rank")):
        mine = rule._pins
        if any(attr in pinned and pinned[attr] != val for attr, val in mine):
            continue
        pinned.update(mine)
        kept.append(rule)
    return kept
