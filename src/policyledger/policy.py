"""Policy documents, executable compliance rules, and conflict resolution.

Documents are structured JSON (one per file) and compile into predicate
rules over the closed endpoint attribute vocabulary. A document is
checked at load against the field tables ``PolicyDocument.SPEC``,
``PolicyRule.SPEC``, ``Condition.SPEC``, ``EnforcementActionSpec.SPEC``
and ``ACTION_PARAMS`` (see ``canonical.check_fields``): a missing,
unknown or mistyped field, or a value out of its range, raises
SchemaError naming its path. The checks across fields follow: a
condition on an attribute outside the vocabulary raises AmbiguityError
(an ambiguous policy is a surfaced failure, never a silent skip), ``lt``
and ``gt`` need an integer attribute and an integer, ``in`` needs a
list, and rule ids must be distinct, each a SchemaError.

Each rule compiles its condition once, when the rule is built, into one
filter over a sequence of attribute mappings, ``PolicyRule.failing``: the
only evaluator of a condition. It is generated code, one list
comprehension with the comparisons inline, as ``canonical.object_splicer``
generates its splices, and returns the mappings that fail the rule,
scanning them afresh on every call with no Python call per mapping.
``PolicyRule.is_compliant`` is that filter over one mapping. One
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

from .canonical import FieldSpec, check_fields, generated_function
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

#: Comparator name -> the Python operator of ``observed <op> value``.
_COMPARE = {"equals": "==", "not_equals": "!=", "lt": "<", "gt": ">", "in": "in"}

COMPARATORS = tuple(_COMPARE)

#: Attributes that ``lt``/``gt`` may order: the integer-valued ones.
ORDERED_ATTRIBUTES = ("rdp_port", "patch_level")

#: Each action kind's params. The kinds with no modeled attribute take any.
ACTION_PARAMS = {
    "disable_smbv1": {},
    "set_rdp_port": {"port": FieldSpec("int", 1, 65535, "port", required=True)},
    "update_firewall_rule": {key: FieldSpec("text", required=True) for key in ("direction", "target", "verdict")},
    "update_proxy_rule": {"blocked": FieldSpec("bool")},
    "isolate_endpoint": {"isolated": FieldSpec("bool")},
    "revoke_access": {"*": FieldSpec("any")},
    "update_permissions": {"*": FieldSpec("any")},
    "apply_patch": {"level": FieldSpec("int", unit="patch level")},
    "update_ids_params": {"*": FieldSpec("any")},
}

ACTION_KINDS = tuple(ACTION_PARAMS)


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

    SPEC = {
        "kind": FieldSpec("str", of=ACTION_KINDS, required=True),
        "params": FieldSpec("params", of=ACTION_PARAMS),
        "target_selector": FieldSpec("selector", of=("all", "non_compliant")),
    }

    def __post_init__(self):
        check_fields(EnforcementActionSpec.SPEC, vars(self))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params, "target_selector": self.target_selector}


def _unknown_comparator(name: str):
    raise InputError(f"unknown comparator {name!r}")


def _compile(conditions: Iterable["Condition"], what: str) -> Callable[[Iterable[dict]], list[dict]]:
    """One filter for a conjunction: the mappings, in order, for which some
    comparison fails, a missing attribute reading as None. Each mapping's
    comparisons run in condition order and stop at the first that fails.
    An unknown comparator raises InputError when evaluated, not when the
    condition is built. Attributes and values reach the code as names."""
    scope: dict = {"_unknown": _unknown_comparator}
    tests = []
    for i, c in enumerate(conditions):
        scope.update({f"a{i}": c.attribute, f"c{i}": c.comparator, f"v{i}": c.value})
        op = _COMPARE.get(c.comparator)
        tests.append(f"row.get(a{i}) {op} v{i}" if op else f"_unknown(c{i})")
    source = f"def failing(rows):\n    return [row for row in rows if not ({' and '.join(tests) or 'True'})]"
    return generated_function(source, scope, "failing", what)


@dataclass(frozen=True)
class Condition:
    attribute: str
    comparator: str
    value: object

    SPEC = {
        "attribute": FieldSpec("text", required=True),
        "comparator": FieldSpec("str", of=COMPARATORS, required=True),
        "value": FieldSpec("any", required=True),
    }

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

    SPEC = {
        "rule_id": FieldSpec("text", required=True),
        "condition": FieldSpec("list", 1, of=FieldSpec("object", of=Condition.SPEC), required=True),
        "severity_weight": FieldSpec("int", 0, 4, required=True),
        "regulatory_importance": FieldSpec("int", 0, 4, required=True),
        "remediation": FieldSpec("object", of=EnforcementActionSpec.SPEC, required=True),
        "technique_tags": FieldSpec("list", 0, of=FieldSpec("pattern", of=TECHNIQUE_ID_RE)),
    }

    def __post_init__(self):
        object.__setattr__(self, "_check", _compile(self.condition, f"{self.policy_id}/{self.rule_id} filter"))
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

    SPEC = {
        "policy_id": FieldSpec("text", required=True),
        "title": FieldSpec("text", required=True),
        "version": FieldSpec("int", 1, required=True),
        "source_framework": FieldSpec("text", required=True),
        "effective_from": FieldSpec("int", unit="ms", required=True),
        "rules": FieldSpec("list", 1, of=FieldSpec("object", of=PolicyRule.SPEC), required=True),
    }

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


def _load_rule(data: dict, path: str, policy_id: str) -> PolicyRule:
    """One rule that ``PolicyRule.SPEC`` has checked, with the checks
    across a condition's fields."""
    conditions = []
    for i, raw in enumerate(data["condition"]):
        cpath = f"{path}.condition[{i}]"
        condition = Condition(**raw)
        attribute, comparator, value = condition.attribute, condition.comparator, condition.value
        if attribute not in ENDPOINT_ATTRIBUTES:
            raise AmbiguityError(
                f"{cpath}: attribute {attribute!r} is not in the endpoint vocabulary; "
                f"ambiguous conditions are rejected, not skipped"
            )
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
        conditions.append(condition)
    return PolicyRule(**{
        **data,
        "condition": tuple(conditions),
        "remediation": EnforcementActionSpec(**data["remediation"]),
        "technique_tags": tuple(data.get("technique_tags", ())),
        "policy_id": policy_id,
    })


def load_policy_document(source: str) -> PolicyDocument:
    """Parse and fully validate one policy document from JSON text."""
    try:
        data = json.loads(source)
    except ValueError as exc:  # also an integer too long to convert
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    check_fields(PolicyDocument.SPEC, data)
    rules = tuple(
        _load_rule(raw, f"$.rules[{i}]", data["policy_id"])
        for i, raw in enumerate(data["rules"])
    )
    seen_ids = [r.rule_id for r in rules]
    if len(set(seen_ids)) != len(seen_ids):
        raise SchemaError("$.rules", "duplicate rule_id")
    return PolicyDocument(**{**data, "rules": rules})


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
