"""CTI ingestion, feature hashing, stump-forest classification, and the
three-way response decision.

``read_feed`` is the one check of a feed file's envelope (a JSON array),
and ``ingest_feed`` turns its items into reports, skipping each item that
does not fit the field table ``ThreatReport.SPEC`` (see
``canonical.check_fields``) with a diagnostic naming its path. A model
file is checked against ``ForestModel.SPEC`` and ``Stump.SPEC``.
``assess`` is the one path from a report to a decision (encode, classify,
query the policies, decide); both arms of a run and the ``classify``
command go through it.

The encoder hashes each distinct token and id once per pass over a feed
(one ``process_threat_intelligence`` call, a run's human-only decide loop,
or one ``classify`` command) through a memo the pass owns and drops.

The classifier is a fixed forest of one-feature decision stumps (the
shipped model file has 100) over a 256-wide hashed feature space:
tokens, technique ids and CVE ids hash into reserved sub-ranges and the
CVSS score is binned. Every stump that fires casts its (severity,
category) vote scaled by a per-stump weight; the feedback loop nudges
those weights multiplicatively based on enforcement outcomes and never
touches the stump structure.

``classify`` sums the firing stumps' weights per vote in stump order. A
model indexes its stumps by vote once, when it is built; ``update_model``
reweights only the stumps that voted the predicted class, and the model
it returns shares that index.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .canonical import FieldSpec, canonical_json, check_config, check_fields, parse_json, read_json_file, stable_index
from .errors import FeedSchemaError, InputError, SchemaError, WidthMismatch
from .policy import PolicyRule, query_policies

MODEL_FORMAT = "policyledger-model/1"

FEATURE_WIDTH = 256
# Reserved sub-ranges of the feature vector.
TOKEN_RANGE = (0, 192)
TECHNIQUE_RANGE = (192, 224)
CVE_RANGE = (224, 250)
CVSS_BASE = 250  # five bins, then the absent-CVSS slot
CVSS_ABSENT = 255

SEVERITY_NAMES = {0: "informational", 1: "low", 2: "medium", 3: "high", 4: "critical"}

#: The largest weight cap: as every weight lies at most at the cap, a
#: report's vote sums stay far below float overflow.
MAX_WEIGHT = 10**6

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class ThreatCategory(str, Enum):
    MALWARE = "malware"
    RANSOMWARE = "ransomware"
    EXPLOIT = "exploit"
    PHISHING = "phishing"
    RECON = "recon"
    OTHER = "other"


_CATEGORY_ORDER = {cat.value: i for i, cat in enumerate(ThreatCategory)}


@dataclass(frozen=True)
class ThreatClass:
    severity: int  # 0 informational .. 4 critical
    category: ThreatCategory

    def __post_init__(self):
        if not 0 <= self.severity <= 4:
            raise InputError(f"severity {self.severity} outside 0..4")

    @property
    def severity_name(self) -> str:
        return SEVERITY_NAMES[self.severity]


class DecisionKind(str, Enum):
    NO_ACTION_REQUIRED = "no_action_required"
    IMMEDIATE_ACTION_REQUIRED = "immediate_action_required"
    STANDARD_MITIGATION_REQUIRED = "standard_mitigation_required"


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    matched_rule_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ThreatReport:
    report_id: str
    source: str
    actor: Optional[str]
    technique_ids: tuple[str, ...]
    cve_ids: tuple[str, ...]
    cvss: Optional[float]
    tokens: tuple[str, ...]
    received_at: int

    #: A feed item: its text becomes ``tokens``; it may hold other keys.
    SPEC = {
        "report_id": FieldSpec("text", required=True),
        "source": FieldSpec("text", required=True),
        "text": FieldSpec("text", required=True),
        "received_at": FieldSpec("int", unit="ms"),
        "actor": FieldSpec("text", null=True),
        "technique_ids": FieldSpec("list", 0, of=FieldSpec("text")),
        "cve_ids": FieldSpec("list", 0, of=FieldSpec("text")),
        "cvss": FieldSpec("number", 0, 10, "CVSS score", null=True),
        "*": FieldSpec("any"),
    }


def normalize_tokens(text: str) -> tuple[str, ...]:
    """Lowercase word list with punctuation stripped."""
    return tuple(_TOKEN_RE.findall(text.lower()))


# --------------------------------------------------------------------------
# Feed ingestion


def _parse_item(raw: dict, path: str) -> ThreatReport:
    check_fields(ThreatReport.SPEC, raw, path)
    cvss = raw.get("cvss")
    return ThreatReport(
        report_id=raw["report_id"],
        source=raw["source"],
        actor=raw.get("actor"),
        technique_ids=tuple(t.upper() for t in raw.get("technique_ids", ())),
        cve_ids=tuple(c.upper() for c in raw.get("cve_ids", ())),
        cvss=None if cvss is None else float(cvss),
        tokens=normalize_tokens(raw["text"]),
        received_at=raw.get("received_at", 0),
    )


def read_feed(path: str | Path) -> list:
    """The items of one feed file. A file that does not hold a JSON array
    raises FeedSchemaError naming it; one that cannot be opened, OSError."""
    data = read_json_file(path, error=FeedSchemaError)
    if not isinstance(data, list):
        raise FeedSchemaError(str(path), "feed envelope must be an array of items")
    return data


def ingest_feed(items: list) -> tuple[list[ThreatReport], list[str]]:
    """Parse feed items into normalized reports.

    Malformed items are skipped with one diagnostic each (never a silent
    drop).
    """
    reports: list[ThreatReport] = []
    diagnostics: list[str] = []
    for i, raw_item in enumerate(items):
        try:
            reports.append(_parse_item(raw_item, f"item[{i}]"))
        except SchemaError as exc:
            diagnostics.append(str(exc))
    return reports, diagnostics


# --------------------------------------------------------------------------
# Feature encoding


def token_feature(token: str) -> int:
    lo, hi = TOKEN_RANGE
    return lo + stable_index(f"tok:{token}", hi - lo)


def technique_feature(technique_id: str) -> int:
    lo, hi = TECHNIQUE_RANGE
    return lo + stable_index(f"tech:{technique_id.upper()}", hi - lo)


def cve_feature(cve_id: str) -> int:
    lo, hi = CVE_RANGE
    return lo + stable_index(f"cve:{cve_id.upper()}", hi - lo)


def cvss_feature(cvss: Optional[float]) -> int:
    if cvss is None:
        return CVSS_ABSENT
    return CVSS_BASE + min(int(cvss / 2.0), 4)


def encode_features(report: ThreatReport, memo: Optional[dict] = None) -> list[int]:
    """Pure function report -> fixed-width count vector. ``memo`` maps
    (feature function, id) to feature index; a pass shares one dict."""
    if memo is None:
        memo = {}
    fv = [0] * FEATURE_WIDTH
    for feature, ids in ((token_feature, report.tokens),
                         (technique_feature, report.technique_ids),
                         (cve_feature, report.cve_ids)):
        for x in ids:
            key = (feature, x)
            index = memo.get(key)
            if index is None:
                index = memo[key] = feature(x)
            fv[index] += 1
    fv[cvss_feature(report.cvss)] += 1
    return fv


# --------------------------------------------------------------------------
# Stump forest


@dataclass(frozen=True)
class Stump:
    """Fires when a vector's count at ``feature_index`` exceeds ``threshold``."""

    feature_index: int
    threshold: int
    vote_severity: int
    vote_category: ThreatCategory

    #: Its index must also lie below the model's width, checked when the
    #: model is built.
    SPEC = {
        "feature_index": FieldSpec("int", unit="feature", required=True),
        "threshold": FieldSpec("int", unit="count", required=True),
        "vote_severity": FieldSpec("int", 0, 4, "severity", required=True),
        "vote_category": FieldSpec("str", of=tuple(c.value for c in ThreatCategory), required=True),
    }


@dataclass(frozen=True)
class ForestModel:
    """Fixed stump structure with mutable-by-replacement vote weights.

    ``_voters``, the positions of the stumps casting each (severity,
    category) vote in stump order, takes no part in equality or repr;
    ``dataclasses.replace`` builds the copy's afresh. ``update_model``
    clones a model's attributes instead, sharing the index and skipping
    ``__post_init__``: measured on the shipped 100-stump model, ``replace``
    took about 93 us per update, ``copy.copy`` 3.3 us and the clone 1.4 us,
    and a run makes one update per report and arm.
    """

    width: int
    stumps: tuple[Stump, ...]
    weights: tuple[float, ...]
    threshold: int = 3  # severity cutoff for immediate action
    learning_rate: float = 0.05
    weight_floor: float = 0.01
    weight_cap: float = 100.0
    _voters: dict = field(init=False, repr=False, compare=False)

    #: A model file; a weight may start below the floor, but not above the cap.
    SPEC = {
        "format": FieldSpec("str", of=(MODEL_FORMAT,), required=True),
        "width": FieldSpec("int", FEATURE_WIDTH, FEATURE_WIDTH, "features", required=True),
        "threshold": FieldSpec("int", unit="severity", required=True),
        "learning_rate": FieldSpec("number", 0, math.nextafter(1, 0)),
        "weight_cap": FieldSpec("number", 0, MAX_WEIGHT, "vote weight"),
        "weight_floor": FieldSpec("number", 0, "weight_cap", "vote weight"),
        "stumps": FieldSpec("list", 0, of=FieldSpec("object", of=Stump.SPEC), required=True),
        "weights": FieldSpec("list", 0, of=FieldSpec("number", 0, "weight_cap", "vote weight"), required=True),
    }

    def __post_init__(self):
        if len(self.stumps) != len(self.weights):
            raise InputError("one weight per stump required")
        voters: dict[tuple[int, ThreatCategory], list[int]] = {}
        for i, s in enumerate(self.stumps):
            # A negative index would read the vector from its end.
            if not 0 <= s.feature_index < self.width:
                raise InputError(f"stumps[{i}]: feature_index {s.feature_index} outside the width")
            voters.setdefault((s.vote_severity, s.vote_category), []).append(i)
        object.__setattr__(self, "_voters", voters)

    def to_json(self) -> str:
        return canonical_json(
            {
                "format": MODEL_FORMAT,
                "width": self.width,
                "threshold": self.threshold,
                "learning_rate": self.learning_rate,
                "weight_floor": self.weight_floor,
                "weight_cap": self.weight_cap,
                "stumps": [
                    {
                        "feature_index": s.feature_index,
                        "threshold": s.threshold,
                        "vote_severity": s.vote_severity,
                        "vote_category": s.vote_category.value,
                    }
                    for s in self.stumps
                ],
                "weights": list(self.weights),
            }
        )

    @classmethod
    def from_json(cls, text: str, name: str = "$") -> "ForestModel":
        """Parse a model file. Text that is not a JSON object that fits
        ``SPEC``, or whose stumps could not classify an encoded report,
        raises InputError; text that does not decode names ``name``."""
        data = check_config(cls, parse_json(text, name))
        del data["format"]
        stumps = tuple(Stump(**{**s, "vote_category": ThreatCategory(s["vote_category"])}) for s in data["stumps"])
        return cls(**{**data, "stumps": stumps, "weights": tuple(data["weights"])})

    @classmethod
    def from_file(cls, path: str | Path) -> "ForestModel":
        return read_json_file(path, cls.from_json)


def classify(model: ForestModel, fv: list[int]) -> ThreatClass:
    """Weighted stump vote; ties break toward the higher severity.

    The default when no stump fires is informational/other.
    """
    if len(fv) != model.width:
        raise WidthMismatch(f"vector width {len(fv)} != model width {model.width}")
    totals: dict[tuple[int, ThreatCategory], float] = {}
    for stump, weight in zip(model.stumps, model.weights):
        if fv[stump.feature_index] > stump.threshold:
            vote = (stump.vote_severity, stump.vote_category)
            totals[vote] = totals.get(vote, 0.0) + weight
    if not totals:
        return ThreatClass(0, ThreatCategory.OTHER)
    # Highest mass wins; ties fail safe to higher severity, then to the
    # earlier category in enum order for determinism.
    best = min(
        totals.items(),
        key=lambda kv: (-kv[1], -kv[0][0], _CATEGORY_ORDER[kv[0][1].value]),
    )
    (severity, category), _ = best
    return ThreatClass(severity, category)


def decide(matched_policies: list[PolicyRule], threshold: int = 3) -> Decision:
    """Three-way response decision over the matched policy rules."""
    if not matched_policies:
        return Decision(DecisionKind.NO_ACTION_REQUIRED)
    rule_ids = tuple(r.rule_id for r in matched_policies)
    if max(r.severity_weight for r in matched_policies) > threshold:
        return Decision(DecisionKind.IMMEDIATE_ACTION_REQUIRED, rule_ids)
    return Decision(DecisionKind.STANDARD_MITIGATION_REQUIRED, rule_ids)


def assess(model: ForestModel, rules: tuple[PolicyRule, ...], report: ThreatReport,
           memo: Optional[dict] = None) -> tuple[ThreatClass, list[PolicyRule], Decision]:
    """Classify one report, match it against ``rules`` and decide;
    ``memo`` is the pass's feature memo (see ``encode_features``)."""
    threat_class = classify(model, encode_features(report, memo))
    matched = query_policies(rules, threat_class.severity, report.technique_ids)
    return threat_class, matched, decide(matched, model.threshold)


def update_model(model: ForestModel, predicted: ThreatClass, success: bool) -> ForestModel:
    """Multiplicative feedback on the stumps voting the predicted class.

    Success multiplies their weights by (1 + rate), failure by
    (1 - rate); weights stay clamped and structure never changes. Only
    those stumps' weights are computed; the returned model shares
    ``model``'s vote index.
    """
    factor = 1.0 + model.learning_rate if success else 1.0 - model.learning_rate
    floor, cap = model.weight_floor, model.weight_cap
    weights = list(model.weights)
    # A loaded model holds 0 <= floor, so every clamped weight is non-negative.
    for i in model._voters.get((predicted.severity, predicted.category), ()):
        weights[i] = min(cap, max(floor, weights[i] * factor))
    # A clone keeps the vote index; see ForestModel on why not replace.
    updated = object.__new__(type(model))
    vars(updated).update(vars(model), weights=tuple(weights))
    return updated


# --------------------------------------------------------------------------
# Full pipeline (one pass per feed poll)


@dataclass
class CycleOutcome:
    report: ThreatReport
    threat_class: ThreatClass
    matched: list[PolicyRule]
    decision: Decision
    results: list


def process_threat_intelligence(
    reports: list[ThreatReport],
    model: ForestModel,
    rules: tuple[PolicyRule, ...],
    engine,
) -> tuple[list[CycleOutcome], ForestModel]:
    """Run one assess->enforce->learn decision cycle per report.

    Each report commits one block through ``engine.run_cycle``. Nothing
    here catches an error, so a failed stage aborts the whole pass; the
    cycles committed before it stay on the chain. Returns the outcomes and
    the updated model.
    """
    outcomes: list[CycleOutcome] = []
    memo: dict = {}
    for report in reports:
        threat_class, matched, decision = assess(model, rules, report, memo)
        results = engine.run_cycle(decision, matched, threat_class, report)
        model = update_model(model, threat_class, all(r.success for r in results))
        outcomes.append(CycleOutcome(report, threat_class, matched, decision, results))
    return outcomes, model
