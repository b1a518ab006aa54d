"""Evaluation metrics: enforcement rate, compliance time, paired t-test,
dispersion, confidence intervals, and the automated-vs-human report.

All five statistics are pure functions. The t-test's two-sided p-value
is computed from the regularized incomplete beta function (continued
fraction, Lentz's method) rather than a statistics library, and is
validated against an independent reference implementation in the test
suite to 1e-9.

``samples_from_chain`` folds over a chain's one walk, ``query_history``,
as replay does, and refuses a body it cannot read as replay does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .canonical import canonical_json, collector_paused, digest_bytes
from .errors import DegenerateInput, InputError

REPORT_FORMAT = "policyledger-report/1"


def cer(successes: int, total: int) -> float:
    """Compliance enforcement rate: successful / targeted endpoints, as a
    percentage rounded to 2 decimals."""
    if total <= 0:
        raise InputError("total must be positive")
    if not 0 <= successes <= total:
        raise InputError(f"successes {successes} outside 0..{total}")
    return round(successes / total * 100.0, 2)


def act(durations: Sequence[float]) -> float:
    """Average compliance time: arithmetic mean of per-update durations."""
    if not durations:
        raise InputError("act requires at least one duration")
    return math.fsum(durations) / len(durations)


def variance_std(samples: Sequence[float]) -> tuple[float, float]:
    """Sample variance (n-1 denominator) and standard deviation."""
    n = len(samples)
    if n < 2:
        raise InputError("variance requires n >= 2")
    mean = math.fsum(samples) / n
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return var, math.sqrt(var)


def confidence_interval(samples: Sequence[float], z: float = 1.96) -> tuple[float, float]:
    """mean +/- z * s / sqrt(n), with s the sample standard deviation."""
    if len(samples) < 2:
        raise InputError("confidence interval requires n >= 2")
    if z <= 0:
        raise InputError("z must be positive")
    mean = math.fsum(samples) / len(samples)
    _, s = variance_std(samples)
    half = z * s / math.sqrt(len(samples))
    return mean - half, mean + half


# --------------------------------------------------------------------------
# Student t distribution (no statistics library in the implementation path)

_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-15
_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to ~1e-14 over the t-test parameter range."""
    if x < 0.0 or x > 1.0:
        raise InputError("x outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T_df| >= |t|) via I_x(df/2, 1/2) with x = df / (df + t^2)."""
    if df < 1:
        raise InputError("df must be >= 1")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    mean_diff: float
    sd_diff: float
    n: int


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Paired t-test with hypothesized mean difference 0.

    d = a - b elementwise; t = mean(d) / (sd(d) / sqrt(n)) with the n-1
    standard deviation. Zero-variance differences are reported as
    DegenerateInput rather than an infinite statistic.
    """
    if len(a) != len(b):
        raise InputError("paired samples must have equal length")
    n = len(a)
    if n < 2:
        raise InputError("paired t-test requires n >= 2")
    d = [x - y for x, y in zip(a, b)]
    mean_d = math.fsum(d) / n
    var_d = math.fsum((x - mean_d) ** 2 for x in d) / (n - 1)
    sd_d = math.sqrt(var_d)
    if sd_d == 0.0:
        raise DegenerateInput("zero-variance differences; t is undefined")
    t = mean_d / (sd_d / math.sqrt(n))
    return TTestResult(t=t, p=t_two_sided_p(t, n - 1), df=n - 1, mean_diff=mean_d, sd_diff=sd_d, n=n)


# --------------------------------------------------------------------------
# Comparison report


@dataclass
class MetricSample:
    """Per-policy enforcement outcomes for one arm.

    ``durations`` holds successful updates only, so ACT averages over
    successes; ``endpoint_durations`` keys them by endpoint so the two
    arms can be paired per endpoint.
    """

    label: str  # automated | human
    policy_id: str
    successes: int
    total: int
    durations: list[float] = field(default_factory=list)
    endpoint_durations: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.successes > self.total:
            raise InputError("successes cannot exceed total")
        if len(self.durations) != self.successes:
            raise InputError("one duration per successful update expected")


def _metric_block(sample: MetricSample) -> dict:
    durations = sample.durations
    block: dict = {
        "cer": cer(sample.successes, sample.total),
        "successes": sample.successes,
        "total": sample.total,
        "act_ms": act(durations) if durations else None,
    }
    if len(durations) >= 2:
        var, sd = variance_std(durations)
        lo, hi = confidence_interval(durations)
        block.update(
            {
                "variance_ms2": var,
                "std_ms": sd,
                "act_ci95_ms": [lo, hi],
            }
        )
    else:
        block.update({"variance_ms2": None, "std_ms": None, "act_ci95_ms": None})
    return block


@dataclass
class ComparisonReport:
    """CER/ACT/t/sigma/CI bundle for the automated-vs-human comparison,
    derivable solely from the chain plus samples."""

    per_policy: dict  # policy_id -> {automated: {...}, human: {...}, paired: {...}}
    seed: int
    config_digest: str
    chain_hash: str
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return canonical_json(
            {
                "format": REPORT_FORMAT,
                "config_digest": self.config_digest,
                "seed": self.seed,
                "chain_hash": self.chain_hash,
                "per_policy": self.per_policy,
                "notes": self.notes,
            }
        )

    def digest(self) -> str:
        """SHA-256 of the canonical report JSON, the bytes of ``report.json``
        without its trailing newline."""
        return digest_bytes(self.to_json().encode("utf-8"))


def _fmt_ms(ms: Optional[float]) -> str:
    if ms is None:
        return "-"
    total_seconds = ms / 1000.0
    minutes = int(total_seconds // 60)
    seconds = total_seconds - minutes * 60
    return f"{minutes}m {seconds:04.1f}s"


def render_report_text(report: ComparisonReport) -> str:
    """Human-readable summary table (CER and ACT per policy per arm)."""
    lines = [
        f"# policyledger comparison report ({REPORT_FORMAT})",
        f"# config_digest: {report.config_digest}",
        f"# seed: {report.seed}",
        f"# chain: {report.chain_hash}",
        "",
        f"{'policy':24} {'arm':10} {'CER %':>8} {'ACT':>12} {'sigma':>12} {'CI95 low':>12} {'CI95 high':>12}",
    ]
    for policy_id in sorted(report.per_policy):
        entry = report.per_policy[policy_id]
        for label in ("automated", "human"):
            block = entry.get(label)
            if not block:
                continue
            ci = block.get("act_ci95_ms")
            lines.append(
                f"{policy_id:24} {label:10} {block['cer']:>8.2f} "
                f"{_fmt_ms(block['act_ms']):>12} {_fmt_ms(block.get('std_ms')):>12} "
                f"{_fmt_ms(ci[0]) if ci else '-':>12} {_fmt_ms(ci[1]) if ci else '-':>12}"
            )
        paired = entry.get("paired")
        if paired:
            lines.append(
                f"{'':24} paired t={paired['t']:.3f} df={paired['df']} "
                f"p={paired['p']:.3e} pairs={paired['n']}"
            )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def build_comparison_report(
    automated: Iterable[MetricSample],
    human: Iterable[MetricSample],
    chain_hash: str,
    seed: int,
    config_digest: str,
) -> ComparisonReport:
    """Assemble every metric per policy per arm plus the per-endpoint
    paired t-test on durations. Missing human samples are flagged and the
    t-test omitted rather than fabricated."""
    auto_by_policy = {s.policy_id: s for s in automated}
    human_by_policy = {s.policy_id: s for s in human}
    notes: list[str] = []
    per_policy: dict = {}
    for policy_id in sorted(set(auto_by_policy) | set(human_by_policy)):
        entry: dict = {}
        a = auto_by_policy.get(policy_id)
        h = human_by_policy.get(policy_id)
        if a:
            entry["automated"] = _metric_block(a)
        if h:
            entry["human"] = _metric_block(h)
        if a and h:
            shared = sorted(set(a.endpoint_durations) & set(h.endpoint_durations))
            if len(shared) >= 2:
                try:
                    result = paired_t_test(
                        [h.endpoint_durations[e] for e in shared],
                        [a.endpoint_durations[e] for e in shared],
                    )
                    entry["paired"] = {
                        "t": result.t,
                        "p": result.p,
                        "df": result.df,
                        "mean_diff_ms": result.mean_diff,
                        "n": result.n,
                    }
                except DegenerateInput:
                    notes.append(f"{policy_id}: degenerate paired differences; t-test omitted")
            else:
                notes.append(f"{policy_id}: fewer than 2 shared endpoints; t-test omitted")
        elif a and not h:
            notes.append(f"{policy_id}: human arm absent; t-test omitted")
        elif h and not a:
            notes.append(f"{policy_id}: automated arm absent; t-test omitted")
        per_policy[policy_id] = entry
    return ComparisonReport(
        per_policy=per_policy,
        seed=seed,
        config_digest=config_digest,
        chain_hash=chain_hash,
        notes=notes,
    )


@collector_paused
def samples_from_chain(chain) -> tuple[list[MetricSample], list[MetricSample]]:
    """Rebuild the metric samples from a committed chain.

    Walks enforcement-result transactions, grouping by arm and policy via
    the deploy and update transactions' rule->policy mapping; this is what
    makes a report reproducible from an exported chain alone. Each result
    is read through the reading the record keeps, as replay reads it.
    Refuses what ``query_history`` refuses, and a policy or result body
    that does not fit its table (``ledger.BODY_SPECS``), naming its block.
    """
    from .ledger import _BODY_ERRORS, TxKind, _body, _result_reading, _unreadable, query_history

    deploy, update, result = TxKind.POLICY_DEPLOY, TxKind.POLICY_UPDATE, TxKind.ENFORCEMENT_RESULT
    records, results = query_history(chain), []
    # Every deploy's mapping, then every update's, so an upgrade's wins.
    deployed: dict[str, str] = {}
    updated: dict[str, str] = {}
    # (arm, policy_id) -> [successes, total, durations, duration by endpoint]
    acc: dict[tuple[str, str], list] = {}
    try:
        for tx in records:
            kind = tx.kind
            if kind is result:
                results.append(tx)
            elif kind is deploy or kind is update:
                body = _body(tx)
                mapping = deployed if kind is deploy else updated
                for rule in body.get("rules", []):
                    mapping[rule["rule_id"]] = body["policy_id"]
        rule_policy = deployed | updated
        for tx in results:
            endpoint_id, succeeded, duration, rule_id = _result_reading(tx)
            key = (tx.metadata.arm, rule_policy.get(rule_id, "ad-hoc") if rule_id else "ad-hoc")
            bucket = acc.get(key)
            if bucket is None:
                bucket = acc[key] = [0, 0, [], {}]
            bucket[1] += 1
            if succeeded:
                bucket[0] += 1
                bucket[2].append(duration)
                bucket[3][endpoint_id] = duration
    except _BODY_ERRORS as exc:
        raise _unreadable(chain, tx, exc) from exc

    automated: list[MetricSample] = []
    human: list[MetricSample] = []
    for (arm, policy_id), (successes, total, durations, by_endpoint) in sorted(acc.items()):
        sample = MetricSample(label=arm, policy_id=policy_id, successes=successes, total=total,
                              durations=durations, endpoint_durations=by_endpoint)
        (automated if arm == "automated" else human).append(sample)
    return automated, human
