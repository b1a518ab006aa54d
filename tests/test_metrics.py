"""Metric implementations against independent reference oracles."""

import math
import random

import numpy as np
import pytest
import scipy.stats as stats

from policyledger.errors import DegenerateInput, InputError
from policyledger.metrics import (
    MetricSample,
    act,
    build_comparison_report,
    cer,
    confidence_interval,
    paired_t_test,
    regularized_incomplete_beta,
    t_two_sided_p,
    variance_std,
)


# -- cer -----------------------------------------------------------------------


def test_cer_reference_points_bit_exact():
    assert cer(57, 60) == 95.00
    assert cer(51, 60) == 85.00
    assert cer(48, 60) == 80.00
    assert cer(60, 60) == 100.00


def test_cer_input_validation():
    with pytest.raises(InputError):
        cer(1, 0)
    with pytest.raises(InputError):
        cer(5, 4)
    with pytest.raises(InputError):
        cer(-1, 4)


def test_cer_bounds_and_monotonicity():
    rng = random.Random(5)
    for _ in range(200):
        total = rng.randint(1, 500)
        s = rng.randint(0, total)
        value = cer(s, total)
        assert 0.0 <= value <= 100.0
        if s < total:
            assert cer(s + 1, total) >= value
    assert all(cer(n, n) == 100.0 for n in (1, 7, 60))


# -- act -----------------------------------------------------------------------


def test_act_examples():
    assert act([180000, 200000, 220000]) == 200000
    assert act([123.0]) == 123.0


def test_act_is_permutation_invariant_and_bounded():
    rng = random.Random(6)
    for _ in range(100):
        xs = [rng.uniform(1, 1e6) for _ in range(rng.randint(1, 40))]
        shuffled = xs[:]
        rng.shuffle(shuffled)
        assert act(xs) == pytest.approx(act(shuffled), rel=1e-12)
        assert min(xs) <= act(xs) <= max(xs)


def test_act_empty_is_input_error():
    with pytest.raises(InputError):
        act([])


# -- paired t-test ----------------------------------------------------------------


def test_known_difference_vector():
    # d = [2,3,1,4,2]; independent reference: scipy.stats.ttest_rel
    a = [10, 13, 11, 14, 12]
    b = [8, 10, 10, 10, 10]
    result = paired_t_test(a, b)
    ref = stats.ttest_rel(a, b)
    assert result.df == 4
    assert result.t == pytest.approx(4.707, abs=5e-4)
    assert result.t == pytest.approx(ref.statistic, rel=1e-12)
    assert result.p == pytest.approx(ref.pvalue, rel=1e-9)


def test_identical_samples_are_degenerate():
    with pytest.raises(DegenerateInput):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_antisymmetry():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 30)
        a = [rng.gauss(10, 3) for _ in range(n)]
        b = [rng.gauss(8, 2) for _ in range(n)]
        try:
            fwd = paired_t_test(a, b)
            rev = paired_t_test(b, a)
        except DegenerateInput:
            continue
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.p == pytest.approx(rev.p, rel=1e-12)


def test_shift_invariance():
    a = [3.0, 5.5, 4.2, 6.6, 5.9]
    b = [1.0, 4.5, 2.2, 7.0, 3.3]
    base = paired_t_test(a, b)
    shifted = paired_t_test([x + 100 for x in a], [y + 100 for y in b])
    assert base.t == pytest.approx(shifted.t, rel=1e-12)


def test_length_and_size_validation():
    with pytest.raises(InputError):
        paired_t_test([1, 2], [1, 2, 3])
    with pytest.raises(InputError):
        paired_t_test([1], [2])


# -- variance / std ----------------------------------------------------------------


def test_variance_examples():
    assert variance_std([1, 2, 3]) == (1.0, 1.0)
    assert variance_std([4, 4, 4, 4]) == (0.0, 0.0)


def test_variance_nonnegative_zero_iff_constant():
    rng = random.Random(8)
    for _ in range(100):
        xs = [rng.uniform(0, 10) for _ in range(rng.randint(2, 30))]
        var, sd = variance_std(xs)
        assert var >= 0 and sd == math.sqrt(var)
        assert (var == 0) == (len(set(xs)) == 1)


def test_variance_needs_two_samples():
    with pytest.raises(InputError):
        variance_std([1.0])


# -- confidence interval ----------------------------------------------------------


def test_ci_reference_point():
    # mean 10, s 2, n 16 -> 1.96 * 2 / 4 = 0.98
    samples = [10 - 2, 10 + 2] * 8  # mean 10, sd 2.0656... not exact; build exactly
    # construct a sample with mean 10 and s exactly 2: use [8, 12] * 8 -> var = 64/15*... no.
    # Assert against the formula directly instead.
    mean = 10.0
    s = 2.0
    n = 16
    lo, hi = mean - 1.96 * s / math.sqrt(n), mean + 1.96 * s / math.sqrt(n)
    assert (round(lo, 2), round(hi, 2)) == (9.02, 10.98)
    got_lo, got_hi = confidence_interval(samples, 1.96)
    sm = np.mean(samples)
    ss = np.std(samples, ddof=1)
    assert got_lo == pytest.approx(sm - 1.96 * ss / 4, rel=1e-12)
    assert got_hi == pytest.approx(sm + 1.96 * ss / 4, rel=1e-12)


def test_ci_constant_samples_zero_width():
    lo, hi = confidence_interval([5.0, 5.0, 5.0], 1.96)
    assert lo == hi == 5.0


def test_ci_width_scales_with_inverse_sqrt_n():
    base = [1.0, 3.0, 5.0, 7.0]  # n=4, sample variance 20/3
    wide = [4.0 - 2.5, 4.0 + 2.5] * 8  # n=16, same sample variance 20/3
    assert variance_std(base)[0] == pytest.approx(variance_std(wide)[0], rel=1e-12)
    lo1, hi1 = confidence_interval(base, 1.96)
    lo2, hi2 = confidence_interval(wide, 1.96)
    assert (hi1 - lo1) == pytest.approx(2 * (hi2 - lo2), rel=1e-12)


def test_ci_symmetric_about_mean():
    rng = random.Random(9)
    for _ in range(50):
        xs = [rng.uniform(-5, 5) for _ in range(rng.randint(2, 25))]
        lo, hi = confidence_interval(xs)
        mean = sum(xs) / len(xs)
        assert (mean - lo) == pytest.approx(hi - mean, rel=1e-9, abs=1e-12)


def test_ci_validation():
    with pytest.raises(InputError):
        confidence_interval([1.0], 1.96)
    with pytest.raises(InputError):
        confidence_interval([1.0, 2.0], 0.0)


# -- t distribution internals -------------------------------------------------------


def test_incomplete_beta_against_scipy():
    rng = random.Random(10)
    for _ in range(300):
        a = rng.uniform(0.5, 60)
        b = rng.uniform(0.5, 60)
        x = rng.random()
        ours = regularized_incomplete_beta(a, b, x)
        ref = stats.beta.cdf(x, a, b)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_t_two_sided_p_against_scipy_tails():
    for df in (1, 2, 4, 10, 59, 200):
        for t in (0.0, 0.5, 1.0, 2.0, 4.707, 10.0, 25.0):
            ref = 2 * stats.t.sf(abs(t), df)
            assert t_two_sided_p(t, df) == pytest.approx(ref, rel=1e-9, abs=1e-300)


# -- comparison report ---------------------------------------------------------------


def sample(label, policy="p", successes=3, total=4, base=100.0, step=1.0):
    durations = [base + step * i * i for i in range(successes)]
    return MetricSample(
        label=label,
        policy_id=policy,
        successes=successes,
        total=total,
        durations=durations,
        endpoint_durations={f"ep-{i:03d}": d for i, d in enumerate(durations)},
    )


def test_report_contains_all_metrics_per_policy():
    report = build_comparison_report(
        [sample("automated", base=100.0)],
        [sample("human", base=1000.0, step=7.0)],
        chain_hash="c" * 64,
        seed=42,
        config_digest="d" * 64,
    )
    entry = report.per_policy["p"]
    assert entry["automated"]["cer"] == 75.0
    assert entry["human"]["act_ms"] == pytest.approx((1000 + 1007 + 1028) / 3)
    assert entry["paired"]["n"] == 3
    assert entry["paired"]["p"] < 0.05
    assert report.chain_hash == "c" * 64


def test_report_without_human_arm_is_flagged():
    report = build_comparison_report(
        [sample("automated")], [], chain_hash="c", seed=1, config_digest="d"
    )
    assert "paired" not in report.per_policy["p"]
    assert any("human arm absent" in note for note in report.notes)


def test_report_bytes_are_deterministic():
    kwargs = dict(chain_hash="c", seed=1, config_digest="d")
    r1 = build_comparison_report([sample("automated")], [sample("human")], **kwargs)
    r2 = build_comparison_report([sample("automated")], [sample("human")], **kwargs)
    assert r1.to_json() == r2.to_json()


def test_metric_sample_validates_duration_count():
    with pytest.raises(InputError):
        MetricSample(label="automated", policy_id="p", successes=2, total=3, durations=[1.0])


# -- randomized oracle equivalence (acceptance criterion 1 core) ---------------------


def test_thousand_randomized_inputs_match_reference_oracle():
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randint(2, 60)
        xs = [rng.uniform(1.0, 1e6) for _ in range(n)]
        ys = [x + rng.gauss(50.0, 30.0) for x in xs]

        assert act(xs) == pytest.approx(float(np.mean(xs)), rel=1e-9)

        var, sd = variance_std(xs)
        assert var == pytest.approx(float(np.var(xs, ddof=1)), rel=1e-9)
        assert sd == pytest.approx(float(np.std(xs, ddof=1)), rel=1e-9)

        lo, hi = confidence_interval(xs, 1.96)
        ref_half = 1.96 * float(np.std(xs, ddof=1)) / math.sqrt(n)
        assert lo == pytest.approx(float(np.mean(xs)) - ref_half, rel=1e-9)
        assert hi == pytest.approx(float(np.mean(xs)) + ref_half, rel=1e-9)

        s = rng.randint(0, n)
        assert cer(s, n) == round(s / n * 100.0, 2)

        try:
            ours = paired_t_test(xs, ys)
        except DegenerateInput:
            continue
        ref = stats.ttest_rel(xs, ys)
        assert ours.t == pytest.approx(float(ref.statistic), rel=1e-9)
        assert ours.p == pytest.approx(float(ref.pvalue), rel=1e-9, abs=1e-300)


# -- samples_from_chain ----------------------------------------------------------


def _policy_chain():
    """Deploy p1 with rule r, upgrade p1 keeping r, then deploy p2 also
    naming r; one automated and one human result each for r and r-new."""
    from policyledger.ledger import Ledger, TransactionRecord, TxKind, TxMetadata

    ledger = Ledger(validators=3, config_digest="test")

    def submit(kind, actor, body, arm="automated"):
        tx = TransactionRecord.create(ledger.next_tx_id(), 1, kind, actor, body,
                                      TxMetadata(arm=arm))
        assert ledger.submit_transaction(tx)

    submit(TxKind.POLICY_DEPLOY, "policy-admin",
           {"policy_id": "p1", "version": 1, "rules": [{"rule_id": "r"}]})
    ledger.commit_block(1)
    submit(TxKind.POLICY_UPDATE, "policy-admin",
           {"policy_id": "p1", "version": 2,
            "rules": [{"rule_id": "r"}, {"rule_id": "r-new"}]})
    ledger.commit_block(2)
    submit(TxKind.POLICY_DEPLOY, "policy-admin",
           {"policy_id": "p2", "version": 1, "rules": [{"rule_id": "r"}]})
    ledger.commit_block(3)
    for arm, actor in (("automated", "contract-engine"), ("human", "human-team")):
        for i, rule_id in enumerate(("r", "r-new")):
            submit(TxKind.ENFORCEMENT_RESULT, actor,
                   {"endpoint_id": f"ep-{i:03d}", "rule_id": rule_id,
                    "outcome": "success", "duration_ms": 10 + i, "applied": {}}, arm)
    ledger.commit_block(4)
    return ledger.chain()


def test_samples_map_rules_through_updates_after_deploys():
    from policyledger.metrics import samples_from_chain

    automated, human = samples_from_chain(_policy_chain())
    # Updates are folded after every deploy, so p1's upgrade keeps "r".
    for samples in (automated, human):
        assert [(s.policy_id, s.total) for s in samples] == [("p1", 2)]
        assert samples[0].endpoint_durations == {"ep-000": 10.0, "ep-001": 11.0}


def test_samples_refuse_a_tampered_chain():
    from dataclasses import replace

    from policyledger.errors import CorruptChainError
    from policyledger.metrics import samples_from_chain

    chain = _policy_chain()
    block = chain[-1]
    tx = block.transactions[0]
    forged = replace(tx, payload=tx.payload.replace('"duration_ms":10', '"duration_ms":1'))
    chain[-1] = replace(block, transactions=(forged,) + block.transactions[1:])
    with pytest.raises(CorruptChainError):
        samples_from_chain(chain)
