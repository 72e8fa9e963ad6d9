import math

import pytest

from dtaxis.exponents import (ExponentTriple, moderate_seq, moderate_seq_hat,
                              p0_sup, strong_seq, verify_regime_lemmas,
                              weak_feedback_p)


def test_weak_feedback_examples():
    # r=2, alpha=1: 2 + (4/3 - 2 + 1) - s = 7/3 - s, which exceeds 9/4
    assert weak_feedback_p(2.0, 1.0, 1e-6) == pytest.approx(7.0 / 3.0 - 1e-6, rel=1e-13)
    assert weak_feedback_p(2.0, 1.0, 1e-6) > 2.25
    assert weak_feedback_p(2.0, 0.0, 1e-6) == pytest.approx(13.0 / 3.0 - 1e-6, rel=1e-13)


def test_weak_feedback_always_increases():
    import numpy as np
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = float(rng.uniform(2.0, 40.0))
        alpha = float(rng.uniform(0.0, 1.0))
        p = weak_feedback_p(r, alpha)
        assert p > r + 0.25
        assert p < r + 2.0 * r / 3.0 - 2.0 * alpha + 1.0


def test_weak_feedback_validation():
    with pytest.raises(ValueError):
        weak_feedback_p(1.5, 0.5)
    with pytest.raises(ValueError):
        weak_feedback_p(2.0, 1.5)
    with pytest.raises(ValueError):
        weak_feedback_p(2.0, 1.0, slack=0.1)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"r must be at least 2 and finite, got {r}"):
            weak_feedback_p(r, 0.5)


def test_p0_sup_values():
    assert p0_sup(1.0) == pytest.approx(6.0, rel=1e-14)
    assert p0_sup(0.5) == pytest.approx(15.0, rel=1e-14)
    assert p0_sup(0.0) == math.inf
    with pytest.raises(ValueError):
        p0_sup(1.2)


def test_moderate_worked_values_exact():
    # hand evaluation of the recurrence at m0 = 2, alpha = 5/4:
    #   p0 = 1 + 7/2 - 5/2 = 2,  r0 = min(8/3 - 2, 1) = 2/3,  m1 = 4/3 + 2/3 + 2 = 4
    #   p1 = 2 + 1 = 3,          r1 = min(2, 2) = 2,          m2 = 2 + 2 + 2 = 6
    seq = moderate_seq(2.0, 1.25, 3)
    assert (seq[0].p, seq[0].r) == (2.0, 2.0 / 3.0)
    assert seq[1].first == 4.0
    assert (seq[1].p, seq[1].r) == (3.0, 2.0)
    assert seq[2].first == 6.0
    # first index with p > 3 is k = 2, and m3 = (5/3) p2 + 1 = 23/3 > 6
    assert seq[2].p == 4.0
    m3 = (2.0 * seq[2].p) / 3.0 + seq[2].r + 2.0
    assert m3 == pytest.approx(23.0 / 3.0, rel=1e-14)


def test_moderate_structural_parts():
    seq = moderate_seq(2.0, 1.25, 60)
    for a, b in zip(seq, seq[1:]):
        assert a.p > 1.0
        assert 1.5 * (a.r + 2.0) <= b.first + 1e-12
        if a.p > 24.0 - 12.0 * 1.25 + 1e-9:
            assert b.first < a.first


def test_moderate_validation():
    with pytest.raises(ValueError):
        moderate_seq(1.0, 1.25, 5)
    with pytest.raises(ValueError):
        moderate_seq(2.0, 1.0, 5)
    with pytest.raises(ValueError):
        moderate_seq(2.0, 1.6, 5)
    for m0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"m0 must be at least 2 and finite, got {m0}"):
            moderate_seq(m0, 1.25, 5)


def test_moderate_hat_worked_values():
    # mhat0 = 6.5, alpha = 3/2: phat0 = 6.5, rhat0 = 5.5, mhat1 = 13/3 + 7.5 = 71/6
    seq = moderate_seq_hat(6.5, 1.5, 2)
    assert seq[0].p == 6.5 and seq[0].r == 5.5
    assert seq[1].first == pytest.approx(71.0 / 6.0, rel=1e-13)


def test_moderate_hat_structural_parts():
    alpha = 1.2
    seq = moderate_seq_hat(6.1, alpha, 80)
    for a, b in zip(seq, seq[1:]):
        assert a.p > 3.0
        assert b.first - a.first > 6.0 - 2.0 * alpha - 1e-9
    # divergence: exceeds any bound within a computable number of steps
    assert seq[-1].first > 6.1 + 79 * (6.0 - 2.0 * alpha) - 1e-6
    with pytest.raises(ValueError):
        moderate_seq_hat(6.0, 1.2, 5)
    for mhat0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"hat seed must exceed 6 and be finite, got {mhat0}"):
            moderate_seq_hat(mhat0, 1.2, 5)


def test_strong_worked_values():
    # q0 = -1/2, alpha = 7/4: p0 = 1, r0 = 0, q1 = 7/6 - 3/2 = -1/3, p1 = 7/6
    seq = strong_seq(-0.5, 1.75, 3)
    assert seq[0].p == 1.0 and seq[0].r == 0.0
    assert seq[1].first == pytest.approx(-1.0 / 3.0, rel=1e-12)
    assert seq[1].p == pytest.approx(7.0 / 6.0, rel=1e-14)


def test_strong_exact_geometric_identity():
    seq = strong_seq(0.3, 1.8, 120)
    p0 = seq[0].p
    for tr in seq:
        assert abs(tr.p - (7.0 / 6.0) ** tr.k * p0) <= 1e-12 * max(1.0, (7.0 / 6.0) ** tr.k * p0)
    for a, b in zip(seq, seq[1:]):
        assert b.p / a.p == pytest.approx(7.0 / 6.0, rel=1e-13)
        assert b.first > a.first


def test_strong_boundary_seed_r0_zero():
    # q0 = 2 alpha - 4 gives p0 = 1 exactly: r0 = 0 is logged, not a violation
    alpha = 1.75
    seq = strong_seq(2.0 * alpha - 4.0, alpha, 50)
    assert seq[0].r == 0.0
    assert all(tr.first > -1.0 for tr in seq)
    assert all(tr.r > 0.0 for tr in seq[1:])
    with pytest.raises(ValueError):
        strong_seq(-1.0, 1.75, 5)
    with pytest.raises(ValueError):
        strong_seq(0.0, 1.5, 5)
    for q0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"q0 must exceed -1 and be finite, got {q0}"):
            strong_seq(q0, 1.75, 5)


def test_strong_growth_bound():
    seq = strong_seq(0.0, 1.75, 60)
    p0 = seq[0].p
    kbound = math.ceil(math.log(100.0 / p0) / math.log(7.0 / 6.0))
    first_above = next(tr.k for tr in seq if tr.p > 100.0)
    assert first_above <= kbound


def test_verify_regime_lemmas_clean():
    rep = verify_regime_lemmas(samples=100, seed=1, iterations=200)
    assert rep.ok
    assert rep.moderate.violations == ()
    assert rep.moderate_hat.violations == ()
    assert rep.strong.violations == ()
    assert rep.strong.boundary_cases >= 1  # the p0 = 1 seed is logged


def test_recursions_bit_reproducible():
    assert moderate_seq(2.7, 1.3, 50) == moderate_seq(2.7, 1.3, 50)
    assert strong_seq(0.4, 1.9, 50) == strong_seq(0.4, 1.9, 50)
    r1 = verify_regime_lemmas(samples=20, seed=9, iterations=50)
    r2 = verify_regime_lemmas(samples=20, seed=9, iterations=50)
    assert r1 == r2


def test_triple_is_plain_record():
    tr = ExponentTriple(k=0, first=2.0, p=2.0, r=2.0 / 3.0)
    assert (tr.k, tr.first, tr.p, tr.r) == (0, 2.0, 2.0, 2.0 / 3.0)
