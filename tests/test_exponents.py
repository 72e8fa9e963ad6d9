import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaxis import exponents
from dtaxis.exponents import (ExponentTriple, RegimeReport, moderate_seq, moderate_seq_hat,
                              p0_sup, regime, strong_seq, verify_regime_lemmas,
                              weak_feedback_p)


def test_weak_feedback_examples():
    # r=2, alpha=1: 2 + (4/3 - 2 + 1) - 1e-6 = 7/3 - 1e-6, which exceeds 9/4
    assert weak_feedback_p(2.0, 1.0) == pytest.approx(7.0 / 3.0 - 1e-6, rel=1e-13)
    assert weak_feedback_p(2.0, 1.0) > 2.25
    assert weak_feedback_p(2.0, 0.0) == pytest.approx(13.0 / 3.0 - 1e-6, rel=1e-13)


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


@pytest.mark.parametrize("samples, iterations, name", [
    (0, 10, "samples"), (-3, 10, "samples"), (5, 0, "iterations"), (5, -1, "iterations")])
def test_verify_refuses_sizes_below_one(samples, iterations, name):
    bad = min(samples, iterations)
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {bad}$"):
        verify_regime_lemmas(samples, 0, iterations)


def test_regime_outside_0_to_2_is_none():
    assert [regime(a) for a in (0.0, -0.0, math.nextafter(2.0, 0.0))] == ["weak", "weak", "strong"]
    assert [regime(a) for a in (-1e-300, 2.0, math.inf, math.nan)] == [None] * 4


_BELOW_1, _ABOVE_3_2 = math.nextafter(1.0, 2.0), math.nextafter(1.5, 2.0)


@pytest.mark.parametrize("call, alpha, message", [
    (lambda a: weak_feedback_p(2.0, a), _BELOW_1, "alpha must lie in [0, 1]"),
    (lambda a: weak_feedback_p(2.0, a), -0.5, "alpha must lie in [0, 1]"),
    (p0_sup, _BELOW_1, "alpha must lie in [0, 1]"),
    (lambda a: moderate_seq(2.0, a, 3), 1.0, "moderate regime needs 1 < alpha <= 3/2"),
    (lambda a: moderate_seq(2.0, a, 3), _ABOVE_3_2, "moderate regime needs 1 < alpha <= 3/2"),
    (lambda a: moderate_seq_hat(6.5, a, 3), 1.0, "moderate regime needs 1 < alpha <= 3/2"),
    (lambda a: strong_seq(-0.5, a, 3), 1.5, "strong regime needs 3/2 < alpha < 2"),
    (lambda a: strong_seq(-0.5, a, 3), 2.0, "strong regime needs 3/2 < alpha < 2")])
def test_each_builder_refuses_an_alpha_outside_its_regime(call, alpha, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {alpha}$"):
        call(alpha)


def test_verify_refuses_iterations_past_the_strong_checks_range():
    # p_k takes two roundings of u = eps / 2 per step, (7/6)^k p_0 one per step from the
    # rounded base and one each in the power and the product: 3 (k + 1) for every k < limit;
    # 7 p_k, which each step forms, stays finite for p_0 below 8 = max q0 + 5 - 2 min alpha
    limit, u = exponents._MAX_ITERATIONS, sys.float_info.epsilon / 2.0
    assert 3 * limit * u <= 1e-12 < 3 * (limit + 1) * u
    assert 7.0 * (7.0 / 6.0) ** (limit - 1) * 8.0 < sys.float_info.max
    assert verify_regime_lemmas(samples=3, seed=2, iterations=limit).ok
    with pytest.raises(ValueError, match=rf"^iterations must be at most {limit}, got {limit + 1}$"):
        verify_regime_lemmas(samples=3, seed=2, iterations=limit + 1)


@pytest.mark.parametrize("call, message", [
    (lambda: moderate_seq(10.0, 1.25, 2.5), "K must be an integer, got 2.5"),
    (lambda: strong_seq(0.0, 1.75, math.nan), "K must be an integer, got nan"),
    (lambda: verify_regime_lemmas(2.5, 0, 3), "samples must be an integer, got 2.5"),
    (lambda: verify_regime_lemmas(3, 0, 3.5), "iterations must be an integer, got 3.5"),
    (lambda: verify_regime_lemmas(3, 0.5, 3), "seed must be an integer, got 0.5"),
    (lambda: verify_regime_lemmas(3, -1, 3), "seed must be at least 0, got -1")])
def test_counts_and_seeds_must_be_integers(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_integral_counts_of_any_type_are_taken():
    three = strong_seq(0.0, 1.75, 3)
    assert strong_seq(0.0, 1.75, 3.0) == strong_seq(0.0, 1.75, np.int64(3)) == three
    assert verify_regime_lemmas(3.0, np.int64(4), 5.0) == verify_regime_lemmas(3, 4, 5)


@pytest.mark.parametrize("K", [0, -2])
@pytest.mark.parametrize("build, seed, alpha", [
    (moderate_seq, 2.0, 1.25), (moderate_seq_hat, 6.5, 1.25), (strong_seq, -0.5, 1.75)])
def test_sequences_refuse_fewer_than_one_step(build, seed, alpha, K):
    with pytest.raises(ValueError, match=rf"^K must be at least 1, got {K}$"):
        build(seed, alpha, K)


def _scalar_moderate(alpha, m0, K, bad):
    seq = moderate_seq(m0, alpha, K)
    tag = f"(alpha={alpha:.6g}, m0={m0:.6g})"
    found_k0 = False
    for j, tr in enumerate(seq):
        m_next = seq[j + 1].first if j + 1 < K else (2.0 * tr.p) / 3.0 + tr.r + 2.0
        if not tr.p > 1.0 - 1e-12:
            bad.append(f"moderate a) p_k <= 1 at k={tr.k} {tag}")
        if 1.5 * (tr.r + 2.0) > m_next + 1e-9:
            bad.append(f"moderate a) 3/2 (r_k+2) > m_k+1 at k={tr.k} {tag}")
        if not found_k0 and tr.p > 3.0 + 1e-12:
            found_k0 = True
            if not m_next > 6.0:
                bad.append(f"moderate b) m_k0+1 <= 6 at k0={tr.k} {tag}")
        if tr.p > 24.0 - 12.0 * alpha + 1e-9:
            if m_next >= tr.first + 1e-12 * max(1.0, abs(tr.first)):
                bad.append(f"moderate c) m increased past threshold at k={tr.k} {tag}")
    if not found_k0:
        bad.append(f"moderate b) no k0 with p_k0 > 3 within {K} steps {tag}")


def _scalar_moderate_hat(alpha, m0, K, bad):
    seq = moderate_seq_hat(m0, alpha, K)
    tag = f"(alpha={alpha:.6g}, mhat0={m0:.6g})"
    floor = 6.0 - 2.0 * alpha
    for j, tr in enumerate(seq):
        m_next = seq[j + 1].first if j + 1 < K else (2.0 * tr.p) / 3.0 + tr.r + 2.0
        if not tr.p > 3.0 - 1e-12:
            bad.append(f"hat a) p_k <= 3 at k={tr.k} {tag}")
        if 1.5 * (tr.r + 2.0) > m_next + 1e-9:
            bad.append(f"hat a) 3/2 (r_k+2) > m_k+1 at k={tr.k} {tag}")
        if m_next - tr.first <= floor - 1e-9:
            bad.append(f"hat c) increment below 6 - 2 alpha at k={tr.k} {tag}")
    if seq[-1].first < m0 + (K - 1) * floor - 1e-6:
        bad.append(f"hat c) sequence not diverging {tag}")


def _scalar_strong(alpha, q0, K, bad):
    seq = strong_seq(q0, alpha, K)
    tag = f"(alpha={alpha:.6g}, q0={q0:.6g})"
    p0 = seq[0].p
    boundary = 0
    for j, tr in enumerate(seq):
        exact = (7.0 / 6.0) ** tr.k * p0
        if abs(tr.p - exact) > 1e-12 * max(1.0, abs(exact)):
            bad.append(f"strong p_k != (7/6)^k p_0 at k={tr.k} {tag}")
        if not tr.first > -1.0:
            bad.append(f"strong q_k <= -1 at k={tr.k} {tag}")
        if tr.p > 1.0 + 1e-12 and not tr.r > 0.0:
            bad.append(f"strong r_k <= 0 with p_k > 1 at k={tr.k} {tag}")
        if abs(tr.r) <= 1e-12:
            boundary += 1
        if j + 1 < K:
            if not seq[j + 1].first > tr.first:
                bad.append(f"strong q not increasing at k={tr.k} {tag}")
            if not seq[j + 1].p > tr.p:
                bad.append(f"strong p not increasing at k={tr.k} {tag}")
    target = next((tr.k for tr in seq if tr.p > 100.0), None)
    if target is not None:
        kbound = math.ceil(math.log(100.0 / p0) / math.log(7.0 / 6.0))
        if target > max(kbound, 0):
            bad.append(f"strong growth slower than geometric {tag}")
    return boundary


def _scalar_verify(samples, seed, K):
    """The verifier one (alpha, seed) pair at a time, with scalar draws."""
    rng = np.random.default_rng(seed)
    bad_m, bad_h, bad_s = [], [], []
    for _ in range(samples):
        alpha = float(rng.uniform(1.0 + 1e-9, 1.5))
        _scalar_moderate(alpha, float(rng.uniform(2.0, 60.0)), K, bad_m)
    _scalar_moderate(1.5, 2.0, K, bad_m)
    for _ in range(samples):
        alpha = float(rng.uniform(1.0 + 1e-9, 1.5))
        _scalar_moderate_hat(alpha, float(rng.uniform(6.0 + 1e-6, 40.0)), K, bad_h)
    boundary = 0
    for _ in range(samples):
        alpha = float(rng.uniform(1.5 + 1e-9, 2.0 - 1e-9))
        boundary += _scalar_strong(alpha, float(rng.uniform(-1.0 + 1e-6, 6.0)), K, bad_s)
    boundary += _scalar_strong(1.5 + 1e-9, -0.99, K, bad_s)
    boundary += _scalar_strong(1.75, 2.0 * 1.75 - 4.0, K, bad_s)
    return (RegimeReport("moderate", samples + 1, K, tuple(bad_m)),
            RegimeReport("moderate_hat", samples, K, tuple(bad_h)),
            RegimeReport("strong", samples + 2, K, tuple(bad_s), boundary_cases=boundary))


# 1000 samples make 1000 to 1002 lanes per regime, all in blocks of _B iterates; 8193 and more
# lanes take blocks of one iterate
_B = exponents.BLOCK_ENTRIES // 1002


@pytest.mark.parametrize("samples, seed, K", [
    *((37, 7, K) for K in (1, 2, 3, 4, 6)), (1, 0, 5), (60, 11, 40), (200, 3, 200),
    *((1000, 5, K) for K in (_B - 1, _B, _B + 1, 2 * _B + 1)), (8193, 2, 3)])
def test_verify_equals_the_scalar_checks_of_one_pair_at_a_time(samples, seed, K):
    assert exponents.BLOCK_ENTRIES // 1000 == _B > 1 == exponents.BLOCK_ENTRIES // 8193
    assert verify_regime_lemmas(samples, seed, K).reports() == _scalar_verify(samples, seed, K)


def _moderate_no_k0(K, *tags):
    return tuple(f"moderate b) no k0 with p_k0 > 3 within {K} steps {tag}" for tag in tags)


@pytest.mark.parametrize("K, moderate", [
    (1, _moderate_no_k0(1, "(alpha=1.18477, m0=2.21659)", "(alpha=1.5, m0=2)")),
    (2, _moderate_no_k0(2, "(alpha=1.5, m0=2)")),
    (4, _moderate_no_k0(4, "(alpha=1.5, m0=2)"))])
def test_verify_reports_of_few_steps_are_pinned(K, moderate):
    # a lane whose p never passes 3 in K steps: a drawn one at K = 1, the edge (1.5, 2) up to
    # K = 4 (p_3 = 3 exactly); the strong edge seed q0 = 2 alpha - 4 has r_0 = 0
    rep = verify_regime_lemmas(37, 7, K)
    assert rep.moderate == RegimeReport("moderate", 38, K, moderate)
    assert rep.moderate_hat == RegimeReport("moderate_hat", 37, K, ())
    assert rep.strong == RegimeReport("strong", 39, K, (), boundary_cases=1)


@pytest.mark.parametrize("regime, faults, messages", [
    # the edge lane (alpha=1.5, m0=2): p_0 = 30 is a k0 with m_1 = 3, and past 24 - 12 alpha
    ("moderate", [(5, 0, 30.0)], (
        "moderate b) m_k0+1 <= 6 at k0=0 (alpha=1.5, m0=2)",
        "moderate c) m increased past threshold at k=0 (alpha=1.5, m0=2)")),
    # two lanes: lane 1 is reported first though its fault comes at the later k
    ("moderate", [(4, 1, 0.5), (1, 3, 0.5)], (
        "moderate a) p_k <= 1 at k=3 (alpha=1.40064, m0=35.7654)",
        "moderate a) p_k <= 1 at k=1 (alpha=1.36729, m0=8.59298)")),
    ("moderate_hat", [(1, 2, 2.0)], ("hat a) p_k <= 3 at k=2 (alpha=1.21531, mhat0=25.9512)",)),
    # p_17 is the first above 100; at 50 it falls below p_16 and delays the passage past 100
    ("strong", [(0, 17, 50.0)], (
        "strong p not increasing at k=16 (alpha=1.50075, q0=5.81422)",
        "strong p_k != (7/6)^k p_0 at k=17 (alpha=1.50075, q0=5.81422)",
        "strong growth slower than geometric (alpha=1.50075, q0=5.81422)"))])
def test_an_injected_fault_is_reported_in_order(monkeypatch, regime, faults, messages):
    # each (lane, k, value) sets p_k of that lane; the messages are those of the scalar
    # checks with the same p_k set in that pair's sequence
    _inject(monkeypatch, regime, faults)
    reports = {r.regime: r for r in verify_regime_lemmas(5, 3, 20).reports()}
    assert reports.pop(regime).violations == messages
    assert all(r.ok for r in reports.values())


@pytest.mark.parametrize("entries", [1, 7 * 16, 7 * 17])
def test_an_injected_fault_is_reported_across_block_edges(monkeypatch, entries):
    # 7 strong lanes in blocks of 1, 16 or 17 iterates: p_17 = 50 is the first row of a block
    # at 1 and 17, so that the step from p_16 to it crosses a block edge, and the second at 16
    monkeypatch.setattr(exponents, "BLOCK_ENTRIES", entries)
    _inject(monkeypatch, "strong", [(0, 17, 50.0)])
    assert verify_regime_lemmas(5, 3, 20).strong.violations == (
        "strong p not increasing at k=16 (alpha=1.50075, q0=5.81422)",
        "strong p_k != (7/6)^k p_0 at k=17 (alpha=1.50075, q0=5.81422)",
        "strong growth slower than geometric (alpha=1.50075, q0=5.81422)")


def _inject(monkeypatch, regime, faults):
    """Make the recursion of one regime yield p_k = value at each (lane, k, value) fault."""
    real = exponents._recursion

    def faulty(name, first, alpha, K):
        for k, m, p, r, m_next in real(name, first, alpha, K):
            if name == regime:
                p = p.copy()
                for lane, k_fault, value in faults:
                    if k <= k_fault < k + len(p):
                        p[k_fault - k, lane] = value
            yield k, m, p, r, m_next

    monkeypatch.setattr(exponents, "_recursion", faulty)


def _scalar_triples(regime, first, alpha, K):
    """The recurrences on Python floats, one lane at a time."""
    out, shift = [], 5.0 - 2.0 * alpha
    p = first + shift
    for _ in range(K):
        if regime == "strong":
            out.append((first, p, p - 1.0))
            p = 7.0 * p / 6.0
            first = p - shift
            continue
        if regime == "moderate":
            p = first / 2.0 + 3.5 - 2.0 * alpha
            r = min((4.0 * p - 6.0) / 3.0, p - 1.0)
        else:
            p = first + 3.0 - 2.0 * alpha
            r = p - 1.0
        out.append((first, p, r))
        first = (2.0 * p) / 3.0 + r + 2.0
    return out


_ALPHA = st.floats(1.0, 1.5, exclude_min=True)
_REGIMES = {"moderate": (moderate_seq, st.floats(2.0, 60.0), _ALPHA),
            "moderate_hat": (moderate_seq_hat, st.floats(6.0, 40.0, exclude_min=True), _ALPHA),
            "strong": (strong_seq, st.floats(-1.0, 6.0, exclude_min=True),
                       st.floats(1.5, 2.0, exclude_min=True, exclude_max=True))}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_each_lane_of_a_batch_is_its_one_lane_sequence_bit_for_bit(data):
    regime = data.draw(st.sampled_from(sorted(_REGIMES)))
    build, seed_floats, alpha_floats = _REGIMES[regime]
    pairs = data.draw(st.lists(st.tuples(seed_floats, alpha_floats), min_size=1, max_size=40))
    K = data.draw(st.integers(1, 80))
    entries = data.draw(st.integers(1, 100 * len(pairs)))  # blocks of 1 to 100 iterates
    seeds, alphas = (np.array(x) for x in zip(*pairs))
    lanes = [[] for _ in pairs]
    with mock.patch.object(exponents, "BLOCK_ENTRIES", entries):
        for k, *tables, _ in exponents._recursion(regime, seeds, alphas, K):
            assert k == sum(map(len, lanes)) // len(pairs)
            for row in zip(*(t.tolist() for t in tables)):
                for i, triple in enumerate(zip(*row)):
                    lanes[i].append(tuple(map(float.hex, triple)))
    for (seed, alpha), lane in zip(pairs, lanes):
        one = [tuple(map(float.hex, (t.first, t.p, t.r))) for t in build(seed, alpha, K)]
        scalar = [tuple(map(float.hex, t)) for t in _scalar_triples(regime, seed, alpha, K)]
        assert lane == one == scalar
