"""Bootstrap exponent recursions and their programmatic verification.

Pure arithmetic, completely independent of the solver.  Three integrability
regimes of the response exponent alpha come with three recursions that upgrade
moment exponents step by step:

* weak (0 <= alpha <= 1): a single feedback jump p(r) and the supremum of
  admissible gradient exponents p0;
* moderate (1 < alpha <= 3/2): the two-phase sequences (m_k, p_k, r_k) and
  the re-seeded hat variant that diverges once the seed exceeds 6;
* strong (3/2 < alpha < 2): the sequence (q_k, p_k, r_k) whose p-component
  grows by the exact factor 7/6 each step.

All recursions are deterministic float arithmetic and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExponentTriple:
    """One entry of a bootstrap sequence: (m_k or q_k, p_k, r_k) at index k."""

    k: int
    first: float
    p: float
    r: float


def weak_feedback_p(r: float, alpha: float, slack: float = 1e-6) -> float:
    """The moment exponent one feedback pass upgrades r to, minus a slack.

    Returns r + (2r/3 - 2 alpha + 1) - slack.  The slack realizes "strictly
    below, arbitrarily close"; it must stay below 1/12 so the result is
    guaranteed to exceed r + 1/4.
    """
    if r < 2.0:
        raise ValueError(f"r must be at least 2, got {r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0.0 < slack < 1.0 / 12.0:
        raise ValueError(f"slack must lie in (0, 1/12), got {slack}")
    p = r + (2.0 * r / 3.0 - 2.0 * alpha + 1.0) - slack
    if not p > r + 0.25:
        raise ValueError(f"slack {slack} too large to keep p > r + 1/4")
    return p


def p0_sup(alpha: float) -> float:
    """Exclusive supremum of gradient integrability exponents; inf at alpha=0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return math.inf
    return 3.0 * (3.0 - alpha) / alpha


def moderate_seq(m0: float, alpha: float, K: int) -> list[ExponentTriple]:
    """First-phase moderate-regime triples from the verbatim recurrence.

    p_k = m_k/2 + 7/2 - 2 alpha,
    r_k = min(4 p_k / 3 - 2, p_k - 1),
    m_(k+1) = 2 p_k / 3 + r_k + 2.

    Subexpressions are grouped as (4p - 6)/3 and (2p)/3 so the small worked
    cases come out bit-exact.
    """
    if m0 < 2.0:
        raise ValueError(f"m0 must be at least 2, got {m0}")
    _require_moderate(alpha)
    out = []
    m = float(m0)
    for k in range(K):
        p = m / 2.0 + 3.5 - 2.0 * alpha
        r = min((4.0 * p - 6.0) / 3.0, p - 1.0)
        out.append(ExponentTriple(k=k, first=m, p=p, r=r))
        m = (2.0 * p) / 3.0 + r + 2.0
    return out


def moderate_seq_hat(mhat0: float, alpha: float, K: int) -> list[ExponentTriple]:
    """Second-phase (re-seeded) moderate triples; diverges once the seed > 6.

    p_k = m_k + 3 - 2 alpha, r_k = p_k - 1, m_(k+1) = 2 p_k / 3 + r_k + 2.
    """
    if mhat0 <= 6.0:
        raise ValueError(f"hat seed must exceed 6, got {mhat0}")
    _require_moderate(alpha)
    out = []
    m = float(mhat0)
    for k in range(K):
        p = m + 3.0 - 2.0 * alpha
        r = p - 1.0
        out.append(ExponentTriple(k=k, first=m, p=p, r=r))
        m = (2.0 * p) / 3.0 + r + 2.0
    return out


def strong_seq(q0: float, alpha: float, K: int) -> list[ExponentTriple]:
    """Strong-regime triples: p_k = q_k + 5 - 2 alpha, r_k = p_k - 1,
    q_(k+1) = 7 p_k / 6 + 2 alpha - 5, so p_k = (7/6)^k p_0 exactly.

    The seed q0 = 2 alpha - 4 gives p_0 = 1 and hence r_0 = 0; strict
    positivity of r_k only holds where p_k > 1.

    The iteration is driven by p (p_(k+1) = 7 p_k / 6, q_k recovered by the
    constant shift): algebraically identical to the q-recurrence but immune to
    the cancellation q_k ~ -1 suffers when p_0 is tiny.
    """
    if q0 <= -1.0:
        raise ValueError(f"q0 must exceed -1, got {q0}")
    _require_strong(alpha)
    out = []
    shift = 5.0 - 2.0 * alpha
    q = float(q0)
    p = q + shift
    for k in range(K):
        out.append(ExponentTriple(k=k, first=q, p=p, r=p - 1.0))
        p = 7.0 * p / 6.0
        q = p - shift
    return out


def _require_moderate(alpha: float):
    if not 1.0 < alpha <= 1.5:
        raise ValueError(f"moderate regime needs 1 < alpha <= 3/2, got {alpha}")


def _require_strong(alpha: float):
    if not 1.5 < alpha < 2.0:
        raise ValueError(f"strong regime needs 3/2 < alpha < 2, got {alpha}")


# ---------------------------------------------------------------------------
# programmatic verification


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    samples: int
    iterations: int
    violations: tuple[str, ...]
    boundary_cases: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "samples": self.samples,
            "iterations": self.iterations,
            "violations": list(self.violations),
            "boundary_cases": self.boundary_cases,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class VerifyReport:
    moderate: RegimeReport
    moderate_hat: RegimeReport
    strong: RegimeReport

    @property
    def ok(self) -> bool:
        return self.moderate.ok and self.moderate_hat.ok and self.strong.ok

    def reports(self) -> tuple[RegimeReport, ...]:
        return (self.moderate, self.moderate_hat, self.strong)


_EPS = 1e-9


def _check_moderate(alpha: float, m0: float, K: int, bad: list):
    seq = moderate_seq(m0, alpha, K)
    tag = f"(alpha={alpha:.6g}, m0={m0:.6g})"
    found_k0 = False
    for j, tr in enumerate(seq):
        m_next = seq[j + 1].first if j + 1 < K else (2.0 * tr.p) / 3.0 + tr.r + 2.0
        if not tr.p > 1.0 - 1e-12:
            bad.append(f"moderate a) p_k <= 1 at k={tr.k} {tag}")
        if 1.5 * (tr.r + 2.0) > m_next + _EPS:
            bad.append(f"moderate a) 3/2 (r_k+2) > m_k+1 at k={tr.k} {tag}")
        if not found_k0 and tr.p > 3.0 + 1e-12:
            found_k0 = True
            if not m_next > 6.0:
                bad.append(f"moderate b) m_k0+1 <= 6 at k0={tr.k} {tag}")
        if tr.p > 24.0 - 12.0 * alpha + _EPS:
            if m_next >= tr.first + 1e-12 * max(1.0, abs(tr.first)):
                bad.append(f"moderate c) m increased past threshold at k={tr.k} {tag}")
    if not found_k0:
        bad.append(f"moderate b) no k0 with p_k0 > 3 within {K} steps {tag}")


def _check_moderate_hat(alpha: float, m0: float, K: int, bad: list):
    seq = moderate_seq_hat(m0, alpha, K)
    tag = f"(alpha={alpha:.6g}, mhat0={m0:.6g})"
    floor = 6.0 - 2.0 * alpha
    for j, tr in enumerate(seq):
        m_next = seq[j + 1].first if j + 1 < K else (2.0 * tr.p) / 3.0 + tr.r + 2.0
        if not tr.p > 3.0 - 1e-12:
            bad.append(f"hat a) p_k <= 3 at k={tr.k} {tag}")
        if 1.5 * (tr.r + 2.0) > m_next + _EPS:
            bad.append(f"hat a) 3/2 (r_k+2) > m_k+1 at k={tr.k} {tag}")
        if m_next - tr.first <= floor - _EPS:
            bad.append(f"hat c) increment below 6 - 2 alpha at k={tr.k} {tag}")
    if seq[-1].first < m0 + (K - 1) * floor - 1e-6:
        bad.append(f"hat c) sequence not diverging {tag}")


def _check_strong(alpha: float, q0: float, K: int, bad: list) -> int:
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
    # geometric growth: p exceeds 100 within ceil(log_(7/6)(100/p0)) steps
    target = next((tr.k for tr in seq if tr.p > 100.0), None)
    if target is not None:
        kbound = math.ceil(math.log(100.0 / p0) / math.log(7.0 / 6.0))
        if target > max(kbound, 0):
            bad.append(f"strong growth slower than geometric {tag}")
    return boundary


def verify_regime_lemmas(samples: int = 1000, seed: int = 0,
                         iterations: int = 200) -> VerifyReport:
    """Draw random admissible (alpha, seed) pairs per regime and assert every
    stated structural property of the three recursions; returns the
    counterexample report (expected empty)."""
    rng = np.random.default_rng(seed)

    bad_m: list[str] = []
    for _ in range(samples):
        alpha = float(rng.uniform(1.0 + 1e-9, 1.5))
        m0 = float(rng.uniform(2.0, 60.0))
        _check_moderate(alpha, m0, iterations, bad_m)
    _check_moderate(1.5, 2.0, iterations, bad_m)

    bad_h: list[str] = []
    for _ in range(samples):
        alpha = float(rng.uniform(1.0 + 1e-9, 1.5))
        m0 = float(rng.uniform(6.0 + 1e-6, 40.0))
        _check_moderate_hat(alpha, m0, iterations, bad_h)

    bad_s: list[str] = []
    boundary = 0
    for _ in range(samples):
        alpha = float(rng.uniform(1.5 + 1e-9, 2.0 - 1e-9))
        q0 = float(rng.uniform(-1.0 + 1e-6, 6.0))
        boundary += _check_strong(alpha, q0, iterations, bad_s)
    # limit-case robustness near the regime boundary and near the seed floor
    boundary += _check_strong(1.5 + 1e-9, -0.99, iterations, bad_s)
    alpha_edge = 1.75
    boundary += _check_strong(alpha_edge, 2.0 * alpha_edge - 4.0, iterations, bad_s)

    return VerifyReport(
        moderate=RegimeReport("moderate", samples + 1, iterations, tuple(bad_m)),
        moderate_hat=RegimeReport("moderate_hat", samples, iterations, tuple(bad_h)),
        strong=RegimeReport("strong", samples + 2, iterations, tuple(bad_s),
                            boundary_cases=boundary),
    )
