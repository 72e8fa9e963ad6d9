"""Bootstrap exponent recursions and their programmatic verification.

Pure arithmetic, completely independent of the solver.  ``regime`` alone splits
the response exponent alpha into three integrability regimes, which come with
three recursions that upgrade moment exponents step by step:

* weak (0 <= alpha <= 1): a single feedback jump p(r) and the supremum of
  admissible gradient exponents p0;
* moderate (1 < alpha <= 3/2): the two-phase sequences (m_k, p_k, r_k) and
  the re-seeded hat variant that diverges once the seed exceeds 6;
* strong (3/2 < alpha < 2): the sequence (q_k, p_k, r_k) whose p-component
  grows by the exact factor 7/6 each step.

All recursions are deterministic float arithmetic and bit-reproducible.  The
moderate, hat and strong ones fill tables of a lane per (seed, alpha) pair and a
row per iterate, a block of rows at a time: the verifier takes each step for all
its samples in one operation, and each check once per block.  Each operation is
elementwise IEEE arithmetic, so a lane is bit-equal to the one-lane sequence of
``moderate_seq``, ``moderate_seq_hat`` and ``strong_seq``.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np


def regime(alpha: float) -> str | None:
    """The paper's regime of a response exponent: "weak" for 0 <= alpha <= 1, "moderate"
    for 1 < alpha <= 3/2, "strong" for 3/2 < alpha < 2, and None outside [0, 2)."""
    if not 0.0 <= alpha < 2.0:
        return None
    return "weak" if alpha <= 1.0 else "moderate" if alpha <= 1.5 else "strong"


class ExponentTriple(NamedTuple):
    """One entry of a bootstrap sequence: (m_k or q_k, p_k, r_k) at index k."""

    k: int
    first: float
    p: float
    r: float


def weak_feedback_p(r: float, alpha: float) -> float:
    """The moment exponent one feedback pass upgrades r to, minus a slack.

    Returns r + (2r/3 - 2 alpha + 1) - 1e-6.  The slack realizes "strictly
    below, arbitrarily close"; with r >= 2 and alpha <= 1 the result exceeds
    r + 1/3 - 1e-6 > r + 1/4.
    """
    if not 2.0 <= r < math.inf:
        raise ValueError(f"r must be at least 2 and finite, got {r}")
    _require_regime("weak", alpha)
    return r + (2.0 * r / 3.0 - 2.0 * alpha + 1.0) - 1e-6


def p0_sup(alpha: float) -> float:
    """Exclusive supremum of gradient integrability exponents; inf at alpha=0."""
    _require_regime("weak", alpha)
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
    if not 2.0 <= m0 < math.inf:
        raise ValueError(f"m0 must be at least 2 and finite, got {m0}")
    return _one_lane("moderate", m0, alpha, K)


def moderate_seq_hat(mhat0: float, alpha: float, K: int) -> list[ExponentTriple]:
    """Second-phase (re-seeded) moderate triples; diverges once the seed > 6.

    p_k = m_k + 3 - 2 alpha, r_k = p_k - 1, m_(k+1) = 2 p_k / 3 + r_k + 2.
    """
    if not 6.0 < mhat0 < math.inf:
        raise ValueError(f"hat seed must exceed 6 and be finite, got {mhat0}")
    return _one_lane("moderate_hat", mhat0, alpha, K)


def strong_seq(q0: float, alpha: float, K: int) -> list[ExponentTriple]:
    """Strong-regime triples: p_k = q_k + 5 - 2 alpha, r_k = p_k - 1,
    q_(k+1) = 7 p_k / 6 + 2 alpha - 5, so p_k = (7/6)^k p_0 exactly.

    The seed q0 = 2 alpha - 4 gives p_0 = 1 and hence r_0 = 0; strict
    positivity of r_k only holds where p_k > 1.

    The iteration is driven by p (p_(k+1) = 7 p_k / 6, q_k recovered by the
    constant shift): algebraically identical to the q-recurrence but immune to
    the cancellation q_k ~ -1 suffers when p_0 is tiny.
    """
    if not -1.0 < q0 < math.inf:
        raise ValueError(f"q0 must exceed -1 and be finite, got {q0}")
    return _one_lane("strong", q0, alpha, K)


# a lane that overflows goes on in inf and nan, silently, as Python floats do
_AS_PYTHON_FLOATS = dict(over="ignore", invalid="ignore")
BLOCK_ENTRIES = 16384  # table entries per block of iterates (see _recursion)


def _recursion(kind: str, first, alpha, K: int):
    """Yield (k, first, p, r, first_next) for blocks of b = max(1, BLOCK_ENTRIES // lanes)
    iterates (the last may be shorter), each a (rows, lanes) table whose row j is iterate k + j;
    first is m, m_hat or q by kind.  The tables are reused: a block changes with the next one."""
    first, two_alpha = np.asarray(first, dtype=float), 2.0 * np.asarray(alpha, dtype=float)
    b, shift = min(K, max(1, BLOCK_ENTRIES // first.size)), 5.0 - two_alpha
    F, P, R = (np.empty((rows, first.size)) for rows in (b + 1, b + 1, b))
    for k in range(0, K, b):  # a block starts from the row after the last, which is full
        n, F[0] = min(b, K - k), F[b] if k else first
        if kind == "strong":
            P[0] = P[b] if k else first + shift
            for p, p_next in zip(P[:n], P[1:n + 1]):
                np.divide(7.0 * p, 6.0, out=p_next)
            np.subtract(P[1:n + 1], shift, out=F[1:n + 1])
            np.subtract(P[:n], 1.0, out=R[:n])
        else:
            for f, p, r, f_next in zip(F[:n], P[:n], R[:n], F[1:n + 1]):
                if kind == "moderate":
                    np.subtract(f / 2.0 + 3.5, two_alpha, out=p)
                    np.minimum((4.0 * p - 6.0) / 3.0, p - 1.0, out=r)
                else:
                    np.subtract(f + 3.0, two_alpha, out=p)
                    np.subtract(p, 1.0, out=r)
                np.add((2.0 * p) / 3.0 + r, 2.0, out=f_next)
        yield k, F[:n], P[:n], R[:n], F[1:n + 1]


def _one_lane(kind: str, first0: float, alpha: float, K: int) -> list[ExponentTriple]:
    _require_regime(kind.removesuffix("_hat"), alpha)
    K = _require_int("K", K)
    with np.errstate(**_AS_PYTHON_FLOATS):
        return [ExponentTriple(k + j, *row)
                for k, *tables, _ in _recursion(kind, [first0], [alpha], K)
                for j, row in enumerate(zip(*(t[:, 0].tolist() for t in tables)))]


_OUTSIDE = {"weak": "alpha must lie in [0, 1]",
            "moderate": "moderate regime needs 1 < alpha <= 3/2",
            "strong": "strong regime needs 3/2 < alpha < 2"}


def _require_regime(name: str, alpha: float):
    if regime(alpha) != name:
        raise ValueError(f"{_OUTSIDE[name]}, got {alpha}")


def _require_int(name: str, n, least: int = 1) -> int:
    if not float(n).is_integer():
        raise ValueError(f"{name} must be an integer, got {n}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return int(n)


# ---------------------------------------------------------------------------
# programmatic verification


class RegimeReport(NamedTuple):
    regime: str
    samples: int
    iterations: int
    violations: tuple[str, ...]
    boundary_cases: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {**self._asdict(), "ok": self.ok}


class VerifyReport(NamedTuple):
    moderate: RegimeReport
    moderate_hat: RegimeReport
    strong: RegimeReport

    @property
    def ok(self) -> bool:
        return self.moderate.ok and self.moderate_hat.ok and self.strong.ok

    def reports(self) -> tuple[RegimeReport, ...]:
        return (self.moderate, self.moderate_hat, self.strong)


_EPS = 1e-9
_P_TOL = 1e-12  # relative tolerance of the strong check p_k = (7/6)^k p_0
# p_k and (7/6)^k p_0 round apart by up to 3 (k + 1) half-ulps, within _P_TOL for all k below
_MAX_ITERATIONS = int(_P_TOL / (1.5 * sys.float_info.epsilon))


def _flag(flags: list, k: int, pos: int, *checks):
    """Record (lane, k + row, position, text) for every entry flagged by each (mask, text)
    check of a (rows, lanes) block whose row 0 is iterate k, the first at position ``pos``."""
    for j, (mask, text) in enumerate(zip(checks[::2], checks[1::2]), start=pos):
        if mask.any():
            rows, lanes = np.nonzero(mask)
            flags += [(i, k + row, j, text) for row, i in zip(rows.tolist(), lanes.tolist())]


def _firsts(mask, k: int, first):
    """The first true entry in each lane i of a block mask with first[i] < 0, as a mask; first[i]
    becomes its iterate k + row."""
    lanes = np.flatnonzero(mask.any(0) & (first < 0))
    rows, out = mask[:, lanes].argmax(0), np.zeros_like(mask)
    out[rows, lanes], first[lanes] = True, k + rows
    return out


def _messages(flags: list, alpha, seed, name: str) -> tuple[str, ...]:
    """Flagged checks by lane, then k, then position, each with its lane's tag."""
    return tuple(f"{text.format(k=k)} (alpha={float(alpha[i]):.6g}, {name}={float(seed[i]):.6g})"
                 for i, k, _, text in sorted(flags))


def _verify_moderate(alpha, m0, K: int) -> tuple[str, ...]:
    flags, k0 = [], np.full(alpha.size, -1)  # each lane's first k with p_k > 3, if any
    threshold = 24.0 - 12.0 * alpha + _EPS
    for k, m, p, r, m_next in _recursion("moderate", m0, alpha, K):
        _flag(flags, k, 0,
              ~(p > 1.0 - 1e-12), "moderate a) p_k <= 1 at k={k}",
              1.5 * (r + 2.0) > m_next + _EPS, "moderate a) 3/2 (r_k+2) > m_k+1 at k={k}",
              _firsts(p > 3.0 + 1e-12, k, k0) & ~(m_next > 6.0),
              "moderate b) m_k0+1 <= 6 at k0={k}",
              (p > threshold) & (m_next >= m + 1e-12 * np.maximum(1.0, np.abs(m))),
              "moderate c) m increased past threshold at k={k}")
    _flag(flags, K, 0, k0[None] < 0, f"moderate b) no k0 with p_k0 > 3 within {K} steps")
    return _messages(flags, alpha, m0, "m0")


def _verify_moderate_hat(alpha, m0, K: int) -> tuple[str, ...]:
    flags, floor = [], 6.0 - 2.0 * alpha
    for k, m, p, r, m_next in _recursion("moderate_hat", m0, alpha, K):
        _flag(flags, k, 0,
              ~(p > 3.0 - 1e-12), "hat a) p_k <= 3 at k={k}",
              1.5 * (r + 2.0) > m_next + _EPS, "hat a) 3/2 (r_k+2) > m_k+1 at k={k}",
              m_next - m <= floor - _EPS, "hat c) increment below 6 - 2 alpha at k={k}")
    _flag(flags, K, 0, m[-1:] < m0 + (K - 1) * floor - 1e-6, "hat c) sequence not diverging")
    return _messages(flags, alpha, m0, "mhat0")


def _verify_strong(alpha, q0, K: int) -> tuple[tuple[str, ...], int]:
    """The strong checks and the number of (lane, k) with r_k = 0 to 1e-12."""
    flags, boundary, above = [], 0, np.full(alpha.size, -1)  # the first k with p_k > 100
    powers = np.array([(7.0 / 6.0) ** k for k in range(K)])[:, None]  # Python float powers
    for k, q, p, r, _ in _recursion("strong", q0, alpha, K):
        if k == 0:
            p0 = p[0].copy()
        else:  # the step from the previous block's last row
            _flag(flags, k - 1, 3, ~(q[:1] > q_prev), "strong q not increasing at k={k}",
                  ~(p[:1] > p_prev), "strong p not increasing at k={k}")
        exact = powers[k:k + len(p)] * p0
        _flag(flags, k, 0,
              np.abs(p - exact) > _P_TOL * np.maximum(1.0, np.abs(exact)),
              "strong p_k != (7/6)^k p_0 at k={k}",
              ~(q > -1.0), "strong q_k <= -1 at k={k}",
              (p > 1.0 + 1e-12) & ~(r > 0.0), "strong r_k <= 0 with p_k > 1 at k={k}",
              ~(q[1:] > q[:-1]), "strong q not increasing at k={k}",
              ~(p[1:] > p[:-1]), "strong p not increasing at k={k}")
        boundary += int(np.count_nonzero(np.abs(r) <= 1e-12))
        _firsts(p > 100.0, k, above)
        q_prev, p_prev = q[-1:].copy(), p[-1:].copy()
    # geometric growth: p exceeds 100 within ceil(log_(7/6)(100/p0)) steps
    for i, (target, start) in enumerate(zip(above.tolist(), p0.tolist())):
        if target >= 0 and target > max(math.ceil(math.log(100.0 / start)
                                                  / math.log(7.0 / 6.0)), 0):
            flags.append((i, K, 0, "strong growth slower than geometric"))
    return _messages(flags, alpha, q0, "q0"), boundary


def verify_regime_lemmas(samples: int, seed: int, iterations: int) -> VerifyReport:
    """Draw random admissible (alpha, seed) pairs per regime and assert every
    stated structural property of the three recursions; returns the
    counterexample report (expected empty).

    Each regime runs one recursion over all its pairs at once, the drawn ones
    followed by fixed edge cases.  More than ``_MAX_ITERATIONS`` iterations are refused:
    past them rounding alone could fail the strong check, and 7 p_k overflows later still."""
    samples, iterations = _require_int("samples", samples), _require_int("iterations", iterations)
    if iterations > _MAX_ITERATIONS:
        raise ValueError(f"iterations must be at most {_MAX_ITERATIONS}, got {iterations}")
    rng = np.random.default_rng(_require_int("seed", seed, 0))

    def draw(lo, hi, *edges):
        pairs = np.concatenate([rng.uniform(lo, hi, size=(samples, 2)),
                                np.array(edges, dtype=float).reshape(-1, 2)])
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    with np.errstate(**_AS_PYTHON_FLOATS):
        alpha, m0 = draw((1.0 + 1e-9, 2.0), (1.5, 60.0), (1.5, 2.0))
        bad_m = _verify_moderate(alpha, m0, iterations)
        alpha, mhat0 = draw((1.0 + 1e-9, 6.0 + 1e-6), (1.5, 40.0))
        bad_h = _verify_moderate_hat(alpha, mhat0, iterations)
        # limit-case robustness near the regime boundary and near the seed floor
        alpha, q0 = draw((1.5 + 1e-9, -1.0 + 1e-6), (2.0 - 1e-9, 6.0),
                         (1.5 + 1e-9, -0.99), (1.75, 2.0 * 1.75 - 4.0))
        bad_s, boundary = _verify_strong(alpha, q0, iterations)

    return VerifyReport(
        moderate=RegimeReport("moderate", samples + 1, iterations, bad_m),
        moderate_hat=RegimeReport("moderate_hat", samples, iterations, bad_h),
        strong=RegimeReport("strong", samples + 2, iterations, bad_s,
                            boundary_cases=boundary),
    )
