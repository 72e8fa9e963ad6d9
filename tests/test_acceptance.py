"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import time

import pytest

from dtaxis import Grid, InitialData, Params, StepControl, build_initial
from dtaxis.cli import RunConfig, run_eps_study
from dtaxis.diagnostics import (check_first_energy, log_hessian_batch, residual_rows,
                                sobolev_batch)
from dtaxis.exponents import moderate_seq, verify_regime_lemmas
from dtaxis.model import initial_profiles
from dtaxis.stepper import run


def _report(num, name, ok, detail=""):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1: discrete mass law


def _mass_law_run(ell):
    g = Grid(256)
    p = Params(alpha=1.25, epsilon=0.01, ell=ell, cfl_safety=1.0)
    ini = InitialData(kind="cosine_mix", u_base=0.5, u_amplitude=-0.25, u_mode=2,
                      v_base=1.0, v_amplitude=0.0)
    s = build_initial(g, ini, p)
    worst = [0.0]
    ledger = {"mass": g.integrate(s.u)}

    def obs(prev, new, dt):
        uv = g.integrate(prev.u * prev.v)
        m_new = g.integrate(new.u)
        err = abs(m_new - ledger["mass"] - dt * ell * uv) / max(ledger["mass"], 1.0)
        worst[0] = max(worst[0], err)
        ledger["mass"] = m_new

    traj = run(s, p, StepControl(t_end=0.5), observers=[obs])
    m0 = g.integrate(s.u)
    drift = abs(g.integrate(traj.final.u) - m0) / m0
    return worst[0], drift


def test_criterion_1_discrete_mass_law():
    t0 = time.perf_counter()
    per_step, _ = _mass_law_run(ell=1.0)
    _, drift = _mass_law_run(ell=0.0)
    elapsed = time.perf_counter() - t0
    ok = per_step <= 1e-12 and drift <= 1e-12 and elapsed < 30.0
    _report(1, "discrete mass law", ok,
            f"per-step={per_step:.2e} ell0-drift={drift:.2e} [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# criteria 2, 3, 9 share the nine-run regression corpus (T = 1)

CORPUS_ALPHAS = (0.5, 1.25, 1.75)
CORPUS_DATA = {
    "constant": InitialData(kind="constant", u_base=0.0, u_amplitude=1.0, v_base=1.0),
    "gaussian_bump": InitialData(kind="gaussian_bump", u_amplitude=1.0, u_width=0.15,
                                 v_base=1.0),
    "cosine_mix": InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.5,
                              u_mode=2, v_base=1.0, v_amplitude=0.2),
}


@pytest.fixture(scope="module")
def corpus():
    results = []
    for alpha in CORPUS_ALPHAS:
        for kind, ini in CORPUS_DATA.items():
            g = Grid(64)
            p = Params(alpha=alpha, epsilon=0.01, ell=1.0)
            s = build_initial(g, ini, p)
            v0_int = g.integrate(s.v)
            u0, v0 = initial_profiles(g, ini)
            mass_bound = g.integrate(u0 + 1.0) + p.ell * g.integrate(v0)
            probe = {"supv_rise": 0.0, "min_slack": math.inf, "last_supv": float(s.v.max())}

            def obs(prev, new, dt, probe=probe, p=p):
                sv = float(new.v.max())
                probe["supv_rise"] = max(probe["supv_rise"], sv - probe["last_supv"])
                probe["last_supv"] = sv
                fe = check_first_energy(prev, new, p)
                probe["min_slack"] = min(probe["min_slack"], fe.slack)

            traj = run(s, p, StepControl(t_end=1.0), observers=[obs],
                       monitor_cadence=0.25)
            # acc uv only grows (by dt * int u v >= 0), so its largest value is the final one
            probe["budget_excess"] = max(row.acc.uv for row in traj.rows) - v0_int
            results.append({"alpha": alpha, "kind": kind, "traj": traj,
                            "probe": probe, "mass_bound": mass_bound})
    return results


def test_criterion_2_v_max_principle(corpus):
    worst = max(r["probe"]["supv_rise"] for r in corpus)
    _report(2, "sup v nonincreasing per step", worst <= 1e-10,
            f"worst per-step rise {worst:.2e} over 9 runs")


def test_criterion_3_consumption_budget(corpus):
    worst = max(r["probe"]["budget_excess"] for r in corpus)
    _report(3, "consumption budget", worst <= 1e-8,
            f"worst (acc uv - int v0) = {worst:.2e}")


def test_criterion_9_regime_survival(corpus):
    finite = all(math.isfinite(x) for r in corpus
                 for row in r["traj"].rows for x in row.csv_values())
    done = all(r["traj"].final.t >= 1.0 - 1e-9 for r in corpus)
    _report(9, "regime survival", finite and done,
            f"9 runs to T=1, finite monitors={finite}")


def test_corpus_first_energy_slack(corpus):
    # one-sided combined-flux-energy inequality on every accepted step
    worst = min(r["probe"]["min_slack"] for r in corpus)
    assert worst >= -1e-8, f"first-energy slack dipped to {worst:.3e}"


def test_corpus_total_mass_bound(corpus):
    for r in corpus:
        bound = r["mass_bound"]
        for row in r["traj"].rows:
            assert row.total_mass <= bound + 1e-8


# ---------------------------------------------------------------------------
# criterion 4: residual convergence under n doubling with dt prop to h^2


def _residual_worst(n):
    g = Grid(n)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    ini = InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.5, u_mode=2,
                      v_base=1.0, v_amplitude=0.2)
    s = build_initial(g, ini, p)
    worst = {"v_energy": 0.0, "v_pow_2": 0.0, "u0.5_v1": 0.0, "first_energy": 0.0}

    def obs(prev, new, dt):
        for rep in residual_rows(prev, new, p):
            worst[rep.name] = max(worst[rep.name], rep.rel)

    run(s, p, StepControl(t_end=4e-3, dt_max=0.1 * g.h[0] ** 2), observers=[obs])
    return worst


def test_criterion_4_residual_convergence():
    t0 = time.perf_counter()
    coarse = _residual_worst(64)
    fine = _residual_worst(128)
    elapsed = time.perf_counter() - t0
    ratios = {k: coarse[k] / fine[k] for k in coarse}
    ok = all(r >= 3.5 for r in ratios.values()) and elapsed < 120.0
    _report(4, "identity residual convergence", ok,
            " ".join(f"{k}:{r:.2f}" for k, r in ratios.items()) + f" [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# criterion 5: explicit-constant inequality suite


def test_criterion_5_inequality_suite():
    t0 = time.perf_counter()
    violations = 0
    for grid in (Grid(64), Grid((32, 32))):
        reps = log_hessian_batch(grid, (2.0, 3.0, 4.0), samples=100, seed=7)
        violations += sum(rep.violations for rep in reps)
    coarse, fine = sobolev_batch((Grid(64), Grid(128)), samples=100, seed=11)
    rel_change = abs(fine.max_ratio - coarse.max_ratio) / coarse.max_ratio
    elapsed = time.perf_counter() - t0
    ok = (violations == 0 and math.isfinite(coarse.max_ratio)
          and rel_change <= 0.02 and elapsed < 60.0)
    _report(5, "explicit-constant inequalities", ok,
            f"hessian violations={violations} sobolev C={coarse.max_ratio:.4f} "
            f"refine-change={rel_change:.2e} [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# criterion 6: exponent lemmas, randomized


def test_criterion_6_exponent_lemmas():
    t0 = time.perf_counter()
    rep = verify_regime_lemmas(samples=1000, seed=0, iterations=200)
    elapsed = time.perf_counter() - t0
    n_bad = sum(len(r.violations) for r in rep.reports())
    ok = rep.ok and elapsed < 5.0
    _report(6, "exponent recursion lemmas", ok,
            f"violations={n_bad} over 3x1000 samples [{elapsed:.2f}s]")


# ---------------------------------------------------------------------------
# criterion 7: worked exponent values


def test_criterion_7_worked_exponents():
    seq = moderate_seq(2.0, 1.25, 2)
    got = (seq[0].p, seq[0].r, seq[1].first, seq[1].p, seq[1].r,
           (2.0 * seq[1].p) / 3.0 + seq[1].r + 2.0)
    want = (2.0, 2.0 / 3.0, 4.0, 3.0, 2.0, 6.0)
    _report(7, "worked exponent values", got == want, f"{got}")


# ---------------------------------------------------------------------------
# criterion 8: epsilon study


def test_criterion_8_eps_study(tmp_path):
    t0 = time.perf_counter()
    g = Grid(256)
    cfg = RunConfig(
        grid=g,
        initial=InitialData(kind="cosine_mix", u_base=0.5, u_amplitude=-0.25,
                            u_mode=2, v_base=1.0, v_amplitude=0.0),
        params=Params(alpha=1.0, epsilon=0.1, cfl_safety=1.0),
        control=StepControl(t_end=0.25),
        monitor_cadence=0.25, snapshot_cadence=None, p_list=(1.0, 2.0),
        output_dir=str(tmp_path))
    rows = run_eps_study(cfg, [1e-1, 1e-2, 1e-3, 1e-4])
    elapsed = time.perf_counter() - t0
    diffs = [r.l2_diff_u for r in rows]
    finite = all(math.isfinite(r.l2_diff_u) and math.isfinite(r.l2_diff_v)
                 and r.status == "ok" for r in rows)
    ok = finite and len(rows) == 3 and diffs[0] == max(diffs) and elapsed < 120.0
    _report(8, "epsilon study", ok,
            f"diffs={['%.3e' % d for d in diffs]} [{elapsed:.1f}s]")
