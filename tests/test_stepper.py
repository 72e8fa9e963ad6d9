import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtaxis
from dtaxis import Grid, InitialData, Params, StepControl, StepRejected, build_initial
from dtaxis import diagnostics, stepper
from dtaxis.model import AVG_MODES, Accumulators, State
from dtaxis.stepper import Cadence, run, step


def _const_state(g, u=1.0, v=1.0):
    return State(grid=g, t=0.0, u=np.full(g.shape, u), v=np.full(g.shape, v))


def _formula_dt(s, p):
    """The README step-size rule without dt_max and ticks:
    min(cfl_safety min h^2 / (2 dim D*), 1 / (max u + ell max v), 1 / (2 dim / min h^2 + max u))
    with D* = max(u v + chi u^alpha v)."""
    g, u, v = s.grid, s.u, s.v
    hmin2 = min(h * h for h in g.h)
    dstar = np.max(u * v + p.chi * u ** p.alpha * v)
    cfl = p.cfl_safety * hmin2 / (2 * g.dim * dstar) if dstar > 0 else math.inf
    return min(cfl, 1 / (u.max() + p.ell * v.max()), 1 / (2 * g.dim / hmin2 + u.max()))


def _limits(s, p):
    """The step limit run takes for s, from the rhs's D*."""
    return stepper._dt_limits(s, p, stepper._rhs_core(s, p)[2])


def test_stable_dt_worked_example():
    # D* = u v + chi u^alpha v = 2, so dt = 0.9 * h^2 / (2 * 1 * 2) = 2.25e-5
    g = Grid(100)  # h = 0.01
    p = Params(alpha=1.0, epsilon=0.01, chi=1.0, ell=0.0, cfl_safety=0.9)
    s = _const_state(g)
    assert _limits(s, p) == _formula_dt(s, p) == pytest.approx(2.25e-5, rel=1e-12)


def test_stable_dt_degenerate_formula():
    # u = 0.01, chi = 0: D* = 0.01 makes the CFL bound 0.9 * 0.1^2 / (2 * 0.01) = 0.45,
    # so the max-principle cap 1 / (2 / h^2 + max u) binds
    g = Grid(10)  # h = 0.1
    p = Params(alpha=1.0, epsilon=0.01, chi=0.0, ell=0.0, cfl_safety=0.9)
    s = _const_state(g, u=0.01, v=1.0)
    assert _limits(s, p) == _formula_dt(s, p) == 1.0 / (2.0 / 0.1 ** 2 + 0.01)


def test_stable_dt_reaction_bound():
    # ell max v = 40 exceeds 2 dim / h^2 = 32, so the reaction bound binds
    g = Grid(4)
    p = Params(alpha=1.0, epsilon=0.01, chi=1.0, ell=40.0, cfl_safety=1.0)
    s = _const_state(g, u=0.1, v=1.0)
    assert _limits(s, p) == _formula_dt(s, p) == 1.0 / (0.1 + 40.0 * 1.0)


def test_stable_dt_quarters_under_refinement():
    p = Params(alpha=1.0, epsilon=0.01, chi=1.0, ell=0.0, cfl_safety=0.9)
    s1, s2 = _const_state(Grid(64)), _const_state(Grid(128))
    assert _limits(s1, p) == _formula_dt(s1, p)
    assert _limits(s2, p) == _formula_dt(s2, p)
    assert _limits(s1, p) / _limits(s2, p) == pytest.approx(4.0, rel=1e-12)


def test_stable_dt_blowup():
    # a non-finite D* is refused by the step limit itself
    s, p = _const_state(Grid(8)), Params(alpha=1.0, epsilon=0.01)
    for dstar in (math.inf, math.nan):
        with pytest.raises(RuntimeError, match="state blew up"):
            stepper._dt_limits(s, p, dstar)


def test_step_mass_identities():
    g = Grid(64)
    rng = np.random.default_rng(2)
    u = rng.uniform(0.2, 1.5, g.shape)
    v = rng.uniform(0.3, 1.0, g.shape)
    for ell in (0.0, 1.0):
        p = Params(alpha=1.25, epsilon=0.01, ell=ell)
        s = State(grid=g, t=0.0, u=u.copy(), v=v.copy())
        dt = 0.5 * _limits(s, p)
        s2 = step(s, p, dt)
        uv = g.integrate(u * v)
        assert g.integrate(s2.u) == pytest.approx(g.integrate(u) + dt * ell * uv, rel=1e-14)
        assert g.integrate(s2.v) == pytest.approx(g.integrate(v) - dt * uv, rel=1e-14)


def test_step_constant_ode_reduction():
    g = Grid(16)
    p = Params(alpha=0.5, epsilon=0.01, ell=1.0, chi=3.0)
    s2 = step(_const_state(g), p, 1e-3)
    assert np.allclose(s2.u, 1.001, rtol=1e-15)
    assert np.allclose(s2.v, 0.999, rtol=1e-15)
    assert s2.t == 1e-3


def test_step_v_max_principle_bound():
    # max(v') <= max(v) whenever dt * (2 dim / h^2 + max u) <= 1
    rng = np.random.default_rng(9)
    for cells in (32, (12, 12)):
        g = Grid(cells)
        p = Params(alpha=1.0, epsilon=0.01, ell=0.5)
        s = State(grid=g, t=0.0, u=rng.uniform(0.0, 2.0, g.shape),
                  v=rng.uniform(0.2, 1.0, g.shape))
        dt = 0.99 / (2 * g.dim / min(h * h for h in g.h) + s.u.max())
        s2 = step(s, p, dt)
        assert s2.v.max() <= s.v.max() + 1e-14


def test_step_rejection_is_pure():
    # alpha=0 makes the tactic flux u-independent: a near-vacuum cell at a
    # local minimum of v is drained and the big step must be rejected
    g = Grid(32)
    p = Params(alpha=0.0, epsilon=0.01, ell=0.0, chi=5.0)
    u = np.ones(g.shape)
    u[16] = 1e-12
    v = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers(0))
    s = State(grid=g, t=0.0, u=u, v=v)
    u_copy, v_copy = s.u.copy(), s.v.copy()
    with pytest.raises(StepRejected) as info:
        step(s, p, 1e-3)
    assert (info.value.field, info.value.cell) == ("u", (16,))
    assert np.array_equal(s.u, u_copy) and np.array_equal(s.v, v_copy)
    assert s.t == 0.0 and s.acc.uv == 0.0
    # a v peak drained by diffusion: u is untouched (chi = 0, u constant)
    v = np.ones(g.shape)
    v[5] = 3.0
    s = State(grid=g, t=0.0, u=np.ones(g.shape), v=v)
    with pytest.raises(StepRejected, match=r"v at cell \(5,\)") as info:
        step(s, Params(alpha=1.0, epsilon=0.01, chi=0.0), 0.01)
    assert (info.value.field, info.value.cell) == ("v", (5,))


def test_run_constant_data_freezes_u():
    g = Grid(24)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = build_initial(g, InitialData(kind="constant", u_amplitude=1.0, v_base=1.0), p)
    traj = run(s, p, StepControl(t_end=1.0))
    assert np.max(np.abs(traj.final.u - 1.01)) <= 1e-12
    assert traj.n_rejected == 0
    # v is consumed the whole way but stays positive
    assert 0.0 < traj.final.v.min() < 1.0


def test_run_monitor_cadence_rows():
    g = Grid(24)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = build_initial(g, InitialData(kind="constant", u_amplitude=1.0, v_base=1.0), p)
    traj = run(s, p, StepControl(t_end=0.5), monitor_cadence=0.1)
    times = [row.t for row in traj.rows]
    assert len(times) == 6
    assert times[0] == 0.0
    assert times == sorted(times)
    np.testing.assert_allclose(times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-9)


@pytest.mark.parametrize("t_end", [1e-14, 5e-13, 1e-9])
def test_run_reaches_tiny_t_end(t_end):
    # the tick tolerance scales with t_end, so no t_end is swallowed by it
    g = Grid(16)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    s = build_initial(g, InitialData(kind="gaussian_bump"), p)
    traj = run(s, p, StepControl(t_end=t_end), monitor_cadence=t_end / 4)
    assert traj.n_steps == 4
    assert traj.final.t == pytest.approx(t_end, rel=1e-12)
    np.testing.assert_allclose([row.t for row in traj.rows],
                               t_end * np.arange(5) / 4, rtol=1e-12)


def test_cadence_due_returns_first_reached_tick():
    ticks = Cadence(0.1, t_end=1.0)
    assert ticks.next_tick() == 0.1
    assert ticks.due(0.05) is None
    assert ticks.due(0.1 - 1e-13) == 1  # within the tolerance counts as reached
    assert ticks.due(0.35) == 2  # crosses ticks 2 and 3 at once
    assert ticks.next_tick() == pytest.approx(0.4)
    assert ticks.due(0.35) is None
    assert Cadence(None, t_end=1.0).due(1e9) is None
    ticks = Cadence(1e-12, t_end=1.0)  # the finest period: reached ticks are jumped, not walked
    assert ticks.due(0.5) == 1
    assert (ticks.k - 1) * 1e-12 - ticks.tol <= 0.5 < ticks.next_tick() - ticks.tol


@pytest.mark.parametrize("every", [0.0, -0.005, math.nan, math.inf, -math.inf, 1e-25, 9.99e-13])
def test_cadence_rejects_bad_periods(every):
    # a finite period below the tick tolerance 1e-12 * t_end is refused too: the step
    # floor would overshoot every tick
    message = ("cadence must be positive and finite" if not 0.0 < every < math.inf
               else f"cadence must be at least 1e-12 \\* t_end = 1e-12, got {every}")
    with pytest.raises(ValueError, match=message):
        Cadence(every, t_end=1.0)
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01)
    s = build_initial(g, InitialData(kind="constant"), p)
    with pytest.raises(ValueError, match=message):
        run(s, p, StepControl(t_end=1.0), monitor_cadence=every)


def test_step_control_rejects_non_finite():
    for name, bad in (("t_end", dict(t_end=math.nan)), ("t_end", dict(t_end=math.inf)),
                      ("dt_max", dict(t_end=0.1, dt_max=math.nan)),
                      ("dt_max", dict(t_end=0.1, dt_max=0.0)),
                      ("dt_max", dict(t_end=0.1, dt_max=-1.0)),
                      ("dt_max", dict(t_end=0.01, dt_max=1e-20))):  # below 1e-12 * t_end
        with pytest.raises(ValueError, match=name):
            StepControl(**bad)
    assert StepControl(t_end=0.1).dt_max == math.inf
    assert StepControl(t_end=1.0, dt_max=1e-12).dt_max == 1e-12


def test_run_accumulator_bookkeeping():
    # global mass ledger: int u(T) = int u(0) + ell * accumulated int int u v
    g = Grid(48)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    s = build_initial(g, InitialData(kind="gaussian_bump", u_amplitude=1.0), p)
    m0 = g.integrate(s.u)
    v0 = g.integrate(s.v)
    traj = run(s, p, StepControl(t_end=0.3))
    assert g.integrate(traj.final.u) == pytest.approx(m0 + traj.final.acc.uv, rel=1e-12)
    assert g.integrate(traj.final.v) == pytest.approx(v0 - traj.final.acc.uv, rel=1e-12)


def test_run_positivity_unrecoverable():
    g = Grid(32)
    p = Params(alpha=0.0, epsilon=0.01, ell=0.0, chi=5.0, cfl_safety=1.0)
    u = np.ones(g.shape)
    u[16] = 1e-12
    v = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers(0))
    s = State(grid=g, t=0.0, u=u, v=v)
    with pytest.raises(RuntimeError,
                       match=r"positivity unrecoverable at t=0: u at cell \(16,\)$"):
        run(s, p, StepControl(t_end=0.1))


def test_run_raises_once_a_halved_dt_no_longer_advances_t():
    # an exact vacuum cell at alpha = 0: near t = 1e-14 a step needs a dt below the run's
    # time resolution 1e-12 * t_end, which ends the run before dt could stop advancing t
    g = Grid(32)
    p = Params(alpha=0.0, epsilon=1e-12, chi=5.0, cfl_safety=1.0)
    u = np.full(g.shape, 1.0 + p.epsilon)
    u[16] = p.epsilon
    v = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers(0))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError,
                       match=r"positivity unrecoverable at t=\S+e-14: u at cell \(16,\)$"):
        run(State(grid=g, t=0.0, u=u, v=v), p, StepControl(t_end=0.01))
    assert time.perf_counter() - t0 < 1.0


def test_run_halves_a_step_at_most_40_times(monkeypatch):
    # every attempt is rejected and the first dt is t_end itself, the largest possible:
    # t_end / 2^39 is the last dt tried, since t_end / 2^40 < 1e-12 * t_end
    tried = []

    def reject(state, params, dt, rhs=None):
        tried.append(dt)
        raise StepRejected(state.t, dt, "u", (0,))
    monkeypatch.setattr(stepper, "step", reject)
    t_end = 1e-3
    with pytest.raises(RuntimeError, match=r"positivity unrecoverable at t=0: u at cell \(0,\)$"):
        run(_const_state(Grid(2)), Params(alpha=1.0, epsilon=0.01), StepControl(t_end=t_end))
    assert tried == [t_end / 2.0 ** k for k in range(40)]


@pytest.mark.parametrize("value, avg_mode, error, match", [
    pytest.param(np.inf, "geometric", FloatingPointError, r"rhs overflow at cell \(1,\)",
                 id="inf-geometric-FloatingPointError-rhs-overflow"),
    (1e160, "arithmetic", FloatingPointError, r"rhs overflow at cell \(1,\)"),
])
def test_run_blowup_errors(value, avg_mode, error, match):
    # an observer poisons the accepted state, so the blow-up meets the step
    # loop and not the monitor row; an inf cell and a finite state whose rhs
    # overflows both fail in the rhs, which names the first non-finite cell
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01, avg_mode=avg_mode)

    def poison(prev, new, dt):
        new.u[2] = value
    with pytest.raises(error, match=match):
        run(_const_state(g), p, StepControl(t_end=0.1), observers=[poison])
    s = _const_state(g)
    s.u[2] = np.inf
    with pytest.raises(ValueError, match=r"^u is not finite at cell \(2,\)$"):
        run(s, p, StepControl(t_end=0.1))


def _notch_state():
    """Near-vacuum cell at a sharp v notch: with chi = 5 the tactic drain
    rejects the CFL step several times, and the run still recovers."""
    g = Grid(32)
    u = np.full(g.shape, 0.5)
    u[16] = 1e-6
    v = np.ones(g.shape)
    v[16] = 0.1
    return State(grid=g, t=0.0, u=u, v=v), Params(alpha=1.25, epsilon=0.01, chi=5.0)


def test_run_one_rhs_per_step_one_step_call_per_attempt(monkeypatch):
    calls = {"rhs": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(stepper, "_rhs_core", counted("rhs", stepper._rhs_core))
    monkeypatch.setattr(stepper, "step", counted("step", stepper.step))
    s, p = _notch_state()
    traj = run(s, p, StepControl(t_end=2e-3))
    assert traj.n_rejected >= 1
    assert calls["rhs"] == traj.n_steps
    assert calls["step"] == traj.n_steps + traj.n_rejected


def _dt_trace(s, p, control, cadence):
    """(dt taken, the README rule's dt for the previous state) per step."""
    ticks = Cadence(cadence, control.t_end)
    pairs = []

    def observer(prev, new, dt):
        limit = min(_formula_dt(prev, p), control.dt_max,
                    control.t_end - prev.t, ticks.next_tick() - prev.t)
        pairs.append((dt, limit))
        ticks.due(new.t)
    traj = run(s, p, control, observers=[observer], monitor_cadence=cadence)
    return traj, pairs


_CHI3_2D = (Grid((12, 10)), Params(alpha=0.5, epsilon=0.01, chi=3.0, ell=1.0,
                                   avg_mode="arithmetic"), 1.0, -0.4)


@pytest.mark.parametrize("g, p, u_base, u_amplitude, dt_max, t_end, cadence", [
    (*_CHI3_2D, math.inf, 0.01, 0.0025),
    (*_CHI3_2D, 2.6e-4, 0.01, 0.0025),
    (Grid(16), Params(alpha=0.5, epsilon=0.01, chi=0.5, ell=1.0), 0.3, -0.25,
     math.inf, 0.05, 0.01),
], ids=["cfl-ticks-t_end", "dt_max", "max_principle"])
def test_run_dt_equals_public_limits(g, p, u_base, u_amplitude, dt_max, t_end, cadence):
    s = build_initial(g, InitialData(kind="cosine_mix", u_base=u_base,
                                     u_amplitude=u_amplitude, u_mode=1, v_base=1.0,
                                     v_amplitude=0.2), p)
    traj, pairs = _dt_trace(s, p, StepControl(t_end=t_end, dt_max=dt_max), cadence)
    assert traj.n_rejected == 0 and len(pairs) == traj.n_steps
    assert all(dt == limit for dt, limit in pairs)


def test_run_rejected_dt_is_its_limit_halved():
    s, p = _notch_state()
    traj, pairs = _dt_trace(s, p, StepControl(t_end=2e-3), None)
    halvings = [math.log2(limit / dt) for dt, limit in pairs]
    assert all(k == round(k) for k in halvings)
    assert sum(halvings) == traj.n_rejected >= 1


@pytest.mark.parametrize("cells, lengths", [(40, 1.0), ((9, 7), (1.0, 0.7)),
                                            ((5, 4, 6), (1.0, 0.7, 1.3))])
def test_accumulator_increments_match_their_definitions(cells, lengths):
    # the stepper's cell quadratures against face sums and plain cell sums
    g = Grid(cells, lengths)
    rng = np.random.default_rng(g.dim)
    u = rng.uniform(0.1, 2.0, g.shape)
    v = rng.uniform(0.3, 1.5, g.shape)
    p = Params(alpha=1.25, epsilon=0.01, chi=1.0, ell=1.0)
    s = State(grid=g, t=0.0, u=u, v=v)
    dt = 0.5 * _limits(s, p)
    acc = run(s, p, StepControl(t_end=dt)).final.acc
    gu, gv = g.face_gradient(u), g.face_gradient(v)
    lap_v = g.laplacian_neumann(v)
    vol = g.cell_volume

    def along(a, sl):
        return (..., *(sl if b == a else slice(None) for b in range(g.dim)))

    def face_sum(w, grad):
        # sum over interior faces of (w_lo + w_hi) / 2 * grad^2 * cell volume; the interior
        # faces along a are those above every cell but the last
        return vol * sum(np.sum(0.5 * (w[lo] + w[hi]) * g.face_view(grad[a], a)[lo] ** 2)
                         for a in range(g.dim)
                         for lo, hi in [(along(a, slice(0, -1)), along(a, slice(1, None)))])

    cgv2 = sum(0.5 * (g.face_view(gv[a], a, below=True) ** 2 + g.face_view(gv[a], a) ** 2)
               for a in range(g.dim))
    want = Accumulators(
        uv=np.sum(u * v) * vol,
        v_gradu_sq=face_sum(v, gu),
        u_gradv_sq=face_sum(u, gv),
        lap_v_sq=np.sum(lap_v ** 2) * vol,
        u1ma_v_gradu_sq=face_sum(u ** (1.0 - p.alpha) * v, gu),
        v_over_u_gradu_sq=face_sum(v / u, gu),
        u_over_v_gradv_sq=face_sum(u / v, gv),
        u_gradv4_over_v3=np.sum(u * cgv2 ** 2 / v ** 3) * vol,
        gradv6_over_v5=np.sum(cgv2 ** 3 / v ** 5) * vol,
        u73_v=np.sum(u ** (7.0 / 3.0) * v) * vol,
    )
    for name, got, ref in zip(Accumulators.names(), acc.values(), want.values()):
        assert got == pytest.approx(dt * ref, rel=1e-12, abs=0.0), name


def test_run_observer_sees_every_step():
    g = Grid(16)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = build_initial(g, InitialData(kind="constant", u_amplitude=1.0, v_base=1.0), p)
    seen = []
    traj = run(s, p, StepControl(t_end=0.01),
               observers=[lambda a, b, d: seen.append((a.t, b.t, d))])
    assert len(seen) == traj.n_steps
    for t0, t1, d in seen:
        assert t1 == pytest.approx(t0 + d, rel=1e-12)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt_max=0.0)


def test_run_2d_full_apparatus():
    # the solver and every monitor are dimension generic; drive them in 2D
    from dtaxis.diagnostics import residual_v_energy

    g = Grid((12, 12))
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    s = build_initial(g, InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.4,
                                     u_mode=1, v_base=1.0, v_amplitude=0.2), p)
    rels = []
    traj = run(s, p, StepControl(t_end=0.01),
               observers=[lambda a, b, d: rels.append(residual_v_energy(a, b, p).rel)],
               monitor_cadence=0.005)
    assert all(math.isfinite(x) for row in traj.rows for x in row.csv_values())
    assert max(rels) < 1e-2
    sup_v = [row.sup_v for row in traj.rows]
    assert all(b <= a + 1e-10 for a, b in zip(sup_v, sup_v[1:]))
    assert traj.final.acc.uv <= g.integrate(np.asarray(s.v)) + 1e-8


def test_run_3d_mass_bookkeeping():
    g = Grid((6, 6, 6))
    p = Params(alpha=0.5, epsilon=0.05, ell=1.0)
    s = build_initial(g, InitialData(kind="gaussian_bump", u_amplitude=1.0,
                                     u_width=0.3, v_base=1.0), p)
    m0, v0 = g.integrate(s.u), g.integrate(s.v)
    traj = run(s, p, StepControl(t_end=0.02))
    assert g.integrate(traj.final.u) == pytest.approx(m0 + traj.final.acc.uv, rel=1e-12)
    assert g.integrate(traj.final.v) == pytest.approx(v0 - traj.final.acc.uv, rel=1e-12)
    assert traj.final.v.min() > 0.0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=st.floats(0.0, 2.0, exclude_max=True), chi=st.floats(0.0, 5.0),
       ell=st.floats(0.0, 3.0), cfl_safety=st.floats(0.05, 1.0),
       avg_mode=st.sampled_from(AVG_MODES),
       cells=st.lists(st.integers(2, 10), min_size=1, max_size=3),
       u_min=st.floats(1e-6, 1.0), v_min=st.floats(1e-3, 1.0),
       spread=st.floats(0.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_accepted_steps_keep_the_scheme_guarantees(alpha, chi, ell, cfl_safety, avg_mode,
                                                   cells, u_min, v_min, spread, seed):
    # the path run takes: one rhs, its step limit, then step with halving on rejection
    g = Grid(cells)
    p = Params(alpha=alpha, epsilon=0.01, chi=chi, ell=ell, cfl_safety=cfl_safety,
               avg_mode=avg_mode)
    rng = np.random.default_rng(seed)
    s = State(grid=g, t=0.0, u=u_min + spread * rng.random(g.shape),
              v=v_min + spread * rng.random(g.shape))
    rhs = stepper._rhs_core(s, p)
    dt = stepper._dt_limits(s, p, rhs[2])
    for _ in range(41):
        try:
            new = step(s, p, dt, rhs)
            break
        except StepRejected:
            dt *= 0.5
    else:
        pytest.fail("no accepted step after 40 halvings")
    uv = g.integrate(s.u * s.v)
    assert g.integrate(new.u) == pytest.approx(g.integrate(s.u) + dt * ell * uv, rel=1e-12)
    assert g.integrate(new.v) == pytest.approx(g.integrate(s.v) - dt * uv, rel=1e-12)
    assert new.v.max() <= s.v.max() * (1.0 + 1e-14)
    assert new.u.min() >= 0.0 and new.v.min() > 0.0


def _cosine_state(cells, p):
    return build_initial(Grid(cells), InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.5,
                                                  v_amplitude=0.2), p)


@pytest.mark.parametrize("cells", [32, (8, 6), (5, 4, 3)])
def test_step_taken_twice_from_one_rhs_is_bit_equal(cells):
    # nothing the rhs returns is overwritten by a step
    p = Params(alpha=1.25, epsilon=0.01, chi=2.0, ell=1.0)
    s = _cosine_state(cells, p)
    rhs = stepper._rhs_core(s, p)
    dt = stepper._dt_limits(s, p, rhs[2])
    a = step(s, p, dt, rhs)
    first = (a.u.tobytes(), a.v.tobytes())  # before the retake could write into a
    b = step(s, p, dt, rhs)
    assert (b.u.tobytes(), b.v.tobytes()) == first
    assert (a.u.tobytes(), a.v.tobytes()) == first


@pytest.mark.parametrize("case", ["1d-notch", "2d-alpha1", "3d-arithmetic"])
def test_observed_steps_recompute_bit_equal_from_scratch(case):
    # an observer keeps every (prev, new, dt); no buffer of a later step may alias them
    if case == "1d-notch":
        s, p = _notch_state()  # rejects and halves, so attempts share one rhs
        control = StepControl(t_end=2e-3)
    elif case == "2d-alpha1":
        p = Params(alpha=1.0, epsilon=0.01, chi=3.0, ell=1.0)
        s, control = _cosine_state((8, 6), p), StepControl(t_end=0.01)
    else:
        p = Params(alpha=1.75, epsilon=0.01, chi=3.0, ell=1.0, avg_mode="arithmetic")
        s, control = _cosine_state((5, 4, 3), p), StepControl(t_end=0.01)
    seen = []
    traj = run(s, p, control, observers=[lambda prev, new, dt: seen.append((prev, new, dt))])
    assert len(seen) == traj.n_steps > 1
    assert case != "1d-notch" or traj.n_rejected >= 1
    for prev, new, dt in seen:
        again = step(prev, p, dt)
        assert again.u.tobytes() == new.u.tobytes() and again.v.tobytes() == new.v.tobytes()
        assert again.t == new.t


def _accumulators_of_one_step(s, p, dt):
    """s.acc advanced by one step of dt, by _advance_accumulators on gu, gv, uv and lap_v
    formed here from s, in arrays of their own."""
    g, u, v = s.grid, s.u, s.v
    gu, gv = g.face_gradient(u), g.face_gradient(v)
    return stepper._advance_accumulators(s.acc, p, g, [dt], u, v, gu, gv, u * v,
                                         g.div_faces(gv))


def _eager_run(s, p, control, cadence):
    """run's loop with each step's accumulators evaluated at once, from that step's state,
    and set on every state; dt is the step limit of the step's rhs clipped to dt_max, t_end
    and the next tick, halved on rejection.  Returns the monitor rows, every dt, the
    rejection count and the final state."""
    ticks = Cadence(cadence, control.t_end)
    rows, dts, n_rejected = [diagnostics.monitor_row(s, p)], [], 0
    while s.t < control.t_end - ticks.tol:
        rhs = stepper._rhs_core(s, p)
        dt = max(min(stepper._dt_limits(s, p, rhs[2]), control.dt_max,
                     control.t_end - s.t, ticks.next_tick() - s.t), ticks.tol)
        while True:
            try:
                new = step(s, p, dt, rhs)
                break
            except StepRejected:
                n_rejected += 1
                dt *= 0.5
        new.acc = _accumulators_of_one_step(s, p, dt)
        s = new
        dts.append(dt)
        if ticks.due(s.t) is not None:
            rows.append(diagnostics.monitor_row(s, p))
    if rows[-1].t < s.t - ticks.tol or len(rows) == 1:
        rows.append(diagnostics.monitor_row(s, p))
    return rows, dts, n_rejected, s


def _block_case(cells, alpha, avg_mode, chi=2.0):
    p = Params(alpha=alpha, epsilon=0.01, chi=chi, ell=1.0, avg_mode=avg_mode)
    s = _cosine_state(cells, p)
    t_end = 150 * _limits(s, p)  # some 150 steps: several blocks on the small grids
    return s, p, StepControl(t_end=t_end), t_end / 3.3  # ticks split the blocks unevenly


def _assert_run_is_eager_bit_for_bit(s, p, control, cadence, observers=()):
    seen = []
    traj = run(State(grid=s.grid, t=s.t, u=s.u.copy(), v=s.v.copy()), p, control,
               observers=[*observers, lambda prev, new, dt: seen.append(dt)],
               monitor_cadence=cadence)
    rows, dts, n_rejected, final = _eager_run(s, p, control, cadence)
    assert (traj.n_steps, traj.n_rejected) == (len(dts), n_rejected)
    assert seen == dts
    assert [r.csv_values() for r in traj.rows] == [r.csv_values() for r in rows]
    assert traj.final.acc == final.acc
    assert traj.final.u.tobytes() == final.u.tobytes()
    assert traj.final.v.tobytes() == final.v.tobytes()
    return traj


@pytest.mark.parametrize("avg_mode", AVG_MODES)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.75])
@pytest.mark.parametrize("cells", [37, 64, 256, (9, 7), (5, 4, 6), (64, 64)])
def test_block_accumulators_equal_eager_steps_bit_for_bit(cells, alpha, avg_mode):
    # (64, 64) has BLOCK_CELLS cells, so each of its blocks holds one step
    s, p, control, cadence = _block_case(cells, alpha, avg_mode)
    traj = _assert_run_is_eager_bit_for_bit(s, p, control, cadence)
    assert traj.n_steps > stepper.BLOCK_CELLS // s.u.size or s.u.size >= stepper.BLOCK_CELLS


@pytest.mark.parametrize("case", ["chi0", "notch"])
def test_block_accumulators_bit_for_bit_without_taxis_and_with_rejections(case):
    if case == "chi0":
        _assert_run_is_eager_bit_for_bit(*_block_case(64, 1.25, "geometric", chi=0.0))
    else:
        s, p = _notch_state()
        traj = _assert_run_is_eager_bit_for_bit(s, p, StepControl(t_end=2e-3),
                                                3.1e-4)
        assert traj.n_rejected >= 1


def test_observer_writes_leave_the_accumulators_eager():
    # writing into prev.u after its step changes no accumulator: a block keeps its own
    # copy of what each step saw, also at one step per block, as on (64, 64)
    def scribbler(prev, new, dt):
        prev.u[...] = 7.0
        prev.v[...] = 7.0
    for cells in (64, (64, 64)):
        _assert_run_is_eager_bit_for_bit(*_block_case(cells, 1.25, "arithmetic"),
                                         observers=[scribbler])


@pytest.mark.parametrize("alpha", [0.0, 1.25])
@pytest.mark.parametrize("cells", [64, (9, 7), (5, 4, 6), (64, 64), (24, 24, 24)])
def test_accumulators_equal_a_vdot_per_integral_bit_for_bit(cells, alpha):
    # the reference: each integrand formed on its own and reduced by numpy's pairwise sum,
    # as Grid.integrals reduces; a run's blocks are then checked against per-step
    # evaluation by the tests above.  24^3 = 13824 cells is past the 10 000 elements
    # above which a threaded BLAS dot product splits its sum.
    p = Params(alpha=alpha, epsilon=0.01, chi=2.0, ell=1.0)
    s = _cosine_state(cells, p)
    g, u, v = s.grid, s.u, s.v
    gu, gv = g.face_gradient(u), g.face_gradient(v)
    cgu2, cgv2, lap_v = g.cell_dot(gu, gu), g.cell_dot(gv, gv), g.div_faces(gv)
    q = cgv2 / v

    def dot(a, b):
        return (a * b).sum()

    sums = [(u * v).sum(), dot(v, cgu2), dot(u, cgv2), dot(lap_v, lap_v),
            dot(u ** (1.0 - alpha) * v, cgu2), dot(v / u, cgu2), dot(u / v, cgv2),
            dot(u / v, q * q), dot(q * q, q / (v * v)), dot(u ** (7.0 / 3.0), v)]
    dt = 0.5 * _limits(s, p)
    acc = run(s, p, StepControl(t_end=dt)).final.acc
    assert acc.values() == tuple(dt * float(x) * g.cell_volume for x in sums)


_ACCUMULATORS_OF_ONE_STEP = """
import numpy as np
from dtaxis import Grid, InitialData, Params, build_initial, stepper
p = Params(alpha=1.25, epsilon=0.01, chi=2.0, ell=1.0)
s = build_initial(Grid((24, 24, 24)), InitialData(kind="cosine_mix", u_base=1.0,
                                                  u_amplitude=-0.5, v_amplitude=0.2), p)
g, u, v = s.grid, s.u, s.v
gu, gv = g.face_gradient(u), g.face_gradient(v)
acc = stepper._advance_accumulators(s.acc, p, g, [1e-3], u, v, gu, gv, u * v, g.div_faces(gv))
print(*(x.hex() for x in acc.values()))
"""


def test_accumulators_do_not_depend_on_the_blas_thread_count():
    # 13824 cells per integrand: a threaded BLAS dot product would split each sum in two
    # at 2 threads; the thread count is read once, when numpy loads, so each gets a process
    env = {**os.environ, "PYTHONPATH": str(Path(dtaxis.__file__).parents[1])}
    outs = [subprocess.run([sys.executable, "-c", _ACCUMULATORS_OF_ONE_STEP], check=True,
                           capture_output=True, text=True, timeout=120,
                           env={**env, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert len(outs[0].split()) == 10 and outs[0] == outs[1]


@pytest.mark.parametrize("cells", [64, (64, 64)])
def test_observers_see_no_accumulators_and_the_records_get_them(cells):
    # blocks (K = 64) and per-step evaluation (K = 1) alike: each observer sees new.acc None,
    # and each tick state, once its observers are done, and the final state get theirs
    seen = []
    traj = _assert_run_is_eager_bit_for_bit(
        *_block_case(cells, 0.5, "geometric"),
        observers=[lambda prev, new, dt: seen.append((new, new.acc))] * 2)
    assert len(seen) == 2 * traj.n_steps and all(acc is None for _, acc in seen)
    recorded = [new.acc for new, _ in seen[::2] if new.acc is not None]
    assert recorded == [r.acc for r in traj.rows[1:]] and len(recorded) >= 4
    assert seen[-1][0] is traj.final


def test_run_refuses_a_start_state_without_accumulators(monkeypatch):
    p = Params(alpha=1.0, epsilon=0.01)
    s = step(_const_state(Grid(16)), p, 1e-4)
    assert s.acc is None
    calls = []
    monkeypatch.setattr(stepper, "step", lambda *args: calls.append("step"))
    with pytest.raises(ValueError, match=r"\bacc\b"):
        run(s, p, StepControl(t_end=1e-3), observers=[lambda *args: calls.append("observer")])
    assert calls == [] and s.acc is None and s.t == 1e-4


def _set_cell(name, value, cell=(5, 3)):
    def probe(s):
        getattr(s, name)[cell] = value
    return probe


@pytest.mark.parametrize("probe, match", [
    (lambda s: setattr(s, "u", s.u[:, :1]),
     r"^state fields of shape \(32, 1\)/\(32, 32\) do not fit grid \(32, 32\)$"),
    (_set_cell("v", np.nan), r"^v is not finite at cell \(5, 3\)$"),
    (_set_cell("u", -1.0), r"^u must be nonnegative, first negative at cell \(5, 3\)$"),
    (_set_cell("v", 0.0), r"^v is not positive at cell \(5, 3\)$"),
], ids=["shape", "nan-v", "negative-u", "zero-v"])
def test_run_refuses_a_start_state_that_does_not_fit_its_grid(monkeypatch, probe, match):
    # the check comes before the first monitor row, rhs or observer, and names the field
    # and its cell (or both shapes)
    s, calls = _const_state(Grid((32, 32))), []
    probe(s)
    monkeypatch.setattr(diagnostics, "monitor_row", lambda *args: calls.append("monitor"))
    monkeypatch.setattr(stepper, "_rhs_core", lambda *args: calls.append("rhs"))
    with pytest.raises(ValueError, match=match):
        run(s, Params(alpha=1.0, epsilon=0.01), StepControl(t_end=1e-3),
            observers=[lambda *args: calls.append("observer")])
    assert calls == []


def test_every_exported_name_resolves():
    names = {}
    exec("from dtaxis import *", names)
    assert set(dtaxis.__all__) <= names.keys()
    assert all(names[n] is getattr(dtaxis, n) for n in dtaxis.__all__)


def test_trajectory_from_run_pickles_without_a_ledger():
    s, p, control, cadence = _block_case(64, 0.5, "geometric")
    traj = run(s, p, control, monitor_cadence=cadence)
    back = pickle.loads(pickle.dumps(traj))
    assert [r.csv_values() for r in back.rows] == [r.csv_values() for r in traj.rows]
    assert back.final.acc == traj.final.acc
