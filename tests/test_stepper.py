import math

import numpy as np
import pytest

from dtaxis import Grid, InitialData, Params, StepControl, StepRejected, build_initial
from dtaxis.model import State
from dtaxis.stepper import Cadence, max_principle_dt, run, stable_dt, step


def _const_state(g, u=1.0, v=1.0):
    return State(grid=g, t=0.0, u=np.full(g.shape, u), v=np.full(g.shape, v))


def test_stable_dt_worked_example():
    # D* = u v + chi u^alpha v = 2, so dt = 0.9 * h^2 / (2 * 1 * 2) = 2.25e-5
    g = Grid(100)  # h = 0.01
    p = Params(alpha=1.0, epsilon=0.01, chi=1.0, ell=0.0, cfl_safety=0.9)
    assert stable_dt(_const_state(g), p) == pytest.approx(2.25e-5, rel=1e-12)


def test_stable_dt_degenerate_formula():
    # u = 0 + eps shift = 0.01, chi = 0: D* = 0.01
    g = Grid(10)  # h = 0.1
    p = Params(alpha=1.0, epsilon=0.01, chi=0.0, ell=0.0, cfl_safety=0.9)
    s = _const_state(g, u=0.01, v=1.0)
    expected = 0.9 * 0.1 ** 2 / (2.0 * 0.01)
    assert stable_dt(s, p) == pytest.approx(expected, rel=1e-12)
    assert stable_dt(s, p, dt_max=1e-3) == 1e-3


def test_stable_dt_reaction_bound():
    g = Grid(4)  # h huge, diffusion not binding
    p = Params(alpha=1.0, epsilon=0.01, chi=1.0, ell=2.0, cfl_safety=1.0)
    s = _const_state(g, u=3.0, v=1.0)
    assert stable_dt(s, p) <= 1.0 / (3.0 + 2.0 * 1.0) + 1e-15


def test_stable_dt_quarters_under_refinement():
    p = Params(alpha=1.0, epsilon=0.01, chi=1.0, ell=0.0, cfl_safety=0.9)
    dt1 = stable_dt(_const_state(Grid(64)), p)
    dt2 = stable_dt(_const_state(Grid(128)), p)
    assert dt1 / dt2 == pytest.approx(4.0, rel=1e-12)


def test_stable_dt_blowup():
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01)
    s = _const_state(g)
    s.u[2] = np.inf
    with pytest.raises(RuntimeError, match="state blew up"):
        stable_dt(s, p)


def test_step_mass_identities():
    g = Grid(64)
    rng = np.random.default_rng(2)
    u = rng.uniform(0.2, 1.5, g.shape)
    v = rng.uniform(0.3, 1.0, g.shape)
    for ell in (0.0, 1.0):
        p = Params(alpha=1.25, epsilon=0.01, ell=ell)
        s = State(grid=g, t=0.0, u=u.copy(), v=v.copy())
        dt = 0.5 * stable_dt(s, p)
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
        dt = 0.99 * max_principle_dt(s)
        assert dt * (2 * g.dim / min(h * h for h in g.h) + s.u.max()) <= 1.0
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
    with pytest.raises(StepRejected):
        step(s, p, 1e-3)
    assert np.array_equal(s.u, u_copy) and np.array_equal(s.v, v_copy)
    assert s.t == 0.0 and s.acc.uv == 0.0


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


def test_cadence_due_returns_first_reached_tick():
    ticks = Cadence(0.1, t_end=1.0)
    assert ticks.next_tick() == 0.1
    assert ticks.due(0.05) is None
    assert ticks.due(0.1 - 1e-13) == 1  # within the tolerance counts as reached
    assert ticks.due(0.35) == 2  # crosses ticks 2 and 3 at once
    assert ticks.next_tick() == pytest.approx(0.4)
    assert ticks.due(0.35) is None
    assert Cadence(None, t_end=1.0).due(1e9) is None


@pytest.mark.parametrize("every", [0.0, -0.005, math.nan, math.inf, -math.inf])
def test_cadence_rejects_bad_periods(every):
    with pytest.raises(ValueError, match="cadence must be positive and finite"):
        Cadence(every, t_end=1.0)
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01)
    s = build_initial(g, InitialData(kind="constant"), p)
    with pytest.raises(ValueError, match="cadence must be positive and finite"):
        run(s, p, StepControl(t_end=0.01), monitor_cadence=every)


def test_step_control_rejects_non_finite():
    for name, bad in (("t_end", dict(t_end=math.nan)), ("t_end", dict(t_end=math.inf)),
                      ("dt_max", dict(t_end=0.1, dt_max=math.nan)),
                      ("dt_max", dict(t_end=0.1, dt_max=0.0))):
        with pytest.raises(ValueError, match=name):
            StepControl(**bad)
    assert StepControl(t_end=0.1).dt_max == math.inf


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
    with pytest.raises(RuntimeError, match="positivity unrecoverable at t="):
        run(s, p, StepControl(t_end=0.1, max_rejects=3))


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
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, max_rejects=0)


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
