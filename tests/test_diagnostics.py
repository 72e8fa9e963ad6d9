import numpy as np
import pytest

from dtaxis import Grid, InitialData, Params, StepControl, build_initial
from dtaxis.diagnostics import (MonitorRow, check_first_energy, monitor_row,
                                residual_upvq_identity, residual_v_energy,
                                residual_vq_identity)
from dtaxis.model import State
from dtaxis.stepper import run, step

# reference for int (0.3 pi sin(pi x))^4 / (1 + 0.3 cos(pi x))^3 on [0, 1],
# computed with adaptive quadrature (scipy.integrate.quad, abserr ~ 4e-11)
GRAD4_COSINE_REF = 0.32496230029753614


def _const_state(g, u=1.0, v=1.0):
    return State(grid=g, t=0.0, u=np.full(g.shape, u), v=np.full(g.shape, v))


def test_monitor_constants():
    g = Grid(32)
    p = Params(alpha=0.5, epsilon=0.01, ell=0.0)
    row = monitor_row(_const_state(g), p)
    assert row.combined_flux_energy == pytest.approx(1.0 / (1.5 * 2.5) - 1.0, rel=1e-14)
    assert row.grad4_energy == 0.0
    assert row.grad2_over_v == 0.0
    assert row.log_energy == pytest.approx(0.0, abs=1e-15)
    assert row.sup_u == row.inf_v == 1.0


def test_monitor_total_mass_bound():
    # u = 2, v = 1, ell = 1: total mass 3; the conserved bound built from
    # u0 = 2 - eps is int(u0 + 1) + ell int v0 = 4 - eps >= 3
    g = Grid(16)
    p = Params(alpha=1.0, epsilon=0.01, ell=1.0)
    row = monitor_row(_const_state(g, u=2.0), p)
    assert row.total_mass == pytest.approx(3.0, rel=1e-14)
    assert row.total_mass <= (4.0 - p.epsilon) + 1e-8


def test_monitor_grad4_against_quadrature_oracle():
    g = Grid(512)
    p = Params(alpha=1.0, epsilon=0.01)
    v = 1.0 + 0.3 * np.cos(np.pi * g.centers(0))
    row = monitor_row(State(grid=g, t=0.0, u=np.ones(g.shape), v=v), p)
    assert abs(row.grad4_energy - GRAD4_COSINE_REF) < 1e-4


def test_monitor_lp_list_and_header():
    g = Grid(16)
    p = Params(alpha=1.0, epsilon=0.01)
    row = monitor_row(_const_state(g, u=2.0), p, p_list=(1.0, 2.5))
    assert row.lp_norms == pytest.approx((2.0, 2.0 ** 1.0))
    header = MonitorRow.csv_header((1.0, 2.5))
    assert "lp_1_u" in header and "lp_2.5_u" in header
    assert len(header) == len(row.csv_values())


def test_monitor_header_is_the_documented_column_order():
    assert MonitorRow.csv_header((1.0, 2.0, 3.0)) == [
        "t", "mass_u", "mass_v", "total_mass", "sup_u", "sup_v", "inf_v",
        "log_energy", "grad2_over_v", "grad4_energy", "combined_flux_energy",
        "lp_1_u", "lp_2_u", "lp_3_u",
        "acc_uv", "acc_v_gradu_sq", "acc_u_gradv_sq", "acc_lap_v_sq",
        "acc_u1ma_v_gradu_sq", "acc_v_over_u_gradu_sq", "acc_u_over_v_gradv_sq",
        "acc_u_gradv4_over_v3", "acc_gradv6_over_v5", "acc_u73_v",
    ]


def test_monitor_positivity_hard_failure():
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01)
    s = _const_state(g)
    s.v[3] = 0.0
    with pytest.raises(ValueError, match="v positivity lost"):
        monitor_row(s, p)


def test_residual_v_energy_constant_is_zero():
    g = Grid(16)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = _const_state(g)
    s2 = step(s, p, 1e-4)
    rep = residual_v_energy(s, s2, p)
    assert rep.residual == 0.0
    assert rep.normalizer == 1.0


def _heat_flow_worst(n, dtmax, t_w=2e-3):
    # nearly pure heat flow for v: u tiny constant
    g = Grid(n)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = State(grid=g, t=0.0, u=np.full(g.shape, 1e-6),
              v=1.0 + 0.4 * np.cos(np.pi * g.centers(0)))
    worst = [0.0, 0.0]

    def obs(a, b, d):
        worst[0] = max(worst[0], residual_v_energy(a, b, p).rel)
        worst[1] = max(worst[1], residual_vq_identity(a, b, 2.0, p).rel)

    run(s, p, StepControl(t_end=t_w, dt_max=dtmax), observers=[obs])
    return worst


def test_residual_v_energy_first_order_in_dt():
    # the gradient-energy and q=2 residuals are exact in space, so halving dt
    # halves them
    a = _heat_flow_worst(64, 2e-5)
    b = _heat_flow_worst(64, 1e-5)
    for coarse, fine in zip(a, b):
        assert coarse / fine >= 1.8


def test_residual_vq_constant_specialization():
    g = Grid(12)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = State(grid=g, t=0.0, u=np.zeros(g.shape), v=np.full(g.shape, 0.8))
    s2 = State(grid=g, t=1e-3, u=s.u, v=s.v.copy())
    rep = residual_vq_identity(s, s2, 2.0, p)
    assert rep.residual == 0.0


def test_residual_vq_cubic_constant_ode():
    # constants: (1/q) d/dt int v^q = -int u v^q up to O(dt)
    g = Grid(12)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    res = []
    for dt in (2e-3, 1e-3):
        s = _const_state(g, u=1.0, v=1.0)
        rep = residual_vq_identity(s, step(s, p, dt), 3.0, p)
        res.append(abs(rep.residual))
        assert abs(rep.residual) <= 5.0 * dt
    assert res[0] / res[1] == pytest.approx(2.0, rel=0.2)


def test_residual_upvq_mass_law_specialization():
    g = Grid(16)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    s = build_initial(g, InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.5,
                                     u_mode=2, v_base=1.0, v_amplitude=0.2), p)
    rep = residual_upvq_identity(s, step(s, p, 2e-3), 1.0, 0.0, p)
    assert abs(rep.residual) <= 1e-12


def test_residual_upvq_reduces_to_vq_at_p0():
    # two routes to the same balance: the mixed-moment law at p=0 must agree
    # with the dedicated v^q law up to the factor q
    g = Grid(24)
    p = Params(alpha=1.25, epsilon=0.01, ell=0.5)
    s = build_initial(g, InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.4,
                                     u_mode=2, v_base=1.0, v_amplitude=0.2), p)
    s2 = step(s, p, 1e-4)
    q = 3.0
    full = residual_upvq_identity(s, s2, 0.0, q, p)
    part = residual_vq_identity(s, s2, q, p)
    assert full.residual == pytest.approx(q * part.residual, rel=1e-9, abs=1e-13)


def test_residual_upvq_constant_ode():
    g = Grid(10)
    p = Params(alpha=1.75, epsilon=0.01, ell=2.0)
    pq = (0.5, 1.0)
    for dt, bound in ((1e-3, 2e-2), (5e-4, 1e-2)):
        s = _const_state(g, u=1.3, v=0.7)
        rep = residual_upvq_identity(s, step(s, p, dt), *pq, p)
        # the non-gradient terms p ell a^p b^(q+1) - q a^(p+1) b^q survive
        a, b = 1.3, 0.7
        assert rep.rhs == pytest.approx(0.5 * 2.0 * a ** 0.5 * b ** 2.0
                                        - 1.0 * a ** 1.5 * b, rel=1e-13)
        assert abs(rep.residual) <= bound


def test_first_energy_constant_closed_form():
    # u = v = 1, ell = 0, alpha = 1: F = int(u^2/2 - u v) and dF/dt = int u^2 v
    # exactly (the functional is linear in v and u is frozen)
    g = Grid(20)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = _const_state(g)
    rep = check_first_energy(s, step(s, p, 2e-4), p)
    assert rep.rate == pytest.approx(1.0, abs=1e-10)
    assert rep.slack == pytest.approx(0.0, abs=1e-10)
    assert abs(rep.residual) <= 1e-10
    assert rep.passes()


def test_first_energy_refinement_const_u():
    # u constant kills the u-gradient dissipation; identity residual O(dt + h^2)
    def worst(n):
        g = Grid(n)
        p = Params(alpha=1.25, epsilon=0.01, ell=0.0)
        s = State(grid=g, t=0.0, u=np.full(g.shape, 0.8),
                  v=1.0 + 0.4 * np.cos(np.pi * g.centers(0)))
        out = [0.0]

        def obs(a, b, d):
            out[0] = max(out[0], check_first_energy(a, b, p).rel)

        run(s, p, StepControl(t_end=1e-3, dt_max=0.1 * g.h[0] ** 2), observers=[obs])
        return out[0]

    assert worst(32) / worst(64) >= 3.0


def test_residual_report_fields():
    g = Grid(16)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = build_initial(g, InitialData(kind="gaussian_bump", u_amplitude=1.0), p)
    s2 = step(s, p, 1e-5)
    rep = residual_v_energy(s, s2, p)
    assert rep.t0 == 0.0 and rep.t1 == pytest.approx(1e-5)
    assert rep.residual == rep.lhs - rep.rhs
    assert rep.normalizer >= 1.0
    assert rep.rel == abs(rep.residual) / rep.normalizer
