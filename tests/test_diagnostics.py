import tracemalloc

import numpy as np
import pytest

from dtaxis import Grid, InitialData, Params, StepControl, build_initial
from dtaxis.diagnostics import (FirstEnergyReport, MonitorRow, ResidualReport, _identity,
                                _normalizer, _upvq, check_first_energy, check_struc2_balance,
                                hessian_sq, monitor_row, residual_rows, residual_upvq_identity,
                                residual_v_energy)
from dtaxis.model import Accumulators, State, _power
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
    row = monitor_row(_const_state(g), Params(alpha=0.5, epsilon=0.01, chi=3.0))
    assert row.combined_flux_energy == pytest.approx(1.0 / (1.5 * 2.5) - 3.0, rel=1e-14)


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


def test_monitor_row_refuses_a_non_finite_accumulator():
    g = Grid(16)
    state = State(grid=g, t=0.0, u=np.ones(g.shape), v=np.ones(g.shape),
                  acc=Accumulators(uv=np.inf))
    with pytest.raises(ValueError, match="^non-finite monitor entry acc_uv at t=0$"):
        monitor_row(state, Params(alpha=1.0, epsilon=0.01))


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
    g = Grid((4, 5))
    s = _const_state(g)
    s.t = 0.25
    s.v[2, 3] = -1e-9
    s.v[3, 0] = 0.0
    with pytest.raises(ValueError, match=r"v positivity lost at t=0.25 at cell \(2, 3\)"):
        monitor_row(s, p)


def test_residual_v_energy_constant_is_zero():
    g = Grid(16)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = _const_state(g)
    s2 = step(s, p, 1e-4)
    rep = residual_v_energy(s, s2, p)
    assert rep.residual == 0.0
    assert rep.normalizer == 1.0


def _vq_row(prev, nxt, q, params):
    """The v^q balance: the u^p v^q law at p = 0 divided through by q, as the v_pow_2 row."""
    return _identity(prev, nxt, params, _upvq(0.0, q, params, f"v_pow_{q:g}", per=q))


def _heat_flow_worst(n, dtmax, t_w=2e-3):
    # nearly pure heat flow for v: u tiny constant
    g = Grid(n)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    s = State(grid=g, t=0.0, u=np.full(g.shape, 1e-6),
              v=1.0 + 0.4 * np.cos(np.pi * g.centers(0)))
    worst = [0.0, 0.0]

    def obs(a, b, d):
        worst[0] = max(worst[0], residual_v_energy(a, b, p).rel)
        worst[1] = max(worst[1], _vq_row(a, b, 2.0, p).rel)

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
    rep = _vq_row(s, s2, 2.0, p)
    assert rep.residual == 0.0


def test_residual_vq_cubic_constant_ode():
    # constants: (1/q) d/dt int v^q = -int u v^q up to O(dt)
    g = Grid(12)
    p = Params(alpha=1.0, epsilon=0.01, ell=0.0)
    res = []
    for dt in (2e-3, 1e-3):
        s = _const_state(g, u=1.0, v=1.0)
        rep = _vq_row(s, step(s, p, dt), 3.0, p)
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
    part = _vq_row(s, s2, q, p)
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


def test_first_energy_report_is_a_residual_report():
    g = Grid(16)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    s = build_initial(g, InitialData(kind="gaussian_bump", u_amplitude=1.0), p)
    rep = check_first_energy(s, step(s, p, 1e-5), p)
    assert isinstance(rep, ResidualReport) and rep.name == "first_energy"
    assert rep.lhs == rep.rate + rep.dissipation
    assert rep.residual == rep.lhs - rep.rhs
    assert rep.slack == rep.rhs_inequality - rep.rate


def _first_energy_by_definition(prev, nxt, params):
    """check_first_energy written one integral at a time, for
    E_chi = int u^(3-alpha)/((2-alpha)(3-alpha)) - chi u v."""
    g, u, v = prev.grid, prev.u, prev.v
    a, chi = params.alpha, params.chi
    c = (2.0 - a) * (3.0 - a)
    dt = nxt.t - prev.t
    u3a, uv = _power(u, 3.0 - a), u * v
    u3av = u3a * v
    e_next = g.integrate(_power(nxt.u, 3.0 - a) / c - nxt.u * nxt.v * chi)
    rate = (e_next - g.integrate(u3a / c - uv * chi)) / dt
    gu = g.face_gradient(u)
    gv = g.face_gradient(v)
    gw = g.face_gradient(_power(u, 2.0 - a) / (2.0 - a))
    gdiff = [gw[ax] - chi * gv[ax] for ax in range(g.dim)]
    dissipation = g.integrate(_power(u, a) * v * g.cell_dot(gdiff, gdiff))
    t_mix = chi * g.integrate(g.cell_dot(gu, gv))
    t_quad = chi * g.integrate(u * u * v)
    t_grow = params.ell * g.integrate(u3av / (2.0 - a) - uv * chi * v)
    lhs, rhs = rate + dissipation, t_grow + t_mix + t_quad
    rhs_ineq = (params.ell / (2.0 - a)) * g.integrate(u3av) + t_mix + t_quad
    return FirstEnergyReport(
        "first_energy", prev.t, nxt.t, lhs, rhs, lhs - rhs,
        _normalizer(rate, dissipation, t_mix, t_quad, t_grow),
        rate=rate, dissipation=dissipation, rhs_inequality=rhs_ineq,
        slack=rhs_ineq - rate,
    )


def _v_energy_by_definition(prev, nxt, params):
    """residual_v_energy written one integral at a time."""
    g, dt = prev.grid, nxt.t - prev.t
    gv0, gv1 = g.face_gradient(prev.v), g.face_gradient(nxt.v)
    lap = g.laplacian_neumann(prev.v)
    rate = 0.5 * (g.integrate(g.cell_dot(gv1, gv1)) - g.integrate(g.cell_dot(gv0, gv0))) / dt
    t_lap = g.integrate(lap * lap)
    t_uvv = g.integrate(prev.u * g.cell_dot(gv0, gv0))
    t_mix = g.integrate(prev.v * g.cell_dot(g.face_gradient(prev.u), gv0))
    rhs = -(t_lap + t_uvv + t_mix)
    return ResidualReport("v_energy", prev.t, nxt.t, rate, rhs, rate - rhs,
                          _normalizer(rate, t_lap, t_uvv, t_mix))


def _vq_by_definition(prev, nxt, q, params):
    """(1/q) d/dt int v^q = -(q-1) int v^(q-2) |grad v|^2 - int u v^q, one integral at a time."""
    g, dt = prev.grid, nxt.t - prev.t
    gv = g.face_gradient(prev.v)
    rate = (g.integrate(_power(nxt.v, q)) - g.integrate(_power(prev.v, q))) / (q * dt)
    t_grad = (q - 1.0) * g.integrate(g.cell_dot(gv, gv) * _power(prev.v, q - 2.0))
    t_cons = g.integrate(prev.u * _power(prev.v, q))
    rhs = -(t_grad + t_cons)
    return ResidualReport(f"v_pow_{q:g}", prev.t, nxt.t, rate, rhs, rate - rhs,
                          _normalizer(rate, t_grad, t_cons))


def _upvq_by_definition(prev, nxt, p, q, params):
    """residual_upvq_identity written one integral at a time."""
    g, u, v = prev.grid, prev.u, prev.v
    a = params.alpha
    dt = nxt.t - prev.t
    up, up_m1, vq, vq_p1 = _power(u, p), _power(u, p - 1.0), _power(v, q), _power(v, q + 1.0)
    upvq = up * vq
    rate = (g.integrate(_power(nxt.u, p) * _power(nxt.v, q)) - g.integrate(upvq)) / dt
    gu = g.face_gradient(u)
    gv = g.face_gradient(v)
    cuu, cvv, cuv = g.cell_dot(gu, gu), g.cell_dot(gv, gv), g.cell_dot(gu, gv)
    t1 = p * (1.0 - p) * g.integrate(up_m1 * vq_p1 * cuu)
    t2 = p * q * g.integrate(_power(u, p - 1.0 + a) * vq * cvv)
    t3 = p * params.ell * g.integrate(up * vq_p1)
    t4 = p * (p - 1.0) * g.integrate(_power(u, p - 2.0 + a) * vq_p1 * cuv)
    t5 = -p * q * g.integrate(upvq * cuv)
    t6 = -p * q * g.integrate(up_m1 * _power(v, q - 1.0) * cuv)
    t7 = -q * (q - 1.0) * g.integrate(up * _power(v, q - 2.0) * cvv)
    t8 = -q * g.integrate(_power(u, p + 1.0) * vq)
    rhs = t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8
    return ResidualReport(f"u{p:g}_v{q:g}", prev.t, nxt.t, rate, rhs, rate - rhs,
                          _normalizer(rate, t1, t2, t3, t4, t5, t6, t7, t8))


# the data kinds of the regime corpus
CORPUS_KINDS = [
    dict(kind="constant", u_base=0.0, u_amplitude=1.0, v_base=1.0),
    dict(kind="gaussian_bump", u_amplitude=1.0, u_width=0.15, v_base=1.0),
    dict(kind="cosine_mix", u_base=1.0, u_amplitude=-0.5, u_mode=2, v_base=1.0,
         v_amplitude=0.2),
]


@pytest.mark.parametrize("cells, alpha, kind, avg_mode, chi", [
    *((64, alpha, kind, "geometric", 1.0)
      for alpha in (0.5, 1.25, 1.75) for kind in CORPUS_KINDS),
    ((12, 10), 1.25, CORPUS_KINDS[2], "arithmetic", 3.0),
    ((8, 7, 6), 1.25, CORPUS_KINDS[2], "arithmetic", 3.0),
])
def test_stacked_diagnostics_equal_their_definitions(cells, alpha, kind, avg_mode, chi):
    # the one-reduction forms must give every report bit for bit
    g = Grid(cells)
    p = Params(alpha=alpha, epsilon=0.01, chi=chi, ell=1.0, avg_mode=avg_mode)
    pairs = []
    run(build_initial(g, InitialData(**kind), p), p, StepControl(t_end=3e-4, dt_max=1e-4),
        observers=[lambda prev, new, dt: pairs.append((prev, new))])
    assert len(pairs) >= 3
    for prev, new in pairs:
        assert residual_rows(prev, new, p) == [
            _v_energy_by_definition(prev, new, p), _vq_by_definition(prev, new, 2.0, p),
            _upvq_by_definition(prev, new, 0.5, 1.0, p), _first_energy_by_definition(prev, new, p)]
        assert check_first_energy(prev, new, p) == _first_energy_by_definition(prev, new, p)
        for pp, qq in ((0.5, 1.0), (2.0, 3.0), (0.0, 2.0), (1.0, 0.0), (1.5, 0.5)):
            assert (residual_upvq_identity(prev, new, pp, qq, p)
                    == _upvq_by_definition(prev, new, pp, qq, p))


def test_v_pow_2_row_is_finite_on_exact_vacuum():
    # the row builds no term with coefficient 0, so no u^(p-1) = u^(-1) at p = 0
    g = Grid(16)
    p = Params(alpha=1.25, epsilon=0.01)
    u = 1.0 + 0.5 * np.cos(np.pi * g.centers(0))
    u[5] = 0.0
    s = State(grid=g, t=0.0, u=u, v=1.0 + 0.2 * np.cos(2.0 * np.pi * g.centers(0)))
    s2 = step(s, p, 1e-5)
    rep = _identity(s, s2, p, _upvq(0.0, 2.0, p, "v_pow_2", per=2.0))
    assert np.isfinite([rep.lhs, rep.rhs, rep.residual, rep.normalizer]).all()
    assert rep == _vq_by_definition(s, s2, 2.0, p)


def test_first_energy_holds_at_every_chi():
    # E_chi carries chi in its u v term: the one-step residual at chi != 1 stays within 2x of
    # the chi = 1 value (E without chi leaves 6.8e-2 at chi = 0 and 0.27 at chi = 5 here)
    g = Grid(64)
    ini = InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.5, u_mode=2,
                      v_amplitude=0.2)

    def rel(chi):
        p = Params(alpha=1.25, epsilon=0.01, chi=chi, ell=1.0)
        s = build_initial(g, ini, p)
        return check_first_energy(s, step(s, p, 1e-6), p).rel

    ref = rel(1.0)
    for chi in (0.0, 2.0, 5.0):
        assert rel(chi) <= 2.0 * ref, chi


# every entry point of the balance laws, called on one window (prev, nxt)
WINDOW_CHECKS = {
    "residual_v_energy": residual_v_energy,
    "residual_upvq_identity": lambda a, b, p: residual_upvq_identity(a, b, 0.5, 1.0, p),
    "residual_rows": residual_rows,
    "check_first_energy": check_first_energy,
    "check_struc2_balance": lambda a, b, p: check_struc2_balance([(a, b)], p),
}


@pytest.mark.parametrize("check", WINDOW_CHECKS)
def test_balance_laws_refuse_an_empty_window_or_two_grids(check):
    # a window of no positive length, or of states on two grids, is named, not divided
    # by zero or broadcast
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    ini = InitialData(kind="gaussian_bump", u_amplitude=1.0)
    s = build_initial(Grid(16), ini, p)
    s2 = step(s, p, 1e-5)
    for a, b in ((s, s), (s2, s)):
        with pytest.raises(ValueError, match="window needs t1 > t0") as err:
            WINDOW_CHECKS[check](a, b, p)
        assert f"t0={a.t!r}" in str(err.value) and f"t1={b.t!r}" in str(err.value)
    coarse = build_initial(Grid(8), ini, p)
    coarse = State(grid=coarse.grid, t=s2.t, u=coarse.u, v=coarse.v)
    with pytest.raises(ValueError, match="different grids") as err:
        WINDOW_CHECKS[check](s, coarse, p)
    assert repr(s.grid) in str(err.value) and repr(coarse.grid) in str(err.value)


def test_non_finite_integrand_is_named_by_law_row_and_cell():
    g = Grid(16)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    u = 1.0 + 0.5 * np.cos(np.pi * g.centers(0))
    u[5] = 0.0
    s = State(grid=g, t=0.0, u=u, v=1.0 + 0.2 * np.cos(2.0 * np.pi * g.centers(0)))
    s2 = step(s, p, 1e-5)
    # exact vacuum: T1 = (1/4) int u^(-1/2) v^2 |grad u|^2 of u0.5_v1 is infinite at cell 5
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^u0\.5_v1: non-finite term 1 at cell \(5,\)$"):
            residual_upvq_identity(s, s2, 0.5, 1.0, p)
    v = s2.v.copy()
    v[3] = np.nan
    with pytest.raises(ValueError) as err:
        check_first_energy(s, State(grid=g, t=s2.t, u=s2.u, v=v), p)
    assert str(err.value) == "first_energy: non-finite density at t1 at cell (3,)"
    # every integrand finite, but u^2 v = 1e308 on each cell overflows the sum of term 4
    big = State(grid=g, t=0.0, u=np.full(16, 1e154), v=np.ones(16))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"^first_energy: non-finite term 4 in its sum$"):
            check_first_energy(big, State(grid=g, t=1e-5, u=big.u, v=big.v), p)


def test_residual_rows_memory_budget():
    # every gradient product is formed, and the face gradients dropped, before any power:
    # one call's traced peak at 3D-16^3 is 24.6 field sizes (29.6 with the gradients kept)
    g = Grid((16, 16, 16))
    p = Params(alpha=1.25, epsilon=0.01, chi=1.0, ell=1.0)
    s = build_initial(g, InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=-0.5,
                                     u_mode=2, v_amplitude=0.2), p)
    s2 = step(s, p, 1e-6)
    residual_rows(s, s2, p)  # warm-up
    tracemalloc.start()
    try:
        residual_rows(s, s2, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * s.u.nbytes, peak / s.u.nbytes


def _interior_hessian_sq(cells, lengths, f):
    g = Grid(cells, lengths)
    return hessian_sq(g, f(*g.mesh()))[(slice(1, -1),) * g.dim]


def test_hessian_sq_exact_for_quadratics_on_interior_cells():
    # |D2 f|^2 = sum_ab (d_a d_b f)^2 with constant second derivatives
    h1 = _interior_hessian_sq((10,), 2.0, lambda x: x * x)
    np.testing.assert_allclose(h1, 4.0, rtol=1e-9)
    h2 = _interior_hessian_sq((12, 9), (1.0, 1.5),
                              lambda x, y: x * x + x * y + 3.0 * y * y)
    np.testing.assert_allclose(h2, 4.0 + 2.0 * 1.0 + 36.0, rtol=1e-9)
    # f_xx = 2, f_zz = 2, f_xy = 1, f_yz = 2: 4 + 4 + 2 * (1 + 4) = 18
    h3 = _interior_hessian_sq((7, 6, 5), (1.0, 0.8, 1.2),
                              lambda x, y, z: x * x + x * y + 2.0 * y * z + z * z)
    np.testing.assert_allclose(h3, 18.0, rtol=1e-9)


@pytest.mark.parametrize("cells", [(9, 8), (6, 5, 7)])
def test_hessian_sq_commutes_with_mirroring(cells):
    # centered differences have no preferred direction along any axis
    g = Grid(cells)
    f = np.random.default_rng(3).uniform(0.5, 2.0, g.shape)
    h = hessian_sq(g, f)
    for a in range(g.dim):
        hm = np.flip(hessian_sq(g, np.flip(f, axis=a)), axis=a)
        np.testing.assert_allclose(hm, h, rtol=1e-12, atol=1e-12 * h.max())


@pytest.mark.parametrize("cells", [(11,), (9, 8), (6, 5, 7)])
def test_hessian_sq_acts_row_by_row_on_a_stack(cells):
    g = Grid(cells)
    stack = np.random.default_rng(5).uniform(0.5, 2.0, (3,) + g.shape)
    h = hessian_sq(g, stack)
    assert h.shape == stack.shape
    for f, row in zip(stack, h):
        assert np.array_equal(hessian_sq(g, f), row)


def test_hessian_sq_wall_cell_one_sided_closure():
    g = Grid(10, 2.0)
    x = g.centers(0)
    f = np.cos(1.3 * x) + x ** 3
    h = g.h[0]
    hs = hessian_sq(g, f)
    assert hs[0] == pytest.approx(((f[1] - f[0]) / h ** 2) ** 2, rel=1e-12)
    assert hs[-1] == pytest.approx(((f[-2] - f[-1]) / h ** 2) ** 2, rel=1e-12)
