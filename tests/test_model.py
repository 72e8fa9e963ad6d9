import numpy as np
import pytest

from dtaxis import Grid, InitialData, Params, assemble_rhs, build_initial, face_diffusivity
from dtaxis.model import (State, build_initial_from_fields, face_average,
                          initial_profiles)


def test_params_validation():
    Params(alpha=0.0, epsilon=0.5)
    Params(alpha=1.999, epsilon=0.5, chi=0.0)
    for bad in (dict(alpha=2.0), dict(alpha=-0.1), dict(epsilon=0.0), dict(epsilon=1.0),
                dict(chi=-1.0), dict(ell=-0.5), dict(cfl_safety=0.0),
                dict(cfl_safety=1.5), dict(avg_mode="harmonic")):
        kw = dict(alpha=1.0, epsilon=0.01)
        kw.update(bad)
        with pytest.raises(ValueError):
            Params(**kw)


def test_constructors_reject_non_finite_numbers():
    nan = float("nan")
    for bad in (dict(alpha=nan), dict(epsilon=nan), dict(chi=nan), dict(ell=nan),
                dict(chi=float("inf")), dict(cfl_safety=nan)):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            Params(**{"alpha": 1.0, "epsilon": 0.01, **bad})
    with pytest.raises(ValueError, match="domain lengths"):
        Grid(8, nan)
    g = Grid((4, 3))
    p = Params(alpha=1.0, epsilon=0.01)
    v0 = np.ones(g.shape)
    v0[2, 1] = nan
    with pytest.raises(ValueError, match=r"v0 is not finite at cell \(2, 1\)"):
        build_initial_from_fields(g, np.ones(g.shape), v0, p)
    with pytest.raises(ValueError, match=r"u0 is not finite at cell \(0, 0\)"):
        build_initial_from_fields(g, np.full(g.shape, np.inf), np.ones(g.shape), p)
    with pytest.raises(ValueError, match="initial v must be strictly positive"):
        build_initial_from_fields(g, np.ones(g.shape), np.ones(g.shape), p, v_floor=nan)


def test_build_initial_constant_shift():
    g = Grid(32)
    p = Params(alpha=1.0, epsilon=0.01)
    s = build_initial(g, InitialData(kind="constant", u_base=0.0, u_amplitude=1.0,
                                     v_base=1.0), p)
    assert np.all(s.u == 1.01)
    assert np.all(s.v == 1.0)
    assert s.t == 0.0
    assert all(v == 0.0 for v in s.acc.values())


def test_build_initial_gaussian_floor():
    g = Grid(64)
    p = Params(alpha=1.0, epsilon=0.1)
    s = build_initial(g, InitialData(kind="gaussian_bump", u_amplitude=1.0,
                                     u_width=0.1), p)
    assert s.u.min() >= 0.1


def test_build_initial_cosine_neumann_compatible():
    g = Grid(48)
    p = Params(alpha=1.0, epsilon=0.01)
    s = build_initial(g, InitialData(kind="cosine_mix", u_base=1.0, u_amplitude=0.3,
                                     u_mode=1, v_base=1.0, v_amplitude=0.3), p)
    gv = g.face_gradient(s.v)[0]
    assert gv[0] == 0.0 and gv[-1] == 0.0
    # mode-1 cosine data is mirror symmetric up to sign; interior gradient smooth
    assert np.max(np.abs(gv)) < 0.3 * np.pi * 1.01


def test_build_initial_errors():
    g = Grid(16)
    p = Params(alpha=1.0, epsilon=0.01)
    with pytest.raises(ValueError, match="u0 must be nonnegative"):
        build_initial(g, InitialData(kind="cosine_mix", u_base=0.1, u_amplitude=0.5), p)
    with pytest.raises(ValueError, match="initial v must be strictly positive"):
        build_initial(g, InitialData(kind="constant", v_floor=0.0), p)
    with pytest.raises(ValueError, match="initial v must be strictly positive"):
        build_initial(g, InitialData(kind="constant", v_base=0.0, v_floor=0.5), p)
    with pytest.raises(ValueError, match="must not vanish identically"):
        build_initial(g, InitialData(kind="constant", u_base=0.0, u_amplitude=0.0), p)
    with pytest.raises(ValueError):
        InitialData(kind="banana")


def test_face_diffusivity_constant_both_modes():
    g = Grid(16)
    u = np.full(g.shape, 2.0)
    v = np.full(g.shape, 3.0)
    for mode in ("arithmetic", "geometric"):
        f = face_diffusivity(g, u, v, mode)[0]
        assert np.allclose(f[1:-1], 6.0, rtol=1e-14)


def test_face_diffusivity_degenerate_and_means():
    g = Grid(2)
    u = np.array([0.0, 4.0])
    v = np.array([1.0, 1.0])
    assert face_diffusivity(g, u, v, "geometric")[0][1] == 0.0
    u = np.array([2.0, 8.0])
    assert face_diffusivity(g, u, v, "arithmetic")[0][1] == pytest.approx(5.0)
    assert face_diffusivity(g, u, v, "geometric")[0][1] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        face_average(g, u, "median")


def test_rhs_constant_state_is_pure_reaction():
    g = Grid((12, 12))
    p = Params(alpha=0.7, epsilon=0.01, ell=0.7)
    s = State(grid=g, t=0.0, u=np.full(g.shape, 1.2), v=np.full(g.shape, 0.8))
    du, dv = assemble_rhs(s, p)
    assert np.allclose(du, 0.7 * 1.2 * 0.8, rtol=1e-14)
    assert np.allclose(dv, -1.2 * 0.8, rtol=1e-14)


def test_rhs_porous_medium_reduction():
    # with chi=0, ell=0, v=1 the u-equation is du/dt = div(u grad u) = lap(u^2)/2;
    # the arithmetic face mean telescopes exactly, the geometric one is O(h^2)
    def residual(mode, n):
        g = Grid(n)
        p = Params(alpha=1.0, epsilon=0.01, ell=0.0, chi=0.0, avg_mode=mode)
        u = 1.0 + 0.5 * np.cos(np.pi * g.centers(0))
        s = State(grid=g, t=0.0, u=u, v=np.ones(g.shape))
        du, _ = assemble_rhs(s, p)
        return float(np.max(np.abs(du - 0.5 * g.laplacian_neumann(u * u))))

    assert residual("arithmetic", 64) < 1e-11
    e64 = residual("geometric", 64)
    assert e64 < 1e-3
    assert e64 / residual("geometric", 128) > 3.5


def test_rhs_conservation_contract():
    rng = np.random.default_rng(8)
    for cells in (64, (12, 10)):
        g = Grid(cells)
        p = Params(alpha=1.3, epsilon=0.01, ell=0.6)
        s = State(grid=g, t=0.0, u=rng.uniform(0.1, 2.0, g.shape),
                  v=rng.uniform(0.2, 1.0, g.shape))
        du, dv = assemble_rhs(s, p)
        uv = g.integrate(s.u * s.v)
        du_l1 = g.integrate(np.abs(du))
        assert abs(g.integrate(du) - p.ell * uv) <= 1e-12 * max(du_l1, 1.0)
        assert abs(g.integrate(dv) + uv) <= 1e-12 * max(g.integrate(np.abs(dv)), 1.0)


def test_rhs_degenerate_off_switch():
    # geometric averaging: a vacuum plateau exchanges no flux at all
    g = Grid(40)
    p = Params(alpha=0.5, epsilon=0.01, ell=0.0, avg_mode="geometric")
    u = np.ones(g.shape)
    u[10:21] = 0.0
    v = 1.0 + 0.3 * np.cos(np.pi * g.centers(0))
    du, _ = assemble_rhs(State(grid=g, t=0.0, u=u, v=v), p)
    assert np.all(du[10:21] == 0.0)


def test_rhs_mirror_symmetry():
    g = Grid(33)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    x = g.centers(0)
    u = 1.0 + 0.4 * np.cos(2 * np.pi * x)
    v = 1.0 + 0.2 * np.cos(2 * np.pi * x)
    du, dv = assemble_rhs(State(grid=g, t=0.0, u=u, v=v), p)
    du_m, dv_m = assemble_rhs(State(grid=g, t=0.0, u=u[::-1].copy(), v=v[::-1].copy()), p)
    assert np.max(np.abs(du_m[::-1] - du)) <= 1e-13 * max(1.0, np.max(np.abs(du)))
    assert np.max(np.abs(dv_m[::-1] - dv)) <= 1e-13 * max(1.0, np.max(np.abs(dv)))


def test_rhs_alpha_continuity():
    g = Grid(48)
    rng = np.random.default_rng(1)
    u = rng.uniform(0.5, 2.0, g.shape)
    v = rng.uniform(0.5, 1.0, g.shape)
    s = State(grid=g, t=0.0, u=u, v=v)
    du1, _ = assemble_rhs(s, Params(alpha=1.25, epsilon=0.01))
    du2, _ = assemble_rhs(s, Params(alpha=1.25 + 1e-9, epsilon=0.01))
    rel = np.max(np.abs(du1 - du2)) / max(np.max(np.abs(du1)), 1.0)
    assert rel <= 1e-6


def test_rhs_overflow_reports_cell():
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01)
    u = np.ones(g.shape)
    u[5] = 1e308
    v = np.full(g.shape, 1e308)
    with pytest.raises(FloatingPointError, match="rhs overflow at cell"):
        assemble_rhs(State(grid=g, t=0.0, u=u, v=v), p)


def test_initial_profiles_from_snapshot_refused():
    g = Grid(8)
    with pytest.raises(ValueError, match="run builder"):
        initial_profiles(g, InitialData(kind="from_snapshot", snapshot_path="x"))
