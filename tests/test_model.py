import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaxis import Grid, InitialData, Params, build_initial
from dtaxis.model import (State, _power, _rhs_core, build_initial_from_fields, face_average,
                          initial_profiles)


def along(g, a, sl):
    """Index tuple taking sl along axis a of a (..., *shape) cell array."""
    return (..., *(sl if b == a else slice(None) for b in range(g.dim)))


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


@pytest.mark.parametrize("width", [0.0, -0.15, float("nan"), float("inf")])
def test_initial_data_rejects_bad_u_width(width):
    with pytest.raises(ValueError, match="u_width must be positive and finite"):
        InitialData(kind="gaussian_bump", u_width=width)


@pytest.mark.parametrize("mode", ["u_mode", "v_mode"])
def test_initial_data_refuses_a_non_integral_mode(mode):
    # cos(2.5 pi x / L) has a nonzero slope at x = L: the no-flux compatibility fails
    with pytest.raises(ValueError, match=f"^{mode} must be an integer, got 2.5$"):
        InitialData(kind="cosine_mix", **{mode: 2.5})
    assert getattr(InitialData(kind="cosine_mix", **{mode: np.int64(3)}), mode) == 3


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


def test_build_initial_from_fields_names_the_cell():
    g = Grid((4, 3))
    p = Params(alpha=1.0, epsilon=0.01)
    u0, v0 = np.ones(g.shape), np.ones(g.shape)
    u0[2, 1] = u0[3, 0] = -1e-3
    with pytest.raises(ValueError, match=r"u0 must be nonnegative, first negative at cell \(2, 1\)"):
        build_initial_from_fields(g, u0, v0, p)
    v0[1, 2], v0[3, 0] = 2e-4, 0.0
    with pytest.raises(ValueError, match=r"initial v must be strictly positive: 0.0002 "
                                         r"< v_floor at cell \(1, 2\)"):
        build_initial_from_fields(g, np.ones(g.shape), v0, p)
    with pytest.raises(ValueError, match=r"^initial fields of shape \(4, 4\)/\(4, 3\) do not "
                                         r"fit grid \(4, 3\)$"):
        build_initial_from_fields(g, np.ones((4, 4)), np.ones(g.shape), p)
    with pytest.raises(ValueError):
        InitialData(kind="banana")


def test_face_diffusivity_constant_both_modes():
    g = Grid(16)
    u = np.full(g.shape, 2.0)
    v = np.full(g.shape, 3.0)
    for mode in ("arithmetic", "geometric"):
        f = face_average(g, u * v, mode)[0]
        assert np.allclose(f[1:-1], 6.0, rtol=1e-14)


def test_face_diffusivity_degenerate_and_means():
    g = Grid(2)
    u = np.array([0.0, 4.0])
    v = np.array([1.0, 1.0])
    assert face_average(g, u * v, "geometric")[0][1] == 0.0
    u = np.array([2.0, 8.0])
    assert face_average(g, u * v, "arithmetic")[0][1] == pytest.approx(5.0)
    assert face_average(g, u * v, "geometric")[0][1] == pytest.approx(4.0)
    # the root of the product would give 0 and inf here
    for w in (1e-200, 1e160):
        assert face_average(g, np.array([w, w]), "geometric")[0][1] == pytest.approx(w)
    with pytest.raises(ValueError):
        face_average(g, u, "median")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cells=st.lists(st.integers(2, 4), min_size=1, max_size=3), data=st.data())
def test_geometric_face_mean_is_zero_only_at_vacuum_and_lies_between_its_cells(cells, data):
    g = Grid(cells)
    cell_value = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
    w = np.array(data.draw(st.lists(cell_value, min_size=math.prod(cells),
                                    max_size=math.prod(cells)))).reshape(g.shape)
    for a, f in enumerate(face_average(g, w, "geometric")):
        lo, hi = w[along(g, a, slice(0, -1))], w[along(g, a, slice(1, None))]
        f = g.face_view(f, a)[along(g, a, slice(0, -1))]  # the face above every cell but the last
        vacuum = (lo == 0.0) | (hi == 0.0)
        assert np.array_equal(f == 0.0, vacuum)
        assert np.isfinite(f).all() and (f[~vacuum] > 0.0).all()
        # sqrt(lo) * sqrt(hi) is three roundings from the exact mean, which lies between
        assert (f >= np.minimum(lo, hi) * (1.0 - 2.0 ** -51)).all()
        assert (f <= np.maximum(lo, hi) * (1.0 + 2.0 ** -51)).all()


@pytest.mark.parametrize("mode", ["arithmetic", "geometric"])
@pytest.mark.parametrize("cells", [9, (6, 5), (5, 4, 3)])
def test_face_average_out_form_bit_equals_the_allocating_form(cells, mode):
    rng = np.random.default_rng(3)
    g = Grid(cells)
    w = rng.uniform(0.0, 2.0, g.shape)
    out = g.faces()
    for a, fa in enumerate(out):  # a reused destination: only its zero walls are kept
        g.face_view(fa, a)[along(g, a, slice(0, -1))] = np.nan
    got = face_average(g, w, mode, out=out, cell=np.full(g.shape, np.nan))
    assert got is out
    assert [fa.tobytes() for fa in got] == [fa.tobytes() for fa in face_average(g, w, mode)]


def test_rhs_constant_state_is_pure_reaction():
    g = Grid((12, 12))
    p = Params(alpha=0.7, epsilon=0.01, ell=0.7)
    s = State(grid=g, t=0.0, u=np.full(g.shape, 1.2), v=np.full(g.shape, 0.8))
    du, dv = _rhs_core(s, p)[:2]
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
        du, _ = _rhs_core(s, p)[:2]
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
        du, dv = _rhs_core(s, p)[:2]
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
    du, _ = _rhs_core(State(grid=g, t=0.0, u=u, v=v), p)[:2]
    assert np.all(du[10:21] == 0.0)


def test_vacuum_insulates_tactic_flux_only_for_positive_alpha():
    # the diffusive coefficient u v vanishes next to a vacuum cell for every
    # alpha, the tactic one u^alpha v only for alpha > 0: at alpha = 0 the
    # taxis flux chi v grad v does not depend on u and drains the empty cell
    g = Grid(32)
    u = np.ones(g.shape)
    u[16] = 0.0
    v = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers(0))
    s = State(grid=g, t=0.0, u=u, v=v)
    for alpha in (0.5, 1.0, 1.25, 1.75):
        du, _ = _rhs_core(s, Params(alpha=alpha, epsilon=0.01, chi=5.0))[:2]
        assert du[16] == 0.0
    du, _ = _rhs_core(s, Params(alpha=0.0, epsilon=0.01, chi=0.0))[:2]
    assert du[16] == 0.0
    du, _ = _rhs_core(s, Params(alpha=0.0, epsilon=0.01, chi=5.0))[:2]
    gv = g.face_gradient(v)
    taxis = g.div_faces([face_average(g, v, "geometric")[0] * gv[0]])
    assert du[16] == pytest.approx(-5.0 * taxis[16], rel=1e-14)
    assert du[16] < -50.0


def test_rhs_mirror_symmetry():
    g = Grid(33)
    p = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    x = g.centers(0)
    u = 1.0 + 0.4 * np.cos(2 * np.pi * x)
    v = 1.0 + 0.2 * np.cos(2 * np.pi * x)
    du, dv = _rhs_core(State(grid=g, t=0.0, u=u, v=v), p)[:2]
    du_m, dv_m = _rhs_core(State(grid=g, t=0.0, u=u[::-1].copy(), v=v[::-1].copy()), p)[:2]
    assert np.max(np.abs(du_m[::-1] - du)) <= 1e-13 * max(1.0, np.max(np.abs(du)))
    assert np.max(np.abs(dv_m[::-1] - dv)) <= 1e-13 * max(1.0, np.max(np.abs(dv)))


def test_rhs_alpha_continuity():
    g = Grid(48)
    rng = np.random.default_rng(1)
    u = rng.uniform(0.5, 2.0, g.shape)
    v = rng.uniform(0.5, 1.0, g.shape)
    s = State(grid=g, t=0.0, u=u, v=v)
    du1, _ = _rhs_core(s, Params(alpha=1.25, epsilon=0.01))[:2]
    du2, _ = _rhs_core(s, Params(alpha=1.25 + 1e-9, epsilon=0.01))[:2]
    rel = np.max(np.abs(du1 - du2)) / max(np.max(np.abs(du1)), 1.0)
    assert rel <= 1e-6


def test_rhs_overflow_reports_cell():
    g = Grid(8)
    p = Params(alpha=1.0, epsilon=0.01)
    u = np.ones(g.shape)
    u[5] = 1e308
    v = np.full(g.shape, 1e308)
    with pytest.raises(FloatingPointError, match="rhs overflow at cell"):
        _rhs_core(State(grid=g, t=0.0, u=u, v=v), p)[:2]


def test_from_snapshot_initial_data_needs_a_path():
    with pytest.raises(ValueError, match="needs a snapshot_path"):
        InitialData(kind="from_snapshot")


def test_initial_profiles_from_snapshot_refused():
    g = Grid(8)
    with pytest.raises(ValueError, match="run builder"):
        initial_profiles(g, InitialData(kind="from_snapshot", snapshot_path="x"))


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.3])
def test_power_writes_into_out_at_every_exponent(a):
    # a caller may write into the result in place, so it must never be u itself
    u = np.random.default_rng(3).uniform(0.1, 2.0, (5, 4))
    before = u.copy()
    out = np.full(u.shape, np.nan)
    got = _power(u, a, out=out)
    assert got is out
    assert u.tobytes() == before.tobytes()
    assert got.tobytes() == (u ** a).tobytes()
    got *= 2.0
    assert u.tobytes() == before.tobytes()
    one = _power(u, 1.0)
    assert one is not u and one.tobytes() == u.tobytes()
    assert _power(u, 0.0).tobytes() == np.ones(u.shape).tobytes()


def _two_divergence_rhs(s, p):
    """The u equation's terms as the model states them, each flux with its own divergence:
    div((u v)_f grad u), chi div((u^alpha v)_f grad v) and ell u v."""
    g, u, v = s.grid, s.u, s.v

    def div_of(coefficient, grad):
        return g.div_faces([c * d for c, d in zip(face_average(g, coefficient, p.avg_mode), grad)])
    return (div_of(u * v, g.face_gradient(u)), p.chi * div_of(u ** p.alpha * v, g.face_gradient(v)),
            p.ell * (u * v))


@pytest.mark.parametrize("chi", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("mode", ["arithmetic", "geometric"])
@pytest.mark.parametrize("cells", [32, (9, 7), (5, 4, 6)])
def test_rhs_one_flux_equals_the_two_divergence_definition(cells, mode, chi):
    rng = np.random.default_rng(11)
    g = Grid(cells)
    p = Params(alpha=1.25, epsilon=0.01, chi=chi, ell=1.0, avg_mode=mode)
    s = State(grid=g, t=0.0, u=rng.uniform(0.1, 2.0, g.shape), v=rng.uniform(0.2, 1.0, g.shape))
    du, _ = _rhs_core(s, p)[:2]
    diffusion, taxis, reaction = _two_divergence_rhs(s, p)
    reference = diffusion - taxis + reaction
    largest = max(float(np.abs(t).max()) for t in (diffusion, taxis, reaction))
    assert float(np.abs(du - reference).max()) <= 1e-13 * largest
    if chi == 0.0:
        assert du.tobytes() == reference.tobytes()
    uv = g.integrate(s.u * s.v)
    assert abs(g.integrate(du) - p.ell * uv) <= 1e-12 * max(g.integrate(np.abs(du)), 1.0)
    # the D* of the step limit, as the README rule writes it
    assert _rhs_core(s, p)[2] == np.max(s.u * s.v + p.chi * s.u ** p.alpha * s.v)
