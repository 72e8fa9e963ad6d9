import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaxis import Grid
from dtaxis.model import face_average

LO, HI = slice(0, -1), slice(1, None)  # along an axis: all cells but the last, but the first


def along(g, a, sl):
    """Index tuple taking sl along axis a of a (..., *shape) cell array."""
    return (..., *(sl if b == a else slice(None) for b in range(g.dim)))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((4, 4, 4, 4))
    with pytest.raises(ValueError):
        Grid(1)
    with pytest.raises(ValueError):
        Grid(8, -1.0)
    with pytest.raises(ValueError):
        Grid((8, 8), (1.0,))


@pytest.mark.parametrize("cells, bad", [((16.5,), "16.5"), (16.5, "16.5"), ((8, 7.25), "7.25"),
                                        ((float("nan"),), "nan")])
def test_grid_refuses_a_non_integral_cell_count(cells, bad):
    with pytest.raises(ValueError, match=f"^cell counts must be integers, got {bad}$"):
        Grid(cells)


def test_grid_accepts_numpy_integer_cell_counts():
    assert Grid(np.int64(16)) == Grid(16)
    assert Grid((np.int32(8), np.uint8(6))).cells == (8, 6)
    assert Grid(np.array([4, 5])).cells == (4, 5)


@pytest.mark.parametrize("length", [np.int64(2), np.int32(2), np.float32(2.0), np.float64(2.0),
                                    np.array(2.0), np.array(2)])
def test_grid_applies_a_numpy_scalar_length_to_every_axis(length):
    assert Grid(8, length) == Grid(8, 2.0)
    assert Grid((8, 6, 4), length).lengths == (2.0, 2.0, 2.0)


def test_integrals_refuse_a_stack_of_another_shape():
    # each row once summed to 5/4
    with pytest.raises(ValueError, match=r"^field of shape \(5,\) does not fit grid \(4,\)$"):
        Grid(4).integrals(np.ones((2, 5)))
    with pytest.raises(ValueError, match=r"^field of shape \(8, 8\) does not fit grid \(4, 16\)$"):
        Grid((4, 16)).integrals(np.ones((3, 8, 8)))


def test_integrate_constant_exact():
    g = Grid((16, 16))
    assert g.integrate(np.full(g.shape, 2.0)) == pytest.approx(2.0, abs=0.0)


@pytest.mark.parametrize("n", [7, 32, 100])
def test_integrate_linear_exact(n):
    # midpoint rule is exact on linears for any resolution
    g = Grid(n)
    f = g.centers(0)
    assert g.integrate(f) == pytest.approx(0.5, rel=1e-14)


def test_integrate_quadratic_error_bound():
    # midpoint-rule error <= h^2 max|f''| / 24 = (1/100)^2 * 2 / 24
    g = Grid(100)
    f = g.centers(0) ** 2
    assert abs(g.integrate(f) - 1.0 / 3.0) < 1e-4


def test_integrate_rejects_non_finite():
    g = Grid(8)
    f = np.ones(g.shape)
    f[3] = np.inf
    with pytest.raises(ValueError, match="non-finite field"):
        g.integrate(f)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_integrate_rejects_nan_and_negative_inf(bad):
    g = Grid((4, 4))
    f = np.ones(g.shape)
    f[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite field"):
        g.integrate(f)


def test_integrate_rejects_an_overflowing_sum():
    g = Grid(8)
    # every cell is finite; numpy's overflow warning is silenced so the check shows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite field"):
        g.integrate(np.full(g.shape, 1e308))


@pytest.mark.parametrize("grid, field", [
    (Grid(8), np.ones(5)),  # a wrong length once summed to 5/8
    (Grid((4, 3)), np.ones((3, 4))),  # the right size, transposed
    (Grid(8), np.ones((8, 1))),
])
def test_integrate_and_lp_norm_refuse_a_field_of_another_shape(grid, field):
    msg = f"field of shape {field.shape} does not fit grid {grid.shape}"
    with pytest.raises(ValueError, match="^" + re.escape(msg) + "$"):
        grid.integrate(field)
    with pytest.raises(ValueError, match=re.escape(msg)):
        grid.lp_norm(field, 2.0)


@pytest.mark.parametrize("cells", [64, 37, (8, 6), (7, 5), (5, 4, 3), (9, 7, 6)])
def test_integrals_bit_equal_integrate(cells):
    rng = np.random.default_rng(3)
    g = Grid(cells, 0.7)
    stack = rng.lognormal(0.0, 3.0, (5,) + g.shape) * rng.choice([-1.0, 1.0], (5,) + g.shape)
    assert g.integrals(stack) == [g.integrate(f) for f in stack]
    assert g.integrals(stack[2:3]) == [g.integrate(stack[2])]
    # a transposed (F-ordered) view is summed in C order, like its contiguous copy
    f = (rng.lognormal(0.0, 3.0, g.shape[::-1]) * rng.choice([-1.0, 1.0], g.shape[::-1])).T
    assert g.integrate(f) == g.integrate(np.ascontiguousarray(f))
    assert g.integrate(f) == g.integrals(np.concatenate([stack, f[None]]))[5]


@pytest.mark.parametrize("cells", [16, (6, 5), (4, 3, 5)])
def test_integrals_name_the_first_non_finite_row(cells):
    g = Grid(cells)
    stack = np.ones((4,) + g.shape)
    stack[2].flat[3] = np.inf
    stack[3].flat[0] = np.nan
    with pytest.raises(ValueError, match="non-finite field in row 2"):
        g.integrals(stack)
    # every cell finite, but row 1 sums past the largest float
    stack = np.ones((3,) + g.shape)
    stack[1] = 1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite field in row 1"):
        g.integrals(stack)


def test_integrate_linearity():
    rng = np.random.default_rng(42)
    g = Grid((12, 9), (1.0, 2.0))
    for _ in range(20):
        f = rng.uniform(-1, 1, g.shape)
        h = rng.uniform(-1, 1, g.shape)
        a, b = rng.uniform(-3, 3, 2)
        lhs = g.integrate(a * f + b * h)
        rhs = a * g.integrate(f) + b * g.integrate(h)
        assert abs(lhs - rhs) <= 1e-13 * (abs(a * g.integrate(f)) + abs(b * g.integrate(h)) + 1)


def test_face_gradient_constant_is_zero():
    g = Grid((8, 8))
    grads = g.face_gradient(np.full(g.shape, 3.7))
    for ga in grads:
        assert np.all(ga == 0.0)


def test_face_gradient_linear_exact():
    g = Grid(17)
    grads = g.face_gradient(g.centers(0).copy())
    assert np.allclose(grads[0][1:-1], 1.0, rtol=1e-13)
    assert grads[0][0] == 0.0 and grads[0][-1] == 0.0


def test_face_gradient_cosine_accuracy():
    # central difference of cos(pi x) at interior faces, O(h^2) Taylor error
    g = Grid(64)
    f = np.cos(np.pi * g.centers(0))
    ga = g.face_gradient(f)[0]
    x_face = np.arange(1, 64) * g.h[0]
    err = np.max(np.abs(ga[1:-1] - (-np.pi * np.sin(np.pi * x_face))))
    assert err < 3e-3


def test_div_faces_zero_flux():
    g = Grid((6, 5))
    assert np.all(g.div_faces(g.faces()) == 0.0)


def test_div_faces_telescoping():
    rng = np.random.default_rng(0)
    for cells in (64, (16, 12)):
        g = Grid(cells)
        flux = g.faces()
        n_faces = 0
        for a, fa in enumerate(flux):
            inner = g.face_view(fa, a)[along(g, a, LO)]  # the faces above all but last cells
            inner[...] = rng.uniform(-1, 1, inner.shape)
            n_faces += g.size + g.size // g.cells[a]  # n_a + 1 faces on each line along a
        fmax = max(np.max(np.abs(fa)) for fa in flux)
        total = g.integrate(g.div_faces(flux))
        assert abs(total) <= 1e-12 * fmax * n_faces
        l1 = sum(np.sum(np.abs(fa)) for fa in flux)
        assert abs(total) <= 1e-13 * l1


def test_laplacian_constant_zero():
    g = Grid((9, 9, 4))
    assert np.all(g.laplacian_neumann(np.full(g.shape, 5.0)) == 0.0)


def test_laplacian_cosine_accuracy():
    g = Grid(128)
    x = g.centers(0)
    lap = g.laplacian_neumann(np.cos(np.pi * x))
    assert np.max(np.abs(lap + np.pi ** 2 * np.cos(np.pi * x))) < 1e-3


def test_laplacian_integrates_to_zero():
    rng = np.random.default_rng(3)
    g = Grid(32)
    f = rng.uniform(0.0, 1.0, g.shape)
    assert abs(g.integrate(g.laplacian_neumann(f))) < 1e-13


def _lap_error(n, dim):
    g = Grid((n,) * dim)
    xs = g.mesh()
    f = np.ones(g.shape)
    lap_true = np.zeros(g.shape)
    for a, x in enumerate(xs):
        f = f * np.cos(np.pi * x / g.lengths[a])
    for a, x in enumerate(xs):
        lap_true = lap_true - (np.pi / g.lengths[a]) ** 2 * f
    return float(np.max(np.abs(g.laplacian_neumann(f) - lap_true)))


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_convergence_order(dim):
    # three-grid refinement on a Neumann-compatible trigonometric field
    errs = [_lap_error(n, dim) for n in (16, 32, 64)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_lp_norm_constant():
    g = Grid((10, 10), (2.0, 1.0))
    val = g.lp_norm(np.full(g.shape, 3.0), 2.0)
    assert val == pytest.approx(3.0 * 2.0 ** 0.5, rel=1e-14)


def test_lp_norm_p1_is_integral():
    rng = np.random.default_rng(5)
    g = Grid(40)
    f = rng.uniform(0.0, 2.0, g.shape)
    assert g.lp_norm(f, 1.0) == g.integrate(f)


def test_lp_norm_cubic_against_quadrature():
    # int_0^1 (1 + cos(pi x)/2)^3 dx = 1 + (3/4) * (1/2) = 1.375 analytically;
    # the even periodic extension is smooth so midpoint superconverges
    g = Grid(256)
    f = 1.0 + np.cos(np.pi * g.centers(0)) / 2.0
    assert abs(g.lp_norm(f, 3.0) - 1.375 ** (1.0 / 3.0)) < 1e-6


def test_lp_norm_errors():
    g = Grid(8)
    f = -np.ones(g.shape)
    with pytest.raises(ValueError, match="fractional power of negative value"):
        g.lp_norm(f, 1.5)
    g = Grid((3, 4))
    f = np.ones(g.shape)
    f[1, 2] = f[2, 0] = -0.5
    with pytest.raises(ValueError, match=r"fractional power of negative value at cell \(1, 2\)"):
        g.lp_norm(f, 0.5)
    assert g.lp_norm(f, 2.0) == g.integrate(f ** 2) ** 0.5
    with pytest.raises(ValueError):
        g.lp_norm(np.ones(g.shape), 0.0)
    with pytest.raises(ValueError, match="^negative integral, no real lp_norm$"):
        Grid(4).lp_norm(-np.ones(4), 3.0)  # an odd integer power keeps the sign
    # a finite field whose p-th power overflows has no finite norm
    g = Grid((37, 53))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite field"):
        g.lp_norm(np.full(g.shape, 1e200), 2.0)


@pytest.mark.parametrize("cells", [48, (12, 10)])
def test_cell_dot_summation_by_parts(cells):
    # int grad f . grad g == -int f lap g, exactly up to rounding
    rng = np.random.default_rng(11)
    g = Grid(cells)
    f = rng.uniform(0.5, 1.5, g.shape)
    w = rng.uniform(0.5, 1.5, g.shape)
    lhs = g.integrate(g.cell_dot(g.face_gradient(f), g.face_gradient(w)))
    rhs = -g.integrate(f * g.laplacian_neumann(w))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("cells", [9, (6, 5), (5, 4, 3)])
def test_out_forms_bit_equal_the_allocating_forms(cells):
    # destinations and scratch start dirty
    rng = np.random.default_rng(7)
    g = Grid(cells)
    f, w = rng.uniform(-1.0, 1.0, g.shape), rng.uniform(-1.0, 1.0, g.shape)

    def same(x, y):
        return [a.tobytes() for a in x] == [a.tobytes() for a in y]

    gf, gw = g.face_gradient(f), g.face_gradient(w)
    # face data with a dirty interior and zero walls, and a row of a stack of face data;
    # bit-equal to gf, so the walls are still 0
    dirty = g.faces()
    for a, fa in enumerate(dirty):
        g.face_view(fa, a)[along(g, a, LO)] = np.nan
    for out in (dirty, [fa[1] for fa in g.faces((3,))]):
        got = g.face_gradient(f, out=out)
        assert got is out and same(got, gf)
    assert same([g.div_faces(gf, out=np.full(g.shape, np.nan), cell=np.full(g.shape, np.nan))],
                [g.div_faces(gf)])
    dirty_faces = [np.full(shape, np.nan) for shape in g.face_shapes]
    got = g.cell_dot(gf, gw, out=np.full(g.shape, np.nan), faces=dirty_faces,
                     cell=np.full(g.shape, np.nan))
    assert same([got], [g.cell_dot(gf, gw)])
    assert [fa.shape for fa in g.faces()] == list(g.face_shapes)
    assert not any(fa.any() for fa in g.faces())


@pytest.mark.parametrize("cells", [9, (6, 5), (5, 4, 3)])
def test_operators_act_on_a_stack_row_by_row(cells):
    # a (k, *shape) stack gives, bit for bit, every row's own result
    rng = np.random.default_rng(11)
    g = Grid(cells)
    stack = rng.uniform(0.5, 1.5, (3,) + g.shape)
    grads = g.face_gradient(stack)
    assert [fa.shape for fa in grads] == [(3,) + s for s in g.face_shapes]
    assert [fa.shape for fa in g.faces((3,))] == [(3,) + s for s in g.face_shapes]
    div, dot = g.div_faces(grads), g.cell_dot(grads, grads)
    for i, f in enumerate(stack):
        gf = g.face_gradient(f)
        assert [fa[i].tobytes() for fa in grads] == [fa.tobytes() for fa in gf]
        assert div[i].tobytes() == g.div_faces(gf).tobytes()
        assert dot[i].tobytes() == g.cell_dot(gf, gf).tobytes()


def _kernels_dividing_by_h(g, f, flux, ga, gb):
    """face_gradient, div_faces and cell_dot written with a division by h and a halving
    per axis; also the magnitude scale of each divergence, the sum of its |axis terms|."""
    def below_above(face, a):
        return g.face_view(face, a, below=True), g.face_view(face, a)

    grad = g.faces()
    for a in range(g.dim):
        lo, hi = along(g, a, LO), along(g, a, HI)
        g.face_view(grad[a], a)[lo] = (f[hi] - f[lo]) / g.h[a]
    terms = [(hi - lo) / g.h[a] for a in range(g.dim) for lo, hi in [below_above(flux[a], a)]]
    means = [0.5 * (lo + hi) for a in range(g.dim) for lo, hi in [below_above(ga[a] * gb[a], a)]]
    div, dot, scale = terms[0], means[0], np.abs(terms[0])
    for a in range(1, g.dim):
        div, dot, scale = div + terms[a], dot + means[a], scale + np.abs(terms[a])
    return grad, div, dot, scale


@pytest.mark.parametrize("cells, dyadic", [(64, True), ((16, 32), True), ((8, 4, 16), True),
                                           (12, False), ((10, 7), False), ((6, 5, 3), False)])
def test_kernels_scaled_by_inv_h_match_the_division_by_h(cells, dyadic):
    # on dyadic h, 1/h is exact and so is x * (1/h) == x / h; elsewhere one rounding apart
    rng = np.random.default_rng(23)
    g = Grid(cells)
    f, w = rng.uniform(-1.0, 1.0, g.shape), rng.uniform(-1.0, 1.0, g.shape)
    flux, ga, gb = g.face_gradient(w), g.face_gradient(f), g.face_gradient(w)
    grad, div, dot, scale = _kernels_dividing_by_h(g, f, flux, ga, gb)
    got_grad, got_div = g.face_gradient(f), g.div_faces(flux)
    assert g.inv_h == tuple(1.0 / h for h in g.h)
    # halving once after the axis sum is exact on every grid
    assert g.cell_dot(ga, gb).tobytes() == dot.tobytes()
    if dyadic:
        assert [x.tobytes() for x in got_grad] == [x.tobytes() for x in grad]
        assert got_div.tobytes() == div.tobytes()
    else:
        for x, ref in zip(got_grad, grad):
            assert (np.abs(x - ref) <= 4 * np.spacing(np.abs(ref))).all()
        assert (np.abs(got_div - div) <= 4 * np.spacing(scale)).all()


def _wall_mask(g, a):
    """True on the walls of axis a's face buffer: all but the faces above all but last cells."""
    inner = np.zeros(g.face_shapes[a], dtype=bool)
    g.face_view(inner, a)[along(g, a, LO)] = True
    return ~inner


def _padded(x, axis):
    """x with one zero appended along its axis ``axis``."""
    return np.pad(x, [(0, int(b == axis)) for b in range(x.ndim)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cells=st.lists(st.integers(2, 5), min_size=1, max_size=3),
       lead=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2 ** 32 - 1))
def test_kernels_bit_equal_their_cell_shaped_oracles(cells, lead, seed):
    # plain numpy on cell-shaped arrays: the face above each cell is np.diff along the axis,
    # zero-padded past the last cell; every destination and scratch array starts dirty
    g, lead = Grid(cells), tuple(lead)
    rng = np.random.default_rng(seed)
    f, w = rng.uniform(-1.0, 1.0, lead + g.shape), rng.uniform(0.0, 2.0, lead + g.shape)
    axis = [len(lead) + a for a in range(g.dim)]

    def dirty_faces():
        faces = g.faces(lead)
        for a, fa in enumerate(faces):
            g.face_view(fa, a)[along(g, a, LO)] = np.nan
        return faces

    def dirty_cells():
        return np.full(lead + g.shape, np.nan)

    def bytes_of(faces):  # cell-shaped views of the faces above each cell
        return [g.face_view(fa, a).tobytes() for a, fa in enumerate(faces)]

    def walls_zero(faces):
        return all(not fa[..., _wall_mask(g, a)].any() for a, fa in enumerate(faces))

    grad = [_padded(np.diff(f, axis=axis[a]) * g.inv_h[a], axis[a]) for a in range(g.dim)]
    got = g.face_gradient(f, out=dirty_faces())
    assert bytes_of(got) == [x.tobytes() for x in grad] and walls_zero(got)
    assert bytes_of(g.face_gradient(f)) == bytes_of(got)

    root = np.sqrt(w)
    means = {"arithmetic": [(w[along(g, a, LO)] + w[along(g, a, HI)]) * 0.5 for a in range(g.dim)],
             "geometric": [root[along(g, a, LO)] * root[along(g, a, HI)] for a in range(g.dim)]}
    for mode, mean in means.items():
        got = face_average(g, w, mode, out=dirty_faces(), cell=dirty_cells())
        assert bytes_of(got) == [_padded(x, axis[a]).tobytes() for a, x in enumerate(mean)]
        assert walls_zero(got)

    def below(x, a):  # the face below each cell: the one above its lower neighbour, or a wall
        return np.roll(x, 1, axis=axis[a]) * (np.arange(g.cells[a]) > 0).reshape(
            (-1,) + (1,) * (g.dim - 1 - a))

    flux = g.face_gradient(w)
    above = [g.face_view(fa, a).copy() for a, fa in enumerate(flux)]
    div = (above[0] - below(above[0], 0)) * g.inv_h[0]
    dot = below(above[0] ** 2, 0) + above[0] ** 2
    for a in range(1, g.dim):
        div += (above[a] - below(above[a], a)) * g.inv_h[a]
        dot = dot + (below(above[a] ** 2, a) + above[a] ** 2)
    dot *= 0.5
    assert g.div_faces(flux, out=dirty_cells(), cell=dirty_cells()).tobytes() == div.tobytes()
    assert g.div_faces(flux).tobytes() == div.tobytes()
    got = g.cell_dot(flux, flux, out=dirty_cells(), faces=dirty_faces(), cell=dirty_cells())
    assert got.tobytes() == dot.tobytes() and g.cell_dot(flux, flux).tobytes() == dot.tobytes()

    # a field whose trailing shape is not the grid's is refused, even one of the grid's size
    for shape in {g.shape[:-1] + (g.cells[-1] + 1,), g.shape[::-1], (g.size,)} - {g.shape}:
        bad = np.ones(lead + shape)
        for call in (lambda: g.face_gradient(bad), lambda: face_average(g, bad, "arithmetic"),
                     lambda: g.div_faces(flux, out=bad), lambda: g.cell_dot(flux, flux, out=bad)):
            with pytest.raises(ValueError):
                call()
    # from 2D on, a non-contiguous destination is refused, as writing to a copy would be lost;
    # in 1D it is written in place
    strided = np.full(lead + g.shape[:-1] + (2 * g.cells[-1],), np.nan)[..., ::2]
    if g.dim == 1:
        assert g.div_faces(flux, out=strided).tobytes() == div.tobytes()
        assert g.cell_dot(flux, flux, out=strided).tobytes() == dot.tobytes()
    else:
        for call in (lambda: g.div_faces(flux, out=strided),
                     lambda: g.div_faces(flux, cell=strided),
                     lambda: g.cell_dot(flux, flux, out=strided),
                     lambda: g.cell_dot(flux, flux, cell=strided)):
            with pytest.raises(ValueError, match=r"^field of shape .* is not C-contiguous"):
                call()
