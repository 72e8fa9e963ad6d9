import itertools
import math
import re

import numpy as np
import pytest

from dtaxis import Grid, diagnostics
from dtaxis.diagnostics import (check_log_hessian, check_sobolev_product, evaluate_cosine_fields,
                                hessian_sq, log_hessian_batch, sample_cosine_field, sobolev_batch)


def test_sobolev_constant_fields_need_zero_order_term():
    # gradients vanish, so only the amendment keeps the right side nonzero;
    # on [0, 2] with mu = 3 the ratio is |Omega|^(1/mu - 1) = 2^(-2/3)
    g = Grid(32, 2.0)
    one = np.ones(g.shape)
    rep = check_sobolev_product(g, one, one, p=1.0, mu=3.0)
    assert rep.grad_phi_term == 0.0 and rep.grad_psi_term == 0.0
    assert rep.ratio == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-14)


def test_sobolev_validation():
    g = Grid(16)
    one = np.ones(g.shape)
    with pytest.raises(ValueError, match="nonpositive field"):
        check_sobolev_product(g, 0.0 * one, one, 1.0, 3.0)
    with pytest.raises(ValueError, match="mu must lie"):
        check_sobolev_product(g, one, one, 1.0, 4.0)
    with pytest.raises(ValueError, match="mu must lie"):
        check_sobolev_product(g, one, one, 1.0, 0.5)


def test_sobolev_exp_cosine_refinement_stable():
    def ratio(n):
        g = Grid(n)
        phi = np.exp(np.cos(np.pi * g.centers(0)))
        return check_sobolev_product(g, phi, np.ones(g.shape), p=1.0, mu=3.0).ratio

    r64, r128 = ratio(64), ratio(128)
    assert math.isfinite(r64)
    assert abs(r64 - r128) / r64 < 0.02


def test_sobolev_batch_bounded():
    [rep] = sobolev_batch((Grid(64),), samples=100, seed=3)
    assert rep.violations == 0
    assert math.isfinite(rep.max_ratio)
    assert rep.max_ratio < 5.0


def test_log_hessian_constant_trivial():
    g = Grid(16)
    rep = check_log_hessian(g, np.full(g.shape, 2.0), 2.0)
    assert rep.lhs_grad == rep.bound_grad == rep.lhs_hess == rep.bound_hess == 0.0
    assert rep.passes()


def test_log_hessian_exp_cosine_1d():
    g = Grid(256)
    phi = np.exp(np.cos(np.pi * g.centers(0)))
    rep = check_log_hessian(g, phi, 2.0)
    assert rep.passes()
    assert 0.0 < rep.ratio_grad() < 1.0
    assert 0.0 < rep.ratio_hess() < 1.0


def test_log_hessian_2d_radial_bump():
    g = Grid((48, 48))
    x, y = np.meshgrid(g.centers(0), g.centers(1), indexing="ij")
    phi = np.exp(0.7 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.05))
    rep = check_log_hessian(g, phi, 4.0)
    assert rep.passes()
    assert max(rep.ratio_grad(), rep.ratio_hess()) < 1.0


def test_log_hessian_validation():
    g = Grid(16)
    with pytest.raises(ValueError, match="q must be at least 2"):
        check_log_hessian(g, np.ones(g.shape), 1.5)
    for q in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"q must be at least 2 and finite, got {q}"):
            check_log_hessian(g, np.ones(g.shape), q)
    with pytest.raises(ValueError, match="nonpositive field"):
        check_log_hessian(g, np.zeros(g.shape), 2.0)
    # positive and finite, but its weighted gradient integrals overflow
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite field"):
        check_log_hessian(g, np.exp(np.linspace(0.0, 700.0, 16)), 2.0)


@pytest.mark.parametrize("cells", [2, (16, 2), (2, 16)])
def test_log_hessian_needs_interior_cells(cells):
    # the quadratures skip wall cells, so an axis of 2 cells leaves nothing to compare
    g = Grid(cells)
    with pytest.raises(ValueError, match=r"at least 3 cells per axis, got \("):
        check_log_hessian(g, np.ones(g.shape), 2.0)
    assert check_log_hessian(Grid(3), np.ones(3), 2.0).passes()


@pytest.mark.parametrize("cells,q", [(64, 2.0), (64, 3.0), ((32, 32), 2.0)])
def test_log_hessian_batch_no_violations(cells, q):
    [rep] = log_hessian_batch(Grid(cells), (q,), samples=30, seed=17)
    assert rep.violations == 0


def _reference_field(grid, terms):
    """A sampled field evaluated term by term, one field at a time."""
    xs = grid.mesh()
    s = np.zeros(grid.shape)
    for k, c in terms:
        term = np.full(grid.shape, c)
        for a, ka in enumerate(k):
            if ka:
                term = term * np.cos(ka * np.pi * xs[a] / grid.lengths[a])
        s += term
    return np.exp(s)


def _reference_log_hessian(grid, phi, q):
    """(max ratio, passes) of one field, with every integrand formed for this q alone."""
    n = grid.dim
    inner = (slice(1, -1),) * n
    gphi = grid.face_gradient(phi)
    g2 = grid.cell_dot(gphi, gphi)[inner]
    ph = phi[inner]
    hess_log, hess_phi = hessian_sq(grid, np.log(phi))[inner], hessian_sq(grid, phi)[inner]
    g2q = g2 ** ((q - 2.0) / 2.0)
    rows = np.stack([ph ** (-q - 1.0) * g2 ** ((q + 2.0) / 2.0),
                     ph ** (-q + 1.0) * g2q * hess_phi, ph ** (-q + 3.0) * g2q * hess_log])
    lhs_grad, lhs_hess, base = (rows.reshape(3, -1).sum(axis=1) * grid.cell_volume).tolist()
    bounds = ((q + math.sqrt(n)) ** 2 * base, (q + math.sqrt(n) + 1.0) ** 2 * base)
    ratios = [lhs / b if b > 0.0 else (0.0 if lhs == 0.0 else math.inf)
              for lhs, b in zip((lhs_grad, lhs_hess), bounds)]
    return max(ratios), lhs_grad <= 1.05 * bounds[0] and lhs_hess <= 1.05 * bounds[1]


def _reference_sobolev_ratio(grid, phi, psi):
    gphi, gpsi = grid.face_gradient(phi), grid.face_gradient(psi)
    w = phi ** 2.0 * psi
    s_mu, t_phi, t_psi, t_zero = grid.integrals(np.stack([
        w ** 3.0, psi * grid.cell_dot(gphi, gphi), phi ** 2.0 / psi * grid.cell_dot(gpsi, gpsi),
        w]))
    return s_mu ** (1.0 / 3.0) / (t_phi + t_psi + t_zero)


@pytest.mark.parametrize("cells", [64, (32, 32)])
def test_batches_equal_a_field_by_field_loop_bit_for_bit(cells):
    # 37 samples: one partial chunk of 64 fields in 1D-64, nine of 4 and one of 1 in 2D-32^2;
    # the Sobolev pairs on the grid and its refinement come in chunks sized by the finer one:
    # 32 and a partial 5 in 1D (64 and 128 cells), 37 of one in 2D (32^2 and 64^2)
    g, qs, samples = Grid(cells), (2.0, 3.0, 4.0), 37
    rng = np.random.default_rng(17)
    fields = [_reference_field(g, sample_cosine_field(rng, g.dim)) for _ in range(samples)]
    for q, rep in zip(qs, log_hessian_batch(g, qs, samples, seed=17)):
        ratios, passes = zip(*(_reference_log_hessian(g, phi, q) for phi in fields))
        assert (rep.check, rep.samples) == ("log_hessian", samples)
        assert rep.ratios == ratios and rep.max_ratio == max(ratios)
        assert rep.violations == passes.count(False)

    rng = np.random.default_rng(11)
    drawn = [(sample_cosine_field(rng, g.dim), sample_cosine_field(rng, g.dim))
             for _ in range(samples)]
    grids = (g, Grid(tuple(2 * n for n in g.cells)))
    reps = sobolev_batch(grids, samples, seed=11)
    assert len(reps) == 2
    for grid, rep in zip(grids, reps):
        ratios = tuple(_reference_sobolev_ratio(grid, _reference_field(grid, phi),
                                                _reference_field(grid, psi)) for phi, psi in drawn)
        assert (rep.check, rep.samples) == ("sobolev_product", samples)
        assert (rep.ratios, rep.max_ratio, rep.violations) == (ratios, max(ratios), 0)


def test_batches_take_given_coefficient_lists_in_order():
    # one stream of 12 draws: the log-Hessian batch takes the first 6, the Sobolev batch all 12
    g, grids = Grid(16), (Grid(16), Grid(32))
    first, second = itertools.tee(diagnostics.cosine_field_draws(5, 1, 12))
    assert log_hessian_batch(g, (2.0, 3.0), 6, 0, first) == log_hessian_batch(g, (2.0, 3.0), 6, 5)
    assert sobolev_batch(grids, 6, 0, second) == sobolev_batch(grids, 6, 5)


def test_batches_refuse_bad_arguments_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a field was sampled")
    monkeypatch.setattr(diagnostics, "sample_cosine_field", no_sampling)
    g = Grid(16)
    for samples in (0, -3):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            log_hessian_batch(g, (2.0,), samples, seed=1)
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            sobolev_batch((g, Grid(32)), samples, seed=1)
    for grids in ((), (g, Grid((16, 16)))):
        with pytest.raises(ValueError, match=re.escape(
                f"a batch needs one or more grids of one dimension, got {list(grids)}")):
            sobolev_batch(grids, 4, seed=1)
    for bad in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"q must be at least 2 and finite, got {bad}"):
            log_hessian_batch(g, (2.0, 3.0, bad), 4, seed=1)
    with pytest.raises(ValueError, match="at least 3 cells per axis"):
        log_hessian_batch(Grid((16, 2)), (2.0,), 4, seed=1)


def test_batches_take_integral_seeds_of_any_type_and_refuse_others_by_name():
    # as verify_regime_lemmas does: 3.0 and np.int64(3) are the seed 3, with its draw stream
    g, grids = Grid(8), (Grid(8), Grid(16))
    for seed in (3.0, np.int64(3)):
        assert log_hessian_batch(g, (2.0,), 2, seed) == log_hessian_batch(g, (2.0,), 2, 3)
        assert sobolev_batch(grids, 2, seed) == sobolev_batch(grids, 2, 3)
    for bad, message in ((-1, "seed must be at least 0, got -1"),
                         (2.5, "seed must be an integer, got 2.5")):
        with pytest.raises(ValueError, match=re.escape(message)):
            log_hessian_batch(g, (2.0,), 2, bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            sobolev_batch(grids, 2, bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            diagnostics.cosine_field_draws(bad, 1, 2)


def test_batch_reports_follow_the_order_of_qs():
    g = Grid(24)
    reps = log_hessian_batch(g, (4.0, 2.0, 3.0), 5, seed=2)
    for q, rep in zip((4.0, 2.0, 3.0), reps):
        assert rep == log_hessian_batch(g, (q,), 5, seed=2)[0]
    assert len(reps) == 3 and reps[0] != reps[1]


def test_cosine_field_sampler_draws_a_fixed_stream():
    # the first two lists per dimension from default_rng(0): every batch ratio depends on them
    expected = {1: [[((5,), -0.009003172116546347), ((4,), 0.06675254942805632),
                     ((1,), 0.32036316946655585), ((5,), 0.08886983078285983),
                     ((6,), -0.03370215466129834), ((5,), -0.08624063505276729),
                     ((1,), 0.03661366920049967), ((5,), -0.1584548192914164)],
                    [((3,), -0.11113190418362569), ((5,), -0.01867170648460687),
                     ((1,), -0.14106561447422192), ((2,), 0.18597877502960897),
                     ((2,), 0.24376972979387024), ((4,), 0.018443383800840533),
                     ((1,), 0.04192822003000623), ((4,), -0.03901066620321963)]],
                2: [[((5, 4), -0.01749372395364537), ((2, 0), 0.1166859919481085),
                     ((1, 5), 0.07448545447900644), ((3, 4), 0.20259396901537954),
                     ((4, 3), -0.27069149130549597), ((1, 5), 0.008512794386084764),
                     ((2, 6), -0.029679711018607394), ((5, 5), -0.07985686389367215)],
                    [((0, 6), -0.01239502517913619), ((0, 2), 0.3023161579494338),
                     ((2, 0), 0.3962577349158348), ((0, 4), 0.029980479919653434),
                     ((1, 4), 0.0075728942647783), ((3, 6), -0.029053164521786988),
                     ((2, 4), 0.015203309360653169), ((5, 4), -0.007221233888723434)]]}
    for dim, lists in expected.items():
        rng = np.random.default_rng(0)
        drawn = [sample_cosine_field(rng, dim) for _ in lists]
        assert drawn == lists
        assert all(type(ki) is int and type(c) is float
                   for terms in drawn for k, c in terms for ki in k)


def test_cosine_field_sampler_properties():
    rng = np.random.default_rng(0)
    terms = sample_cosine_field(rng, dim=2)
    assert len(terms) == 8 and all(0 <= k <= 6 for modes, _ in terms for k in modes)
    for g in (Grid((24, 24)), Grid((48, 48))):
        [phi] = evaluate_cosine_fields(g, [terms])
        assert phi.min() > math.exp(-0.8) - 1e-12
        assert phi.max() < math.exp(0.8) + 1e-12
        # continuous field has zero normal derivative; discrete wall faces too
        for a, ga in enumerate(g.face_gradient(phi)):
            assert ga.shape == g.face_shapes[a]
            assert np.all(np.take(g.face_view(ga, a, below=True), 0, axis=a) == 0.0)
            assert np.all(np.take(g.face_view(ga, a), -1, axis=a) == 0.0)


@pytest.mark.parametrize("cells", [16, (6, 5), (4, 3, 5)])
def test_no_cosine_fields_make_an_empty_stack(cells):
    g = Grid(cells)
    fields = evaluate_cosine_fields(g, [])
    assert fields.shape == (0, *g.shape)
    assert g.integrals(fields) == []

