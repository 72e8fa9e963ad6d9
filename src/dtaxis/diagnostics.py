"""Monitored functionals, balance-law residuals, and functional-inequality testers.

Everything here is a pure read-only function of state snapshots.  Three kinds
of checks live in this module:

* ``monitor_row`` evaluates the full catalog of instantaneous functionals and
  copies out the running space-time accumulators;
* ``residual_rows`` and the functions it calls measure, in residual form, how
  well one accepted step satisfies the exact balance laws of the semi-discrete
  system (O(dt + h^2) on smooth runs): the product laws are specs of one
  kernel, ``_identities``, and the first energy is one direct function;
* ``check_sobolev_product`` and ``check_log_hessian`` probe standalone
  integral inequalities on given positive fields; ``sobolev_batch`` and
  ``log_hessian_batch`` run them on random fields, stacked by sample, each
  drawn once for every grid, its gradients and Hessians formed once for every q.

Every gradient integral is the grid's one cell quadrature (see ``grid``), and
each function forms each gradient product once per state and reduces its
integrands in one call: the rows of one buffer, summed by ``Grid.integrals``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import BLOCK_CELLS, Grid, _power, first_cell, lp_power, lp_root
from .model import Accumulators, Params, State

P_LIST = (1.0, 2.0, 3.0)  # default orders of the u moment monitors lp_{p}_u

# ---------------------------------------------------------------------------
# small helpers


def _xlogx(u: np.ndarray) -> np.ndarray:
    """u * log(u) extended continuously by 0 at u = 0."""
    safe = np.where(u > 0.0, u, 1.0)
    return np.where(u > 0.0, u * np.log(safe), 0.0)


def _normalizer(*terms: float) -> float:
    return max(1.0, *(abs(t) for t in terms))


def hessian_sq(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of the composed-difference Hessian of f.

    Built from the grid's face gradients g, whose wall entries are zero: along
    axis a the second difference is (g_hi - g_lo) / h, the central difference
    the cell mean (g_lo + g_hi) / 2, and a mixed term the central difference
    of a central one.  Boundary cells thus get a first-order closure; callers
    that need clean second-order behavior exclude them from quadratures.
    """
    def mean(g: np.ndarray, a: int) -> np.ndarray:
        return 0.5 * (grid.face_view(g, a, below=True) + grid.face_view(g, a))

    gf = grid.face_gradient(f)
    out = np.zeros(f.shape)
    for b in range(grid.dim):
        out += ((grid.face_view(gf[b], b) - grid.face_view(gf[b], b, below=True))
                * grid.inv_h[b]) ** 2
        if b:
            gfirst = grid.face_gradient(mean(gf[b], b))
            for a in range(b):
                out += 2.0 * mean(gfirst[a], a) ** 2
    return out


# ---------------------------------------------------------------------------
# monitor catalog


class MonitorRow(NamedTuple):
    """One timestamped record of every catalogued functional and accumulator."""

    t: float
    mass_u: float
    mass_v: float
    total_mass: float
    sup_u: float
    sup_v: float
    inf_v: float
    log_energy: float
    grad2_over_v: float
    grad4_energy: float
    combined_flux_energy: float
    lp_norms: tuple[float, ...]
    acc: Accumulators

    @staticmethod
    def csv_header(p_list: tuple[float, ...]) -> list[str]:
        """The scalar fields (all but lp_norms and acc), then one column per moment and
        one per accumulator."""
        return (list(MonitorRow._fields[:-2]) + [f"lp_{p:g}_u" for p in p_list]
                + [f"acc_{n}" for n in Accumulators.names()])

    def csv_values(self) -> list[float]:
        return [*self[:-2], *self.lp_norms, *self.acc.values()]


def monitor_row(state: State, params: Params,
                p_list: tuple[float, ...] = P_LIST) -> MonitorRow:
    """Evaluate every monitored functional on one state snapshot.

    Raises if v has lost positivity or any entry comes out non-finite; a
    non-finite monitor is a hard failure, never a warning.
    """
    g, u, v = state.grid, state.u, state.v
    inf_v = float(v.min())
    if inf_v <= 0.0:
        raise ValueError(f"v positivity lost at t={state.t:.6g} at cell {first_cell(v <= 0.0)}")
    rows = np.empty((6 + len(p_list),) + g.shape)  # six integrands, then the moments
    cgv2 = _Factors(state)["gv.gv"]
    rows[0], rows[1], rows[2], rows[3] = u, v, _xlogx(u), cgv2 / v
    rows[4] = cgv2 * cgv2 / np.power(v, 3)
    _energy(state, params, rows[5])
    for p, row in zip(p_list, rows[6:]):
        lp_power(u, p, out=row)
    try:
        sums = g.integrals(rows)
    except ValueError:  # a non-finite sum leaves its entry non-finite, named below
        sums = rows.reshape(len(rows), -1).sum(axis=1).tolist()
    mass_u, mass_v, *sums = sums  # then log_energy .. combined_flux_energy, the moments
    row = MonitorRow(state.t, mass_u, mass_v, mass_u + params.ell * mass_v, float(u.max()),
                     float(v.max()), inf_v, *sums[:4], tuple(map(lp_root, sums[4:], p_list)),
                     state.acc)
    for name, x in zip(MonitorRow.csv_header(p_list), row.csv_values()):
        if not math.isfinite(x):
            raise ValueError(f"non-finite monitor entry {name} at t={state.t:.6g}")
    return row


# ---------------------------------------------------------------------------
# balance-law residuals over one accepted step: one kernel, one spec per law


class ResidualReport(NamedTuple):
    """lhs - rhs of one discrete balance law over the window [t0, t1].  Only
    ``check_first_energy`` sets the last four fields: lhs = rate + dissipation there, and the
    slack of the one-sided bound rate <= rhs_inequality."""

    name: str
    t0: float
    t1: float
    lhs: float
    rhs: float
    residual: float
    normalizer: float
    rate: float | None = None
    dissipation: float | None = None
    rhs_inequality: float | None = None
    slack: float | None = None

    @property
    def rel(self) -> float:
        return abs(self.residual) / self.normalizer


class _Factors(dict):
    """One state's integrand factors, each formed on first use and then shared: "u", "v",
    the powers ("u", e) and ("v", e), the face gradients "gu" and "gv", their cell dot
    products "gu.gu", "gu.gv" and "gv.gv", and "lap", the Laplacian of v.  Every gradient
    product named in the key tuples ``products`` is formed at once, then the face gradients go."""

    def __init__(self, state: State, products=()):
        super().__init__(u=state.u, v=state.v)
        self.grid = state.grid
        for key in ("gu.gu", "gu.gv", "gv.gv", "lap"):
            if any(key in keys for keys in products):
                self[key]
        self.pop("gu", None)
        self.pop("gv", None)

    def __missing__(self, key):
        if isinstance(key, tuple):  # the power 0 is 1, and the power 1 the field itself
            field, e = key
            x = 1.0 if e == 0.0 else self[field] if e == 1.0 else _power(self[field], e)
        elif key == "lap":
            x = self.grid.div_faces(self["gv"])
        elif len(key) == 2:  # "gu" or "gv"
            x = self.grid.face_gradient(self[key[1]])
        else:
            x = self.grid.cell_dot(self[key[:2]], self[key[3:]])
        self[key] = x
        return x

    def product(self, keys, out: np.ndarray) -> None:
        """The product of the factors named by keys, left to right, written into out."""
        np.multiply(self[keys[0]], self[keys[1]] if len(keys) > 1 else 1.0, out=out)
        for key in keys[2:]:
            out *= self[key]


def _window(prev: State, nxt: State) -> float:
    """nxt.t - prev.t, refused unless it is positive and both states lie on one grid."""
    if prev.grid != nxt.grid:
        raise ValueError(f"window states lie on different grids: {prev.grid} and {nxt.grid}")
    if not nxt.t > prev.t:
        raise ValueError(f"window needs t1 > t0, got t0={prev.t!r} and t1={nxt.t!r}")
    return nxt.t - prev.t


def _integrals(name: str, grid: Grid, rows: np.ndarray, terms=None) -> list[float]:
    """``grid.integrals(rows)``, refusing a non-finite sum by law, row and first bad cell; a
    term row is named by its index in ``terms`` (default: the rows after the two densities)."""
    try:
        return grid.integrals(rows)
    except ValueError:
        [i] = first_cell(~np.isfinite(rows.reshape(len(rows), -1).sum(axis=1)))
        row = ("density at t1", "density at t0")[i] if i < 2 else \
            f"term {terms[i - 2] if terms else i - 1}"
        bad = ~np.isfinite(rows[i])
        where = f"at cell {first_cell(bad)}" if bad.any() else "in its sum"
        raise ValueError(f"{name}: non-finite {row} {where}") from None


def _identities(prev: State, nxt: State, specs) -> list[ResidualReport]:
    """The residual over one step of each spec = (name, density, terms, per): d/dt int density
    = sum of c int integrand over the (c, integrand) terms, divided through by per.  Each is a
    product of ``_Factors`` keys, left to right, in a row of one buffer per law (next density,
    current density, integrands) that one call reduces; a term with c = 0 gets no row and adds
    0.  The laws share one table per state, and each law's powers go before the next runs."""
    dt = _window(prev, nxt)
    then = _Factors(nxt, [density for _, density, _, _ in specs])
    at = _Factors(prev, [keys for _, density, terms, _ in specs
                         for keys in (density, *(keys for c, keys in terms if c != 0.0))])
    reports = []
    for name, density, terms, per in specs:
        live = [i for i, (c, _) in enumerate(terms, 1) if c != 0.0]
        rows = np.empty((2 + len(live),) + prev.grid.shape)
        then.product(density, rows[0])
        for keys, out in zip([density] + [terms[i - 1][1] for i in live], rows[1:]):
            at.product(keys, out)
        for table in (then, at):
            for key in [key for key in table if isinstance(key, tuple)]:
                del table[key]
        e1, e0, *sums = _integrals(name, prev.grid, rows, live)
        rate = (e1 - e0) / (per * dt)
        sums = dict(zip(live, sums))
        terms = [c * sums.get(i, 0.0) / per for i, (c, _) in enumerate(terms, 1)]
        rhs = terms[0]
        for t in terms[1:]:  # left to right, on every Python version
            rhs += t
        reports.append(ResidualReport(name, prev.t, nxt.t, rate, rhs, rate - rhs,
                                      _normalizer(rate, *terms)))
    return reports


_V_ENERGY = ("v_energy", ("gv.gv",), [
    (-2.0, ("lap", "lap")), (-2.0, ("u", "gv.gv")), (-2.0, ("v", "gu.gv"))], 2.0)


def residual_v_energy(prev: State, nxt: State, params: Params) -> ResidualReport:
    """Residual of the signal gradient-energy balance over one step: (1/2) d/dt int |grad v|^2
    = -int |lap v|^2 - int u |grad v|^2 - int v grad(u) . grad(v), doubled and halved."""
    return _identities(prev, nxt, [_V_ENERGY])[0]


def _upvq(p: float, q: float, params: Params, name: str, per: float = 1.0):
    """The spec of d/dt int u^p v^q = T1 + ... + T8: both quadratic gradient terms, growth,
    the three mixed grad u . grad v terms, the v-gradient term of the consumption equation
    (T6 and T7 carry the signs its integration by parts produces) and the consumption sink."""
    a = params.alpha
    return (name, (("u", p), ("v", q)), [
        (p * (1.0 - p), (("u", p - 1.0), ("v", q + 1.0), "gu.gu")),
        (p * q, (("u", p - 1.0 + a), ("v", q), "gv.gv")),
        (p * params.ell, (("u", p), ("v", q + 1.0))),
        (p * (p - 1.0), (("u", p - 2.0 + a), ("v", q + 1.0), "gu.gv")),
        (-p * q, (("u", p), ("v", q), "gu.gv")),
        (-p * q, (("u", p - 1.0), ("v", q - 1.0), "gu.gv")),
        (-q * (q - 1.0), (("u", p), ("v", q - 2.0), "gv.gv")),
        (-q, (("u", p + 1.0), ("v", q)))], per)


def residual_upvq_identity(prev: State, nxt: State, p: float, q: float,
                           params: Params) -> ResidualReport:
    """Residual of the mixed-moment balance d/dt int u^p v^q = T1 + ... + T8 (see ``_upvq``);
    p = 0 divided through by q is the v^q balance, and p = 1, q = 0 the mass law."""
    return _identities(prev, nxt, [_upvq(p, q, params, f"u{p:g}_v{q:g}")])[0]


def _energy(state: State, params: Params, out: np.ndarray) -> None:
    """The density of E_chi, u^(3-alpha)/((2-alpha)(3-alpha)) - chi u v, written into out."""
    a, uv = params.alpha, state.u * state.v
    np.divide(_power(state.u, 3.0 - a, out=out), (2.0 - a) * (3.0 - a), out=out)
    uv *= params.chi
    out -= uv


def check_first_energy(prev: State, nxt: State, params: Params) -> ResidualReport:
    """d/dt E_chi + dissipation = ell int w_chi u v + chi int grad u . grad v + chi int u^2 v
    for E_chi of density ``_energy``, dissipation int u^alpha v |grad w_chi|^2 and w_chi =
    u^(2-alpha)/(2-alpha) - chi v.  The bound drops the dissipation and the nonpositive
    -ell chi int u v^2, and so takes (ell / (2-alpha)) int u^(3-alpha) v for the growth term.
    One call reduces the rows: the next and the current density of E_chi (sharing u^(3-alpha)
    and chi u v), u^alpha v |grad w_chi|^2, w_chi u v, grad u . grad v, u^2 v, u^(3-alpha) v."""
    dt = _window(prev, nxt)
    g, u, v, a, chi, ell = prev.grid, prev.u, prev.v, params.alpha, params.chi, params.ell
    r = np.empty((7,) + g.shape)
    _energy(nxt, params, r[0])
    chi_uv = np.multiply(np.multiply(u, v, out=r[5]), chi, out=r[5])
    np.multiply(_power(u, 3.0 - a, out=r[1]), v, out=r[6])
    r[1] /= (2.0 - a) * (3.0 - a)
    r[1] -= chi_uv
    np.divide(r[6], 2.0 - a, out=r[3])
    r[3] -= np.multiply(chi_uv, v, out=r[5])
    np.multiply(np.multiply(u, u, out=r[5]), v, out=r[5])
    gv = g.face_gradient(v)
    g.cell_dot(g.face_gradient(u), gv, out=r[4])
    gw = g.face_gradient(np.divide(_power(u, 2.0 - a, out=r[2]), 2.0 - a, out=r[2]))
    gw = [np.subtract(w, np.multiply(x, chi), out=w) for w, x in zip(gw, gv)]
    np.multiply(np.multiply(_power(u, a, out=r[2]), v, out=r[2]), g.cell_dot(gw, gw), out=r[2])
    e1, e0, dissipation, grow, mix, quad, bound = _integrals("first_energy", g, r)
    rate = (e1 - e0) / dt
    t_grow, t_mix, t_quad = ell * grow, chi * mix, chi * quad
    lhs, rhs = rate + dissipation, t_grow + t_mix + t_quad
    rhs_ineq = ell / (2.0 - a) * bound + t_mix + t_quad
    return ResidualReport("first_energy", prev.t, nxt.t, lhs, rhs, lhs - rhs,
                          _normalizer(rate, dissipation, t_mix, t_quad, t_grow), rate=rate,
                          dissipation=dissipation, rhs_inequality=rhs_ineq,
                          slack=rhs_ineq - rate)


def residual_rows(prev: State, nxt: State, params: Params) -> list[ResidualReport]:
    """The rows of residuals.csv for one step, in order: v_energy, v_pow_2 (the u^p v^q law
    at p = 0, divided through by q = 2), u0.5_v1 and first_energy."""
    return [*_identities(prev, nxt, [_V_ENERGY, _upvq(0.0, 2.0, params, "v_pow_2", per=2.0),
                                     _upvq(0.5, 1.0, params, "u0.5_v1")]),
            check_first_energy(prev, nxt, params)]


# ---------------------------------------------------------------------------
# standalone functional inequalities


class SobolevReport(NamedTuple):
    """One evaluation of the amended product-embedding inequality.

    lhs = || phi^(p+1) psi ||_(L^mu) against
    rhs = int phi^(p-1) psi |grad phi|^2 + int phi^(p+1) psi^(-1) |grad psi|^2
        + int phi^(p+1) psi.
    The zero-order term is the amendment: without it the right side vanishes
    on constants while the left does not.
    """

    p: float
    mu: float
    lhs: float
    grad_phi_term: float
    grad_psi_term: float
    zero_order_term: float
    ratio: float


def check_sobolev_product(grid: Grid, phi: np.ndarray, psi: np.ndarray,
                          p: float, mu: float) -> SobolevReport:
    return _sobolev_reports(grid, phi[None], psi[None], p, mu)[0]


def _sobolev_reports(grid: Grid, phi, psi, p: float, mu: float) -> list[SobolevReport]:
    """One report per field pair of the (k, *shape) stacks phi and psi, in order."""
    if not 1.0 <= mu <= 3.0:
        raise ValueError(f"mu must lie in [1, N/(N-2)] = [1, 3] in N = 3 dimensions, got {mu}")
    if bool((phi <= 0.0).any()) or bool((psi <= 0.0).any()):
        raise ValueError("nonpositive field")
    gphi, gpsi = grid.face_gradient(phi), grid.face_gradient(psi)
    w = _power(phi, p + 1.0) * psi
    rows = np.stack([w ** mu, _power(phi, p - 1.0) * psi * grid.cell_dot(gphi, gphi),
                     _power(phi, p + 1.0) / psi * grid.cell_dot(gpsi, gpsi), w], 1)
    sums = iter(grid.integrals(rows.reshape(-1, *grid.shape)))  # each field's 4 in turn
    reports = []
    for s_mu, t_phi, t_psi, t_zero in zip(sums, sums, sums, sums):
        lhs, rhs = s_mu ** (1.0 / mu), t_phi + t_psi + t_zero
        reports.append(SobolevReport(p, mu, lhs, t_phi, t_psi, t_zero, lhs / rhs))
    return reports


class LogHessianReport(NamedTuple):
    """Both log-Hessian gradient-power inequalities on one positive field.

    lhs_grad  = int phi^(-q-1) |grad phi|^(q+2)
    lhs_hess  = int phi^(-q+1) |grad phi|^(q-2) |D2 phi|^2
    base      = int phi^(-q+3) |grad phi|^(q-2) |D2 log phi|^2
    bounds    = (q + sqrt(N))^2 * base and (q + sqrt(N) + 1)^2 * base.

    Quadratures run over interior cells only; the Hessian closure at walls is
    first-order and would pollute the comparison on coarse grids.
    """

    q: float
    lhs_grad: float
    bound_grad: float
    lhs_hess: float
    bound_hess: float

    def ratio_grad(self) -> float:
        return self.lhs_grad / self.bound_grad if self.bound_grad > 0.0 else (
            0.0 if self.lhs_grad == 0.0 else math.inf)

    def ratio_hess(self) -> float:
        return self.lhs_hess / self.bound_hess if self.bound_hess > 0.0 else (
            0.0 if self.lhs_hess == 0.0 else math.inf)

    def passes(self) -> bool:
        """Both bounds hold within a slack of 5 percent."""
        return self.lhs_grad <= 1.05 * self.bound_grad and self.lhs_hess <= 1.05 * self.bound_hess


def check_log_hessian(grid: Grid, phi: np.ndarray, q: float) -> LogHessianReport:
    return _log_hessian_reports(grid, [phi[None]], (q,))[0][0]


def _log_hessian_reports(grid: Grid, stacks, qs) -> list[list[LogHessianReport]]:
    """For each q, one report per field of the (k, *shape) stacks, in order.  The arguments
    are checked before the first stack is drawn; each stack's gradients and Hessians are
    formed once for all q, and only the three power rows depend on q."""
    for q in qs:
        if not 2.0 <= q < math.inf:
            raise ValueError(f"q must be at least 2 and finite, got {q}")
    if min(grid.cells) < 3:
        raise ValueError(f"log-Hessian check needs at least 3 cells per axis, got {grid.cells}")
    inner = (Ellipsis,) + (slice(1, -1),) * grid.dim
    reports = [[] for _ in qs]
    for phi in stacks:
        if bool((phi <= 0.0).any()):
            raise ValueError("nonpositive field")
        gphi = grid.face_gradient(phi)
        g2 = grid.cell_dot(gphi, gphi)[inner]
        ph = phi[inner]
        hess_log, hess_phi = hessian_sq(grid, np.log(phi))[inner], hessian_sq(grid, phi)[inner]
        for q, per_q in zip(qs, reports):
            g2q = g2 ** ((q - 2.0) / 2.0)
            rows = np.stack([_power(ph, -q - 1.0) * g2 ** ((q + 2.0) / 2.0),
                             _power(ph, -q + 1.0) * g2q * hess_phi,
                             _power(ph, -q + 3.0) * g2q * hess_log], 1)
            sums = iter(grid.row_integrals(rows.reshape(3 * len(ph), -1)))  # each field's 3 in turn
            c_grad, c_hess = (q + math.sqrt(grid.dim)) ** 2, (q + math.sqrt(grid.dim) + 1.0) ** 2
            per_q += [LogHessianReport(q, lhs_grad, c_grad * base, lhs_hess, c_hess * base)
                      for lhs_grad, lhs_hess, base in zip(sums, sums, sums)]
    return reports


# ---------------------------------------------------------------------------
# random Neumann-compatible positive test fields

MODES = 7  # a sampled field uses the cosine modes 0 <= k < MODES along each axis


def sample_cosine_field(rng: np.random.Generator, dim: int) -> list:
    """Coefficients of a random eight-term cosine series; the field is exp(series).

    The series uses axis products of cos(k pi x / L), 0 <= k <= 6 per axis, so the continuous
    field has zero normal derivative on every wall, and the coefficients are scaled so the
    exponent stays within +-0.8 (the field is strictly positive and uniformly bounded).  The
    list can be evaluated on any grid, which is what makes refinement comparisons meaningful."""
    integers, normal, terms, total = rng.integers, rng.normal, [], 0.0
    while len(terms) < 8:
        k = tuple([int(integers(0, MODES)) for _ in range(dim)])
        if any(k):
            terms.append((k, normal() / (1.0 + sum([ki * ki for ki in k]))))
            total += abs(terms[-1][1])
    scale = 0.8 / total if total > 0.0 else 0.0
    return [(k, c * scale) for k, c in terms]


def cosine_field_draws(seed: int, dim: int, count: int):
    """The first count coefficient lists ``sample_cosine_field`` draws from seed, lazily."""
    rng = np.random.default_rng(seed)
    return (sample_cosine_field(rng, dim) for _ in range(count))


def _cosine_tables(grid: Grid) -> list[np.ndarray]:
    return [np.stack([np.cos(ka * np.pi * x / grid.lengths[a]) for ka in range(MODES)])
            for a, x in enumerate(grid.mesh())]


def evaluate_cosine_fields(grid: Grid, term_lists: list, tables=None) -> np.ndarray:
    """The fields of coefficient lists of one length, as a (k, *shape) stack.  A term is c
    times one factor cos(k pi x / L) per axis, in axis order, and the terms add in order;
    each axis has one table of them, whose k = 0 row is exactly 1: ``_cosine_tables(grid)``,
    or ``tables`` if given, built once for the calls of a batch."""
    tables = _cosine_tables(grid) if tables is None else tables
    coef = np.array([[c for _, c in terms] for terms in term_lists])
    modes = np.array([[k for k, _ in terms] for terms in term_lists])
    s = np.zeros((len(term_lists),) + grid.shape)
    for j in range(coef.shape[-1]):  # an empty list gives coef of shape (0,): no terms
        term = coef[:, j].reshape((-1,) + (1,) * grid.dim)
        for a, table in enumerate(tables):
            term = term * table[modes[:, j, a]]
        s += term
    return np.exp(s)


class BatchReport(NamedTuple):
    check: str
    samples: int
    violations: int
    max_ratio: float
    ratios: tuple[float, ...]


def _sampled_fields(grids, samples: int, seed: int, per_sample: int, drawn=None):
    """Per chunk of k samples (at most BLOCK_CELLS cells on the finest grid, or one sample),
    per_sample to a sample, drawn once in order from seed, or else taken in order from the
    coefficient lists drawn: one (per_sample, k, *shape) stack per grid."""
    if not grids or len({g.dim for g in grids}) > 1:
        raise ValueError(f"a batch needs one or more grids of one dimension, got {list(grids)}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    tables = [_cosine_tables(g) for g in grids]
    draws = iter(drawn or cosine_field_draws(seed, grids[0].dim, per_sample * samples))
    per = max(1, BLOCK_CELLS // max(math.prod(g.shape) for g in grids))
    for i in range(0, samples, per):
        chunk = [next(draws) for _ in range(per_sample * min(per, samples - i))]
        by_role = [terms for j in range(per_sample) for terms in chunk[j::per_sample]]
        yield [evaluate_cosine_fields(g, by_role, t).reshape(per_sample, -1, *g.shape)
               for g, t in zip(grids, tables)]


def log_hessian_batch(grid: Grid, qs, samples: int, seed: int, drawn=None) -> list[BatchReport]:
    """Both log-Hessian inequalities over random fields, each judged by ``passes()``: one
    report per q, in the order of qs.  Each field is drawn from seed (or taken in order from
    the coefficient lists drawn, if given) and evaluated once for all q."""
    batches = []
    fields = (phi for [[phi]] in _sampled_fields((grid,), samples, seed, 1, drawn))
    for reps in _log_hessian_reports(grid, fields, qs):
        ratios = tuple(max(r.ratio_grad(), r.ratio_hess()) for r in reps)
        batches.append(BatchReport("log_hessian", samples, sum(not r.passes() for r in reps),
                                   max(ratios), ratios))
    return batches


def sobolev_batch(grids, samples: int, seed: int, drawn=None) -> list[BatchReport]:
    """Empirical constant for the amended product embedding (p = 1, mu = 3) over random fields
    drawn as in ``log_hessian_batch``: one report per grid, in the order of grids, each field
    pair drawn once for all of them."""
    ratios = [[] for _ in grids]
    for stacks in _sampled_fields(grids, samples, seed, 2, drawn):
        for grid, (phi, psi), out in zip(grids, stacks, ratios):
            out += [r.ratio for r in _sobolev_reports(grid, phi, psi, 1.0, 3.0)]
    return [BatchReport("sobolev_product", samples, 0 if all(map(math.isfinite, r)) else 1,
                        max(r), tuple(r)) for r in ratios]
