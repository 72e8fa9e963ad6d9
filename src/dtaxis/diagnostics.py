"""Monitored functionals, balance-law residuals, and functional-inequality testers.

Everything here is a pure read-only function of state snapshots.  Three kinds
of checks live in this module:

* ``monitor_row`` evaluates the full catalog of instantaneous functionals and
  copies out the running space-time accumulators;
* the ``residual_*`` / ``check_first_energy`` functions measure, in residual
  form, how well one accepted step satisfies the exact balance laws of the
  semi-discrete system (the residuals shrink like O(dt + h^2) on smooth runs);
* ``check_sobolev_product``, ``check_log_hessian`` and
  ``check_struc2_balance`` probe standalone integral inequalities on given
  positive fields or trajectory windows.

Quadrature conventions: gradient-squared integrands are evaluated on faces
with arithmetically averaged coefficients (consistent with the flux form, and
exact under discrete summation by parts), while fourth- and sixth-power
gradient functionals average squared face gradients into cells first so every
such functional is a plain cell quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import Grid
from .model import Accumulators, Params, State, _power

# ---------------------------------------------------------------------------
# small helpers


def _xlogx(u: np.ndarray) -> np.ndarray:
    """u * log(u) extended continuously by 0 at u = 0."""
    safe = np.where(u > 0.0, u, 1.0)
    return np.where(u > 0.0, u * np.log(safe), 0.0)


def _normalizer(*terms: float) -> float:
    return max(1.0, *(abs(t) for t in terms))


def _interior(grid: Grid) -> tuple[slice, ...]:
    return tuple(slice(1, -1) for _ in range(grid.dim))


def _neighbours(grid: Grid, f: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper neighbour of every cell along one axis; at a wall the
    cell itself stands in (edge ghosts, the zero-flux reflection)."""
    p = np.pad(f, [(1, 1) if b == a else (0, 0) for b in range(grid.dim)], mode="edge")
    # applying lo (hi) twice drops the last (first) two padded entries
    return p[grid.lo[a]][grid.lo[a]], p[grid.hi[a]][grid.hi[a]]


def _axis_second_diff(grid: Grid, f: np.ndarray, a: int) -> np.ndarray:
    """Second difference along one axis with reflected (zero-flux) ghosts."""
    lower, upper = _neighbours(grid, f, a)
    return (upper - 2.0 * f + lower) / (grid.h[a] ** 2)


def _axis_central_diff(grid: Grid, f: np.ndarray, a: int) -> np.ndarray:
    """Central first difference along one axis, one-sided closure at the walls."""
    lower, upper = _neighbours(grid, f, a)
    return (upper - lower) / (2.0 * grid.h[a])


def hessian_sq(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of the composed-difference Hessian of f.

    Boundary cells use the reflected/one-sided closures; callers that need
    clean second-order behavior exclude them from quadratures.
    """
    out = np.zeros(grid.shape)
    firsts = [_axis_central_diff(grid, f, a) for a in range(grid.dim)]
    for a in range(grid.dim):
        out += _axis_second_diff(grid, f, a) ** 2
        for b in range(a + 1, grid.dim):
            out += 2.0 * _axis_central_diff(grid, firsts[b], a) ** 2
    return out


# ---------------------------------------------------------------------------
# monitor catalog


@dataclass(frozen=True)
class MonitorRow:
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
    def _scalars() -> list[str]:
        return [f.name for f in fields(MonitorRow) if f.name not in ("lp_norms", "acc")]

    @classmethod
    def csv_header(cls, p_list: tuple[float, ...]) -> list[str]:
        return (cls._scalars() + [f"lp_{p:g}_u" for p in p_list]
                + [f"acc_{n}" for n in Accumulators.names()])

    def csv_values(self) -> list[float]:
        return ([getattr(self, n) for n in self._scalars()] + list(self.lp_norms)
                + list(self.acc.values()))


def monitor_row(state: State, params: Params,
                p_list: tuple[float, ...] = (1.0, 2.0, 3.0)) -> MonitorRow:
    """Evaluate every monitored functional on one state snapshot.

    Raises if v has lost positivity or any entry comes out non-finite; a
    non-finite monitor is a hard failure, never a warning.
    """
    g, u, v = state.grid, state.u, state.v
    inf_v = float(v.min())
    if inf_v <= 0.0:
        raise ValueError(f"v positivity lost at t={state.t:.6g}")
    gv = g.face_gradient(v)
    cgv2 = g.cell_grad_sq(gv)
    a = params.alpha
    cfe = g.integrate(_power(u, 3.0 - a) / ((2.0 - a) * (3.0 - a)) - u * v)
    row = MonitorRow(
        t=state.t,
        mass_u=g.integrate(u),
        mass_v=g.integrate(v),
        total_mass=g.integrate(u) + params.ell * g.integrate(v),
        sup_u=float(u.max()),
        sup_v=float(v.max()),
        inf_v=inf_v,
        log_energy=g.integrate(_xlogx(u)),
        grad2_over_v=g.integrate(cgv2 / v),
        grad4_energy=g.integrate(cgv2 * cgv2 / v ** 3),
        combined_flux_energy=cfe,
        lp_norms=tuple(g.lp_norm(u, p) for p in p_list),
        acc=state.acc,
    )
    for name, x in zip(MonitorRow.csv_header(p_list), row.csv_values()):
        if not math.isfinite(x):
            raise ValueError(f"non-finite monitor entry {name} at t={state.t:.6g}")
    return row


# ---------------------------------------------------------------------------
# balance-law residuals over one accepted step


@dataclass(frozen=True)
class ResidualReport:
    """lhs - rhs of one discrete balance law over the window [t0, t1]."""

    name: str
    t0: float
    t1: float
    lhs: float
    rhs: float
    residual: float
    normalizer: float

    @property
    def rel(self) -> float:
        return abs(self.residual) / self.normalizer


def residual_v_energy(prev: State, nxt: State, params: Params) -> ResidualReport:
    """Residual of the signal gradient-energy balance over one step.

    Continuous law: (1/2) d/dt int |grad v|^2 + int |lap v|^2
    + int u |grad v|^2 = - int v grad(u) . grad(v).
    """
    g = prev.grid
    dt = nxt.t - prev.t
    gv0 = g.face_gradient(prev.v)
    gv1 = g.face_gradient(nxt.v)
    gu0 = g.face_gradient(prev.u)
    e0 = 0.5 * g.face_dot(None, gv0, gv0)
    e1 = 0.5 * g.face_dot(None, gv1, gv1)
    rate = (e1 - e0) / dt
    lap = g.div_faces(gv0)
    t_lap = g.integrate(lap * lap)
    t_uvv = g.face_dot(prev.u, gv0, gv0)
    t_mix = g.face_dot(prev.v, gu0, gv0)
    rhs = -(t_lap + t_uvv + t_mix)
    return ResidualReport("v_energy", prev.t, nxt.t, rate, rhs, rate - rhs,
                          _normalizer(rate, t_lap, t_uvv, t_mix))


def residual_vq_identity(prev: State, nxt: State, q: float,
                         params: Params) -> ResidualReport:
    """Residual of (1/q) d/dt int v^q = -(q-1) int v^(q-2)|grad v|^2 - int u v^q."""
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    g = prev.grid
    dt = nxt.t - prev.t
    rate = (g.integrate(nxt.v ** q) - g.integrate(prev.v ** q)) / (q * dt)
    gv0 = g.face_gradient(prev.v)
    t_grad = (q - 1.0) * g.face_dot(_power(prev.v, q - 2.0), gv0, gv0)
    t_cons = g.integrate(prev.u * prev.v ** q)
    rhs = -(t_grad + t_cons)
    return ResidualReport(f"v_pow_{q:g}", prev.t, nxt.t, rate, rhs, rate - rhs,
                          _normalizer(rate, t_grad, t_cons))


def residual_upvq_identity(prev: State, nxt: State, p: float, q: float,
                           params: Params) -> ResidualReport:
    """Residual of the mixed-moment balance d/dt int u^p v^q = sum of 8 terms.

    The right side collects, in order: both quadratic gradient terms, the
    growth term, the three mixed grad(u).grad(v) terms, the v-gradient term
    from the consumption equation, and the consumption sink:

      T1 = p(1-p) int u^(p-1) v^(q+1) |grad u|^2
      T2 = p q    int u^(p-1+alpha) v^q |grad v|^2
      T3 = p ell  int u^p v^(q+1)
      T4 = p(p-1) int u^(p-2+alpha) v^(q+1) grad u . grad v
      T5 = -p q   int u^p v^q grad u . grad v
      T6 = -p q   int u^(p-1) v^(q-1) grad u . grad v
      T7 = -q(q-1) int u^p v^(q-2) |grad v|^2
      T8 = -q     int u^(p+1) v^q

    T6 and T7 carry the signs that integration by parts of the consumption
    equation produces; specializing p=0 must reproduce the v^q balance above,
    and p=1, q=0 reproduces the mass law.
    """
    g, u, v = prev.grid, prev.u, prev.v
    a = params.alpha
    dt = nxt.t - prev.t
    rate = (g.integrate(_power(nxt.u, p) * _power(nxt.v, q))
            - g.integrate(_power(u, p) * _power(v, q))) / dt
    gu = g.face_gradient(u)
    gv = g.face_gradient(v)
    t1 = p * (1.0 - p) * g.face_dot(_power(u, p - 1.0) * _power(v, q + 1.0), gu, gu)
    t2 = p * q * g.face_dot(_power(u, p - 1.0 + a) * _power(v, q), gv, gv)
    t3 = p * params.ell * g.integrate(_power(u, p) * _power(v, q + 1.0))
    t4 = p * (p - 1.0) * g.face_dot(_power(u, p - 2.0 + a) * _power(v, q + 1.0), gu, gv)
    t5 = -p * q * g.face_dot(_power(u, p) * _power(v, q), gu, gv)
    t6 = -p * q * g.face_dot(_power(u, p - 1.0) * _power(v, q - 1.0), gu, gv)
    t7 = -q * (q - 1.0) * g.face_dot(_power(u, p) * _power(v, q - 2.0), gv, gv)
    t8 = -q * g.integrate(_power(u, p + 1.0) * _power(v, q))
    rhs = t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8
    return ResidualReport(f"u{p:g}_v{q:g}", prev.t, nxt.t, rate, rhs, rate - rhs,
                          _normalizer(rate, t1, t2, t3, t4, t5, t6, t7, t8))


@dataclass(frozen=True)
class FirstEnergyReport:
    """Equality residual and inequality slack of the combined flux energy.

    The energy int( u^(3-alpha)/((2-alpha)(3-alpha)) - u v ) dissipates the
    flux-weighted square int u^alpha v |grad(u^(2-alpha)/(2-alpha) - v)|^2;
    dropping that term and the nonpositive -ell int u v^2 yields the one-sided
    bound whose slack is reported here.
    """

    t0: float
    t1: float
    rate: float
    dissipation: float
    rhs_equality: float
    rhs_inequality: float
    residual: float
    normalizer: float
    slack: float

    @property
    def rel(self) -> float:
        return abs(self.residual) / self.normalizer

    def passes(self, tol: float = 1e-8) -> bool:
        return self.slack >= -tol


def check_first_energy(prev: State, nxt: State, params: Params) -> FirstEnergyReport:
    g, u, v = prev.grid, prev.u, prev.v
    a = params.alpha
    c = (2.0 - a) * (3.0 - a)
    dt = nxt.t - prev.t

    def energy(s: State) -> float:
        return g.integrate(_power(s.u, 3.0 - a) / c - s.u * s.v)

    rate = (energy(nxt) - energy(prev)) / dt
    gu = g.face_gradient(u)
    gv = g.face_gradient(v)
    gw = g.face_gradient(_power(u, 2.0 - a) / (2.0 - a))
    gdiff = [gw[ax] - gv[ax] for ax in range(g.dim)]
    dissipation = g.face_dot(_power(u, a) * v, gdiff, gdiff)
    t_mix = g.face_dot(None, gu, gv)
    t_quad = g.integrate(u * u * v)
    t_grow = params.ell * g.integrate(_power(u, 3.0 - a) * v / (2.0 - a) - u * v * v)
    rhs_eq = t_grow + t_mix + t_quad
    rhs_ineq = (params.ell / (2.0 - a)) * g.integrate(_power(u, 3.0 - a) * v) \
        + t_mix + t_quad
    residual = (rate + dissipation) - rhs_eq
    return FirstEnergyReport(
        t0=prev.t, t1=nxt.t, rate=rate, dissipation=dissipation,
        rhs_equality=rhs_eq, rhs_inequality=rhs_ineq, residual=residual,
        normalizer=_normalizer(rate, dissipation, t_mix, t_quad, t_grow),
        slack=rhs_ineq - rate,
    )


# ---------------------------------------------------------------------------
# standalone functional inequalities


@dataclass(frozen=True)
class SobolevReport:
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
                          p: float, mu: float, ambient_dim: int = 3) -> SobolevReport:
    if bool((phi <= 0.0).any()) or bool((psi <= 0.0).any()):
        raise ValueError("nonpositive field")
    if ambient_dim >= 3:
        mu_max = ambient_dim / (ambient_dim - 2.0)
        if not 1.0 <= mu <= mu_max:
            raise ValueError(f"mu must lie in [1, {mu_max:g}] for ambient dimension {ambient_dim}")
    elif mu < 1.0:
        raise ValueError("mu must be at least 1")
    lhs = grid.integrate((_power(phi, p + 1.0) * psi) ** mu) ** (1.0 / mu)
    gphi = grid.face_gradient(phi)
    gpsi = grid.face_gradient(psi)
    t_phi = grid.face_dot(_power(phi, p - 1.0) * psi, gphi, gphi)
    t_psi = grid.face_dot(_power(phi, p + 1.0) / psi, gpsi, gpsi)
    t_zero = grid.integrate(_power(phi, p + 1.0) * psi)
    rhs = t_phi + t_psi + t_zero
    return SobolevReport(p=p, mu=mu, lhs=lhs, grad_phi_term=t_phi,
                         grad_psi_term=t_psi, zero_order_term=t_zero,
                         ratio=lhs / rhs)


@dataclass(frozen=True)
class LogHessianReport:
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

    def passes(self, slack: float = 0.05) -> bool:
        return (self.lhs_grad <= (1.0 + slack) * self.bound_grad
                and self.lhs_hess <= (1.0 + slack) * self.bound_hess)


def check_log_hessian(grid: Grid, phi: np.ndarray, q: float) -> LogHessianReport:
    if q < 2.0:
        raise ValueError(f"q must be at least 2, got {q}")
    if bool((phi <= 0.0).any()):
        raise ValueError("nonpositive field")
    n = grid.dim
    vol = grid.cell_volume
    inner = _interior(grid)
    g2 = grid.cell_grad_sq(grid.face_gradient(phi))[inner]
    ph = phi[inner]
    hess_log = hessian_sq(grid, np.log(phi))[inner]
    hess_phi = hessian_sq(grid, phi)[inner]
    lhs_grad = float(np.sum(_power(ph, -q - 1.0) * g2 ** ((q + 2.0) / 2.0))) * vol
    lhs_hess = float(np.sum(_power(ph, -q + 1.0) * g2 ** ((q - 2.0) / 2.0) * hess_phi)) * vol
    base = float(np.sum(_power(ph, -q + 3.0) * g2 ** ((q - 2.0) / 2.0) * hess_log)) * vol
    return LogHessianReport(
        q=q,
        lhs_grad=lhs_grad,
        bound_grad=(q + math.sqrt(n)) ** 2 * base,
        lhs_hess=lhs_hess,
        bound_hess=(q + math.sqrt(n) + 1.0) ** 2 * base,
    )


# ---------------------------------------------------------------------------
# random Neumann-compatible positive test fields


def sample_cosine_field(rng: np.random.Generator, dim: int, max_mode: int = 6,
                        n_terms: int = 8, amplitude: float = 0.8) -> list:
    """Coefficients of a random cosine series; the field is exp(series).

    The series uses axis products of cos(k pi x / L) so the continuous field
    has zero normal derivative on every wall, and the coefficients are scaled
    so the exponent stays within +-amplitude (the field is strictly positive
    and uniformly bounded).  The returned coefficient list can be evaluated on
    any grid, which is what makes refinement comparisons meaningful.
    """
    terms = []
    total = 0.0
    while len(terms) < n_terms:
        k = tuple(int(rng.integers(0, max_mode + 1)) for _ in range(dim))
        if all(ki == 0 for ki in k):
            continue
        c = float(rng.normal()) / (1.0 + float(sum(ki * ki for ki in k)))
        terms.append((k, c))
        total += abs(c)
    scale = amplitude / total if total > 0.0 else 0.0
    return [(k, c * scale) for k, c in terms]


def evaluate_cosine_field(grid: Grid, terms: list) -> np.ndarray:
    xs = grid.mesh()
    s = np.zeros(grid.shape)
    for k, c in terms:
        term = np.full(grid.shape, c)
        for a, ka in enumerate(k):
            if ka:
                term = term * np.cos(ka * np.pi * xs[a] / grid.lengths[a])
        s += term
    return np.exp(s)


@dataclass(frozen=True)
class BatchReport:
    check: str
    samples: int
    violations: int
    max_ratio: float
    ratios: tuple[float, ...]


def log_hessian_batch(grid: Grid, q: float, samples: int, seed: int,
                      slack: float = 0.05, max_mode: int = 6) -> BatchReport:
    rng = np.random.default_rng(seed)
    ratios = []
    violations = 0
    for _ in range(samples):
        phi = evaluate_cosine_field(grid, sample_cosine_field(rng, grid.dim, max_mode))
        rep = check_log_hessian(grid, phi, q)
        ratios.append(max(rep.ratio_grad(), rep.ratio_hess()))
        if not rep.passes(slack):
            violations += 1
    return BatchReport("log_hessian", samples, violations,
                       max(ratios), tuple(ratios))


def sobolev_batch(grid: Grid, samples: int, seed: int, p: float = 1.0,
                  mu: float = 3.0, max_mode: int = 6) -> BatchReport:
    """Empirical constant for the amended product embedding over random fields."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        phi = evaluate_cosine_field(grid, sample_cosine_field(rng, grid.dim, max_mode))
        psi = evaluate_cosine_field(grid, sample_cosine_field(rng, grid.dim, max_mode))
        ratios.append(check_sobolev_product(grid, phi, psi, p, mu).ratio)
    finite = all(math.isfinite(r) for r in ratios)
    return BatchReport("sobolev_product", samples, 0 if finite else 1,
                       max(ratios), tuple(ratios))


# ---------------------------------------------------------------------------
# two-functional balance with nonconstructive constants: tracked, not gated


@dataclass(frozen=True)
class Struc2Report:
    """Empirical constants for the coupled log-entropy / gradient-quartic balance.

    For each candidate c0 the report records the smallest C with
    4 c0 dA + dB + c0 P + Q <= C R on every step of the window, where
    A = int(u log u - u), B = int |grad v|^4 / v^3, P = int v |grad u|^2,
    Q = 2 int (|grad v|^2 / v)|D2 log v|^2 + int u |grad v|^4 / v^3 and
    R = int u^(2 alpha - 2) v |grad v|^2 + int u v log u.  The constants are
    nonconstructive in the underlying estimate, so this is a tracked report,
    never a pass/fail gate.
    """

    c0_grid: tuple[float, ...]
    c_required: tuple[float, ...]
    best_c0: float
    best_c: float
    n_steps: int

    def c_for(self, c0: float) -> float:
        return self.c_required[self.c0_grid.index(c0)]


def check_struc2_balance(pairs, params: Params,
                         c0_grid: tuple[float, ...] | None = None) -> Struc2Report:
    if params.alpha <= 1.0:
        raise ValueError("the balance is tracked only for alpha > 1")
    if c0_grid is None:
        c0_grid = tuple(2.0 ** k for k in range(-6, 7))
    rows = []
    for prev, nxt in pairs:
        g, u, v = prev.grid, prev.u, prev.v
        dt = nxt.t - prev.t
        gu = g.face_gradient(u)
        gv = g.face_gradient(v)
        cgv2 = g.cell_grad_sq(gv)

        def a_fun(s):
            return g.integrate(_xlogx(s.u) - s.u)

        def b_fun(s):
            gvs = g.face_gradient(s.v)
            c2 = g.cell_grad_sq(gvs)
            return g.integrate(c2 * c2 / s.v ** 3)

        da = (a_fun(nxt) - a_fun(prev)) / dt
        db = (b_fun(nxt) - b_fun(prev)) / dt
        p_term = g.face_dot(v, gu, gu)
        q_term = 2.0 * g.integrate(cgv2 / v * hessian_sq(g, np.log(v))) \
            + g.integrate(u * cgv2 * cgv2 / v ** 3)
        r_term = g.face_dot(_power(u, 2.0 * params.alpha - 2.0) * v, gv, gv) \
            + g.integrate(v * _xlogx(u))
        rows.append((da, db, p_term, q_term, r_term))

    c_req = []
    for c0 in c0_grid:
        worst = 0.0
        for da, db, p_term, q_term, r_term in rows:
            lhs = 4.0 * c0 * da + db + c0 * p_term + q_term
            if lhs <= 0.0:
                continue
            if r_term <= 0.0:
                worst = math.inf
                break
            worst = max(worst, lhs / r_term)
        c_req.append(worst)
    best = min(range(len(c0_grid)), key=lambda i: (c_req[i], c0_grid[i]))
    return Struc2Report(c0_grid=tuple(c0_grid), c_required=tuple(c_req),
                        best_c0=c0_grid[best], best_c=c_req[best],
                        n_steps=len(rows))
