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

Every gradient integral is the grid's one cell quadrature (see ``grid``), and
each function forms each gradient product once per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import Grid
from .model import Accumulators, Params, State, _power

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
        return 0.5 * (g[grid.lo[a]] + g[grid.hi[a]])

    gf = grid.face_gradient(f)
    out = np.zeros(grid.shape)
    for b in range(grid.dim):
        out += ((gf[b][grid.hi[b]] - gf[b][grid.lo[b]]) / grid.h[b]) ** 2
        if b:
            gfirst = grid.face_gradient(mean(gf[b], b))
            for a in range(b):
                out += 2.0 * mean(gfirst[a], a) ** 2
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
    def csv_header(p_list: tuple[float, ...]) -> list[str]:
        return (list(_ROW_SCALARS) + [f"lp_{p:g}_u" for p in p_list]
                + [f"acc_{n}" for n in Accumulators.names()])

    def csv_values(self) -> list[float]:
        return ([getattr(self, n) for n in _ROW_SCALARS] + list(self.lp_norms)
                + list(self.acc.values()))


_ROW_SCALARS = tuple(f.name for f in fields(MonitorRow) if f.name not in ("lp_norms", "acc"))


def monitor_row(state: State, params: Params,
                p_list: tuple[float, ...] = P_LIST) -> MonitorRow:
    """Evaluate every monitored functional on one state snapshot.

    Raises if v has lost positivity or any entry comes out non-finite; a
    non-finite monitor is a hard failure, never a warning.
    """
    g, u, v = state.grid, state.u, state.v
    inf_v = float(v.min())
    if inf_v <= 0.0:
        raise ValueError(f"v positivity lost at t={state.t:.6g}")
    gv = g.face_gradient(v)
    cgv2 = g.cell_dot(gv, gv)
    a = params.alpha
    cfe = g.integrate(_power(u, 3.0 - a) / ((2.0 - a) * (3.0 - a)) - u * v)
    mass_u, mass_v = g.integrate(u), g.integrate(v)
    row = MonitorRow(
        t=state.t,
        mass_u=mass_u,
        mass_v=mass_v,
        total_mass=mass_u + params.ell * mass_v,
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
    cgv0 = g.cell_dot(gv0, gv0)
    rate = 0.5 * (g.integrate(g.cell_dot(gv1, gv1)) - g.integrate(cgv0)) / dt
    lap = g.div_faces(gv0)
    t_lap = g.integrate(lap * lap)
    t_uvv = g.integrate(prev.u * cgv0)
    t_mix = g.integrate(prev.v * g.cell_dot(gu0, gv0))
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
    t_grad = (q - 1.0) * g.integrate(_power(prev.v, q - 2.0) * g.cell_dot(gv0, gv0))
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


@dataclass(frozen=True)
class FirstEnergyReport(ResidualReport):
    """Equality residual and inequality slack of the combined flux energy.

    The energy int( u^(3-alpha)/((2-alpha)(3-alpha)) - u v ) dissipates the
    flux-weighted square int u^alpha v |grad(u^(2-alpha)/(2-alpha) - v)|^2, so
    lhs = rate + dissipation balances the equality right side rhs; dropping
    the dissipation and the nonpositive -ell int u v^2 yields the one-sided
    bound rate <= rhs_inequality, whose slack is reported here.
    """

    rate: float
    dissipation: float
    rhs_inequality: float
    slack: float

    def passes(self, tol: float = 1e-8) -> bool:
        return self.slack >= -tol


def check_first_energy(prev: State, nxt: State, params: Params) -> FirstEnergyReport:
    g, u, v = prev.grid, prev.u, prev.v
    a = params.alpha
    c = (2.0 - a) * (3.0 - a)
    dt = nxt.t - prev.t
    u3a, uv = _power(u, 3.0 - a), u * v
    u3av = u3a * v
    e_next = g.integrate(_power(nxt.u, 3.0 - a) / c - nxt.u * nxt.v)
    rate = (e_next - g.integrate(u3a / c - uv)) / dt
    gu = g.face_gradient(u)
    gv = g.face_gradient(v)
    gw = g.face_gradient(_power(u, 2.0 - a) / (2.0 - a))
    gdiff = [gw[ax] - gv[ax] for ax in range(g.dim)]
    dissipation = g.integrate(_power(u, a) * v * g.cell_dot(gdiff, gdiff))
    t_mix = g.integrate(g.cell_dot(gu, gv))
    t_quad = g.integrate(u * u * v)
    t_grow = params.ell * g.integrate(u3av / (2.0 - a) - uv * v)
    lhs, rhs = rate + dissipation, t_grow + t_mix + t_quad
    rhs_ineq = (params.ell / (2.0 - a)) * g.integrate(u3av) + t_mix + t_quad
    return FirstEnergyReport(
        "first_energy", prev.t, nxt.t, lhs, rhs, lhs - rhs,
        _normalizer(rate, dissipation, t_mix, t_quad, t_grow),
        rate=rate, dissipation=dissipation, rhs_inequality=rhs_ineq,
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
                          p: float, mu: float) -> SobolevReport:
    if bool((phi <= 0.0).any()) or bool((psi <= 0.0).any()):
        raise ValueError("nonpositive field")
    if not 1.0 <= mu <= 3.0:
        raise ValueError(f"mu must lie in [1, N/(N-2)] = [1, 3] in N = 3 dimensions, got {mu}")
    lhs = grid.integrate((_power(phi, p + 1.0) * psi) ** mu) ** (1.0 / mu)
    gphi = grid.face_gradient(phi)
    gpsi = grid.face_gradient(psi)
    t_phi = grid.integrate(_power(phi, p - 1.0) * psi * grid.cell_dot(gphi, gphi))
    t_psi = grid.integrate(_power(phi, p + 1.0) / psi * grid.cell_dot(gpsi, gpsi))
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
    if not 2.0 <= q < math.inf:
        raise ValueError(f"q must be at least 2 and finite, got {q}")
    if bool((phi <= 0.0).any()):
        raise ValueError("nonpositive field")
    if min(grid.cells) < 3:
        raise ValueError(f"log-Hessian check needs at least 3 cells per axis, got {grid.cells}")
    n = grid.dim
    vol = grid.cell_volume
    inner = (slice(1, -1),) * n
    gphi = grid.face_gradient(phi)
    g2 = grid.cell_dot(gphi, gphi)[inner]
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
                        amplitude: float = 0.8) -> list:
    """Coefficients of a random eight-term cosine series; the field is exp(series).

    The series uses axis products of cos(k pi x / L) so the continuous field
    has zero normal derivative on every wall, and the coefficients are scaled
    so the exponent stays within +-amplitude (the field is strictly positive
    and uniformly bounded).  The returned coefficient list can be evaluated on
    any grid, which is what makes refinement comparisons meaningful.
    """
    terms = []
    total = 0.0
    while len(terms) < 8:
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


def log_hessian_batch(grid: Grid, q: float, samples: int, seed: int) -> BatchReport:
    """Both log-Hessian inequalities over random fields, judged by ``passes()``'s default slack."""
    rng = np.random.default_rng(seed)
    ratios = []
    violations = 0
    for _ in range(samples):
        phi = evaluate_cosine_field(grid, sample_cosine_field(rng, grid.dim))
        rep = check_log_hessian(grid, phi, q)
        ratios.append(max(rep.ratio_grad(), rep.ratio_hess()))
        violations += not rep.passes()
    return BatchReport("log_hessian", samples, violations, max(ratios), tuple(ratios))


def sobolev_batch(grid: Grid, samples: int, seed: int) -> BatchReport:
    """Empirical constant for the amended product embedding (p = 1, mu = 3) over random fields."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        phi = evaluate_cosine_field(grid, sample_cosine_field(rng, grid.dim))
        psi = evaluate_cosine_field(grid, sample_cosine_field(rng, grid.dim))
        ratios.append(check_sobolev_product(grid, phi, psi, 1.0, 3.0).ratio)
    violations = 0 if all(math.isfinite(r) for r in ratios) else 1
    return BatchReport("sobolev_product", samples, violations, max(ratios), tuple(ratios))


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
        gv, gv1 = g.face_gradient(v), g.face_gradient(nxt.v)
        cgv2, cgv2_1 = g.cell_dot(gv, gv), g.cell_dot(gv1, gv1)
        quartic = cgv2 * cgv2 / v ** 3
        da = (g.integrate(_xlogx(nxt.u) - nxt.u) - g.integrate(_xlogx(u) - u)) / dt
        db = (g.integrate(cgv2_1 * cgv2_1 / nxt.v ** 3) - g.integrate(quartic)) / dt
        p_term = g.integrate(v * g.cell_dot(gu, gu))
        q_term = 2.0 * g.integrate(cgv2 / v * hessian_sq(g, np.log(v))) + g.integrate(u * quartic)
        r_term = g.integrate(_power(u, 2.0 * params.alpha - 2.0) * v * cgv2) \
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
