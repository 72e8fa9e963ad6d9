"""Explicit positivity-protected time stepping with exact mass bookkeeping.

Forward Euler on the flux-form right-hand side.  ``_dt_limits`` holds the
whole step-size rule: the least of a diffusive CFL bound built from the
degenerate diffusivity, a reaction bound keeping the explicit v-update
positive and the u-growth tame, and the discrete maximum-principle cap
dt * (2*dim/h^2 + max u) <= 1 of the nutrient update, which makes sup v
provably nonincreasing step by step (the CFL alone does not when the
degenerate diffusivity is small, because v diffuses with unit coefficient
regardless of u).  An update that still produces a negative value is rejected
and retried with dt halved, never clipped: clipping would break the exact
discrete mass law.  One right-hand side per state sets dt, serves every
attempt and feeds the ten running accumulators, all of them cell quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .grid import first_cell
from .model import Accumulators, Params, State, _power, _rhs_core


class StepRejected(Exception):
    """An attempted update made field ("u" or "v") negative, first at cell; halve dt."""

    def __init__(self, t: float, dt: float, field: str, cell: tuple[int, ...]):
        super().__init__(f"positivity lost in step from t={t:.6g} with dt={dt:.3g}: "
                         f"{field} at cell {cell}")
        self.t, self.dt, self.field, self.cell = t, dt, field, cell


@dataclass(frozen=True)
class StepControl:
    t_end: float
    dt_max: float = math.inf
    max_rejects: int = 40

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if self.max_rejects < 1:
            raise ValueError("max_rejects must be at least 1")


class Cadence:
    """Clock ticking at k * every for k = 1, 2, ...; every=None never ticks.

    A tick counts as reached once t is within 1e-12 * t_end of it, so a step
    whose dt was clipped to land on a tick reaches it despite rounding.  A period
    below that tolerance is refused: the run's step floor would overshoot every tick.
    """

    def __init__(self, every: float | None, t_end: float):
        self.tol = 1e-12 * t_end
        if every is not None and not 0.0 < every < math.inf:
            raise ValueError(f"cadence must be positive and finite, got {every}")
        if every is not None and every < self.tol:
            raise ValueError(f"cadence must be at least 1e-12 * t_end = {self.tol:g}, got {every}")
        self.every = every
        self.k = 1

    def next_tick(self) -> float:
        return math.inf if self.every is None else self.k * self.every

    def due(self, t: float) -> int | None:
        """First tick index reached by t, advancing past every reached tick."""
        if t < self.next_tick() - self.tol:
            return None
        first = self.k
        # jump to at most the first unreached tick (at most 1e12 ticks away, so the
        # estimate rounds by less than one), then walk to it exactly
        self.k = max(self.k, int((t + self.tol) / self.every) - 1)
        while t >= self.next_tick() - self.tol:
            self.k += 1
        return first


@dataclass
class Trajectory:
    """Monitor rows in time order plus the final state and step counters."""

    rows: list
    final: State
    n_steps: int = 0
    n_rejected: int = 0


def _dt_limits(state: State, params: Params, uv, ua) -> float:
    """Step limit from the rhs's u v and u^alpha, with hmin2 = min_axes(h^2): the least of
    the CFL bound cfl_safety * hmin2 / (2 * dim * D*), D* = max(u v + chi u^alpha v),
    the reaction bound 1 / (max u + ell * max v) and the cap 1 / (2 * dim / hmin2 + max u)."""
    g, u_max, hmin2 = state.grid, float(state.u.max()), state.grid.hmin2
    d = params.chi * ua  # D* = u v + (chi u^alpha) v, formed in this one buffer
    dstar = float(np.add(np.multiply(d, state.v, out=d), uv, out=d).max())
    if not math.isfinite(dstar):
        raise RuntimeError("state blew up")
    dt = params.cfl_safety * hmin2 / (2.0 * g.dim * dstar) if dstar > 0.0 else math.inf
    reaction = u_max + params.ell * float(state.v.max())
    if reaction > 0.0:
        dt = min(dt, 1.0 / reaction)
    return min(dt, 1.0 / (2.0 * g.dim / hmin2 + u_max))


def _advance_accumulators(state: State, params: Params, dt: float,
                          gu, gv, uv, lap_v, scratch) -> Accumulators:
    """Left-endpoint update of every running integral in field order, each a cell quadrature
    (see ``grid``), each product written into the rhs's ``scratch`` once its last reader is done."""
    g, u, v, vol = state.grid, state.u, state.v, state.grid.cell_volume
    flux, (c0, c1, c2) = scratch
    cgu2 = g.cell_dot(gu, gu, out=c0, faces=flux, cell=c2)
    cgv2 = g.cell_dot(gv, gv, out=c1, faces=flux, cell=c2)
    sums = [uv.sum(), np.vdot(v, cgu2), np.vdot(u, cgv2), np.vdot(lap_v, lap_v),
            np.vdot(np.multiply(_power(u, 1.0 - params.alpha, out=c2), v, out=c2), cgu2),
            np.vdot(np.divide(v, u, out=c2), cgu2)]
    # with q = |grad v|^2 / v: u |grad v|^4 / v^3 = (u / v) q^2, |grad v|^6 / v^5 = q^2 q / v^2
    u_over_v = np.divide(u, v, out=c2)
    sums.append(np.vdot(u_over_v, cgv2))
    q = np.divide(cgv2, v, out=c1)
    q2 = np.multiply(q, q, out=c0)
    sums += [np.vdot(u_over_v, q2), np.vdot(q2, np.divide(q, np.multiply(v, v, out=c2), out=c2)),
             np.vdot(_power(u, 7.0 / 3.0, out=c2), v)]
    return Accumulators(*[a + dt * float(x) * vol for a, x in zip(state.acc.values(), sums)])


def step(state: State, params: Params, dt: float, rhs=None) -> State:
    """One accepted forward-Euler step, or StepRejected; never mutates input.

    rhs is the state's ``_rhs_core`` result, computed here if None; its returned
    arrays are only read, so a step may be taken again from the same rhs.  The discrete
    mass law holds to rounding: integrate(u') = integrate(u) + dt * ell * integrate(u v)
    and integrate(v') = integrate(v) - dt * integrate(u v).
    """
    du, dv, gu, gv, uv, _, lap_v, scratch = rhs or _rhs_core(state, params)
    u2 = du * dt
    u2 += state.u
    v2 = dv * dt
    v2 += state.v
    if u2.min() < 0.0 or v2.min() <= 0.0:
        for field, bad in (("u", u2 < 0.0), ("v", v2 <= 0.0)):
            if bool(bad.any()):
                raise StepRejected(state.t, dt, field, first_cell(bad))
    acc = _advance_accumulators(state, params, dt, gu, gv, uv, lap_v, scratch)
    return State(grid=state.grid, t=state.t + dt, u=u2, v=v2, acc=acc)


def run(state: State, params: Params, control: StepControl, observers=(),
        monitor_cadence: float | None = None,
        p_list: tuple[float, ...] = diagnostics.P_LIST) -> Trajectory:
    """Advance to t_end, rejecting and halving dt when positivity would fail; a step
    still rejected after max_rejects halvings, or once its dt no longer advances t,
    raises RuntimeError("positivity unrecoverable ...").

    Observers are called as observer(prev, new, dt) after every accepted step
    with immutable snapshots.  Monitor rows are recorded at t=0, at every
    multiple of monitor_cadence (steps land on the ticks exactly because dt is
    clipped to them), and at t_end.
    """
    t_end = control.t_end
    ticks = Cadence(monitor_cadence, t_end)
    tiny = ticks.tol
    rows = [diagnostics.monitor_row(state, params, p_list)]
    n_steps = n_rejected = 0
    while state.t < t_end - tiny:
        rhs = _rhs_core(state, params)
        dt = max(min(_dt_limits(state, params, *rhs[4:6]),  # uv, u^alpha
                     control.dt_max, t_end - state.t, ticks.next_tick() - state.t), tiny)
        for attempt in range(control.max_rejects + 1):
            try:
                new = step(state, params, dt, rhs)
                break
            except StepRejected as exc:
                n_rejected += 1
                dt *= 0.5
                # out of retries, or a dt too small to advance t, which would never end the run
                if attempt == control.max_rejects or state.t + dt == state.t:
                    raise RuntimeError(f"positivity unrecoverable at t={state.t:.8g}: "
                                       f"{exc.field} at cell {exc.cell}") from None
        del rhs  # observers and monitor rows run without the rhs arrays alive
        for obs in observers:
            obs(state, new, dt)
        state = new
        n_steps += 1
        if ticks.due(state.t) is not None:
            rows.append(diagnostics.monitor_row(state, params, p_list))
    if rows[-1].t < state.t - tiny or len(rows) == 1:
        rows.append(diagnostics.monitor_row(state, params, p_list))
    return Trajectory(rows=rows, final=state, n_steps=n_steps, n_rejected=n_rejected)
