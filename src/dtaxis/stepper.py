"""Explicit positivity-protected time stepping with exact mass bookkeeping.

Forward Euler on the flux-form right-hand side, with three layers of
protection:

* a diffusive CFL bound built from the degenerate diffusivity,
* a reaction bound keeping the explicit v-update positive and the u-growth
  tame, and
* rejection-and-halving whenever an attempted update still produces a
  negative value (never clipping: clipping would break the exact discrete
  mass law).

The run loop additionally caps dt by the discrete maximum-principle bound of
the nutrient update, dt * (2*dim/h^2 + max u) <= 1, so sup v is provably
nonincreasing step by step.  The diffusive CFL alone does not imply this when
the degenerate diffusivity is small, because v diffuses with unit coefficient
regardless of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .model import Accumulators, Params, State, _power, _rhs_core


class StepRejected(Exception):
    """An attempted update produced a negative density; retry with smaller dt."""

    def __init__(self, t: float, dt: float):
        super().__init__(f"positivity lost in step from t={t:.6g} with dt={dt:.3g}")
        self.t = t
        self.dt = dt


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

    A tick counts as reached once t is within 1e-12 * max(1, t_end) of it, so
    a step whose dt was clipped to land on a tick reaches it despite rounding.
    """

    def __init__(self, every: float | None, t_end: float):
        if every is not None and not 0.0 < every < math.inf:
            raise ValueError(f"cadence must be positive and finite, got {every}")
        self.every = every
        self.tol = 1e-12 * max(1.0, t_end)
        self.k = 1

    def next_tick(self) -> float:
        return math.inf if self.every is None else self.k * self.every

    def due(self, t: float) -> int | None:
        """First tick index reached by t, advancing past every reached tick."""
        if t < self.next_tick() - self.tol:
            return None
        first = self.k
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


def stable_dt(state: State, params: Params, dt_max: float = math.inf) -> float:
    """Stability-limited step size for the current state.

    dt = cfl_safety * min_axes(h^2) / (2 * dim * D*) with
    D* = max over cells of (u v + chi u^alpha v), further capped by the
    reaction bound 1 / (max u + ell * max v) and by dt_max.
    """
    g, u, v = state.grid, state.u, state.v
    dstar = float(np.max(u * v + params.chi * _power(u, params.alpha) * v))
    if not math.isfinite(dstar):
        raise RuntimeError("state blew up")
    dt = math.inf
    if dstar > 0.0:
        dt = params.cfl_safety * min(h * h for h in g.h) / (2.0 * g.dim * dstar)
    reaction = float(u.max()) + params.ell * float(v.max())
    if reaction > 0.0:
        dt = min(dt, 1.0 / reaction)
    return min(dt, dt_max)


def max_principle_dt(state: State) -> float:
    """Largest dt for which the explicit v-update cannot raise sup v."""
    g = state.grid
    hmin2 = min(h * h for h in g.h)
    return 1.0 / (2.0 * g.dim / hmin2 + float(state.u.max()))


def _advance_accumulators(state: State, params: Params, dt: float,
                          gu, gv, uv, lap_v) -> Accumulators:
    """Left-endpoint update of every catalogued running integral."""
    g, u, v = state.grid, state.u, state.v
    acc = state.acc
    vol = g.cell_volume
    cgv2 = g.cell_grad_sq(gv)
    return Accumulators(
        uv=acc.uv + dt * float(np.sum(uv)) * vol,
        v_gradu_sq=acc.v_gradu_sq + dt * g.face_dot(v, gu, gu),
        u_gradv_sq=acc.u_gradv_sq + dt * g.face_dot(u, gv, gv),
        lap_v_sq=acc.lap_v_sq + dt * float(np.sum(lap_v * lap_v)) * vol,
        u1ma_v_gradu_sq=acc.u1ma_v_gradu_sq
        + dt * g.face_dot(_power(u, 1.0 - params.alpha) * v, gu, gu),
        v_over_u_gradu_sq=acc.v_over_u_gradu_sq + dt * g.face_dot(v / u, gu, gu),
        u_over_v_gradv_sq=acc.u_over_v_gradv_sq + dt * g.face_dot(u / v, gv, gv),
        u_gradv4_over_v3=acc.u_gradv4_over_v3
        + dt * float(np.sum(u * cgv2 * cgv2 / (v * v * v))) * vol,
        gradv6_over_v5=acc.gradv6_over_v5
        + dt * float(np.sum(cgv2 ** 3 / v ** 5)) * vol,
        u73_v=acc.u73_v + dt * float(np.sum(u ** (7.0 / 3.0) * v)) * vol,
    )


def step(state: State, params: Params, dt: float) -> State:
    """One accepted forward-Euler step, or StepRejected; never mutates input.

    Per step the discrete mass law holds to rounding:
    integrate(u') = integrate(u) + dt * ell * integrate(u v) and
    integrate(v') = integrate(v) - dt * integrate(u v).
    """
    du, dv, gu, gv, uv, lap_v = _rhs_core(state, params)
    u2 = state.u + dt * du
    v2 = state.v + dt * dv
    if bool((u2 < 0.0).any()) or bool((v2 <= 0.0).any()):
        raise StepRejected(state.t, dt)
    acc = _advance_accumulators(state, params, dt, gu, gv, uv, lap_v)
    return State(grid=state.grid, t=state.t + dt, u=u2, v=v2, acc=acc)


def run(state: State, params: Params, control: StepControl, observers=(),
        monitor_cadence: float | None = None,
        p_list: tuple[float, ...] = (1.0, 2.0, 3.0)) -> Trajectory:
    """Advance to t_end, rejecting and halving dt when positivity would fail.

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
        dt = min(stable_dt(state, params, control.dt_max),
                 max_principle_dt(state),
                 t_end - state.t,
                 ticks.next_tick() - state.t)
        dt = max(dt, tiny)
        rejects = 0
        while True:
            try:
                new = step(state, params, dt)
                break
            except StepRejected:
                rejects += 1
                n_rejected += 1
                if rejects > control.max_rejects:
                    raise RuntimeError(
                        f"positivity unrecoverable at t={state.t:.8g}") from None
                dt *= 0.5
        for obs in observers:
            obs(state, new, dt)
        state = new
        n_steps += 1
        if ticks.due(state.t) is not None:
            rows.append(diagnostics.monitor_row(state, params, p_list))
    if rows[-1].t < state.t - tiny or len(rows) == 1:
        rows.append(diagnostics.monitor_row(state, params, p_list))
    return Trajectory(rows=rows, final=state, n_steps=n_steps, n_rejected=n_rejected)
