"""Explicit positivity-protected time stepping with exact mass bookkeeping.

Forward Euler on the flux-form right-hand side, one per state, whose D* sets dt
(``_dt_limits``: the least of a CFL bound on D* = max(u v + chi u^alpha v), a
reaction bound, and the maximum-principle cap dt * (2*dim/h^2 + max u) <= 1 that
keeps sup v nonincreasing even where the CFL bound is loose) and serves every
attempt.  An update that still produces a negative value is rejected and retried
with dt halved, never clipped: clipping would break the exact discrete mass law.
The run's time resolution 1e-12 * t_end is its dt floor, its tick tolerance and its
stop rule: a step whose halved dt falls below it ends the run, after at most 40
halvings since dt <= t_end, and before dt could stop advancing t.
``step`` advances u, v and t.  ``run`` integrates the ten running accumulators (cell
quadratures), which nothing in the dynamics reads, and sets them on the states it
records: each monitor tick's and the final one.  It evaluates them per block of up to
K = max(1, BLOCK_CELLS // n) accepted steps on n cells, stacked along a leading axis (each
step's rhs writes its row), bit for bit as one evaluation per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .grid import BLOCK_CELLS, _power, first_cell
from .model import Accumulators, Params, State, _rhs_core, check_fields

RESOLUTION = 1e-12  # a run's time resolution, its dt floor and tick tolerance, per unit t_end


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

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not self.dt_max >= RESOLUTION * self.t_end:
            raise ValueError(f"dt_max must be at least {RESOLUTION:g} * t_end, got {self.dt_max}")


class Cadence:
    """Clock ticking at k * every for k = 1, 2, ...; every=None never ticks.

    A tick counts as reached once t is within 1e-12 * t_end of it, so a step
    whose dt was clipped to land on a tick reaches it despite rounding.  A period
    below that tolerance is refused: the run's step floor would overshoot every tick.
    """

    def __init__(self, every: float | None, t_end: float):
        self.tol = RESOLUTION * t_end
        if every is not None and not 0.0 < every < math.inf:
            raise ValueError(f"cadence must be positive and finite, got {every}")
        if every is not None and every < self.tol:
            raise ValueError(f"cadence must be at least {RESOLUTION:g} * t_end = {self.tol:g}, "
                             f"got {every}")
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


def _dt_limits(state: State, params: Params, dstar: float) -> float:
    """Step limit from the rhs's D* = max(u v + chi u^alpha v), with hmin2 = min_axes(h^2):
    the least of the CFL bound cfl_safety * hmin2 / (2 * dim * D*), the reaction bound
    1 / (max u + ell * max v) and the cap 1 / (2 * dim / hmin2 + max u)."""
    g, u_max, hmin2 = state.grid, float(state.u.max()), state.grid.hmin2
    if not math.isfinite(dstar):
        raise RuntimeError("state blew up")
    dt = params.cfl_safety * hmin2 / (2.0 * g.dim * dstar) if dstar > 0.0 else math.inf
    reaction = u_max + params.ell * float(state.v.max())
    if reaction > 0.0:
        dt = min(dt, 1.0 / reaction)
    return min(dt, 1.0 / (2.0 * g.dim / hmin2 + u_max))


def _advance_accumulators(acc: Accumulators, params: Params, grid, dts: list[float],
                          u, v, gu, gv, uv, lap_v) -> Accumulators:
    """The running integrals after k accepted steps from ``acc``, added step by step:
    row i of each (k, *shape) stack (or unstacked, at k = 1) is what step i saw.  Each integral
    is a cell quadrature (see ``grid``), its row sums bit for bit those of each row alone
    and, being numpy's pairwise sums, free of any BLAS thread count.  gu is face scratch once
    read, and each product goes into one of three cell temporaries after its last reader."""
    k, vol = len(dts), grid.cell_volume
    c0, c1, c2 = np.empty((3,) + u.shape)
    cgu2 = grid.cell_dot(gu, gu, out=c0, faces=gu, cell=c2)
    cgv2 = grid.cell_dot(gv, gv, out=c1, faces=gu, cell=c2)
    # the rest is cell by cell, so it runs on (k, cells) views, reduced row by row
    u, v, uv, lap_v, cgu2, cgv2, c2 = (x.reshape(k, -1) for x in (u, v, uv, lap_v, cgu2, cgv2, c2))
    prod = np.empty_like(u)

    def dot(a, b):
        return np.multiply(a, b, out=prod).sum(axis=1)

    sums = [uv.sum(axis=1), dot(v, cgu2), dot(u, cgv2), dot(lap_v, lap_v),
            dot(np.multiply(_power(u, 1.0 - params.alpha, out=c2), v, out=c2), cgu2),
            dot(np.divide(v, u, out=c2), cgu2)]
    # with q = |grad v|^2 / v: u |grad v|^4 / v^3 = (u / v) q^2, |grad v|^6 / v^5 = q^2 q / v^2
    u_over_v = np.divide(u, v, out=c2)
    sums.append(dot(u_over_v, cgv2))
    q = np.divide(cgv2, v, out=cgv2)
    q2 = np.multiply(q, q, out=cgu2)
    sums += [dot(u_over_v, q2), dot(q2, np.divide(q, np.multiply(v, v, out=c2), out=c2)),
             dot(_power(u, 7.0 / 3.0, out=c2), v)]
    out = acc.values()
    for dt, row in zip(dts, np.array(sums).T.tolist()):
        out = [a + dt * x * vol for a, x in zip(out, row)]
    return Accumulators(*out)


class _Ledger:
    """A run's accumulators but for its block of up to K = max(1, BLOCK_CELLS // n) steps: each
    one's dt and, in its row, copies of the u and v it saw and the gu, gv, uv and lap_v its rhs
    wrote there.  A block is allocated for its first row and released once evaluated."""

    def __init__(self, state: State, params: Params):
        self.acc, self.grid, self.params, self.dts = state.acc, state.grid, params, []
        self.k, self.block = max(1, BLOCK_CELLS // state.u.size), None

    def rows(self) -> tuple:
        """The next step's rows of gu, gv, uv and lap_v, for its ``_rhs_core`` to write into."""
        if self.block is None:  # faces: gu, gv; cells: u, v, uv, lap_v
            self.block = self.grid.faces((2, self.k)), np.empty((4, self.k) + self.grid.shape)
        i, (faces, cells) = len(self.dts), self.block
        return [f[0, i] for f in faces], [f[1, i] for f in faces], cells[2, i], cells[3, i]

    def add(self, state: State, dt: float) -> None:
        self.block[1][0, len(self.dts)], self.block[1][1, len(self.dts)] = state.u, state.v
        self.dts.append(dt)
        if len(self.dts) == self.k:
            self.evaluate()

    def evaluate(self) -> Accumulators:
        """The accumulators after every step added."""
        if self.dts:
            (faces, cells), k = self.block, len(self.dts)
            gu, gv = ([f[j, :k] for f in faces] for j in (0, 1))
            u, v, uv, lap_v = cells[:, :k]
            self.acc = _advance_accumulators(self.acc, self.params, self.grid, self.dts,
                                             u, v, gu, gv, uv, lap_v)
            self.dts, self.block = [], None
        return self.acc


def step(state: State, params: Params, dt: float, rhs=None) -> State:
    """One forward-Euler step of u, v and t (acc None), or StepRejected; never mutates input.

    rhs is the state's ``_rhs_core`` result, computed here if None; its returned
    arrays are only read, so a step may be taken again from the same rhs.  The discrete
    mass law holds to rounding: integrate(u') = integrate(u) + dt * ell * integrate(u v)
    and integrate(v') = integrate(v) - dt * integrate(u v).
    """
    du, dv = (rhs or _rhs_core(state, params))[:2]
    u2 = du * dt
    u2 += state.u
    v2 = dv * dt
    v2 += state.v
    if u2.min() < 0.0 or v2.min() <= 0.0:
        for field, bad in (("u", u2 < 0.0), ("v", v2 <= 0.0)):
            if bool(bad.any()):
                raise StepRejected(state.t, dt, field, first_cell(bad))
    return State(grid=state.grid, t=state.t + dt, u=u2, v=v2, acc=None)


def run(state: State, params: Params, control: StepControl, observers=(),
        monitor_cadence: float | None = None,
        p_list: tuple[float, ...] = diagnostics.P_LIST) -> Trajectory:
    """Advance to t_end, rejecting and halving dt when positivity would fail; a step
    still rejected once its halved dt falls below the run's time resolution
    1e-12 * t_end raises RuntimeError("positivity unrecoverable ...").

    Observers are called as observer(prev, new, dt) after every accepted step
    with immutable snapshots; new.acc is None then.  Monitor rows are recorded at
    t=0, at every multiple of monitor_cadence (steps land on the ticks exactly because
    dt is clipped to them), and at t_end; their states and the final one get their
    accumulators once the observers are done.  The starting state must have them and
    finite fields that fit its grid with u >= 0 and v > 0; ValueError names a bad cell.
    """
    if state.acc is None:
        raise ValueError("run needs a starting state with accumulators, got acc=None")
    check_fields(state.grid, state.u, state.v)
    if bool((state.v <= 0.0).any()):
        raise ValueError(f"v is not positive at cell {first_cell(state.v <= 0.0)}")
    t_end = control.t_end
    ticks = Cadence(monitor_cadence, t_end)
    tiny = ticks.tol
    rows = [diagnostics.monitor_row(state, params, p_list)]
    n_steps = n_rejected = 0
    ledger = _Ledger(state, params)
    while state.t < t_end - tiny:
        rhs = _rhs_core(state, params, ledger.rows())
        dt = max(min(_dt_limits(state, params, rhs[2]),
                     control.dt_max, t_end - state.t, ticks.next_tick() - state.t), tiny)
        while True:
            try:
                new = step(state, params, dt, rhs)
                break
            except StepRejected as exc:
                n_rejected += 1
                dt *= 0.5
                if dt < tiny:
                    raise RuntimeError(f"positivity unrecoverable at t={state.t:.8g}: "
                                       f"{exc.field} at cell {exc.cell}") from None
        ledger.add(state, dt)
        del rhs  # observers and monitor rows run without the rhs arrays alive
        for obs in observers:
            obs(state, new, dt)
        state = new
        n_steps += 1
        if ticks.due(state.t) is not None:
            state.acc = ledger.evaluate()
            rows.append(diagnostics.monitor_row(state, params, p_list))
    state.acc = ledger.evaluate()
    if rows[-1].t < state.t - tiny or len(rows) == 1:
        rows.append(diagnostics.monitor_row(state, params, p_list))
    return Trajectory(rows=rows, final=state, n_steps=n_steps, n_rejected=n_rejected)
