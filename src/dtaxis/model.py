"""Model assembly: parameters, states, initial data, and the flux-form right-hand side.

The simulated system couples a cell density u and a nutrient density v:

    du/dt = div(u v grad u) - chi * div(u^alpha v grad v) + ell * u v
    dv/dt = lap v - u v

with no-flux walls.  Both equations are discretized in divergence form, each
with one face flux: u v grad u - chi u^alpha v grad v for u, grad v for v.
Each flux integrates to exactly zero, so only the reaction terms move total
mass.  The initial cell density is lifted by the regularization shift
``epsilon`` so u starts strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exponents import regime
from .grid import FaceData, Grid, _power, first_cell

AVG_MODES = ("arithmetic", "geometric")
INITIAL_KINDS = ("constant", "gaussian_bump", "cosine_mix", "from_snapshot")


@dataclass(frozen=True)
class Params:
    """Model constants plus the scheme controls that travel with them."""

    alpha: float
    epsilon: float
    chi: float = 1.0
    ell: float = 0.0
    cfl_safety: float = 0.9
    avg_mode: str = "geometric"

    def __post_init__(self):
        if regime(self.alpha) is None:
            raise ValueError(f"alpha must satisfy 0 <= alpha < 2, got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.chi < math.inf:
            raise ValueError(f"chi must be nonnegative and finite, got {self.chi}")
        if not 0.0 <= self.ell < math.inf:
            raise ValueError(f"ell must be nonnegative and finite, got {self.ell}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.avg_mode not in AVG_MODES:
            raise ValueError(f"avg_mode must be one of {AVG_MODES}, got {self.avg_mode!r}")


class Accumulators(NamedTuple):
    """Running time integrals of the catalogued dissipation/consumption terms.

    Advanced by left-endpoint quadrature, one entry per monitored space-time
    integral: uv is the consumed nutrient, the *_grad_sq entries are weighted
    Dirichlet integrals, lap_v_sq the smoothing of v, and u73_v the cubed-root
    style high moment u^(7/3) v.  ``stepper.run`` integrates them and sets them on
    the states it records; a state ``step`` returns has none.
    """

    uv: float = 0.0
    v_gradu_sq: float = 0.0
    u_gradv_sq: float = 0.0
    lap_v_sq: float = 0.0
    u1ma_v_gradu_sq: float = 0.0
    v_over_u_gradu_sq: float = 0.0
    u_over_v_gradv_sq: float = 0.0
    u_gradv4_over_v3: float = 0.0
    gradv6_over_v5: float = 0.0
    u73_v: float = 0.0

    @staticmethod
    def names() -> tuple[str, ...]:
        return Accumulators._fields

    def values(self) -> tuple[float, ...]:
        return tuple(self)


@dataclass
class State:
    """One snapshot of the coupled fields plus the running accumulators, or None.

    Invariants (kept by ``build_initial`` and the stepper, and checked on the fields ``run``
    starts from): u >= 0 and v > 0 everywhere, t nondecreasing along a trajectory.
    """

    grid: Grid
    t: float
    u: np.ndarray
    v: np.ndarray
    acc: Accumulators | None = Accumulators()


@dataclass(frozen=True)
class InitialData:
    """Recipe for admissible initial fields.

    ``u_mode``/``v_mode`` are the cosine mode numbers used by ``cosine_mix``;
    axis products of cos(k pi x / L) are used so the discrete no-flux
    compatibility holds by construction.  ``v_floor`` is the strictly positive
    level the nutrient must stay above initially.
    """

    kind: str = "gaussian_bump"
    u_base: float = 0.0
    u_amplitude: float = 1.0
    u_width: float = 0.15
    u_mode: int = 2
    v_base: float = 1.0
    v_amplitude: float = 0.0
    v_mode: int = 1
    v_floor: float = 1e-3
    snapshot_path: str | None = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"initial data kind must be one of {INITIAL_KINDS}, got {self.kind!r}")
        if self.kind == "from_snapshot" and not self.snapshot_path:
            raise ValueError("from_snapshot initial data needs a snapshot_path")
        if not 0.0 < self.u_width < math.inf:
            raise ValueError(f"u_width must be positive and finite, got {self.u_width}")


def initial_profiles(grid: Grid, data: InitialData) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the analytic initial profiles (u0, v0) at cell centers."""
    xs = grid.mesh()
    if data.kind == "constant":
        u0 = np.full(grid.shape, float(data.u_base + data.u_amplitude))
    elif data.kind == "gaussian_bump":
        r2 = np.zeros(grid.shape)
        for a, x in enumerate(xs):
            r2 = r2 + ((x - 0.5 * grid.lengths[a]) / data.u_width) ** 2
        u0 = data.u_base + data.u_amplitude * np.exp(-r2)
    elif data.kind == "cosine_mix":
        prof = np.ones(grid.shape)
        for a, x in enumerate(xs):
            prof = prof * np.cos(data.u_mode * np.pi * x / grid.lengths[a])
        u0 = data.u_base + data.u_amplitude * prof
    else:
        raise ValueError("from_snapshot initial data is resolved by the run builder")
    vprof = np.ones(grid.shape)
    for a, x in enumerate(xs):
        vprof = vprof * np.cos(data.v_mode * np.pi * x / grid.lengths[a])
    v0 = data.v_base + data.v_amplitude * vprof
    return u0, v0


def check_fields(grid: Grid, u: np.ndarray, v: np.ndarray, names=("u", "v", "state fields")):
    """Refuse (u, v) unless both have the grid's shape, are finite, and u >= 0; a refusal
    names the pair (``names[2]``) and both shapes, or the field and its first bad cell."""
    if u.shape != grid.shape or v.shape != grid.shape:
        raise ValueError(f"{names[2]} of shape {u.shape}/{v.shape} do not fit grid {grid.shape}")
    for name, f in zip(names, (u, v)):
        if not np.isfinite(f).all():
            raise ValueError(f"{name} is not finite at cell {first_cell(~np.isfinite(f))}")
    if bool((u < 0.0).any()):
        raise ValueError(f"{names[0]} must be nonnegative, first negative at cell "
                         f"{first_cell(u < 0.0)}")


def build_initial_from_fields(grid: Grid, u0: np.ndarray, v0: np.ndarray,
                              params: Params, v_floor: float = InitialData.v_floor) -> State:
    """Validate (u0, v0), apply the epsilon shift, zero the accumulators."""
    if not v_floor > 0.0:
        raise ValueError("initial v must be strictly positive")
    u0, v0 = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    check_fields(grid, u0, v0, ("u0", "v0", "initial fields"))
    if float(u0.max()) == 0.0:
        raise ValueError("u0 must not vanish identically")
    if float(v0.min()) < v_floor:
        c = first_cell(v0 < v_floor)
        raise ValueError(f"initial v must be strictly positive: {v0[c]:g} < v_floor at cell {c}")
    return State(grid=grid, t=0.0, u=u0 + params.epsilon, v=v0.copy())


def build_initial(grid: Grid, data: InitialData, params: Params) -> State:
    """Build the shifted starting state for one of the analytic initial kinds."""
    u0, v0 = initial_profiles(grid, data)
    return build_initial_from_fields(grid, u0, v0, params, v_floor=data.v_floor)


def face_average(grid: Grid, w: np.ndarray, mode: str, out: FaceData | None = None) -> FaceData:
    """Average a cell field onto interior faces; wall faces stay zero.  ``out``, face data
    with zero walls, receives it in place.

    Geometric averaging keeps a face coefficient at exactly zero whenever one
    adjacent cell carries zero.  So vacuum (u = 0) cells exchange no diffusive
    flux, and for alpha > 0 no tactic flux; at alpha = 0 the taxis flux
    chi v grad v does not depend on u, and a vacuum cell is not insulated from it.
    """
    if mode not in AVG_MODES:
        raise ValueError(f"avg_mode must be one of {AVG_MODES}, got {mode!r}")
    out = grid.faces() if out is None else out
    for a, f in enumerate(out):  # each f is scaled whole; its zero walls stay zero
        lo, hi = w[grid.lo[a]], w[grid.hi[a]]
        if mode == "arithmetic":
            np.add(lo, hi, out=f[grid.inner[a]])
            f *= 0.5
        else:
            np.multiply(lo, hi, out=f[grid.inner[a]])
            np.sqrt(f, out=f)
    return out


def _rhs_core(state: State, params: Params, into=None):
    """du, dv and the D* = max(u v + m) that sets dt, where m = (u^alpha chi) v is the taxis
    mobility of the one u flux (u v)_f grad u - m_f grad v.  The intermediates that
    ``stepper``'s accumulators share go into ``into`` = (gu, gv, uv, lap_v) if given (face data
    with zero walls, two cell arrays), and else into new arrays.  Nothing returned is
    overwritten later, so one rhs can serve any number of step attempts."""
    g, u, v = state.grid, state.u, state.v
    gu, gv, uv, lap_v = into or (g.faces(), g.faces(), *np.empty((2,) + g.shape))
    flux, mf = g.faces(), g.faces()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply(u, v, out=uv)
        m = _power(u, params.alpha)
        m *= params.chi
        m *= v
        g.face_gradient(u, out=gu)
        g.face_gradient(v, out=gv)
        face_average(g, uv, params.avg_mode, out=flux)
        face_average(g, m, params.avg_mode, out=mf)
        dstar = float(np.add(m, uv, out=m).max())  # m serves as cell scratch from here
        for a in range(g.dim):
            flux[a] *= gu[a]
            mf[a] *= gv[a]
            flux[a] -= mf[a]
        du = g.div_faces(flux, cell=m)
        g.div_faces(gv, out=lap_v, cell=m)
        if params.ell != 0.0:
            du += np.multiply(uv, params.ell, out=m)
        dv = lap_v - uv
        # a non-finite entry of du or dv makes the sum of du + dv non-finite, and a sum
        # that overflows takes the slow path; numpy's own reduction, not a BLAS dot, whose
        # threads would spin between steps on large grids
        finite = math.isfinite(np.add.reduce(np.add(du, dv, out=m), None))
    if not finite and not (np.isfinite(du).all() and np.isfinite(dv).all()):
        raise FloatingPointError(
            f"rhs overflow at cell {first_cell(~(np.isfinite(du) & np.isfinite(dv)))}")
    return du, dv, dstar

