"""Model assembly: parameters, states, initial data, and the flux-form right-hand side.

The simulated system couples a cell density u and a nutrient density v:

    du/dt = div(u v grad u) - chi * div(u^alpha v grad v) + ell * u v
    dv/dt = lap v - u v

with no-flux walls.  Both equations are discretized in divergence form so that
each flux term integrates to exactly zero and only the reaction terms move
total mass.  The initial cell density is lifted by the regularization shift
``epsilon`` so u starts strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import FaceData, Grid

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
        if not 0.0 <= self.alpha < 2.0:
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


@dataclass(frozen=True)
class Accumulators:
    """Running time integrals of the catalogued dissipation/consumption terms.

    Advanced by left-endpoint quadrature, one entry per monitored space-time
    integral: uv is the consumed nutrient, the *_grad_sq entries are weighted
    Dirichlet integrals, lap_v_sq the smoothing of v, and u73_v the cubed-root
    style high moment u^(7/3) v.
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
        return tuple(f.name for f in fields(Accumulators))

    def values(self) -> tuple[float, ...]:
        return tuple(getattr(self, n) for n in self.names())


@dataclass
class State:
    """One snapshot of the coupled fields plus the running accumulators.

    Invariants (maintained by ``build_initial`` and the stepper, not rechecked
    here): u >= 0 and v > 0 everywhere, t nondecreasing along a trajectory.
    """

    grid: Grid
    t: float
    u: np.ndarray
    v: np.ndarray
    acc: Accumulators = field(default_factory=Accumulators)


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


def build_initial_from_fields(grid: Grid, u0: np.ndarray, v0: np.ndarray,
                              params: Params, v_floor: float = 1e-3) -> State:
    """Validate (u0, v0), apply the epsilon shift, zero the accumulators."""
    if not v_floor > 0.0:
        raise ValueError("initial v must be strictly positive")
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if u0.shape != grid.shape or v0.shape != grid.shape:
        raise ValueError(f"initial fields of shape {u0.shape}/{v0.shape} do not fit grid {grid.shape}")
    for name, f in (("u0", u0), ("v0", v0)):
        bad = np.argwhere(~np.isfinite(f))
        if bad.size:
            raise ValueError(f"{name} is not finite at cell {tuple(int(i) for i in bad[0])}")
    if bool((u0 < 0.0).any()):
        raise ValueError("u0 must be nonnegative")
    if float(u0.max()) == 0.0:
        raise ValueError("u0 must not vanish identically")
    if float(v0.min()) < v_floor:
        raise ValueError("initial v must be strictly positive")
    return State(grid=grid, t=0.0, u=u0 + params.epsilon, v=v0.copy())


def build_initial(grid: Grid, data: InitialData, params: Params) -> State:
    """Build the shifted starting state for one of the analytic initial kinds."""
    u0, v0 = initial_profiles(grid, data)
    return build_initial_from_fields(grid, u0, v0, params, v_floor=data.v_floor)


def face_average(grid: Grid, w: np.ndarray, mode: str) -> FaceData:
    """Average a cell field onto interior faces; wall faces stay zero.

    Geometric averaging keeps a face coefficient at exactly zero whenever one
    adjacent cell carries zero, so degenerate (vacuum) regions exchange no
    diffusive or tactic flux.
    """
    out = []
    for a in range(grid.dim):
        f = np.zeros(grid.face_shape(a))
        lo, hi = w[grid.lo[a]], w[grid.hi[a]]
        if mode == "arithmetic":
            f[grid.inner[a]] = 0.5 * (lo + hi)
        elif mode == "geometric":
            f[grid.inner[a]] = np.sqrt(lo * hi)
        else:
            raise ValueError(f"avg_mode must be one of {AVG_MODES}, got {mode!r}")
        out.append(f)
    return out


def face_diffusivity(grid: Grid, u: np.ndarray, v: np.ndarray, mode: str) -> FaceData:
    """Face coefficient of the degenerate diffusion, the averaged product u*v."""
    return face_average(grid, u * v, mode)


def _power(u: np.ndarray, a: float) -> np.ndarray:
    if a == 1.0:
        return u
    if a == 0.0:
        return np.ones_like(u)
    return u ** a


def _rhs_core(state: State, params: Params):
    """Right-hand side plus the shared intermediates the stepper reuses."""
    g, u, v = state.grid, state.u, state.v
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        uv = u * v
        gu = g.face_gradient(u)
        gv = g.face_gradient(v)
        dcoef = face_average(g, uv, params.avg_mode)
        du = g.div_faces([dcoef[a] * gu[a] for a in range(g.dim)])
        lap_v = g.div_faces(gv)
        if params.chi != 0.0:
            acoef = face_average(g, _power(u, params.alpha) * v, params.avg_mode)
            du = du - params.chi * g.div_faces([acoef[a] * gv[a] for a in range(g.dim)])
        if params.ell != 0.0:
            du = du + params.ell * uv
        dv = lap_v - uv
    if not np.isfinite(du).all() or not np.isfinite(dv).all():
        bad = np.argwhere(~(np.isfinite(du) & np.isfinite(dv)))[0]
        raise FloatingPointError(f"rhs overflow at cell {tuple(int(i) for i in bad)}")
    return du, dv, gu, gv, uv, lap_v


def assemble_rhs(state: State, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (du/dt, dv/dt) of the flux-form semi-discretization.

    Both flux divergences integrate to zero by telescoping, so
    integrate(du) == ell * integrate(u v) and integrate(dv) == -integrate(u v)
    up to rounding; the stepper's exact discrete mass law rests on this.
    """
    du, dv, *_ = _rhs_core(state, params)
    return du, dv
