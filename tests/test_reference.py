"""Runs checked against closed forms: the discrete eigenmodes of the nutrient equation,
with the accumulators they feed, and the logistic law of homogeneous data, whose error
measures the scheme's order in time."""

import math

import numpy as np
import pytest

from dtaxis import Grid, InitialData, Params, StepControl, build_initial, run


@pytest.mark.parametrize("grid, k", [(Grid(64), 2), (Grid((16, 16), (1.0, 2.0)), 1),
                                     (Grid((8, 8, 8)), 1)])
def test_a_cosine_mode_of_v_decays_by_its_discrete_eigenvalue(grid, k):
    # chi = ell = 0 and constant u = c: u never moves, and v = b + a phi, with phi the product
    # of cos(k pi x / L) over the axes, an eigenvector of the Neumann Laplacian for -lambda_k
    b, a = 1.0, 0.3
    params = Params(alpha=1.25, epsilon=0.01, chi=0.0, ell=0.0)
    start = build_initial(grid, InitialData(kind="constant", u_amplitude=0.5, v_base=b,
                                            v_amplitude=a, v_mode=k), params)
    dts = []
    traj = run(start, params, StepControl(t_end=0.05),
               observers=[lambda prev, new, dt: dts.append(dt)])
    final, c = traj.final, float(start.u.flat[0])
    assert final.u.tobytes() == start.u.tobytes()

    lam = sum(4.0 / h ** 2 * math.sin(k * math.pi * h / (2.0 * L)) ** 2
              for h, L in zip(grid.h, grid.lengths))
    phi = math.prod(np.cos(k * np.pi * x / L) for x, L in zip(grid.mesh(), grid.lengths))
    dts = np.array(dts)
    # the mean and the mode before each step, then after the last
    bs = b * np.cumprod(np.concatenate([[1.0], 1.0 - dts * c]))
    as_ = a * np.cumprod(np.concatenate([[1.0], 1.0 - dts * (lam + c)]))
    np.testing.assert_allclose(final.v, bs[-1] + as_[-1] * phi, rtol=1e-13, atol=0.0)

    volume, phi_sq = math.prod(grid.lengths), math.prod(grid.lengths) / 2 ** grid.dim
    acc = final.acc
    assert acc.uv == pytest.approx(np.sum(dts * c * bs[:-1]) * volume, rel=1e-12)
    assert acc.u_gradv_sq == pytest.approx(np.sum(dts * c * lam * as_[:-1] ** 2) * phi_sq,
                                           rel=1e-12)
    assert acc.lap_v_sq == pytest.approx(np.sum(dts * lam ** 2 * as_[:-1] ** 2) * phi_sq,
                                         rel=1e-12)


def test_homogeneous_data_follow_the_logistic_law_at_first_order_in_dt():
    # constant data with ell = 1: u' = u v and v' = -u v keep S = u + v, so
    # v(t) = S v0 / (v0 + (S - v0) e^(S t)); forward Euler halves its error with dt
    params = Params(alpha=1.25, epsilon=0.01, ell=1.0)
    start = build_initial(Grid(2), InitialData(kind="constant", u_amplitude=0.5), params)
    u0, v0 = float(start.u[0]), float(start.v[0])
    s = u0 + v0
    errors = []
    for dt_max in (1e-3, 5e-4, 2.5e-4):
        final = run(start, params, StepControl(t_end=1.0, dt_max=dt_max)).final
        exact = s * v0 / (v0 + (s - v0) * math.exp(s * final.t))
        errors.append(float(np.max(np.abs(final.v - exact))))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(1.8 <= r <= 2.2 for r in ratios), (errors, ratios)
