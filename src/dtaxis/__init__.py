"""dtaxis: a finite-volume laboratory for doubly degenerate nutrient taxis.

The package simulates the coupled cell-density / nutrient system

    du/dt = div(u v grad u) - chi div(u^alpha v grad v) + ell u v
    dv/dt = lap v - u v

on a box with no-flux walls, and ships the measurement apparatus around it:
monitored functionals, discrete balance-law residuals, functional-inequality
testers, and the bootstrap exponent recursions of the three chemotactic
regimes.
"""

from .diagnostics import (MonitorRow, ResidualReport, check_first_energy,
                          check_log_hessian, check_sobolev_product, monitor_row,
                          residual_rows, residual_upvq_identity, residual_v_energy)
from .exponents import (ExponentTriple, moderate_seq, moderate_seq_hat, p0_sup,
                        strong_seq, verify_regime_lemmas, weak_feedback_p)
from .grid import FaceData, Grid
from .model import Accumulators, InitialData, Params, State, build_initial
from .stepper import StepControl, StepRejected, Trajectory, run, step

__version__ = "0.1.0"

__all__ = [
    "Accumulators", "ExponentTriple", "FaceData", "Grid", "InitialData", "MonitorRow",
    "Params", "ResidualReport", "State", "StepControl", "StepRejected", "Trajectory",
    "build_initial", "check_first_energy", "check_log_hessian", "check_sobolev_product",
    "moderate_seq", "moderate_seq_hat", "monitor_row", "p0_sup", "residual_rows",
    "residual_upvq_identity", "residual_v_energy", "run", "step", "strong_seq",
    "verify_regime_lemmas", "weak_feedback_p",
]
