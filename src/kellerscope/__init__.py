"""Finite-volume simulator and theory diagnostics for chemotaxis with
logistic growth on boxes with zero-flux walls."""

from .diagnostics import (C2, RunOutcome, TheoryRegime, classify_run, classify_theory,
                          estimate_c_reg, mu_threshold, theta0)
from .grid import (Domain, Field, GridShapeError, HelmholtzError, chemotactic_divergence,
                   integrate, laplacian_neumann, lgamma_norm, solve_helmholtz)
from .ic import ICName, ICSpec, build_ic
from .model import (ModelParams, PhiFamily, diffusive_divergence,
                    homogeneous_steady_state, phi)
from .stepper import (ObserverSample, RunResult, RunStatus, SimState, StepperConfig,
                      run, run_state, stable_dt, step)
from .sweep import RegimeMap, RunRecord, SweepSpec, regime_map, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Domain", "Field", "GridShapeError", "laplacian_neumann",
    "chemotactic_divergence", "integrate", "lgamma_norm",
    "ModelParams", "PhiFamily", "phi", "diffusive_divergence",
    "homogeneous_steady_state",
    "StepperConfig", "SimState", "RunStatus", "RunResult", "ObserverSample",
    "HelmholtzError", "solve_helmholtz", "stable_dt", "step", "run", "run_state",
    "TheoryRegime", "RunOutcome",
    "C2", "mu_threshold", "theta0", "estimate_c_reg",
    "classify_theory", "classify_run",
    "ICName", "ICSpec", "build_ic",
    "SweepSpec", "RunRecord", "RegimeMap", "run_sweep", "regime_map",
    "__version__",
]
