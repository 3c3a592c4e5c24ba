"""Coefficient families and the semidiscrete right-hand sides.

The cell density u diffuses with density-dependent diffusivity phi(u),
drifts up the gradient of the signal v with sensitivity chi, and grows
logistically, g(u) = a*u - mu*u**2. The signal relaxes toward u:
tau * v_t = lap(v) - v + u.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid import Domain, Field, chemotactic_divergence, diffusive_divergence, laplacian_neumann


class PhiFamily(str, enum.Enum):
    CANONICAL = "canonical"   # phi(s) = k * (1 + s)**p
    LINEAR = "linear"         # phi(s) = k


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients. Immutable and validated at construction.

    tau     relaxation time of the signal equation, > 0
    chi     chemotactic sensitivity, > 0
    mu      quadratic crowding coefficient of the growth law, > 0
    a       linear growth rate, >= 0
    k       diffusivity scale, > 0
    p       diffusivity exponent (canonical family)
    s0_phi  crossover density above which k*s**p must bound phi from below, > 1
    phi_family   diffusivity family selector
    reaction_on  when False the growth law is switched off entirely (g == 0);
                 this is how "no source" runs are expressed since mu must
                 stay positive.
    """

    tau: float
    chi: float
    mu: float
    a: float = 0.0
    k: float = 1.0
    p: float = 0.0
    s0_phi: float = 2.0
    phi_family: PhiFamily = PhiFamily.CANONICAL
    reaction_on: bool = True

    def __post_init__(self):
        object.__setattr__(self, "phi_family", PhiFamily(self.phi_family))
        if self.phi_family is PhiFamily.LINEAR:
            object.__setattr__(self, "p", 0.0)
        for name in ("tau", "chi", "mu", "k"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.a < 0.0:
            raise ValueError(f"a must be nonnegative, got {self.a}")
        if not self.s0_phi > 1.0:
            raise ValueError(f"s0_phi must exceed 1, got {self.s0_phi}")
        # k*(1+s)**p >= k*s**p for every s > 0, so above s0_phi in
        # particular, exactly when p >= 0
        if self.phi_family is PhiFamily.CANONICAL and not self.p >= 0.0:
            raise ValueError(
                f"canonical diffusivity with p={self.p} falls below k*s**p "
                f"above s0_phi={self.s0_phi}; this family requires p >= 0"
            )


def phi(s, params: ModelParams):
    """Diffusivity at density s (scalar or array). Strictly positive.

    Raises ValueError for negative densities.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.min(s) < 0.0:
        raise ValueError("phi is only defined for nonnegative densities")
    out = np.full_like(s, _phi(s, params))
    return out if out.ndim else float(out)


def _phi(s, params: ModelParams):
    """phi without the sign check, for callers that validated the density
    once; ``s`` is a float or an array."""
    if params.p == 0.0:  # both families reduce to the constant k
        return params.k
    return params.k * (1.0 + s) ** params.p


def _diffusive_flux(u: np.ndarray, u_up: np.ndarray, params: ModelParams,
                    d: Domain) -> np.ndarray:
    """phi(face mean) * grad(u) on the stacked faces (see grid._upper)."""
    # a constant diffusivity (p == 0) needs no face mean
    face_phi = params.k if params.p == 0.0 else _phi(0.5 * (u + u_up), params)
    return face_phi * (u_up - u) / d._h


def g_logistic(s, params: ModelParams):
    """Growth law a*s - mu*s**2 (scalar or array); zero when reaction is off.

    Raises ValueError for negative densities.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.min(s) < 0.0:
        raise ValueError("the growth law is only defined for nonnegative densities")
    if not params.reaction_on:
        out = np.zeros_like(s)
    else:
        out = params.a * s - params.mu * s**2
    return out if out.ndim else float(out)


def rhs_u(u: Field, v: Field, params: ModelParams, d: Domain) -> Field:
    """Semidiscrete time derivative of the cell density."""
    diff = diffusive_divergence(u, params, d)
    chemo = chemotactic_divergence(u, v, params.chi, d)
    return Field(diff.values - chemo.values + g_logistic(u.values, params), d)


def rhs_v(u: Field, v: Field, params: ModelParams, d: Domain) -> Field:
    """Semidiscrete time derivative of the signal: (lap(v) - v + u) / tau."""
    lap = laplacian_neumann(v, d)
    return Field((lap.values - v.values + u.values) / params.tau, d)


def homogeneous_steady_state(params: ModelParams) -> tuple[float, float]:
    """Constant fixed point (u*, v*) = (a/mu, a/mu) of both equations."""
    u_star = params.a / params.mu
    return u_star, u_star
