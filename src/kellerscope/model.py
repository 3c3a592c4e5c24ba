"""Coefficient families, the density's flux divergences and the steady
state.

The cell density u diffuses with density-dependent diffusivity phi(u),
drifts up the gradient of the signal v with sensitivity chi, and grows
logistically, g(u) = a*u - mu*u**2. The signal relaxes toward u:
tau * v_t = lap(v) - v + u. The time step moves u by one divergence of both
fluxes (:func:`_transport`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import Domain, Field, _check_on, _divergence, _upper, _upwind_flux


class PhiFamily(str, enum.Enum):
    CANONICAL = "canonical"   # phi(s) = k * (1 + s)**p
    LINEAR = "linear"         # phi(s) = k


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients. Immutable and validated at construction; every
    numeric coefficient must be finite.

    tau     relaxation time of the signal equation, > 0
    chi     chemotactic sensitivity, > 0
    mu      quadratic crowding coefficient of the growth law, > 0
    a       linear growth rate, >= 0
    k       diffusivity scale, > 0
    p       diffusivity exponent (canonical family)
    phi_family   diffusivity family selector
    reaction_on  when False the growth law is switched off entirely (g == 0);
                 this is how "no source" runs are expressed since mu must
                 stay positive.
    """

    tau: float = 1.0
    chi: float = 1.0
    mu: float = 1.0
    a: float = 0.0
    k: float = 1.0
    p: float = 0.0
    phi_family: PhiFamily = PhiFamily.CANONICAL
    reaction_on: bool = True

    def __post_init__(self):
        object.__setattr__(self, "phi_family", PhiFamily(self.phi_family))
        if self.phi_family is PhiFamily.LINEAR:
            object.__setattr__(self, "p", 0.0)
        for name in ("tau", "chi", "mu", "a", "k", "p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("tau", "chi", "mu", "k"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.a < 0.0:
            raise ValueError(f"a must be nonnegative, got {self.a}")
        # k*(1+s)**p >= k*s**p for every s > 0 exactly when p >= 0
        if self.phi_family is PhiFamily.CANONICAL and not self.p >= 0.0:
            raise ValueError(
                f"p must be >= 0 for canonical diffusivity, got {self.p}: "
                "k*(1+s)**p then falls below k*s**p for every s > 0"
            )


def phi(s, params: ModelParams):
    """Diffusivity at density s (scalar or array). Strictly positive.

    Raises ValueError for negative densities.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.min(s) < 0.0:
        raise ValueError("phi is only defined for nonnegative densities")
    out = np.full_like(s, _phi(s.copy(), params))
    return out if out.ndim else float(out)


def _phi(s, params: ModelParams):
    """phi without the sign check, for callers that validated the density
    once; ``s`` is a float, or an array that is overwritten with the
    result."""
    if params.p == 0.0:  # both families reduce to the constant k
        return params.k
    s += 1.0
    s **= params.p
    s *= params.k
    return s


def _diffusive_flux(u: np.ndarray, u_up: np.ndarray, params: ModelParams,
                    d: Domain, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """phi(face mean) * grad(u) on the stacked faces (see grid._upper),
    written into ``out``; the face diffusivity goes into ``scratch``."""
    face_phi = params.k
    if params.p != 0.0:   # a constant diffusivity needs no face mean
        face_phi = np.add(u, u_up, scratch)
        face_phi *= 0.5
        face_phi = _phi(face_phi, params)
    flux = np.subtract(u_up, u, out)
    flux *= face_phi
    flux *= d._rh
    return flux


def diffusive_divergence(u: Field, params: ModelParams, d: Domain) -> Field:
    """Flux-form divergence of phi(u) * grad(u) with zero boundary flux.

    The face diffusivity is phi evaluated at the arithmetic mean of the two
    adjacent cell values. ``params`` supplies the diffusivity family (see
    :func:`phi`).
    """
    _check_on(u, d)
    if np.min(u.values) < 0.0:
        raise ValueError("diffusive_divergence requires a nonnegative density")
    flux = _diffusive_flux(u.values, _upper(u.values, d), params, d)
    return Field._wrap(_divergence(flux, d), d)


def _transport(u: np.ndarray, w: np.ndarray, params: ModelParams, d: Domain,
               up: np.ndarray | None = None, flux: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """div(phi(u) grad u - w u) for a nonnegative ``u``: the diffusive flux
    minus the donor-cell flux against the face velocities ``w``. Writes
    into the face arrays ``up`` (the upper neighbours), ``flux`` and
    ``scratch``, whose first entry comes back as the divergence."""
    u_up = _upper(u, d, up)
    flux = _diffusive_flux(u, u_up, params, d, flux, scratch)
    flux -= _upwind_flux(u, u_up, w, scratch)
    return _divergence(flux, d, scratch)


def homogeneous_steady_state(params: ModelParams) -> tuple[float, float]:
    """Constant fixed point (u*, v*) = (a/mu, a/mu) of both equations."""
    u_star = params.a / params.mu
    return u_star, u_star
