"""Explicit theory constants, the regularity-constant estimator, and
outcome classifiers. The L^gamma norm monitor lives in :mod:`kellerscope.grid`.

The boundedness threshold theta0 is the closed-form minimum of

    h(eta) = eta + c2 * C * eta**(-gamma0) * chi**(gamma0 + 1)

over eta > 0, where c2 is the universal constant ``C2`` and C is the maximal
space-time regularity constant of the signal equation. C is not available
analytically; it is either supplied by the user or estimated empirically
from a simulated trajectory.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .grid import Field, laplacian_neumann
from .stepper import ObserverSample, RunStatus, SimState, StepperConfig


class TheoryRegime(str, enum.Enum):
    CRITICAL_BOUNDED_BY_LOGISTIC = "CriticalBoundedByLogistic"
    CRITICAL_UNDETERMINED = "CriticalUndetermined"


class RunOutcome(str, enum.Enum):
    BOUNDED = "Bounded"
    BLOWUP = "BlowUp"
    UNDECIDED = "Undecided"


# c2: the supremum over g > 1 of (1/g)(1 + 1/g)**(-(g+1)). The map is
# strictly decreasing on (1, inf), so the supremum is its limit at g -> 1+,
# exactly 1/4.
C2 = 0.25


def mu_threshold(gamma: float, eta: float, chi: float, c_reg: float) -> float:
    """Damping level eta + c2 * c_reg * eta**(-gamma) * chi**(gamma+1),
    evaluated as eta + c2 * c_reg * chi * (chi/eta)**gamma so that a large
    chi near its optimal eta does not overflow."""
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    for name, val in (("eta", eta), ("chi", chi), ("c_reg", c_reg)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val}")
    return eta + C2 * c_reg * chi * (chi / eta)**gamma


def theta0(gamma0: float, chi: float, c_reg: float) -> tuple[float, float]:
    """Boundedness threshold for the sensitivity-to-damping ratio chi/mu.

    The minimum of h(eta) = eta + c2*c_reg*eta**(-gamma0)*chi**(gamma0+1)
    over eta > 0 has the closed form

        eta* = (gamma0 * c2 * c_reg)**(1/(gamma0+1)) * chi,
        h(eta*) = eta* * (1 + 1/gamma0),

    and theta0 returns (chi / h(eta*), eta*). theta0 is scale-free in chi.
    Raises ValueError when eta* or h(eta*) is not finite.
    """
    for name, val in (("gamma0", gamma0), ("chi", chi), ("c_reg", c_reg)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val}")
    if not 1.0 < gamma0 < math.inf:
        raise ValueError(f"gamma0 must be finite and exceed 1, got {gamma0}")
    eta_star = (gamma0 * C2 * c_reg) ** (1.0 / (gamma0 + 1.0)) * chi
    h_star = eta_star * (1.0 + 1.0 / gamma0)
    if not (math.isfinite(eta_star) and math.isfinite(h_star)):
        raise ValueError(f"threshold not finite at gamma0={gamma0!r}, chi={chi!r}, "
                         f"c_reg={c_reg!r}: eta*={eta_star!r}, h(eta*)={h_star!r}")
    return chi / h_star, eta_star


def estimate_c_reg(samples: Sequence[tuple[float, Field, Field]], r: float,
                   tau: float) -> float:
    """Empirical lower bound on the maximal regularity constant.

    From trajectory samples (t, u, v) at strictly increasing times s0 = t_0
    < ... < t_n = T, with ``tau`` the signal's relaxation time, accumulates
    the exponentially weighted space-time integrals

        LHS = sum_i e^{(r/tau)(t_i - T)} * integral(|lap v|^r) * dt_i
        DEN = sum_i e^{(r/tau)(t_i - T)} * integral(u^r) * dt_i
              + tau * e^{(r/tau)(s0 - T)} * (||v(s0)||_r^r + ||lap v(s0)||_r^r)

    and returns LHS / DEN. Each sample is weighted by its own interval,
    ``dt_i = t_{i+1} - t_i``, and the last one by the interval before it, so
    uniform spacing dt gives every sample the weight dt; the uneven sample
    times of an adaptive-dt run (one sample every few steps) need no
    resampling. The exponential weights are referenced to the final time T,
    so the common factor e^{(r/tau) T} cancels instead of overflowing, and
    shifting every sample time by the same amount leaves the ratio as it is.
    """
    if not r > 1.0:
        raise ValueError(f"r must exceed 1, got {r}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to integrate in time")
    times = np.array([s[0] for s in samples], dtype=np.float64)
    dts = np.diff(times)
    if not np.all(dts > 0.0):
        raise ValueError("sample times must be strictly increasing")
    dts = np.append(dts, dts[-1]).tolist()
    s0, u0, v0 = samples[0]
    d = u0.domain
    t_ref = float(times[-1])
    rate = r / tau

    def norm_r(f: Field) -> float:   # ||f||_r^r, the midpoint rule
        return float(np.sum(np.abs(f.values) ** r)) * d.cell_volume

    lhs = 0.0
    den = 0.0
    for (t, u, v), dt in zip(samples, dts):
        w = math.exp(rate * (t - t_ref))
        lhs += w * norm_r(laplacian_neumann(v, d)) * dt
        den += w * norm_r(u) * dt
    w0 = math.exp(rate * (s0 - t_ref))
    den += tau * w0 * (norm_r(v0) + norm_r(laplacian_neumann(v0, d)))
    if den == 0.0:
        if lhs > 0.0:
            raise RuntimeError("zero forcing but nonzero curvature accumulation")
        return 0.0
    return lhs / den


def classify_theory(chi: float, mu: float, theta0_est: float) -> TheoryRegime:
    """The regime the theory assigns to a cell of linear sensitivity: the
    logistic damping bounds the solution when chi/mu lies below the
    threshold, and a ratio at or above it leaves the case open."""
    for name, val in (("chi", chi), ("mu", mu), ("theta0_est", theta0_est)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val}")
    if chi / mu < theta0_est:
        return TheoryRegime.CRITICAL_BOUNDED_BY_LOGISTIC
    return TheoryRegime.CRITICAL_UNDETERMINED


SETTLE_WINDOW_FRAC = 0.2
SETTLE_DRIFT_TOL = 0.05
SPIKE_FACTOR = 10.0


def classify_run(final: SimState, series: Sequence[ObserverSample],
                 cfg: StepperConfig) -> RunOutcome:
    """Label a completed run Bounded, BlowUp or Undecided.

    Bounded requires a Finished status, a sup-norm that settled (relative
    spread below ``SETTLE_DRIFT_TOL`` over the trailing
    ``SETTLE_WINDOW_FRAC`` of samples) and no excursion above
    ``SPIKE_FACTOR`` times the series median.
    """
    if final.status is RunStatus.BLOWUP:
        return RunOutcome.BLOWUP
    if final.status is not RunStatus.FINISHED or len(series) < 2:
        return RunOutcome.UNDECIDED
    sup = np.array([s.sup_u for s in series], dtype=np.float64)
    window = sup[-max(2, math.ceil(SETTLE_WINDOW_FRAC * len(sup))):]
    spread = float(window.max() - window.min())
    settled = spread < SETTLE_DRIFT_TOL * max(abs(float(window.max())), 1.0e-300)
    median = float(np.median(sup))
    if median == 0.0:
        no_spike = float(sup.max()) == 0.0
    else:
        no_spike = float(sup.max()) <= SPIKE_FACTOR * median
    return RunOutcome.BOUNDED if (settled and no_spike) else RunOutcome.UNDECIDED
