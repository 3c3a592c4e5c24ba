"""Norm monitors, explicit theory constants, and outcome classifiers.

The boundedness threshold theta0 comes from minimizing

    h(eta) = eta + c2 * C * eta**(-gamma0) * chi**(gamma0 + 1)

over eta > 0, where c2 is a universal constant (the supremum of
(1/g)(1+1/g)**(-(g+1)) over g > 1, equal to 1/4) and C is the maximal
space-time regularity constant of the signal equation. C is not available
analytically; it is either supplied by the user or estimated empirically
from a simulated trajectory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Domain, Field, integrate, laplacian_neumann
from .model import ModelParams
from .stepper import ObserverSample, RunStatus, SimState, StepperConfig


class TheoryRegime(str, enum.Enum):
    SUBCRITICAL_BOUNDED = "SubcriticalBounded"
    SUPERCRITICAL_UNBOUNDED_POSSIBLE = "SupercriticalUnboundedPossible"
    SUB_LOGISTIC_BOUNDED = "SubLogisticBounded"
    CRITICAL_BOUNDED_BY_LOGISTIC = "CriticalBoundedByLogistic"
    CRITICAL_UNDETERMINED = "CriticalUndetermined"


class RunOutcome(str, enum.Enum):
    BOUNDED = "Bounded"
    BLOWUP = "BlowUp"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class TheoryConstants:
    """The explicit constants entering the boundedness threshold."""

    gamma0: float
    c2: float
    C_reg: float
    theta0: float

    def __post_init__(self):
        if not self.gamma0 > 1.0:
            raise ValueError(f"gamma0 must exceed 1, got {self.gamma0}")
        if not (0.0 < self.c2 <= 0.26):
            raise ValueError(f"c2 must lie in (0, 0.26], got {self.c2}")
        if not self.C_reg > 0.0:
            raise ValueError(f"C_reg must be positive, got {self.C_reg}")
        if not self.theta0 > 0.0:
            raise ValueError(f"theta0 must be positive, got {self.theta0}")

    @classmethod
    def compute(cls, gamma0: float, chi: float, C_reg: float) -> "TheoryConstants":
        th, _ = theta0(gamma0, chi, C_reg)
        return cls(gamma0=gamma0, c2=c2_constant(), C_reg=C_reg, theta0=th)


def lgamma_norm(u: Field, gamma: float, d: Domain) -> float:
    """L^gamma norm, (integral of u**gamma) ** (1/gamma), for gamma >= 1.

    Entries within round-off of zero are clipped; genuinely negative data is
    rejected.
    """
    if not gamma >= 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    vals = u.values
    lo = float(np.min(vals))
    if lo < 0.0:
        scale = max(1.0, float(np.max(np.abs(vals))))
        if lo < -1.0e-12 * scale:
            raise ValueError("lgamma_norm requires a nonnegative field")
        vals = np.maximum(vals, 0.0)
    return float(integrate(Field(vals**gamma, d), d) ** (1.0 / gamma))


def c2_constant() -> float:
    """Supremum over g > 1 of (1/g)(1 + 1/g)**(-(g+1)).

    The map is strictly decreasing on (1, inf), so the supremum is its
    limit at g -> 1+, exactly 1/4.
    """
    return 0.25


def mu_threshold(gamma: float, eta: float, chi: float, C_reg: float) -> float:
    """Damping level eta + c2 * C_reg * eta**(-gamma) * chi**(gamma+1)."""
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    for name, val in (("eta", eta), ("chi", chi), ("C_reg", C_reg)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val}")
    return eta + c2_constant() * C_reg * eta**(-gamma) * chi**(gamma + 1.0)


def theta0(gamma0: float, chi: float, C_reg: float) -> tuple[float, float]:
    """Boundedness threshold for the sensitivity-to-damping ratio chi/mu.

    Minimizes h(eta) = eta + c2*C_reg*eta**(-gamma0)*chi**(gamma0+1) in
    closed form,

        eta* = (gamma0 * c2 * C_reg)**(1/(gamma0+1)) * chi,
        h(eta*) = eta* * (1 + 1/gamma0),

    and returns (chi / h(eta*), eta*). The closed form is cross-checked
    against a golden-section minimization on every call; disagreement
    beyond 1e-10 relative raises RuntimeError. theta0 is scale-free in chi.
    """
    for name, val in (("gamma0", gamma0), ("chi", chi), ("C_reg", C_reg)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val}")
    if not gamma0 > 1.0:
        raise ValueError(f"gamma0 must exceed 1, got {gamma0}")
    c2 = c2_constant()
    eta_star = (gamma0 * c2 * C_reg) ** (1.0 / (gamma0 + 1.0)) * chi
    h_star = eta_star * (1.0 + 1.0 / gamma0)

    h = lambda eta: mu_threshold(gamma0, eta, chi, C_reg)
    eta_num = _golden_section(h, eta_star * 1.0e-6, eta_star * 1.0e6,
                              rel_tol=1.0e-12)
    h_num = h(eta_num)
    if abs(h_num - h_star) > 1.0e-10 * abs(h_star):
        raise RuntimeError(
            f"threshold closed form disagrees with numeric minimization: "
            f"{h_star!r} vs {h_num!r}"
        )
    return chi / h_star, eta_star


def _golden_section(f, lo: float, hi: float, rel_tol: float) -> float:
    """Minimize a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1.0e-300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def estimate_c_reg(samples: Sequence[tuple[float, Field, Field]], r: float,
                   params: ModelParams, s0_time: float,
                   weight_ref_time: float | None = None) -> float:
    """Empirical lower bound on the maximal regularity constant.

    From trajectory samples (t, u, v) at strictly increasing times starting
    at ``s0_time``, accumulates the exponentially weighted space-time
    integrals

        LHS = sum_i e^{(r/tau)(t_i - T)} * integral(|lap v|^r) * dt_i
        DEN = sum_i e^{(r/tau)(t_i - T)} * integral(u^r) * dt_i
              + tau * e^{(r/tau)(s0 - T)} * (||v(s0)||_r^r + ||lap v(s0)||_r^r)

    and returns LHS / DEN. Each sample is weighted by its own interval,
    ``dt_i = t_{i+1} - t_i``, and the last one by the interval before it, so
    uniform spacing dt gives every sample the weight dt; the uneven sample
    times of an adaptive-dt run (one sample every few steps) need no
    resampling. The exponential weights are referenced to the final time T
    so the common factor e^{(r/tau) T} cancels instead of overflowing; any
    other reference time gives the identical ratio (``weight_ref_time``
    exists to let callers verify exactly that).
    """
    if not r > 1.0:
        raise ValueError(f"r must exceed 1, got {r}")
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to integrate in time")
    times = np.array([s[0] for s in samples], dtype=np.float64)
    dts = np.diff(times)
    if not np.all(dts > 0.0):
        raise ValueError("sample times must be strictly increasing")
    dts = np.append(dts, dts[-1]).tolist()
    if abs(times[0] - s0_time) > 1.0e-9 * max(1.0, abs(times[-1])):
        raise ValueError(
            f"first sample at t={times[0]} does not match s0_time={s0_time}"
        )
    d = samples[0][1].domain
    t_ref = float(times[-1]) if weight_ref_time is None else float(weight_ref_time)
    rate = r / params.tau

    lhs = 0.0
    den = 0.0
    for (t, u, v), dt in zip(samples, dts):
        w = math.exp(rate * (t - t_ref))
        lap_v = laplacian_neumann(v, d)
        lhs += w * integrate(Field(np.abs(lap_v.values) ** r, d), d) * dt
        den += w * integrate(Field(np.abs(u.values) ** r, d), d) * dt
    _, v0 = samples[0][0], samples[0][2]
    lap_v0 = laplacian_neumann(v0, d)
    w0 = math.exp(rate * (s0_time - t_ref))
    den += params.tau * w0 * (
        integrate(Field(np.abs(v0.values) ** r, d), d)
        + integrate(Field(np.abs(lap_v0.values) ** r, d), d)
    )
    if den == 0.0:
        if lhs > 0.0:
            raise RuntimeError("zero forcing but nonzero curvature accumulation")
        return 0.0
    return lhs / den


def classify_theory(p: float, q: float, n: int, chi: float, mu: float,
                    theta0_est: float) -> TheoryRegime:
    """Map exponents and coefficients to the analytically known regimes.

    Rule order: sensitivity growth below linear always damps blow-up;
    above linear the sign of (q - p) - 2/n decides; exactly linear is the
    balanced case where chi/mu against the threshold decides, and the
    threshold test failing leaves the case open. The measure-zero borderline
    q - p == 2/n (with q > 1) is reported as undetermined as well.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    for name, val in (("chi", chi), ("mu", mu), ("theta0_est", theta0_est)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val}")
    if q < 1.0:
        return TheoryRegime.SUB_LOGISTIC_BOUNDED
    if q > 1.0:
        gap = q - p
        critical = 2.0 / n
        if gap < critical:
            return TheoryRegime.SUBCRITICAL_BOUNDED
        if gap > critical:
            return TheoryRegime.SUPERCRITICAL_UNBOUNDED_POSSIBLE
        return TheoryRegime.CRITICAL_UNDETERMINED
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
