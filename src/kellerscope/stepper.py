"""IMEX time integration and run orchestration.

One step advances the signal first with backward Euler (a Helmholtz solve
with the zero-flux Laplacian), then the density explicitly against the fresh
signal, with the quadratic sink treated semi-implicitly so the update can
never produce a negative density on its own. Step size comes from explicit
stability limits; blow-up is detected, never resolved.

The 1D signal solve calls LAPACK ``dgtsv`` from scipy. Loading
``scipy.linalg`` costs more start-up time than the rest of the package, so
it is imported on the first 1D solve and kept (see :func:`_gtsv`); a 2D run
never loads it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (Domain, Field, _divergence, _eigenbasis, _face_velocity, _grad,
                   _upper, _upwind_flux, integrate)
from .model import ModelParams, _diffusive_flux, _phi


class HelmholtzError(RuntimeError):
    """Helmholtz solve failed to meet its residual target."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


class RunStatus(str, enum.Enum):
    RUNNING = "Running"
    FINISHED = "Finished"
    BLOWUP = "BlowUp"
    STALLED_DT = "StalledDt"


@dataclass(frozen=True)
class StepperConfig:
    """Time-integration controls.

    blowup_threshold: sup-norm level that flags blow-up. None means
    "resolve from the initial data": run() replaces it with
    1e6 * max(1, sup u0).

    stall_patience: consecutive steps pinned below dt_min with a growing
    sup-norm before the run is declared stalled.
    """

    dt_init: float = 1.0e-3
    dt_min: float = 1.0e-9
    dt_max: float = 1.0e-1
    safety: float = 0.9
    blowup_threshold: float | None = None
    t_end: float = 1.0
    observer_stride: int = 10
    series_gamma: float = 3.0
    stall_patience: int = 50
    max_steps: int = 5_000_000
    helmholtz_tol: float = 1.0e-10
    helmholtz_maxiter: int = 20_000

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                f"dt_min must satisfy 0 < dt_min <= dt_init <= dt_max, got "
                f"({self.dt_min}, {self.dt_init}, {self.dt_max})"
            )
        if not (0.0 < self.safety <= 1.0):
            raise ValueError(f"safety must lie in (0, 1], got {self.safety}")
        if self.blowup_threshold is not None and not self.blowup_threshold > 1.0:
            raise ValueError(f"blowup_threshold must exceed 1, got {self.blowup_threshold}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.observer_stride < 1:
            raise ValueError(f"observer_stride must be >= 1, got {self.observer_stride}")
        if not self.series_gamma >= 1.0:
            raise ValueError(f"series_gamma must be >= 1, got {self.series_gamma}")


@dataclass(frozen=True)
class SimState:
    """Snapshot of a simulation: time, both fields, bookkeeping.

    A state made by :func:`step` carries its signal's face gradient and
    Laplacian to the next step; any other way of building a state
    (``SimState(...)``, ``dataclasses.replace``, a snapshot read) starts
    without them and the next step recomputes them. A state's arrays must
    therefore not be mutated in place.
    """

    t: float
    u: Field
    v: Field
    steps: int = 0
    status: RunStatus = RunStatus.RUNNING
    stall_steps: int = 0   # consecutive dt-pinned steps with growing sup-norm
    # (grad v, lap v) from the step that made this state; see _stencil
    _ops: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False)

    @property
    def domain(self) -> Domain:
        return self.u.domain


@dataclass(frozen=True)
class ObserverSample:
    """One diagnostics row of a run's time series."""

    t: float
    dt: float
    mass: float
    sup_u: float
    sup_v: float
    l2_u: float
    lgamma_u: float
    status: str


@dataclass(frozen=True)
class RunResult:
    final: SimState
    series: list[ObserverSample]
    snapshots: list[tuple[float, Field, Field]] = field(default_factory=list)


def solve_helmholtz(rhs: Field, alpha: float, d: Domain,
                    tol: float = 1.0e-10, maxiter: int = 20_000,
                    x0: Field | None = None) -> Field:
    """Solve (alpha*I - lap) w = rhs with the zero-flux Laplacian.

    Residual-checked passes of the exact inverse (tridiagonal elimination in
    1D, the DCT-II eigenbasis in 2D), warm-started from ``x0`` when given
    (time steppers pass the previous signal), for at most ``maxiter``
    passes. The result satisfies
    ||(alpha*I - lap) w - rhs||_inf <= tol * ||rhs||_inf.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if rhs.domain != d:
        raise ValueError("rhs does not live on the given domain")
    # near-overflow fields pass through here on the way to blow-up
    # detection; let the non-finite values propagate silently
    with np.errstate(over="ignore", invalid="ignore"):
        w, _, _ = _solve_helmholtz(rhs.values, alpha, d, tol, maxiter,
                                   None if x0 is None else x0.values)
    return Field(w, d)


def _stencil(v: np.ndarray, d: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Face gradient and Laplacian of a signal: the one stencil pass a
    signal state needs, and the only place the signal solve takes a
    Laplacian. The gradient is already zero on the upper walls, so the
    divergence leaves it as it is (for finite ``v``)."""
    g = _grad(v, d)
    return g, _divergence(g, d)


def _solve_helmholtz(rhs: np.ndarray, alpha: float, d: Domain, tol: float,
                     maxiter: int, x0: np.ndarray | None,
                     ops0: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unvalidated core of :func:`solve_helmholtz`.

    Starts from ``x0`` (or ``rhs/alpha``, exact for constants) and checks the
    true residual against ``tol * max|rhs|``; until it is met, each pass adds
    the exact inverse applied to the residual, which removes all but the
    rounding. A warm start that already meets the target comes back
    unchanged. Raises :class:`HelmholtzError` when the residual is
    non-finite, stops shrinking (the target lies below rounding level), or
    still misses the target after ``maxiter`` passes.

    ``ops0`` is the known ``_stencil`` of ``x0``, which spares the warm
    start's residual its stencil pass. Returns the solution with its own
    ``_stencil``, the one the last residual check used.
    """
    scale = float(np.abs(rhs).max())
    if scale == 0.0:
        x = np.zeros(d.shape)
        return (x, *_stencil(x, d))
    x, ops = (rhs / alpha, None) if x0 is None else (x0.copy(), ops0)
    last = math.inf
    for passes in itertools.count():
        g, lap = _stencil(x, d) if ops is None else ops
        r = rhs - (alpha * x - lap)
        res = float(np.abs(r).max())
        if res <= tol * scale:
            return x, g, lap
        if not res < last or passes >= maxiter:  # also trips on a non-finite residual
            raise HelmholtzError(f"Helmholtz solve missed its residual target "
                                 f"after {passes} passes", res / scale)
        last = res
        x += _helmholtz_inverse(r, alpha, d)
        ops = None


def _helmholtz_inverse(r: np.ndarray, alpha: float, d: Domain) -> np.ndarray:
    """(alpha*I - lap)^-1 r, exact up to rounding.

    1D eliminates the tridiagonal matrix with LAPACK ``gtsv``. 2D transforms
    into the Laplacian's eigenbasis (see ``grid._eigenbasis``), divides by
    the eigenvalues of alpha*I - lap and transforms back: four matmuls.
    """
    if d.dim == 1:
        n = d.cells[0]
        inv_h2 = 1.0 / d.spacing[0] ** 2
        diag = np.full(n, alpha + 2.0 * inv_h2)
        diag[0] = diag[-1] = alpha + inv_h2
        off = np.full(n - 1, -inv_h2)
        *_, w, info = _gtsv()(off, diag, off, r)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return w
    (c0, lam0), (c1, lam1) = _eigenbasis(d)
    return c0.T @ ((c0 @ r @ c1.T) / (alpha + lam0[:, None] + lam1)) @ c1


@functools.cache
def _gtsv():
    """LAPACK ``dgtsv``, imported on the first call and kept."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _dt_limit(u_max: float, w: np.ndarray, params: ModelParams, d: Domain,
              cfg: StepperConfig) -> float:
    """Safety-scaled explicit stability limit (unclipped): the dt rule.

    ``u_max`` is the largest density (at least 0) and ``w`` the stacked face
    velocities of the signal (see ``grid._face_velocity``). The rates add:
    diffusion contributes 2*max(phi)/h^2 per axis, advection the largest
    face speed over h per axis, the growth law a + 2*mu*max(u). Summing the
    rates (rather than taking the smallest individual limit) is what makes
    the donor-cell update provably nonnegative when several mechanisms act
    at once; with a single active mechanism it reduces to the familiar
    per-term limits, e.g. h^2/(2*dim*max phi) for isotropic diffusion.
    """
    # accepted diffusivity families are nondecreasing, so the face maximum
    # is bounded by phi at the largest cell value
    phi_max = _phi(u_max, params)
    rate = 0.0
    for h, w_max in zip(d.spacing, np.abs(w).reshape(d.dim, -1).max(axis=1).tolist()):
        rate += 2.0 * phi_max / h**2
        rate += w_max / h
    if params.reaction_on:
        rate += params.a + 2.0 * params.mu * u_max
    return cfg.safety / rate


def _clip_dt(dt: float, cfg: StepperConfig) -> float:
    return min(cfg.dt_max, max(cfg.dt_min, dt))


def stable_dt(u: Field, v: Field, params: ModelParams, d: Domain,
              cfg: StepperConfig) -> float:
    """Safety-scaled explicit stability limit, clipped to [dt_min, dt_max]."""
    u_max = max(float(u.values.max()), 0.0)
    w = _face_velocity(v.values, params.chi, d)
    return _clip_dt(_dt_limit(u_max, w, params, d, cfg), cfg)


def _resolve_threshold(cfg: StepperConfig, sup_u: float) -> float:
    if cfg.blowup_threshold is not None:
        return cfg.blowup_threshold
    return 1.0e6 * max(1.0, sup_u)


def step(state: SimState, params: ModelParams, cfg: StepperConfig) -> SimState:
    """Advance one IMEX step; returns a new state (inputs untouched).

    Signal first: (tau/dt + 1 - lap) v_new = (tau/dt) v_old + u_old.
    Density second, explicit fluxes against v_new with the quadratic sink
    folded into the denominator:
        u_new = (u_old + dt*(fluxes + a*u_old)) / (1 + dt*mu*u_old).
    The constant state (a/mu, a/mu) is a fixed point of this update for
    every dt. Solver round-off may leave fields a hair below zero; values
    within -1e-13 of the field scale are clamped back to zero.

    Raises ValueError for a state that is not running or whose density has
    a negative entry; this is the one validation of the density per step.
    """
    if state.status is not RunStatus.RUNNING:
        raise ValueError(f"cannot step a state with status {state.status.value}")
    d = state.domain
    u_old, v_old = state.u.values, state.v.values
    if float(u_old.min()) < 0.0:
        raise ValueError("cannot step a state with a negative density")
    remaining = cfg.t_end - state.t
    if remaining <= 0.0:
        return replace(state, status=RunStatus.FINISHED)
    u_max = float(u_old.max())

    # overflow is legitimate anywhere below: it surfaces as a BlowUp status
    with np.errstate(over="ignore", invalid="ignore"):
        ops_old = _stencil(v_old, d) if state._ops is None else state._ops
        dt = _clip_dt(_dt_limit(u_max, params.chi * ops_old[0], params, d, cfg), cfg)
        if state.steps == 0:
            dt = min(dt, cfg.dt_init)
        dt = min(dt, remaining)

        # The advective CFL must hold against the signal the fluxes will see,
        # which only exists after the implicit solve; re-solve with a smaller
        # dt in the rare steps where the fresh signal steepened past the
        # margin. Shrinking dt pulls v_new toward v_old, so this settles fast.
        attempts = 0
        while True:
            rhs = (params.tau / dt) * v_old + u_old
            try:
                solved, g, lap = _solve_helmholtz(
                    rhs, params.tau / dt + 1.0, d, cfg.helmholtz_tol,
                    cfg.helmholtz_maxiter, v_old, ops_old)
            except HelmholtzError as exc:
                if not math.isfinite(exc.residual):
                    # arithmetic overflow from astronomically large fields:
                    # that is blow-up territory, not a solver defect
                    return replace(state, t=state.t + dt, steps=state.steps + 1,
                                   status=RunStatus.BLOWUP)
                raise
            # the exact solve maps nonnegative data to a nonnegative signal;
            # residual noise may undershoot by up to the solve tolerance
            v_new, v_lo, v_hi = _clamp_roundoff(
                solved, band=max(1.0e-13, 10.0 * cfg.helmholtz_tol))
            if v_new is not solved:
                g, lap = _stencil(v_new, d)
            w = params.chi * g
            dt_pos = _dt_limit(u_max, w, params, d, cfg)
            attempts += 1
            if dt <= dt_pos or dt <= cfg.dt_min or attempts >= 5:
                break
            dt = max(cfg.dt_min, dt_pos)
        # stepping outside the provable-positivity region (dt floored at dt_min)
        pinned = dt > dt_pos * (1.0 + 1e-9)

        u_up = _upper(u_old, d)
        flux = _divergence(_diffusive_flux(u_old, u_up, params, d)
                           - _upwind_flux(u_old, u_up, w), d)
        if params.reaction_on:
            u_new = ((u_old + dt * (flux + params.a * u_old))
                     / (1.0 + dt * params.mu * u_old))
        else:
            u_new = u_old + dt * flux
    # pinned means out of the stability region: detection mode, where every
    # negative value is clamped to keep the state usable
    u_new, u_lo, sup_u_new = _clamp_roundoff(u_new, math.inf if pinned else 1.0e-13)

    t_new = state.t + dt
    status = RunStatus.RUNNING
    stall = 0
    if not all(map(math.isfinite, (u_lo, sup_u_new, v_lo, v_hi))):
        status = RunStatus.BLOWUP
    elif sup_u_new > _resolve_threshold(cfg, u_max):
        status = RunStatus.BLOWUP
    else:
        if pinned and sup_u_new > u_max:
            stall = state.stall_steps + 1
        if stall >= cfg.stall_patience:
            status = RunStatus.STALLED_DT
        elif t_new >= cfg.t_end - 1.0e-12 * cfg.t_end:
            status = RunStatus.FINISHED
    new = SimState(
        t=t_new,
        u=Field._wrap(u_new, d),
        v=Field._wrap(v_new, d),
        steps=state.steps + 1,
        status=status,
        stall_steps=stall,
    )
    object.__setattr__(new, "_ops", (g, lap))
    return new


def _clamp_roundoff(vals: np.ndarray, band: float = 1.0e-13
                    ) -> tuple[np.ndarray, float, float]:
    """Zero out negatives attributable to numerical noise within ``band``
    (relative to the field scale); leave anything larger alone.

    Returns the values (the input array itself when nothing was clamped)
    with the minimum and maximum of the input; a NaN or infinite entry shows
    up in one of the two.
    """
    lo, hi = float(vals.min()), float(vals.max())
    if lo < 0.0 and lo >= -band * max(1.0, hi, -lo):
        vals = np.maximum(vals, 0.0)
    return vals, lo, hi


def _sample(state: SimState, dt: float, gamma: float) -> ObserverSample:
    from .diagnostics import lgamma_norm

    d = state.domain
    u_safe = Field(np.maximum(state.u.values, 0.0), d)
    return ObserverSample(
        t=state.t,
        dt=dt,
        mass=integrate(state.u, d),
        sup_u=float(np.max(state.u.values)),
        sup_v=float(np.max(state.v.values)),
        l2_u=lgamma_norm(u_safe, 2.0, d),
        lgamma_u=lgamma_norm(u_safe, gamma, d),
        status=state.status.value,
    )


def run(u0: Field, v0: Field, params: ModelParams, cfg: StepperConfig,
        capture_fields: bool = False) -> RunResult:
    """Step from (u0, v0) at t=0 until the status leaves Running.

    The series holds one row for the initial state and one every
    ``observer_stride`` steps plus the final state. With ``capture_fields``
    the same sampling instants also keep full (t, u, v) copies, which the
    regularity-constant estimator consumes.
    """
    if np.min(u0.values) < 0.0 or np.min(v0.values) < 0.0:
        raise ValueError("initial data must be nonnegative")
    return run_state(SimState(t=0.0, u=u0.copy(), v=v0.copy()), params, cfg,
                     capture_fields)


def run_state(state: SimState, params: ModelParams, cfg: StepperConfig,
              capture_fields: bool = False) -> RunResult:
    """Continue stepping an existing state (checkpoint resume path)."""
    cfg = replace(cfg, blowup_threshold=_resolve_threshold(
        cfg, float(np.max(state.u.values))))
    start_steps = state.steps
    series: list[ObserverSample] = []
    snapshots: list[tuple[float, Field, Field]] = []

    def observe(state: SimState, dt: float) -> None:
        series.append(_sample(state, dt, cfg.series_gamma))
        if capture_fields:
            snapshots.append((state.t, state.u.copy(), state.v.copy()))

    observe(state, 0.0)
    while state.status is RunStatus.RUNNING:
        if state.steps - start_steps >= cfg.max_steps:
            state = replace(state, status=RunStatus.STALLED_DT)
            break
        prev_t = state.t
        state = step(state, params, cfg)
        if state.steps % cfg.observer_stride == 0 or state.status is not RunStatus.RUNNING:
            observe(state, state.t - prev_t)
    if series[-1].t != state.t or series[-1].status != state.status.value:
        observe(state, 0.0)
    return RunResult(final=state, series=series, snapshots=snapshots)
