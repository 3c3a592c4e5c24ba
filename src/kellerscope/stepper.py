"""IMEX time integration and run orchestration.

One step advances the signal first with backward Euler (a Helmholtz solve
with the zero-flux Laplacian), then the density explicitly against the fresh
signal, with the quadratic sink treated semi-implicitly so the update can
never produce a negative density on its own. Step size comes from explicit
stability limits; blow-up is detected, never resolved.

The Helmholtz solve inverts its operator exactly in the Laplacian's DCT-II
eigenbasis, by the same numpy code in every dimension.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .grid import (Domain, Field, _divergence, _eigenbasis, _grad, _upper, _upwind_flux,
                   integrate, lgamma_norm)
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
        for name in ("t_end", "helmholtz_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name, low in (("observer_stride", 1), ("series_gamma", 1), ("stall_patience", 1),
                          ("max_steps", 1), ("helmholtz_maxiter", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


class _Carry(NamedTuple):
    """What a run knows about its current state between two steps: the
    one stencil pass of its signal, that gradient's per-axis maxima and the
    extrema of its density and of its signal, each after its round-off clamp
    (a clamp that fired leaves a minimum of 0). :func:`_carry_of` computes
    it from a state's arrays; :func:`_step` returns the next one, and keeps
    the signal's part as it is when the signal did not move."""

    grad: np.ndarray        # face gradient of v (see _stencil)
    lap: np.ndarray         # Laplacian of v
    g_max: list[float]      # per-axis max |grad v|, see _face_max
    u_min: float
    u_max: float
    v_lo: float
    v_hi: float


@dataclass(frozen=True)
class SimState:
    """Snapshot of a simulation: time, both fields, bookkeeping.

    A plain value. :func:`step` and :func:`run_state` compute what they need
    to know about a state from these fields when they are called, however
    the state was made, so an array edited in place between calls is seen.
    """

    t: float
    u: Field
    v: Field
    steps: int = 0
    status: RunStatus = RunStatus.RUNNING
    stall_steps: int = 0   # consecutive dt-pinned steps with growing sup-norm

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

    Residual-checked passes of the exact inverse (in the Laplacian's DCT-II
    eigenbasis, by one code path for every dimension), warm-started from
    ``x0`` when given (time steppers pass the previous signal), for at most
    ``maxiter`` passes. The result satisfies
    ||(alpha*I - lap) w - rhs||_inf <= tol * ||rhs||_inf.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if rhs.domain != d:
        raise ValueError("rhs does not live on the given domain")
    # near-overflow fields pass through here on the way to blow-up
    # detection; let the non-finite values propagate silently
    with np.errstate(over="ignore", invalid="ignore"):
        w, _, _ = _solve_helmholtz(rhs.values, _amax(np.abs(rhs.values)), alpha, d,
                                   tol, maxiter, None if x0 is None else x0.values.copy())
    return Field(w, d)


def _stencil(v: np.ndarray, d: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Face gradient and Laplacian of a signal: the one stencil pass a
    signal state needs, and the only place the signal solve takes a
    Laplacian. The gradient is already zero on the upper walls, so the
    divergence leaves it as it is (for finite ``v``)."""
    g = _grad(v, d)
    return g, _divergence(g, d)


def _solve_helmholtz(rhs: np.ndarray, scale: float, alpha: float, d: Domain,
                     tol: float, maxiter: int, x0: np.ndarray | None,
                     ops0: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unvalidated core of :func:`solve_helmholtz`.

    ``scale`` is ``max|rhs|``, which a caller that knows ``rhs >= 0`` finds
    without the ``abs`` pass. Starts from ``x0`` (or ``rhs/alpha``, exact for
    constants) and checks the true residual against ``tol * scale``; until
    it is met, each pass adds the exact inverse applied to the residual,
    which removes all but the rounding. A warm start that already meets
    the target comes back as the same array. Raises :class:`HelmholtzError`
    when the residual is non-finite, stops shrinking (the target lies below
    rounding level), or still misses the target after ``maxiter`` passes.

    ``ops0`` is the known ``_stencil`` of ``x0``, which spares the warm
    start's residual its stencil pass. Returns the solution with its own
    ``_stencil``, the one the last residual check used.
    """
    if scale == 0.0:
        x = np.zeros(d.shape)
        return (x, *_stencil(x, d))
    x, ops = (rhs / alpha, None) if x0 is None else (x0, ops0)
    last = math.inf
    for passes in itertools.count():
        g, lap = _stencil(x, d) if ops is None else ops
        r = rhs - (alpha * x - lap)
        res = _amax(np.abs(r))
        if res <= tol * scale:
            return x, g, lap
        if not res < last or passes >= maxiter:  # also trips on a non-finite residual
            raise HelmholtzError(f"Helmholtz solve missed its residual target "
                                 f"after {passes} passes", res / scale)
        last = res
        x = x + _helmholtz_inverse(r, alpha, d)
        ops = None


def _helmholtz_inverse(r: np.ndarray, alpha: float, d: Domain) -> np.ndarray:
    """(alpha*I - lap)^-1 r, exact up to rounding, in any dimension.

    Transforms into the Laplacian's eigenbasis (see ``grid._eigenbasis``),
    divides by the eigenvalues of alpha*I - lap and transforms back. Each
    transform multiplies by one basis per axis: rotating the axes
    cyclically brings each axis last in turn, and after ``dim`` rotations
    they are back in their own order.
    """
    bases, lam = _eigenbasis(d)
    cyc = (*range(1, d.dim), 0)
    for c in bases:
        r = r.transpose(cyc) @ c.T
    r = r / (alpha + lam)
    for c in bases:
        r = r.transpose(cyc) @ c
    return r


def _dt_limit(u_max: float, g: np.ndarray, g_max: list[float],
              params: ModelParams, d: Domain, cfg: StepperConfig,
              enough: float) -> float:
    """Safety-scaled explicit stability limit (unclipped): the dt rule.

    ``u_max`` is the largest density (at least 0), ``g`` the signal's
    stacked face gradient (see ``grid._grad``) and ``g_max`` its per-axis
    maxima (:func:`_face_max`); the face velocities are ``chi * g``. The
    rates add: diffusion contributes 2*max(phi)/h^2 per axis, advection the
    largest face speed over h per axis, the growth law a + 2*mu*max(u).
    Summing the rates (rather than taking the smallest individual limit) is
    what makes the donor-cell update provably nonnegative when several
    mechanisms act at once; with a single active mechanism it reduces to
    the familiar per-term limits, e.g. h^2/(2*dim*max phi) for isotropic
    diffusion.

    Where the flow diverges, a cell drains through both faces of an axis,
    at up to twice the fastest face speed. When that could empty a cell
    within the step, the advection rate is raised to the fastest outflow of
    any cell (:func:`_max_outflow`). The check itself costs no array pass;
    when it trips, the velocities and the outflow cost about seven.

    ``enough`` is a dt the caller cannot tell apart from any larger limit.
    The outflow raises the rate by at most ``advection``, so when
    ``safety / (rate + advection)`` already reaches ``enough`` the outflow
    is not computed and the value returned is only known to be
    ``>= enough``. Below ``enough``, the exact limit comes back.
    """
    # accepted diffusivity families are nondecreasing, so the face maximum
    # is bounded by phi at the largest cell value
    phi_max = _phi(u_max, params)
    rate = advection = 0.0
    for h, gm in zip(d.spacing, g_max):
        # rounding is monotone, so this is the largest |chi * g| on the axis
        w_max = params.chi * gm
        rate += 2.0 * phi_max / h**2
        rate += w_max / h
        advection += w_max / h
    drain = rate + advection   # bounds diffusion plus outflow out of any cell
    if params.reaction_on:
        rate += params.a + 2.0 * params.mu * u_max
    if cfg.safety * drain > rate and cfg.safety / (rate + advection) < enough:
        rate += max(0.0, _max_outflow(params.chi * g, d) - advection)
    return cfg.safety / rate


def _face_max(g: np.ndarray) -> list[float]:
    """Per-axis maxima of |g| for a stacked face array."""
    return [_amax(a) for a in np.abs(g)]


def _amax(x: np.ndarray) -> float:
    """``x.max()`` as a float, found by index, which costs fewer numpy
    calls on small arrays. A NaN entry comes back as NaN, as from ``max``:
    ``argmax`` stops at the first NaN."""
    return x.item(x.argmax())


def _amin(x: np.ndarray) -> float:
    """``x.min()`` as a float; see :func:`_amax`."""
    return x.item(x.argmin())


def _max_outflow(w: np.ndarray, d: Domain) -> float:
    """Fastest rate at which the donor-cell flux drains a cell: the speeds
    out of each of its faces over h, summed, at the worst cell."""
    out = np.maximum(w, 0.0)
    for _, _, f_lo, f_hi, _, _ in d._axes:
        # a negative speed on a cell's lower face drains the cell too
        out[f_hi] -= np.minimum(w[f_lo], 0.0)
    return float(np.add.reduce(out / d._h, axis=0).max())


def _clip_dt(dt: float, cfg: StepperConfig) -> float:
    return min(cfg.dt_max, max(cfg.dt_min, dt))


def stable_dt(u: Field, v: Field, params: ModelParams, d: Domain,
              cfg: StepperConfig) -> float:
    """Safety-scaled explicit stability limit, clipped to [dt_min, dt_max]."""
    u_max = max(float(u.values.max()), 0.0)
    g = _grad(v.values, d)
    return _clip_dt(_dt_limit(u_max, g, _face_max(g), params, d, cfg, cfg.dt_max), cfg)


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
    Everything the step reads about the state (the extrema of both fields,
    the signal's gradient and Laplacian) is computed from its arrays on every
    call; only :func:`run_state` carries it from one step to the next.
    """
    # overflow is legitimate anywhere in a step: it surfaces as a BlowUp status
    with np.errstate(over="ignore", invalid="ignore"):
        return _step(state, _carry_of(state), params, cfg)[0]


def _carry_of(state: SimState) -> _Carry:
    """The carry of a state, computed from its arrays. This is the only
    place that does so: within a run, each step returns the next one."""
    u, v, d = state.u.values, state.v.values, state.domain
    g, lap = _stencil(v, d)
    return _Carry(g, lap, _face_max(g), _amin(u), _amax(u), _amin(v), _amax(v))


def _step(state: SimState, old: _Carry, params: ModelParams,
          cfg: StepperConfig) -> tuple[SimState, _Carry]:
    """:func:`step` from the carry ``old`` of ``state``, without the
    ``np.errstate``, which the caller holds. Returns the new state with its
    carry: the density's extrema after the clamp, so a negative entry the
    clamp left is still rejected by the next step. A signal the solve left
    where it was keeps the carry's stencil, maxima and extrema."""
    if state.status is not RunStatus.RUNNING:
        raise ValueError(f"cannot step a state with status {state.status.value}")
    d = state.domain
    u_old, v_old = state.u.values, state.v.values
    if old.u_min < 0.0:
        raise ValueError("cannot step a state with a negative density")
    remaining = cfg.t_end - state.t
    if remaining <= 0.0:
        return replace(state, status=RunStatus.FINISHED), old
    u_max = old.u_max

    # clipping makes any limit above dt_max equal to it
    dt_pre = _dt_limit(u_max, old.grad, old.g_max, params, d, cfg, cfg.dt_max)
    dt = _clip_dt(dt_pre, cfg)
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
            # nonnegative fields make rhs >= 0, whose max needs no abs
            solved, g, lap = _solve_helmholtz(
                rhs, _amax(rhs if old.v_lo >= 0.0 else np.abs(rhs)),
                params.tau / dt + 1.0, d, cfg.helmholtz_tol,
                cfg.helmholtz_maxiter, v_old, old[:2])
        except HelmholtzError as exc:
            if not math.isfinite(exc.residual):
                # arithmetic overflow from astronomically large fields:
                # that is blow-up territory, not a solver defect
                return replace(state, t=state.t + dt, steps=state.steps + 1,
                               status=RunStatus.BLOWUP), old
            raise
        if solved is v_old and old.v_lo >= 0.0:
            # the warm start met the target and no clamp can fire: the carry
            # still describes the signal, and the dt rule has the inputs it
            # had before the solve
            v_new, v_lo, v_hi, g_max = v_old, old.v_lo, old.v_hi, old.g_max
            dt_pos = dt_pre
        else:
            # the exact solve maps nonnegative data to a nonnegative signal;
            # residual noise may undershoot by up to the solve tolerance
            v_new, v_lo, v_hi = _clamp_roundoff(
                solved, band=max(1.0e-13, 10.0 * cfg.helmholtz_tol))
            if v_new is not solved:
                g, lap = _stencil(v_new, d)
            g_max = _face_max(g)
            # exact below dt; at or above it, only `dt <= dt_pos` and
            # `pinned` read it, and any value >= dt settles both
            dt_pos = _dt_limit(u_max, g, g_max, params, d, cfg, dt)
        attempts += 1
        if dt <= dt_pos or dt <= cfg.dt_min or attempts >= 5:
            break
        dt = max(cfg.dt_min, dt_pos)
    # stepping outside the provable-positivity region (dt floored at dt_min)
    pinned = dt > dt_pos * (1.0 + 1e-9)

    w = params.chi * g
    u_up = _upper(u_old, d)
    flux = _divergence(_diffusive_flux(u_old, u_up, params, d)
                       - _upwind_flux(u_old, u_up, w), d)
    if params.reaction_on:
        u_raw = ((u_old + dt * (flux + params.a * u_old))
                 / (1.0 + dt * params.mu * u_old))
    else:
        u_raw = u_old + dt * flux
    # pinned means out of the stability region: detection mode, where every
    # negative value is clamped to keep the state usable
    u_new, u_lo, sup_u_new = _clamp_roundoff(u_raw, math.inf if pinned else 1.0e-13)
    # a clamp that fired zeroed every negative entry, so the new minimum is 0
    u_extrema = (u_lo, sup_u_new) if u_new is u_raw else (0.0, max(sup_u_new, 0.0))
    v_extrema = (v_lo, v_hi) if v_new is solved else (0.0, max(v_hi, 0.0))

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
    # built past the dataclass __init__, which costs a few percent of a
    # step on tiny grids; the fields are the same
    new = object.__new__(SimState)
    new.__dict__.update(t=t_new, u=Field._wrap(u_new, d), v=Field._wrap(v_new, d),
                        steps=state.steps + 1, status=status, stall_steps=stall)
    return new, _Carry(g, lap, g_max, *u_extrema, *v_extrema)


def _clamp_roundoff(vals: np.ndarray, band: float = 1.0e-13
                    ) -> tuple[np.ndarray, float, float]:
    """Zero out negatives attributable to numerical noise within ``band``
    (relative to the field scale); leave anything larger alone.

    Returns the values (the input array itself when nothing was clamped)
    with the minimum and maximum of the input; a NaN or infinite entry shows
    up in one of the two.
    """
    lo, hi = _amin(vals), _amax(vals)
    if lo < 0.0 and lo >= -band * max(1.0, hi, -lo):
        vals = np.maximum(vals, 0.0)
    return vals, lo, hi


def _sample(state: SimState, dt: float, gamma: float) -> ObserverSample:
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
    return run_state(SimState(t=0.0, u=u0.copy(), v=v0.copy()), params, cfg,
                     capture_fields)


def run_state(state: SimState, params: ModelParams, cfg: StepperConfig,
              capture_fields: bool = False) -> RunResult:
    """Continue stepping an existing state (checkpoint resume path).

    Raises ValueError unless both fields are finite and nonnegative: the one
    check of the data a run starts from, fresh or resumed. The carry of the
    starting state is computed from its arrays once, after that check, and
    each step hands the next its own (see :class:`_Carry`); nothing outside
    the loop sees it. The whole loop, observer samples included, runs under
    one ``np.errstate`` that lets overflow through silently, as :func:`step`
    does for one step.
    """
    if not all(np.isfinite(f).all() and f.min() >= 0.0
               for f in (state.u.values, state.v.values)):
        raise ValueError("initial data must be finite and nonnegative")
    cfg = replace(cfg, blowup_threshold=_resolve_threshold(
        cfg, float(np.max(state.u.values))))
    start_steps = state.steps
    series: list[ObserverSample] = []
    snapshots: list[tuple[float, Field, Field]] = []

    def observe(state: SimState, dt: float) -> None:
        series.append(_sample(state, dt, cfg.series_gamma))
        if capture_fields:
            snapshots.append((state.t, state.u.copy(), state.v.copy()))

    with np.errstate(over="ignore", invalid="ignore"):
        carry = _carry_of(state)
        observe(state, 0.0)
        while state.status is RunStatus.RUNNING:
            if state.steps - start_steps >= cfg.max_steps:
                state = replace(state, status=RunStatus.STALLED_DT)
                break
            prev_t = state.t
            state, carry = _step(state, carry, params, cfg)
            if (state.steps % cfg.observer_stride == 0
                    or state.status is not RunStatus.RUNNING):
                observe(state, state.t - prev_t)
        if series[-1].t != state.t or series[-1].status != state.status.value:
            observe(state, 0.0)
    return RunResult(final=state, series=series, snapshots=snapshots)
