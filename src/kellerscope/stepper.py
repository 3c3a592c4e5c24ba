"""Step-size control, the IMEX step and the run loop.

One step advances the signal first with backward Euler (the Helmholtz solve
of :mod:`kellerscope.grid`), then the density explicitly against the fresh
signal (``model._transport``), with the quadratic sink treated
semi-implicitly so the update can never produce a negative density on its
own. A step is taken only within explicit stability limits, or the run
ends DtFloor; blow-up is detected, never resolved. The spatial operators
all live in ``grid`` and ``model``.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .grid import (Domain, Field, HelmholtzError, _amax, _amin, _face_max, _grad,
                   _max_outflow, _solve_arrays, _solve_helmholtz, _SolveArrays,
                   _stencil, integrate, lgamma_norm)
from .model import ModelParams, _phi, _transport


class RunStatus(str, enum.Enum):
    RUNNING = "Running"
    FINISHED = "Finished"
    BLOWUP = "BlowUp"
    DT_FLOOR = "DtFloor"     # the dt rule could not make a step stable at dt_min
    MAX_STEPS = "MaxSteps"   # the state has taken max_steps steps


@dataclass(frozen=True)
class StepperConfig:
    """Time-integration controls.

    blowup_threshold: sup-norm level that flags blow-up. None means
    "resolve from the initial data": run() and step() replace it with
    1e6 * max(1, sup u) of the state they are given.

    dt_min: the smallest step. A step the dt rule cannot make stable at or
    above it is not taken, and the state ends DtFloor.

    max_steps: the most steps a state may count (``SimState.steps``); a
    state that has taken them ends MaxSteps without a step.
    """

    dt_init: float = 1.0e-3
    dt_min: float = 1.0e-9
    dt_max: float = 1.0e-1
    safety: float = 0.9
    blowup_threshold: float | None = None
    t_end: float = 1.0
    observer_stride: int = 10
    series_gamma: float = 3.0
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
        # an int bound marks a count, which must be Integral (numpy's are)
        for name, low in (("observer_stride", 1), ("series_gamma", 1.0), ("max_steps", 1),
                          ("helmholtz_maxiter", 0)):
            value, count = getattr(self, name), isinstance(low, int)
            if not value >= low or count and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be {'an integer ' * count}>= {low}, "
                                 f"got {value!r}")


class _Carry(NamedTuple):
    """What a run knows about its current state between two steps: the
    one stencil pass of its signal, that gradient's per-axis maxima and the
    largest density. Both fields of the state are finite and nonnegative,
    which was checked where the state entered or where the step that made it
    made it. :func:`_carry_of` computes the carry from a state's arrays;
    :func:`_step` returns the next one, and keeps the signal's part as it
    is when the signal did not move."""

    grad: np.ndarray        # face gradient of v (see _stencil)
    lap: np.ndarray         # Laplacian of v
    g_max: list[float]      # per-axis max |grad v|, see _face_max
    u_max: float


class _Work(NamedTuple):
    """The arrays a run's steps write into, built once per run from the
    domain (:func:`_work`), so that a step allocates no full-size array of
    its own. The signal's arrays (solution, face gradient and Laplacian)
    and the density alternate between two slots, so a step never writes
    over the state it reads, nor over the state the run started from. The
    transport's three face arrays are scratch, and the first three cells'
    worth of them is the signal solve's scratch, which is done with before
    any flux is computed. The dt rule's fastest outflow writes into ``w``
    and ``up``, which no call of the rule finds in use."""

    signal: tuple[_SolveArrays, _SolveArrays]
    u: tuple[np.ndarray, np.ndarray]
    rhs: np.ndarray          # the signal solve's right-hand side
    w: np.ndarray            # the face velocity chi * grad v
    up: np.ndarray           # face arrays of model._transport
    flux: np.ndarray
    scratch: np.ndarray


def _work(d: Domain) -> _Work:
    """Fresh work arrays for a run on ``d``: 21 cell arrays' worth in 2D."""
    face = (d.dim,) + d.shape
    pool = np.empty((3,) + face)
    signal = tuple(_solve_arrays(d, pool.reshape(-1)) for _ in range(2))
    return _Work(signal, (np.empty(d.shape), np.empty(d.shape)), np.empty(d.shape),
                 np.empty(face), *pool)


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


def _dt_limit(u_max: float, g: np.ndarray, g_max: list[float],
              params: ModelParams, d: Domain, cfg: StepperConfig,
              cap: float, w: np.ndarray, out: np.ndarray) -> float:
    """Safety-scaled explicit stability limit, capped at ``cap``: the dt rule.

    ``u_max`` is the largest density (at least 0), ``g`` the signal's
    stacked face gradient (see ``grid._grad``) and ``g_max`` its per-axis
    maxima (``grid._face_max``); the face velocities are ``chi * g``. The
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
    any cell (``grid._max_outflow``). The check itself costs no array pass;
    when it trips, the velocities and the outflow cost about seven, written
    into the face arrays ``w`` and ``out``.

    Returns exactly ``min(limit, cap)``. The outflow raises the rate by at
    most ``advection``, so when ``safety / (rate + advection)`` already
    reaches ``cap``, so does the limit, and the outflow is not computed.
    """
    # accepted diffusivity families are nondecreasing, so the face maximum
    # is bounded by phi at the largest cell value
    try:
        phi_max = _phi(u_max, params)
    except OverflowError:
        raise OverflowError(f"diffusivity phi(u) = k*(1+u)^p overflows a float at "
                            f"density u = {u_max!r} with p = {params.p!r}") from None
    rate = advection = 0.0
    for h, gm in zip(d.spacing, g_max):
        # rounding is monotone, so this is the largest |chi * g| on the axis
        w_max = params.chi * gm
        rate += 2.0 * phi_max / h**2
        rate += w_max / h
        advection += w_max / h
    drain = rate + advection   # bounds diffusion plus outflow out of any cell
    if params.reaction:
        rate += params.a + 2.0 * params.mu * u_max
    if cfg.safety * drain > rate and cfg.safety / (rate + advection) < cap:
        rate += max(0.0, _max_outflow(np.multiply(g, params.chi, w), d, out)
                    - advection)
    return min(cfg.safety / rate, cap)


def stable_dt(u: Field, v: Field, params: ModelParams, d: Domain,
              cfg: StepperConfig) -> float:
    """Safety-scaled explicit stability limit, clipped to [dt_min, dt_max]."""
    u_max = max(float(u.values.max()), 0.0)
    g = _grad(v.values, d)
    return max(cfg.dt_min, _dt_limit(u_max, g, _face_max(g), params, d, cfg,
                                     cfg.dt_max, np.empty_like(g), np.empty_like(g)))


def _resolved(cfg: StepperConfig, sup_u: float) -> StepperConfig:
    """``cfg`` with an automatic blow-up threshold resolved against the
    largest density ``sup_u`` of the state a run or a step starts from."""
    if cfg.blowup_threshold is not None:
        return cfg
    return replace(cfg, blowup_threshold=1.0e6 * max(1.0, sup_u))


def step(state: SimState, params: ModelParams, cfg: StepperConfig) -> SimState:
    """Advance one IMEX step; returns a new state (inputs untouched).

    Signal first: (tau/dt + 1 - lap) v_new = (tau/dt) v_old + u_old.
    Density second, explicit fluxes against v_new with the quadratic sink
    folded into the denominator:
        u_new = (u_old + dt*(fluxes + a*u_old)) / (1 + dt*mu*u_old).
    The constant state (a/mu, a/mu) is a fixed point of this update for
    every dt. Solver round-off may leave fields a hair below zero; values
    within -1e-13 of the field scale are clamped back to zero.

    Raises ValueError for a state that is not running, and for one whose
    fields are not both finite and nonnegative, as :func:`run_state` does
    (see :func:`_carry_of`). A running state at ``t_end`` (up to 1e-12
    relative) comes back Finished and one that has taken ``max_steps``
    steps MaxSteps, each as it is, and one whose step the dt rule cannot
    make stable at ``dt_min`` or above comes back DtFloor, as it is. A step
    that leaves a field negative beyond rounding raises ValueError.
    Everything the step reads about the state (the largest density, the
    signal's gradient and Laplacian) is computed from its arrays on every
    call; only :func:`run_state` carries it from one step to the next. The
    new state's arrays are fresh, but for a signal the step left where it
    was, which is the given state's own.
    """
    if state.status is not RunStatus.RUNNING:
        raise ValueError(f"cannot step a state with status {state.status.value}")
    # overflow is legitimate anywhere in a step: it surfaces as a BlowUp status
    with np.errstate(over="ignore", invalid="ignore"):
        carry = _carry_of(state)
        return _step(state, carry, params, _resolved(cfg, carry.u_max),
                     _work(state.domain))[0]


def _carry_of(state: SimState) -> _Carry:
    """The carry of a state, computed from its arrays. This is the only
    place that does so: within a run, each step returns the next one.

    Raises ValueError unless both fields are finite and nonnegative: the
    one check of a state that a step or a run starts from."""
    u, v, d = state.u.values, state.v.values, state.domain
    for name, x in (("density", u), ("signal", v)):
        lo, hi = _amin(x), _amax(x)
        # a NaN extremum fails both comparisons
        if not (0.0 <= lo and hi < math.inf):
            raise ValueError(f"initial data must be finite and nonnegative, got a "
                             f"{'negative' if lo < 0.0 else 'non-finite'} {name} "
                             f"(min {lo!r}, max {hi!r})")
    g, lap = _stencil(v, d)
    return _Carry(g, lap, _face_max(g), _amax(u))


def _step(state: SimState, old: _Carry, params: ModelParams,
          cfg: StepperConfig, work: _Work) -> tuple[SimState, _Carry]:
    """:func:`step` of a running ``state`` from its carry ``old``, without
    the ``np.errstate``, which the caller holds, and with ``cfg``'s blow-up
    threshold resolved (see :func:`_resolved`). Returns the new state with
    its carry. A field the round-off clamp left negative raises ValueError
    here, unless the step ended BlowUp, so every state a step returns has
    both fields finite and nonnegative, as the carry requires. A signal the
    solve left where it was keeps the carry's stencil and maxima.

    Every full-size array the step makes is written into ``work``: the new
    signal into the slot that does not hold the carried stencil, the new
    density into the one that does not hold ``state.u``. Only a round-off
    clamp that fires and, on grids small enough for them, the stencil's
    index reads allocate."""
    # the stop rules a state can meet before a step: a resumed finished run
    # stays finished, and a budget ends a run before its data is read
    if _finished(state.t, cfg):
        return replace(state, status=RunStatus.FINISHED), old
    if state.steps >= cfg.max_steps:
        return replace(state, status=RunStatus.MAX_STEPS), old
    d, u_old, v_old = state.domain, state.u.values, state.v.values
    u_max = old.u_max

    dt_pre = _dt_limit(u_max, old.grad, old.g_max, params, d, cfg, cfg.dt_max,
                       work.w, work.up)
    dt = max(cfg.dt_min, dt_pre)
    if state.steps == 0:
        dt = min(dt, cfg.dt_init)
    dt = min(dt, cfg.t_end - state.t)
    # a limit below dt_min leaves dt at the smallest the step may take. No
    # signal lowers the density's diffusion and reaction rates, the limit at
    # zero face maxima: when they alone forbid dt, no solve is made
    if dt_pre < cfg.dt_min and dt > _dt_limit(
            u_max, old.grad, [0.0] * d.dim, params, d, cfg, dt, work.w,
            work.up) * (1.0 + 1e-9):
        return replace(state, status=RunStatus.DT_FLOOR), old
    # a signal the solve leaves where it was keeps its stencil in its slot
    slot = work.signal[old.grad is work.signal[0].grad]

    # The advective CFL must hold against the signal the fluxes will see,
    # which only exists after the implicit solve; re-solve with a smaller
    # dt in the rare steps where the fresh signal steepened past the
    # margin. Shrinking dt pulls v_new toward v_old, so this settles fast;
    # five solves stop a shrink that does not.
    for attempt in range(5):
        rhs = np.multiply(v_old, params.tau / dt, work.rhs)
        rhs += u_old
        try:
            # nonnegative fields make rhs >= 0, whose max needs no abs
            solved, g, lap = _solve_helmholtz(
                rhs, _amax(rhs), params.tau / dt + 1.0, d, cfg.helmholtz_tol,
                cfg.helmholtz_maxiter, v_old, old[:2], slot)
        except HelmholtzError as exc:
            if not math.isfinite(exc.residual):
                # arithmetic overflow from astronomically large fields:
                # that is blow-up territory, not a solver defect
                return replace(state, t=state.t + dt, steps=state.steps + 1,
                               status=RunStatus.BLOWUP), old
            raise
        if solved is v_old:
            # the warm start met the target: the carry still describes the
            # signal, which was finite and nonnegative when it was made, and
            # the dt rule has the inputs it had before the solve
            v_new, v_lo, v_hi, g_max, dt_pos = v_old, 0.0, 0.0, old.g_max, dt_pre
        else:
            # the exact solve maps nonnegative data to a nonnegative signal;
            # residual noise may undershoot by up to the solve tolerance
            v_new, v_lo, v_hi = _clamp_roundoff(
                solved, band=max(1.0e-13, 10.0 * cfg.helmholtz_tol))
            if v_new is not solved:
                g, lap = _stencil(v_new, d, slot.grad, slot.lap)
            g_max = _face_max(g, work.scratch)
            # capped at dt: `dt <= dt_pos` and the floor test need no more
            dt_pos = _dt_limit(u_max, g, g_max, params, d, cfg, dt, work.w, work.up)
        if dt <= dt_pos or dt <= cfg.dt_min or attempt == 4:
            break
        dt = max(cfg.dt_min, dt_pos)
    if dt > dt_pos * (1.0 + 1e-9):
        # no dt the rule allows keeps the density provably nonnegative: the
        # step is not taken, and neither field nor the carry has changed
        return replace(state, status=RunStatus.DT_FLOOR), old

    w = np.multiply(g, params.chi, work.w)
    flux = _transport(u_old, w, params, d, work.up, work.flux, work.scratch)
    # the same operations as (u_old + dt * (flux + a * u_old)) / (1 + dt * mu
    # * u_old), in place; the solve is done with its right-hand side
    u_raw = work.u[u_old is work.u[0]]
    if params.reaction:
        np.multiply(u_old, params.a, u_raw)
        u_raw += flux
        u_raw *= dt
        u_raw += u_old
        den = np.multiply(u_old, dt * params.mu, work.rhs)
        den += 1.0
        u_raw /= den
    else:
        np.multiply(flux, dt, u_raw)
        u_raw += u_old
    u_new, u_lo, u_hi = _clamp_roundoff(u_raw)

    t_new = state.t + dt
    status = RunStatus.RUNNING
    # a NaN or an infinite entry shows up in an extremum
    if not (all(map(math.isfinite, (u_lo, v_lo, v_hi))) and u_hi <= cfg.blowup_threshold):
        status = RunStatus.BLOWUP
    elif u_lo < 0.0 or v_lo < 0.0:
        # beyond the clamp's band: the step broke the scheme's positivity
        name, lo = ("density", u_lo) if u_lo < 0.0 else ("signal", v_lo)
        raise ValueError(f"the step to t = {t_new!r} left a negative {name} "
                         f"beyond rounding (min {lo!r})")
    elif _finished(t_new, cfg):
        status = RunStatus.FINISHED
    # built past the dataclass __init__, which costs a few percent of a
    # step on tiny grids; the fields are the same
    new = object.__new__(SimState)
    new.__dict__.update(t=t_new, u=Field._wrap(u_new, d), v=Field._wrap(v_new, d),
                        steps=state.steps + 1, status=status)
    return new, _Carry(g, lap, g_max, u_hi)


def _finished(t: float, cfg: StepperConfig) -> bool:
    """The finish rule: ``t`` has reached ``t_end`` up to 1e-12 relative, so
    a last step that lands a rounding short of ``t_end`` ends the run, and
    the state it leaves is finished for a resumed run too."""
    return t >= cfg.t_end - 1.0e-12 * cfg.t_end


def _clamp_roundoff(vals: np.ndarray, band: float = 1.0e-13
                    ) -> tuple[np.ndarray, float, float]:
    """Zero out negatives attributable to numerical noise within ``band``
    (relative to the field scale); leave anything larger alone.

    Returns the values (the input array itself when nothing was clamped)
    with their minimum and maximum: a NaN or infinite entry shows up in one
    of the two, and a negative minimum lies beyond the band.
    """
    lo, hi = _amin(vals), _amax(vals)
    if -math.inf < lo < 0.0 and lo >= -band * max(1.0, hi, -lo):
        vals, lo, hi = np.maximum(vals, 0.0), 0.0, max(hi, 0.0)
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
    ``observer_stride`` steps plus the final state; a run that ends DtFloor
    or MaxSteps, without a step, ends in a row of its own at dt 0. With
    ``capture_fields`` the same sampling instants also keep full (t, u, v)
    copies (each state once), which the regularity-constant estimator reads.
    """
    return run_state(SimState(t=0.0, u=u0.copy(), v=v0.copy()), params, cfg,
                     capture_fields)


def run_state(state: SimState, params: ModelParams, cfg: StepperConfig,
              capture_fields: bool = False) -> RunResult:
    """Continue stepping an existing state (checkpoint resume path): a
    resumed run is the run continued, because every stop rule, the
    ``max_steps`` budget included, reads the state's own clock and count.

    Raises ValueError unless both fields are finite and nonnegative, the
    check :func:`step` makes too (see :func:`_carry_of`), and when a step
    leaves a field negative beyond rounding. The starting state's carry is
    computed from its arrays once, and each step hands the next its own
    (see :class:`_Carry`); nothing outside the loop sees it. The whole loop,
    observer samples included, runs under one ``np.errstate`` that lets
    overflow through silently, as :func:`step` does for one step.
    """
    series: list[ObserverSample] = []
    snapshots: list[tuple[float, Field, Field]] = []
    captured = -1   # steps of the last capture, which a stop without a step repeats

    def observe(state: SimState, dt: float) -> None:
        nonlocal captured
        series.append(_sample(state, dt, cfg.series_gamma))
        if capture_fields and state.steps != captured:
            snapshots.append((state.t, state.u.copy(), state.v.copy()))
            captured = state.steps

    work = _work(state.domain)
    with np.errstate(over="ignore", invalid="ignore"):
        carry = _carry_of(state)
        cfg = _resolved(cfg, carry.u_max)
        observe(state, 0.0)
        while state.status is RunStatus.RUNNING:
            prev_t = state.t
            state, carry = _step(state, carry, params, cfg, work)
            if (state.steps % cfg.observer_stride == 0
                    or state.status is not RunStatus.RUNNING):
                observe(state, state.t - prev_t)
    return RunResult(final=state, series=series, snapshots=snapshots)
