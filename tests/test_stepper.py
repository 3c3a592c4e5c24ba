"""Helmholtz solves, step-size control, IMEX stepping, run orchestration."""

import numpy as np
import pytest

from kellerscope import (Domain, Field, HelmholtzError, ModelParams, RunStatus,
                         SimState, StepperConfig, integrate, run, run_state,
                         solve_helmholtz, stable_dt, step, stepper)
from kellerscope.grid import laplacian_neumann
from kellerscope.ic import ICSpec, build_ic


def dense_helmholtz_matrix(alpha, d):
    """Row-by-row assembly of alpha*I - lap as a dense matrix (oracle)."""
    n = d.n_cells
    a = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        col = alpha * e.reshape(d.shape) - laplacian_neumann(
            Field(e.reshape(d.shape), d), d).values
        a[:, j] = col.ravel()
    return a


# ------------------------------------------------------------- solve_helmholtz

def test_helmholtz_constant_rhs():
    for d in (Domain((1.0,), (9,)), Domain((1.0, 2.0), (6, 8))):
        w = solve_helmholtz(Field.constant(d, 3.0), 1.5, d)
        assert np.allclose(w.values, 2.0, atol=1e-12)


def test_helmholtz_recovers_forward_application():
    for d in (Domain((1.3,), (17,)), Domain((1.0, 1.0), (9, 11))):
        rng = np.random.default_rng(3 + d.dim)
        g = Field(rng.standard_normal(d.shape), d)
        rhs = Field(1.0 * g.values - laplacian_neumann(g, d).values, d)
        w = solve_helmholtz(rhs, 1.0, d)
        assert np.max(np.abs(w.values - g.values)) < 1e-9


def test_helmholtz_three_cell_dense_oracle():
    d = Domain((3.0,), (3,))
    rhs = np.array([1.0, 0.0, 0.0])
    w = solve_helmholtz(Field(rhs, d), 1.0, d)
    dense = dense_helmholtz_matrix(1.0, d)
    want = np.linalg.solve(dense, rhs)
    assert np.allclose(w.values, want, atol=1e-13)
    assert np.allclose(w.values, [0.625, 0.25, 0.125])


def test_helmholtz_matches_dense_solver_2d():
    for d in (Domain((1.0, 1.5), (5, 4)), Domain((1.2, 0.7), (12, 7))):
        rng = np.random.default_rng(12)
        rhs = rng.standard_normal(d.shape)
        w = solve_helmholtz(Field(rhs, d), 2.7, d)
        want = np.linalg.solve(dense_helmholtz_matrix(2.7, d), rhs.ravel())
        assert np.allclose(w.values.ravel(), want, atol=1e-10)


def test_helmholtz_residual_contract():
    d = Domain((1.0, 1.0), (32, 32))
    rng = np.random.default_rng(8)
    rhs = Field(rng.standard_normal(d.shape), d)
    w = solve_helmholtz(rhs, 0.5, d, tol=1e-10)
    res = 0.5 * w.values - laplacian_neumann(w, d).values - rhs.values
    assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(rhs.values))


def test_helmholtz_iteration_budget_error():
    d = Domain((1.0, 1.0), (16, 16))
    rng = np.random.default_rng(4)
    rhs = Field(rng.standard_normal(d.shape), d)
    with pytest.raises(HelmholtzError) as err:
        solve_helmholtz(rhs, 1e-6, d, tol=1e-14, maxiter=2)
    assert err.value.residual > 0.0


@pytest.mark.parametrize("d, alpha, tol, seed", [
    (Domain((1.0, 1.0), (16, 16)), 1e-6, 1e-14, 4),
    (Domain((1.0,), (3000,)), 2.5, 1e-10, 0),   # target below rounding level
])
def test_helmholtz_out_of_reach_target_fails_fast(monkeypatch, d, alpha, tol, seed):
    # every residual Laplacian of the solve goes through stepper._stencil
    calls = []
    stencil = stepper._stencil

    def counted(x, dom):
        calls.append(1)
        return stencil(x, dom)

    monkeypatch.setattr(stepper, "_stencil", counted)
    rhs = Field(np.random.default_rng(seed).random(d.shape), d)
    with pytest.raises(HelmholtzError):
        solve_helmholtz(rhs, alpha, d, tol=tol)
    assert 2 <= len(calls) <= 10


@pytest.mark.parametrize("d", [Domain((1.3,), (17,)), Domain((1.0, 1.0), (9, 11))])
def test_helmholtz_returns_solving_warm_start_unchanged(d):
    g = Field(np.random.default_rng(5).standard_normal(d.shape), d)
    rhs = Field(1.5 * g.values - laplacian_neumann(g, d).values, d)  # exact residual 0
    w = solve_helmholtz(rhs, 1.5, d, x0=g)
    assert np.array_equal(w.values, g.values)


def test_helmholtz_rejects_nonpositive_alpha():
    d = Domain((1.0,), (5,))
    with pytest.raises(ValueError):
        solve_helmholtz(Field.constant(d, 1.0), 0.0, d)


# ------------------------------------------------------------------ stable_dt

def cfg_with(**kw):
    base = dict(dt_init=1.0, dt_min=1e-12, dt_max=10.0, safety=0.5,
                blowup_threshold=1e6, t_end=10.0)
    base.update(kw)
    return StepperConfig(**base)


def test_stable_dt_pure_diffusion_formula():
    # 1D, phi==1, h=0.1: limit safety * h^2/2 = 0.5 * 0.005 = 0.0025
    d = Domain((1.0,), (10,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1e-12, a=0.0, k=1.0,
                    phi_family="linear", reaction_on=False)
    u = Field.constant(d, 1.0)
    v = Field.constant(d, 1.0)
    assert stable_dt(u, v, p, d, cfg_with()) == pytest.approx(0.0025, rel=1e-12)


def test_stable_dt_advection_formula():
    # steep ramp: h=1, chi=1, face gradient 10 -> limit 0.1 * safety
    d = Domain((3.0,), (3,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=1e-9,
                    phi_family="linear", reaction_on=False)
    u = Field.constant(d, 1.0)
    v = Field(np.array([0.0, 10.0, 20.0]), d)
    assert stable_dt(u, v, p, d, cfg_with()) == pytest.approx(
        0.5 * 0.1, rel=1e-6)


def test_stable_dt_clips_to_dt_max():
    # nothing binds: tiny diffusivity, flat fields, reaction off
    d = Domain((100.0,), (3,))   # huge cells
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=1e-12,
                    phi_family="linear", reaction_on=False)
    u = Field.constant(d, 1.0)
    v = Field.constant(d, 0.0)
    cfg = cfg_with(dt_max=2.0, dt_init=2.0)
    assert stable_dt(u, v, p, d, cfg) == 2.0


def test_stable_dt_clips_to_dt_min():
    d = Domain((1.0,), (3,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=1e9)
    u = Field.constant(d, 1.0)
    v = Field.constant(d, 0.0)
    cfg = cfg_with(dt_min=1e-3, dt_init=1e-3)
    assert stable_dt(u, v, p, d, cfg) == 1e-3


def test_stable_dt_rates_add():
    # combined diffusion + advection must be at least as restrictive as
    # either alone (rates sum)
    d = Domain((1.0,), (10,))
    p = ModelParams(tau=1.0, chi=2.0, mu=1.0, a=0.0, k=1.0,
                    phi_family="linear", reaction_on=False)
    u = Field.constant(d, 1.0)
    ramp = Field(np.linspace(0.0, 3.0, 10), d)
    flat = Field.constant(d, 0.0)
    both = stable_dt(u, ramp, p, d, cfg_with())
    assert both < stable_dt(u, flat, p, d, cfg_with())
    assert 1.0 / both >= 1.0 / stable_dt(u, flat, p, d, cfg_with())


# ----------------------------------------------------------------------- step

def steady_setup(d, p):
    u_star = p.a / p.mu
    return SimState(t=0.0, u=Field.constant(d, u_star),
                    v=Field.constant(d, u_star))


def test_step_preserves_steady_state():
    for d in (Domain((1.0,), (8,)), Domain((1.0, 1.0), (6, 6))):
        p = ModelParams(tau=1.4, chi=0.9, mu=2.0, a=1.0, k=0.5, p=1.0)
        state = steady_setup(d, p)
        new = step(state, p, cfg_with(dt_max=0.05, dt_init=0.05))
        u_star = p.a / p.mu
        assert np.max(np.abs(new.u.values - u_star)) <= 1e-12
        assert np.max(np.abs(new.v.values - u_star)) <= 1e-12
        assert new.t > 0.0 and new.steps == 1


def test_step_requires_running_state():
    d = Domain((1.0,), (4,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    state = SimState(t=0.0, u=Field.constant(d, 0.0), v=Field.constant(d, 0.0),
                     status=RunStatus.FINISHED)
    with pytest.raises(ValueError):
        step(state, p, cfg_with())


def test_step_rejects_negative_density():
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0, k=1.0, p=1.0)
    for d in (Domain((1.0,), (4,)), Domain((1.0, 1.0), (4, 4))):
        u = np.ones(d.shape)
        u.flat[1] = -1e-3
        state = SimState(t=0.0, u=Field(u, d), v=Field.constant(d, 1.0))
        with pytest.raises(ValueError, match="negative density"):
            step(state, p, cfg_with())


def test_step_tracks_logistic_ode():
    # constant fields decouple from space; u follows u' = 2u - u^2
    d = Domain((1.0,), (3,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=2.0)
    dt = 1e-3
    cfg = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=1.0,
                        observer_stride=100, blowup_threshold=1e6)
    res = run(Field.constant(d, 1.0), Field.constant(d, 1.0), p, cfg)
    exact = 2.0 * np.exp(2.0) / (1.0 + np.exp(2.0))
    assert res.final.status is RunStatus.FINISHED
    assert abs(res.final.u.values[0] - exact) < 1e-3


def test_step_pure_diffusion_max_principle_and_mass():
    d = Domain((1.0,), (48,))
    p = ModelParams(tau=1.0, chi=1e-12, mu=1.0, a=0.0, reaction_on=False)
    u0, v0 = build_ic(ICSpec("gaussian_bump", 2.0, 0.08), d)
    cfg = StepperConfig(dt_init=1e-5, dt_min=1e-12, dt_max=1e-4, t_end=0.02,
                        observer_stride=10, blowup_threshold=1e6)
    res = run(u0, v0, p, cfg)
    sups = [s.sup_u for s in res.series]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    masses = [s.mass for s in res.series]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-12 * masses[0]


def test_step_detects_blowup_threshold():
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=3.0)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-6, dt_max=1e-3, t_end=10.0,
                        blowup_threshold=1.0001)
    # u* = 3: from u=1 the logistic pulls upward past the 1.0001 trigger
    res = run(Field.constant(d, 1.0), Field.constant(d, 1.0), p, cfg)
    assert res.final.status is RunStatus.BLOWUP


@pytest.mark.parametrize("peak,k", [
    (1e308, 1.0),    # overflow already inside the signal solve
    (1e303, 1e8),    # signal solve survives, the explicit flux overflows
])
def test_nonfinite_becomes_blowup_status(peak, k):
    d = Domain((1.0,), (4,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=k,
                    phi_family="linear", reaction_on=False)
    state = SimState(t=0.0, u=Field(np.array([1.0, peak, 1.0, 1.0]), d),
                     v=Field.constant(d, 0.0))
    cfg = StepperConfig(dt_init=1.0, dt_min=1.0, dt_max=1.0, t_end=10.0,
                        blowup_threshold=1e300, safety=1.0)
    new = step(state, p, cfg)
    assert new.status is RunStatus.BLOWUP


def test_run_finishes_at_t_end_exactly():
    d = Domain((1.0,), (5,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0)
    cfg = StepperConfig(dt_init=1e-2, dt_min=1e-8, dt_max=1e-2, t_end=0.25,
                        observer_stride=5, blowup_threshold=1e6)
    res = run(Field.constant(d, 1.0), Field.constant(d, 1.0), p, cfg)
    assert res.final.status is RunStatus.FINISHED
    assert res.final.t == pytest.approx(0.25, abs=1e-12)
    assert res.series[0].t == 0.0
    assert res.series[-1].t == pytest.approx(0.25, abs=1e-12)


def test_run_steady_state_long_haul():
    d = Domain((1.0, 1.0), (5, 5))
    p = ModelParams(tau=0.7, chi=1.1, mu=2.5, a=1.3, k=0.6, p=1.0)
    u_star = p.a / p.mu
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=1e-3, t_end=0.5,
                        observer_stride=100, blowup_threshold=1e6)
    res = run(Field.constant(d, u_star), Field.constant(d, u_star), p, cfg)
    assert res.final.status is RunStatus.FINISHED
    for s in res.series:
        assert abs(s.sup_u - u_star) <= 1e-10
        assert abs(s.sup_v - u_star) <= 1e-10


def test_run_rejects_negative_initial_data():
    d = Domain((1.0,), (4,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    bad = Field(np.array([1.0, -0.5, 1.0, 1.0]), d)
    with pytest.raises(ValueError):
        run(bad, Field.constant(d, 0.0), p, StepperConfig())


def test_run_positivity_with_all_terms():
    d = Domain((1.0, 1.0), (12, 12))
    p = ModelParams(tau=1.0, chi=2.0, mu=1.5, a=1.0, k=0.5, p=1.0)
    u0, v0 = build_ic(ICSpec("two_bumps", 2.0, 0.12), d)
    cfg = StepperConfig(dt_init=1e-4, dt_min=1e-12, dt_max=1e-2, t_end=0.2,
                        observer_stride=20, blowup_threshold=1e6)
    res = run(u0, v0, p, cfg, capture_fields=True)
    assert res.final.status is RunStatus.FINISHED
    for _, u, v in res.snapshots:
        assert np.min(u.values) >= 0.0
        assert np.min(v.values) >= -1e-14 * max(1.0, np.max(v.values))


def test_discrete_mass_law_matches_scheme_reaction():
    # mass(t+dt) - mass(t) == dt * integral(a*u - mu*u*u_new) exactly
    d = Domain((1.0,), (16,))
    p = ModelParams(tau=1.0, chi=1.5, mu=2.0, a=1.0, k=0.8, p=1.0)
    rng = np.random.default_rng(77)
    state = SimState(t=0.0, u=Field(rng.random(d.shape) + 0.1, d),
                     v=Field(rng.random(d.shape), d))
    cfg = StepperConfig(dt_init=1e-4, dt_min=1e-4, dt_max=1e-4, t_end=1.0,
                        blowup_threshold=1e6)
    new = step(state, p, cfg)
    dt = new.t - state.t
    effective = p.a * state.u.values - p.mu * state.u.values * new.u.values
    want = dt * integrate(Field(effective, d), d)
    got = integrate(new.u, d) - integrate(state.u, d)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_determinism_bit_identical_series():
    d = Domain((1.0,), (24,))
    p = ModelParams(tau=1.0, chi=1.2, mu=1.0, a=0.7, k=0.4, p=1.0)
    u0, v0 = build_ic(ICSpec("gaussian_bump", 1.0, 0.1), d)
    cfg = StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=1e-3, t_end=0.05,
                        observer_stride=7, blowup_threshold=1e6)
    a = run(u0, v0, p, cfg)
    b = run(u0, v0, p, cfg)
    assert a.series == b.series
    assert np.array_equal(a.final.u.values, b.final.u.values)


def test_run_state_resumes_consistently():
    d = Domain((1.0,), (16,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0)
    u0, v0 = build_ic(ICSpec("gaussian_bump", 1.0, 0.15), d)
    dt = 1e-3
    cfg_full = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=0.1,
                             observer_stride=10, blowup_threshold=1e6)
    full = run(u0, v0, p, cfg_full)
    cfg_half = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=0.05,
                             observer_stride=10, blowup_threshold=1e6)
    half = run(u0, v0, p, cfg_half)
    from dataclasses import replace
    resumed = run_state(replace(half.final, status=RunStatus.RUNNING), p,
                        cfg_full)
    assert resumed.final.t == pytest.approx(full.final.t, abs=1e-12)
    assert np.allclose(resumed.final.u.values, full.final.u.values,
                       rtol=1e-12, atol=1e-14)


# ------------------------------------------- carried signal gradient/Laplacian

def _carry_case(name):
    """(params, cfg, initial state) whose first step takes the named path:
    a plain single-pass solve, the v round-off clamp, or the CFL re-solve."""
    if name.startswith("plain"):
        d = Domain((1.0,), (24,)) if name.endswith("1d") else Domain((1.0, 1.0), (12, 12))
        p = ModelParams(tau=0.8, chi=1.3, mu=1.0, a=1.0, k=0.5, p=1.0)
        u0, v0 = build_ic(ICSpec("gaussian_bump", 2.0, 0.1), d)
        cfg = StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=1e-2, t_end=0.01,
                            observer_stride=3, blowup_threshold=1e6)
    elif name == "clamp-2d":
        # a lone spike in an empty signal: the solve leaves rounding-level
        # negatives far from it, which the round-off clamp removes
        d = Domain((1.0, 1.0), (12, 12))
        p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0)
        v = np.zeros(d.shape)
        v[0, 1] = 1.0
        u0, v0 = Field.constant(d, 0.0), Field(v, d)
        cfg = StepperConfig(dt_init=1e-6, dt_min=1e-10, dt_max=1e-2, t_end=0.01,
                            observer_stride=3, blowup_threshold=1e6)
    else:
        # a flat signal under a tall bump steepens past the advective CFL
        # within one step, so the step re-solves with a smaller dt
        d = Domain((1.0,), (24,)) if name.endswith("1d") else Domain((1.0, 1.0), (12, 12))
        p = ModelParams(tau=1.0, chi=8.0, mu=1.0, a=0.0, k=0.01, p=0.0,
                        reaction_on=False)
        u0, _ = build_ic(ICSpec("gaussian_bump", 30.0, 0.1), d)
        v0 = Field.constant(d, 0.0)
        cfg = StepperConfig(dt_init=1e-2, dt_min=1e-10, dt_max=1e-2, t_end=0.05,
                            observer_stride=3, blowup_threshold=1e6)
    return p, cfg, SimState(t=0.0, u=u0, v=v0)


def _spy_step(monkeypatch, state, p, cfg):
    """One step, with the number of signal solves it took and whether the
    signal's round-off clamp changed the solution."""
    solves, clamped = [], []
    solve, clamp = stepper._solve_helmholtz, stepper._clamp_roundoff

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    def watched_clamp(vals, band=1.0e-13):
        out = clamp(vals, band)
        if len(clamped) < len(solves):   # the signal's clamp follows its solve
            clamped.append(out[0] is not vals)
        return out

    monkeypatch.setattr(stepper, "_solve_helmholtz", counted_solve)
    monkeypatch.setattr(stepper, "_clamp_roundoff", watched_clamp)
    new = step(state, p, cfg)
    monkeypatch.undo()
    return new, len(solves), any(clamped)


def _rebuilt(state):
    return SimState(state.t, state.u, state.v, state.steps,
                    stall_steps=state.stall_steps)


@pytest.mark.parametrize("name", ["plain-1d", "plain-2d", "clamp-2d",
                                  "resolve-1d", "resolve-2d"])
def test_carried_stencil_is_invisible(monkeypatch, name):
    p, cfg, s0 = _carry_case(name)
    s1, solves, clamped = _spy_step(monkeypatch, s0, p, cfg)
    assert s1.status is RunStatus.RUNNING and s1._ops is not None
    assert clamped == (name == "clamp-2d")
    assert (solves > 1) == name.startswith("resolve")
    carried = run_state(s1, p, cfg)
    fresh = run_state(_rebuilt(s1), p, cfg)
    assert carried.final.steps == fresh.final.steps > s1.steps + 3
    assert carried.final.status is fresh.final.status
    assert carried.final.t == fresh.final.t
    assert np.array_equal(carried.final.u.values, fresh.final.u.values)
    assert np.array_equal(carried.final.v.values, fresh.final.v.values)
    assert carried.series == fresh.series


def test_replaced_signal_drops_carried_stencil():
    from dataclasses import replace
    p, cfg, s0 = _carry_case("plain-2d")
    s1 = step(s0, p, cfg)
    other = Field(np.flip(s1.v.values, axis=0).copy(), s1.domain)
    swapped = replace(s1, v=other)
    assert s1._ops is not None and swapped._ops is None
    a = step(swapped, p, cfg)
    b = step(SimState(s1.t, s1.u, other, s1.steps), p, cfg)
    assert a.t == b.t
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a.v.values, b.v.values)


@pytest.mark.parametrize("name", ["plain-1d", "plain-2d"])
def test_carried_step_takes_one_signal_stencil(monkeypatch, name):
    p, cfg, s0 = _carry_case(name)
    grads, laps = [], []
    grad, divergence = stepper._grad, stepper._divergence

    def counted_grad(v, d):
        g = grad(v, d)
        grads.append(g)
        return g

    def counted_divergence(flux, d):
        laps.extend(1 for g in grads if flux is g)
        return divergence(flux, d)

    monkeypatch.setattr(stepper, "_grad", counted_grad)
    monkeypatch.setattr(stepper, "_divergence", counted_divergence)
    s1 = step(s0, p, cfg)        # fresh state: its own stencil, then the result's
    assert (len(grads), len(laps)) == (2, 2)
    grads.clear()
    laps.clear()
    step(s1, p, cfg)
    assert (len(grads), len(laps)) == (1, 1)


def test_self_convergence_order_window():
    # smooth 1D data, all terms active, dt capped proportionally to h;
    # errors against a fine reference must shrink with an observed order
    # in the first-to-second-order window
    p = ModelParams(tau=1.0, chi=0.5, mu=1.0, a=1.0, k=0.02, p=1.0)
    t_end = 0.25

    def solve(cells, dt_max):
        d = Domain((1.0,), (cells,))
        x = d.centers(0)
        u0 = Field(1.0 + 0.5 * np.cos(np.pi * x), d)
        v0 = Field(1.0 - 0.25 * np.cos(np.pi * x), d)
        cfg = StepperConfig(dt_init=dt_max, dt_min=1e-12, dt_max=dt_max,
                            t_end=t_end, observer_stride=1000,
                            blowup_threshold=1e6)
        res = run(u0, v0, p, cfg)
        assert res.final.status is RunStatus.FINISHED
        return res.final.u.values

    ref = solve(512, 1e-5)

    def restrict(fine, factor):
        return fine.reshape(-1, factor).mean(axis=1)

    errors = []
    for cells in (32, 64, 128):
        coarse = solve(cells, (1.0 / cells) / 20.0)
        errors.append(np.max(np.abs(coarse - restrict(ref, 512 // cells))))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    mean_order = float(np.mean(orders))
    assert 0.8 <= mean_order <= 2.2, (errors, orders)
