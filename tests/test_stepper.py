"""Helmholtz solves, step-size control, IMEX stepping, run orchestration."""

import math
import tracemalloc
import unittest.mock
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from kellerscope import (Domain, Field, HelmholtzError, ModelParams, RunStatus,
                         SimState, StepperConfig, grid, integrate, run, run_state,
                         solve_helmholtz, stable_dt, step, stepper)
from kellerscope.grid import laplacian_neumann
from kellerscope.ic import ICSpec, build_ic
from kellerscope.snapshot import read_snapshot, write_snapshot


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


@st.composite
def spaced_domains(draw):
    """1D and 2D boxes on both sides of the 1024-cell gather threshold, with
    spacings of at least 0.1, so that the 1e-10 residual target bounds the
    error of a solve with alpha = 1 well below 1e-9."""
    dim = draw(st.sampled_from([1, 2]))
    cells = tuple(draw(st.integers(3, 40 if dim == 2 else 2000)) for _ in range(dim))
    return Domain(tuple(n * draw(st.floats(0.1, 2.0)) for n in cells), cells)


@settings(max_examples=40)
@given(d=spaced_domains(), seed=st.integers(0, 2**32 - 1))
@example(d=Domain((1.3,), (17,)), seed=4)
@example(d=Domain((1.0, 1.0), (9, 11)), seed=5)
def test_helmholtz_recovers_forward_application(d, seed):
    g = Field(np.random.default_rng(seed).standard_normal(d.shape), d)
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
    # every dimension takes the same eigenbasis path, 1D included
    for d in (Domain((1.0, 1.5), (5, 4)), Domain((1.2, 0.7), (12, 7)),
              Domain((1.3,), (8,)), Domain((1.3,), (41,)), Domain((1.3,), (200,))):
        rng = np.random.default_rng(12)
        rhs = rng.standard_normal(d.shape)
        w = solve_helmholtz(Field(rhs, d), 2.7, d)
        want = np.linalg.solve(dense_helmholtz_matrix(2.7, d), rhs.ravel())
        assert np.allclose(w.values.ravel(), want, atol=1e-10)


@st.composite
def folded_domains(draw):
    """(domain, lowered fold length or None): 1D and 2D boxes with at least
    one even axis at or above the fold length (grid._FOLD_MIN_CELLS, or the
    lowered one, which the test puts in its place), square or not, with
    spacings of at least 0.1 so that the dense oracle stays well
    conditioned."""
    dim = draw(st.sampled_from([1, 2]))
    low = draw(st.none() | st.integers(2, 8).map(lambda n: 2 * n))
    fold = low or grid._FOLD_MIN_CELLS[dim]
    even = st.integers(fold // 2, fold // 2 + (8 if low else 60)).map(lambda n: 2 * n)
    cells = [draw(even)]
    if dim == 2:
        beside = st.integers(3, 7)   # a short axis, never folded
        if low:   # small enough for the oracle: a long odd or a folded axis
            beside |= even | even.map(lambda n: n + 1)
        cells = draw(st.permutations(cells + [draw(beside)]))
    return Domain(tuple(n * draw(st.floats(0.1, 2.0)) for n in cells), tuple(cells)), low


@settings(max_examples=30, deadline=None)
@given(case=folded_domains(), alpha=st.floats(0.5, 10.0), seed=st.integers(0, 2**32 - 1))
@example(case=(Domain((33.0,), (330,)), None), alpha=0.5, seed=1)
@example(case=(Domain((0.7, 20.8), (5, 104)), None), alpha=1.0, seed=2)
@example(case=(Domain((2.0, 1.1), (12, 11)), 6), alpha=2.0, seed=3)
@example(case=(Domain((1.6, 1.2), (16, 12)), 6), alpha=2.0, seed=4)
def test_folded_inverse_matches_the_dense_solve_property(case, alpha, seed):
    d, low = case
    fold = dict(grid._FOLD_MIN_CELLS)
    if low:
        fold[d.dim] = low
    with unittest.mock.patch.dict(grid._FOLD_MIN_CELLS, fold):
        bases, _ = grid._eigenbasis(d)
    assert [type(c) is grid._Fold for c in bases] == [
        n % 2 == 0 and n >= fold[d.dim] for n in d.cells]
    assert any(type(c) is grid._Fold for c in bases)
    rhs = np.random.default_rng(seed).standard_normal(d.shape)
    arrays = grid._solve_arrays(d, np.empty(3 * d.n_cells))
    arrays.r[...] = rhs
    got = grid._helmholtz_inverse(arrays.r, alpha, d, arrays.s, arrays.turns)
    want = np.linalg.solve(dense_helmholtz_matrix(alpha, d), rhs.ravel())
    assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * np.max(np.abs(want))


def test_helmholtz_residual_contract():
    # 128^2 takes the folded basis on both axes
    for d in (Domain((1.0, 1.0), (32, 32)), Domain((1.0, 1.0), (128, 128))):
        rng = np.random.default_rng(8)
        rhs = Field(rng.standard_normal(d.shape), d)
        w = solve_helmholtz(rhs, 0.5, d, tol=1e-10)
        res = 0.5 * w.values - laplacian_neumann(w, d).values - rhs.values
        assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(rhs.values))
    assert all(type(c) is grid._Fold for c in d._eigen[0])


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
    # every residual Laplacian of the solve goes through grid._stencil
    calls = []
    stencil = grid._stencil

    def counted(x, dom, *out):
        calls.append(1)
        return stencil(x, dom, *out)

    monkeypatch.setattr(grid, "_stencil", counted)
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


@pytest.mark.parametrize("d", [Domain((1.0,), (4,)), Domain((1.0, 1.0), (4, 4))])
def test_helmholtz_rejects_an_infinite_rhs(d):
    # an infinite target, tol * inf, would accept the warm start as it is
    rhs = np.ones(d.shape)
    rhs.flat[1] = np.inf
    with pytest.raises(HelmholtzError) as err:
        solve_helmholtz(Field(rhs, d), 1.0, d, x0=Field.constant(d, 0.0))
    assert not math.isfinite(err.value.residual)


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


@pytest.mark.parametrize("name", ["observer_stride", "max_steps", "helmholtz_maxiter"])
def test_stepper_config_counts_must_be_integers(name):
    # a run samples where steps % observer_stride == 0, so a stride of 2.5
    # would sample every fifth step
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        StepperConfig(**{name: 2.5})
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        StepperConfig(**{name: 3.0})
    assert getattr(StepperConfig(**{name: np.int64(3)}), name) == 3


def test_stable_dt_pure_diffusion_formula():
    # 1D, phi==1, h=0.1: limit safety * h^2/2 = 0.5 * 0.005 = 0.0025
    d = Domain((1.0,), (10,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1e-12, a=0.0, k=1.0,
                    phi_family="linear", reaction=False)
    u = Field.constant(d, 1.0)
    v = Field.constant(d, 1.0)
    assert stable_dt(u, v, p, d, cfg_with()) == pytest.approx(0.0025, rel=1e-12)


def test_stable_dt_advection_formula():
    # steep ramp: h=1, chi=1, face gradient 10 -> limit 0.1 * safety
    d = Domain((3.0,), (3,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=1e-9,
                    phi_family="linear", reaction=False)
    u = Field.constant(d, 1.0)
    v = Field(np.array([0.0, 10.0, 20.0]), d)
    assert stable_dt(u, v, p, d, cfg_with()) == pytest.approx(
        0.5 * 0.1, rel=1e-6)


def test_stable_dt_clips_to_dt_max():
    # nothing binds: tiny diffusivity, flat fields, reaction off
    d = Domain((100.0,), (3,))   # huge cells
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=1e-12,
                    phi_family="linear", reaction=False)
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
                    phi_family="linear", reaction=False)
    u = Field.constant(d, 1.0)
    ramp = Field(np.linspace(0.0, 3.0, 10), d)
    flat = Field.constant(d, 0.0)
    both = stable_dt(u, ramp, p, d, cfg_with())
    assert both < stable_dt(u, flat, p, d, cfg_with())
    assert 1.0 / both >= 1.0 / stable_dt(u, flat, p, d, cfg_with())


@settings(max_examples=300)
@given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=6),
                elements=st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([0.0, -0.0])),
       view=st.sampled_from(["whole", "transposed", "strided"]))
def test_extrema_by_index_match_numpy_property(x, view):
    # the step's reductions: NaN wins as in np.max, and a view of any layout
    x = {"whole": x, "transposed": x.T, "strided": x[..., ::2]}[view]
    for fast, ref in ((stepper._amax, np.max), (stepper._amin, np.min)):
        got, want = fast(x), float(ref(x))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))


@st.composite
def dt_rule_cases(draw):
    """The dt rule's inputs on 1D and 2D boxes: the largest density, the
    stacked face gradient of a random signal, the coefficients, the safety
    factor, and a cap on either side of the exact limit, as a ratio to
    it."""
    dim = draw(st.sampled_from([1, 2]))
    d = Domain(tuple(draw(st.floats(0.05, 20.0)) for _ in range(dim)),
               tuple(draw(st.integers(3, 12)) for _ in range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = stepper._grad(10.0 ** draw(st.floats(-3.0, 4.0)) * rng.random(d.shape), d)
    params = ModelParams(
        tau=1.0, chi=draw(st.floats(0.01, 10.0)), mu=draw(st.floats(0.01, 10.0)),
        a=draw(st.floats(0.0, 10.0)), k=10.0 ** draw(st.floats(-4.0, 1.0)),
        p=draw(st.floats(0.0, 3.0)), reaction=draw(st.booleans()))
    # below safety 1/2 the drain check never trips
    cfg = StepperConfig(safety=draw(st.floats(0.5, 1.0)))
    ratio = draw(st.floats(0.25, 1.0) | st.floats(1.0, 2.0))
    return draw(st.floats(0.0, 10.0)), g, params, d, cfg, ratio


@settings(max_examples=300)
@given(case=dt_rule_cases())
def test_dt_rule_skips_the_outflow_only_above_enough_property(case):
    # the exact limit capped at `cap`, bit for bit, whether or not the cap
    # let the rule skip the outflow
    u_max, g, params, d, cfg, ratio = case
    g_max = stepper._face_max(g)
    spare = np.empty((2,) + g.shape)
    exact = stepper._dt_limit(u_max, g, g_max, params, d, cfg, math.inf, *spare)
    cap = ratio * exact
    got = stepper._dt_limit(u_max, g, g_max, params, d, cfg, cap, *spare)
    assert got == min(exact, cap)


@settings(max_examples=100)
@given(case=dt_rule_cases())
def test_max_outflow_in_place_matches_the_fresh_array_formula_property(case):
    _, g, params, d, _, _ = case
    w = params.chi * g
    along = lambda k, a, b: (k,) + tuple(slice(a, b) if j == k else slice(None)
                                         for j in range(d.dim))
    for k in range(d.dim):
        # an inflow on the upper walls, which no cell drains through
        w[along(k, -1, None)] = -1.0
    out = np.maximum(w, 0.0)
    for k in range(d.dim):
        # faces [k][1 ..] drain through faces [k][.. n-2] below them
        out[along(k, 1, None)] -= np.minimum(w[along(k, None, -1)], 0.0)
    h = np.reshape(d.spacing, (d.dim,) + (1,) * d.dim)
    want = float(np.add.reduce(out / h, axis=0).max())
    assert grid._max_outflow(w, d, np.empty_like(w)) == want


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


def test_step_keeps_density_nonnegative_where_flow_diverges():
    # v has a sharp minimum in cell 1, so chemotaxis drains that cell through
    # both faces at once: faster than the fastest face speed alone
    d = Domain((1.0,), (4,))
    u = Field(np.array([0.51182162, 0.9504637, 0.14415961, 0.94864945]), d)
    v = Field(np.array([0.54959369, 0.02755911, 0.75351311, 0.53814331]), d)
    p = ModelParams(tau=1.0, chi=9.0, mu=1.0, k=1.0, reaction=False)
    new = step(SimState(t=0.0, u=u, v=v, steps=1), p, StepperConfig(dt_min=1e-300))
    assert np.all(new.u.values >= 0.0)
    res = run(u, v, p, StepperConfig(t_end=0.1, dt_init=0.1))
    assert res.final.status is RunStatus.FINISHED


@st.composite
def step_cases(draw):
    """A running state with nonnegative fields, some cells exactly zero, on
    1D and 2D boxes on both sides of the 1024-cell gather threshold, and
    the config of its step: the dt rule down to 1e-300, or one fixed dt
    (``dt_min = dt_max``) between 1e-8 and 1, drawn on a log scale."""
    dim = draw(st.sampled_from([1, 2]))
    d = Domain(tuple(draw(st.floats(0.05, 20.0)) for _ in range(dim)),
               tuple(draw(st.integers(3, 40 if dim == 2 else 2000))
                     for _ in range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, zeros = draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 1.0))
    u, v = (scale * rng.random(d.shape) * (rng.random(d.shape) >= zeros)
            for _ in range(2))
    params = ModelParams(
        tau=draw(st.floats(0.01, 10.0)), chi=draw(st.floats(0.01, 10.0)),
        mu=draw(st.floats(0.01, 10.0)), a=draw(st.floats(0.0, 10.0)),
        k=draw(st.floats(0.01, 10.0)), p=draw(st.floats(0.0, 3.0)),
        reaction=draw(st.booleans()))
    dt = draw(st.none() | st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e))
    cfg = (StepperConfig(dt_min=1e-300) if dt is None
           else StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=2.0))
    return SimState(t=0.0, u=Field(u, d), v=Field(v, d), steps=1), params, cfg


@settings(max_examples=100)
@given(case=step_cases())
def test_step_at_the_dt_rule_keeps_fields_nonnegative_property(case):
    # a step is taken only inside the positivity region, so no clamp hides a
    # negative value and reaction-free steps conserve mass; a fixed dt above
    # the rule's limit is not taken, and the state comes back as it was
    state, params, cfg = case
    new = step(state, params, cfg)
    if new.status is RunStatus.DT_FLOOR:
        assert cfg.dt_min == cfg.dt_max
        assert (new.t, new.steps) == (state.t, state.steps)
        assert new.u.values.tobytes() == state.u.values.tobytes()
        assert new.v.values.tobytes() == state.v.values.tobytes()
        return
    assert new.status is RunStatus.RUNNING
    assert np.all(new.u.values >= 0.0) and np.all(new.v.values >= 0.0)
    if not params.reaction:
        d = state.domain
        m0, m1 = integrate(state.u, d), integrate(new.u, d)
        assert abs(m1 - m0) <= 1e-12 * m0


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
    p = ModelParams(tau=1.0, chi=1e-12, mu=1.0, a=0.0, reaction=False)
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


@pytest.mark.parametrize("sup, threshold", [(0.0, 1e6), (0.5, 1e6), (10.0, 1e7)])
def test_the_automatic_threshold_resolves_against_the_given_sup(monkeypatch, sup,
                                                                threshold):
    # a stable step grows the largest density by a few times at most, so no
    # step can tell 1e6 * max(1, sup) from another level: the rule is tested
    # where it lives, and step() is seen to hand it the given state's sup
    auto = StepperConfig()
    assert stepper._resolved(auto, sup) == replace(auto, blowup_threshold=threshold)
    fixed = StepperConfig(blowup_threshold=2.0)
    assert stepper._resolved(fixed, sup) is fixed
    seen, resolved = [], stepper._resolved
    monkeypatch.setattr(stepper, "_resolved",
                        lambda cfg, s: seen.append((cfg, s)) or resolved(cfg, s))
    d = Domain((1.0,), (4,))
    state = SimState(0.0, Field.constant(d, sup), Field.constant(d, sup))
    assert step(state, ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0), auto).steps == 1
    assert seen == [(auto, sup)]


@pytest.mark.parametrize("peak,k", [
    (1e308, 1.0),    # overflow already inside the signal solve
    (1e303, 1e8),    # signal solve survives, the explicit flux overflows
])
def test_nonfinite_becomes_blowup_status(peak, k):
    d = Domain((1.0,), (4,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=k,
                    phi_family="linear", reaction=False)
    state = SimState(t=0.0, u=Field(np.array([1.0, peak, 1.0, 1.0]), d),
                     v=Field.constant(d, 0.0))
    # dt_min far below the rule's limit: the step meets the overflow, not the floor
    cfg = StepperConfig(dt_init=1.0, dt_min=1e-300, dt_max=1.0, t_end=10.0,
                        blowup_threshold=1e300, safety=1.0)
    new = step(state, p, cfg)
    assert new.status is RunStatus.BLOWUP


def test_solve_overflow_ends_the_step_blowup():
    # v = 1e308 makes the signal solve's residual overflow: that is blow-up
    # territory, reported as a status and never raised
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0)
    state = SimState(0.0, Field.constant(d, 1.0), Field.constant(d, 1e308))
    new = step(state, p, StepperConfig(blowup_threshold=1e300))
    assert new.status is RunStatus.BLOWUP and new.steps == 1


@pytest.mark.parametrize("chi, mu, a", [(1.0, 1.0, 1.0), (1.0, 10.0, 4.0),
                                        (20.0, 0.1, 1.0)])
def test_fixed_dt_above_the_limit_ends_dt_floor_without_a_step(chi, mu, a):
    # dt = 1e-4 on 512 cells is about 45 times the diffusion limit: a step
    # taken there and clamped positive would read as a blow-up by step 7
    d = Domain((1.0,), (512,))
    p = ModelParams(tau=1.0, chi=chi, mu=mu, a=a, phi_family="linear")
    u0, v0 = build_ic(ICSpec("gaussian_bump", 0.35, 0.15), d)
    cfg = StepperConfig(dt_init=1e-4, dt_min=1e-4, dt_max=1e-4, t_end=0.1)
    res = run(u0, v0, p, cfg)
    assert res.final.status is RunStatus.DT_FLOOR
    assert (res.final.t, res.final.steps) == (0.0, 0)
    assert res.final.u.values.tobytes() == u0.values.tobytes()
    assert res.final.v.values.tobytes() == v0.values.tobytes()
    assert [(s.t, s.dt, s.status) for s in res.series] == [
        (0.0, 0.0, "Running"), (0.0, 0.0, "DtFloor")]


@pytest.mark.parametrize("tau", [10.0, 1.0])
def test_diffusion_alone_above_dt_min_ends_dt_floor_before_the_solve(monkeypatch, tau):
    # dt = 1 on 197 cells of a 0.05 box, where the signal solve would miss
    # its residual target: no signal lowers diffusion's rate, which alone
    # caps dt near 3e-8, so the step ends without a solve
    d = Domain((0.05,), (197,))
    u0, v0 = build_ic(ICSpec("gaussian_bump", 1.0, 0.01), d)
    state = SimState(0.0, u0, v0)
    solves = []
    solve = stepper._solve_helmholtz
    monkeypatch.setattr(stepper, "_solve_helmholtz",
                        lambda *args: solves.append(args) or solve(*args))
    cfg = StepperConfig(dt_init=1.0, dt_min=1.0, dt_max=1.0, t_end=2.0)
    new = step(state, ModelParams(tau=tau), cfg)
    assert new.status is RunStatus.DT_FLOOR and not solves
    assert (new.t, new.steps) == (0.0, 0)
    assert new.u is state.u and new.v is state.v


@pytest.mark.parametrize("t_end, short", [(0.25, False), (0.11082327570555277, True)])
def test_resuming_a_finished_run_takes_no_step(t_end, short):
    # the second run's last step lands one rounding short of t_end, which
    # the finish rule accepts: the resume must accept it too
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=0.1, mu=1.0, a=1.0, k=1e-3)
    cfg = StepperConfig(dt_init=t_end / 7, dt_max=1.0, t_end=t_end, blowup_threshold=1e6)
    done = run(Field.constant(d, 1.0), Field.constant(d, 1.0), p, cfg).final
    assert done.status is RunStatus.FINISHED and (done.t < t_end) is short
    again = run_state(replace(done, status=RunStatus.RUNNING), p, cfg).final
    assert (again.t, again.steps, again.status) == (done.t, done.steps, done.status)
    assert np.array_equal(again.u.values, done.u.values)


def test_step_honours_the_budget_of_the_state_it_is_given():
    # max_steps bounds the state's own count, however the state was made
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0)
    state = SimState(0.25, Field.constant(d, 0.5), Field.constant(d, 0.5), steps=7)
    cfg = cfg_with(max_steps=7)
    new = step(state, p, cfg)
    assert new.status is RunStatus.MAX_STEPS
    assert (new.t, new.steps) == (state.t, 7)
    assert new.u is state.u and new.v is state.v
    assert step(state, p, replace(cfg, max_steps=8)).steps == 8
    res = run_state(state, p, cfg)
    assert res.final.status is RunStatus.MAX_STEPS and res.final.steps == 7
    assert [(s.t, s.dt, s.status) for s in res.series] == [
        (0.25, 0.0, "Running"), (0.25, 0.0, "MaxSteps")]


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


@pytest.mark.parametrize("max_steps, rows", [(10, 4), (7, 3)])
def test_run_stopped_by_max_steps_ends_with_one_stalled_row(max_steps, rows):
    # stride 5: the last step falls on a sampled step (10) or between (7);
    # either way the run ends in exactly one MaxSteps row, at dt 0
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0)
    u0, v0 = build_ic(ICSpec("gaussian_bump", 1.0, 0.15), d)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3, t_end=1.0,
                        observer_stride=5, max_steps=max_steps, blowup_threshold=1e6)
    res = run(u0, v0, p, cfg)
    assert res.final.status is RunStatus.MAX_STEPS
    assert res.final.steps == max_steps
    assert len(res.series) == rows
    *before, last = res.series
    assert (last.t, last.dt, last.status) == (res.final.t, 0.0, "MaxSteps")
    assert all(s.status == "Running" for s in before)


def test_run_rejects_negative_initial_data():
    d = Domain((1.0,), (4,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    bad = Field(np.array([1.0, -0.5, 1.0, 1.0]), d)
    with pytest.raises(ValueError):
        run(bad, Field.constant(d, 0.0), p, StepperConfig())


@pytest.mark.parametrize("field, cell, value", [("u", 2, np.nan), ("v", 5, -3.0)])
def test_run_state_rejects_invalid_fields(field, cell, value):
    d = Domain((1.0,), (8,))
    fields = {"u": np.full(8, 0.5), "v": np.full(8, 0.5)}
    fields[field][cell] = value
    state = SimState(t=0.1, u=Field(fields["u"], d), v=Field(fields["v"], d), steps=3)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        run_state(state, ModelParams(tau=1.0, chi=0.5, mu=2.0, a=1.0), cfg_with())


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
    resumed = run_state(replace(half.final, status=RunStatus.RUNNING), p,
                        cfg_full)
    assert resumed.final.t == pytest.approx(full.final.t, abs=1e-12)
    assert np.allclose(resumed.final.u.values, full.final.u.values,
                       rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("cells, max_steps, k", [
    ((32,), None, 1), ((32,), None, 50), ((32,), 100, 50),
    ((32, 32), None, 37), ((32, 32), 150, 60),
], ids=["1d-k1", "1d-k50", "1d-budget100-k50", "2d-k37", "2d-budget150-k60"])
def test_split_run_is_the_run_continued_bitwise(tmp_path, cells, max_steps, k):
    # "run to the end" against "run k steps, snapshot, resume to the end";
    # with a budget, the resumed run stops where the unsplit one does
    d = Domain((1.0,) * len(cells), cells)
    p = ModelParams(tau=1.0, chi=1.0, mu=10.0, a=1.0, k=1.0, p=1.0)
    u0, v0 = build_ic(ICSpec("gaussian_bump", 0.35, 0.15), d)
    cfg = StepperConfig(dt_init=1e-4, dt_min=1e-9, dt_max=1e-2, t_end=0.05,
                        observer_stride=10, blowup_threshold=1e6,
                        max_steps=max_steps or 5_000_000)
    full = run(u0, v0, p, cfg)
    first = run(u0, v0, p, replace(cfg, max_steps=k)).final
    assert first.steps == k < full.final.steps
    path = str(tmp_path / "split.snap")
    write_snapshot(first, path)
    resumed = run_state(read_snapshot(path, d), p, cfg)
    a, b = full.final, resumed.final
    assert (b.t, b.steps, b.status) == (a.t, a.steps, a.status)
    assert b.u.values.tobytes() == a.u.values.tobytes()
    assert b.v.values.tobytes() == a.v.values.tobytes()
    assert resumed.series[1:] == [s for s in full.series if s.t > first.t]
    assert a.status is (RunStatus.MAX_STEPS if max_steps else RunStatus.FINISHED)


# ------------------------------------------- carried signal gradient/Laplacian

def _carry_case(name):
    """(params, cfg, initial state) whose first step takes the named path:
    a plain single-pass solve, the v round-off clamp, the CFL re-solve, the
    u round-off clamp, the dt rule's drain branch, or a solve that leaves
    the signal where it was. A suffix ``@n`` puts a
    plain or re-solve case on n cells per axis instead of 24 (1D) or 12
    (2D); above 1024 cells the stencil takes the slice path instead of the
    gather path (see grid._GATHER_MAX_CELLS)."""
    name, _, size = name.partition("@")
    dim = 1 if name.endswith("1d") else 2
    n = int(size) if size else {1: 24, 2: 12}[dim]
    if name.startswith("plain"):
        d = Domain((1.0,) * dim, (n,) * dim)
        p = ModelParams(tau=0.8, chi=1.3, mu=1.0, a=1.0, k=0.5, p=1.0)
        u0, v0 = build_ic(ICSpec("gaussian_bump", 2.0, 0.1), d)
        # diffusion sets dt, so t_end shrinks with h^2 to keep the steps few
        cfg = StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=1e-2,
                            t_end=0.01 * ({1: 24, 2: 12}[dim] / n) ** 2,
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
    elif name == "uclamp-1d":
        # a lone density spike, diffusion alone at safety 1: the step empties
        # the spike's cell exactly, up to a rounding-level negative that the
        # density's round-off clamp removes (chi too weak to move the dt rule)
        d = Domain((1.0,), (5,))
        p = ModelParams(tau=1.0, chi=1e-300, mu=1.0, k=0.5, reaction=False)
        u = np.zeros(d.shape)
        u[2] = 1.0
        u0, v0 = Field(u, d), Field.constant(d, 0.0)
        cfg = StepperConfig(dt_init=1.0, dt_min=1e-12, dt_max=1.0, safety=1.0,
                            t_end=0.3, observer_stride=3, blowup_threshold=1e6)
    elif name == "steady-2d":
        # the constant steady state: each solve's warm start meets its target
        d = Domain((1.0, 1.0), (6, 6))
        p = ModelParams(tau=1.4, chi=0.9, mu=2.0, a=1.0, k=0.5, p=1.0)
        u0 = v0 = Field.constant(d, p.a / p.mu)
        cfg = StepperConfig(dt_init=1e-3, dt_min=1e-10, dt_max=1e-2, t_end=0.05,
                            observer_stride=3, blowup_threshold=1e6)
    elif name == "drain-1d":
        # v has a sharp minimum in cell 1, which drains through both faces
        d = Domain((1.0,), (4,))
        u0 = Field(np.array([0.51182162, 0.9504637, 0.14415961, 0.94864945]), d)
        v0 = Field(np.array([0.54959369, 0.02755911, 0.75351311, 0.53814331]), d)
        p = ModelParams(tau=1.0, chi=9.0, mu=1.0, k=1.0, reaction=False)
        cfg = StepperConfig(dt_init=0.1, dt_min=1e-10, dt_max=0.1, t_end=0.1,
                            observer_stride=3, blowup_threshold=1e6)
    else:
        # a flat signal under a tall bump steepens past the advective CFL
        # within one step, so the step re-solves with a smaller dt
        d = Domain((1.0,) * dim, (n,) * dim)
        p = ModelParams(tau=1.0, chi=8.0, mu=1.0, a=0.0, k=0.01, p=0.0,
                        reaction=False)
        u0, _ = build_ic(ICSpec("gaussian_bump", 30.0, 0.1), d)
        v0 = Field.constant(d, 0.0)
        cfg = StepperConfig(dt_init=1e-2, dt_min=1e-10, dt_max=1e-2, t_end=0.05,
                            observer_stride=3, blowup_threshold=1e6)
    return p, cfg, SimState(t=0.0, u=u0, v=v0)


def _spy_step(monkeypatch, state, p, cfg):
    """One step, with the set of paths it took: "resolve" (more than one
    signal solve), "unmoved" (a solve returned its warm start), "v-clamp"
    and "u-clamp" (a round-off clamp changed the field) and "drain" (the dt
    rule took the fastest outflow)."""
    solves, clamps, drains = [], [], []
    solve, clamp, outflow = (stepper._solve_helmholtz, stepper._clamp_roundoff,
                             stepper._max_outflow)

    def counted_solve(*args):
        out = solve(*args)
        solves.append(out[0] is state.v.values)
        return out

    def watched_clamp(vals, band=1.0e-13):
        out = clamp(vals, band)
        clamps.append((band, out[0] is not vals))
        return out

    def counted_outflow(*args):
        drains.append(1)
        return outflow(*args)

    monkeypatch.setattr(stepper, "_solve_helmholtz", counted_solve)
    monkeypatch.setattr(stepper, "_clamp_roundoff", watched_clamp)
    monkeypatch.setattr(stepper, "_max_outflow", counted_outflow)
    new = step(state, p, cfg)
    monkeypatch.undo()
    *v_clamps, (_, u_clamped) = clamps   # one per solve, then the density's
    taken = {"resolve": len(solves) > 1, "unmoved": any(solves),
             "v-clamp": any(c for _, c in v_clamps),
             "u-clamp": u_clamped, "drain": bool(drains)}
    return new, {path for path, hit in taken.items() if hit}


# the paths each case's first step takes; the chemotaxis of most cases is
# strong enough to trip the dt rule's drain check
CARRY_PATHS = {
    "plain-1d": {"drain"}, "plain-2d": {"drain"}, "clamp-2d": {"v-clamp", "drain"},
    "resolve-1d": {"resolve", "drain"}, "resolve-2d": {"resolve", "drain"},
    "uclamp-1d": {"u-clamp"}, "drain-1d": {"drain"},
    "steady-2d": {"unmoved"},
    # the slice path, on grids above grid._GATHER_MAX_CELLS
    "plain-2d@40": {"drain"}, "resolve-2d@40": {"resolve", "drain"},
    "plain-1d@1100": set(),
}


def _stepped(state, p, cfg):
    """The final state of a loop of public step() calls, which computes
    everything about each state from its arrays."""
    while state.status is RunStatus.RUNNING:
        state = step(state, p, cfg)
    return state


@pytest.mark.parametrize("name", list(CARRY_PATHS))
def test_carried_stencil_is_invisible(monkeypatch, name):
    p, cfg, s0 = _carry_case(name)
    s1, taken = _spy_step(monkeypatch, s0, p, cfg)
    assert s1.status is RunStatus.RUNNING
    assert taken == CARRY_PATHS[name]
    carried = run_state(s0, p, cfg).final
    fresh = _stepped(s0, p, cfg)
    assert carried.steps == fresh.steps > 3
    assert carried.status is fresh.status
    assert carried.t == fresh.t
    assert np.array_equal(carried.u.values, fresh.u.values)
    assert np.array_equal(carried.v.values, fresh.v.values)


def test_a_step_that_leaves_a_negative_density_raises(monkeypatch):
    # the dt rule without its drain branch lets this step empty cell 1 and
    # overshoot: a negative density far beyond the round-off clamp's band,
    # which the step that makes it rejects, alone and inside a run
    p, cfg, s0 = _carry_case("drain-1d")
    monkeypatch.setattr(stepper, "_max_outflow", lambda *args: 0.0)
    for take in (step, run_state):
        with pytest.raises(ValueError, match=r"left a negative density beyond "
                                             r"rounding \(min -0\.0[0-9]"):
            take(s0, p, cfg)


def test_a_step_that_leaves_a_negative_signal_raises(monkeypatch):
    # without the signal's round-off clamp, this step's solve leaves
    # rounding-level negatives far from the spike, which the step rejects
    p, cfg, s0 = _carry_case("clamp-2d")
    clamp = stepper._clamp_roundoff
    monkeypatch.setattr(stepper, "_clamp_roundoff",
                        lambda vals, band=None: clamp(vals) if band is None
                        else clamp(vals, 0.0))
    for take in (step, run_state):
        with pytest.raises(ValueError, match="left a negative signal beyond rounding"):
            take(s0, p, cfg)


def test_unmoved_signal_keeps_its_carry(monkeypatch):
    # a steady run: the signal's maxima come from the starting state's carry
    # alone, and the only round-off clamp of each step is the density's
    p, cfg, s0 = _carry_case("steady-2d")
    maxima, bands = [], []
    face_max, clamp = stepper._face_max, stepper._clamp_roundoff

    def counted_face_max(g, *out):
        maxima.append(1)
        return face_max(g, *out)

    def counted_clamp(vals, band=1.0e-13):
        bands.append(band)
        return clamp(vals, band)

    monkeypatch.setattr(stepper, "_face_max", counted_face_max)
    monkeypatch.setattr(stepper, "_clamp_roundoff", counted_clamp)
    final = run_state(s0, p, cfg).final
    assert final.status is RunStatus.FINISHED and final.steps > 3
    assert len(maxima) == 1
    assert bands == [1.0e-13] * final.steps


@pytest.mark.parametrize("name, cells, value", [
    ("signal", [1], -1e-10), ("signal", slice(None), -1.0),
    ("density", [2], np.nan), ("density", [0], np.inf),
    ("signal", [3], np.nan), ("signal", [1], np.inf)],
    ids=["v-noise", "v-negative", "u-nan", "u-inf", "v-nan", "v-inf"])
def test_step_rejects_the_states_a_run_rejects(name, cells, value):
    # step() and run_state() accept exactly the same states: finite and
    # nonnegative fields, a rounding-level negative signal entry included
    d = Domain((1.0,), (4,))
    fields = {"density": np.zeros(d.shape), "signal": np.zeros(d.shape)}
    fields[name][cells] = value
    state = SimState(0.0, Field(fields["density"], d), Field(fields["signal"], d))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    cfg = StepperConfig(dt_init=1e-12, dt_min=1e-13, dt_max=1e-12)
    errors = []
    for take in (step, run_state):
        with pytest.raises(ValueError, match=f"^initial data must be finite and "
                                             f"nonnegative, got a .* {name} ") as exc:
            take(state, p, cfg)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def _edit_case(d):
    p = ModelParams(tau=1.0, chi=2.0, mu=1.0, a=1.0, k=0.5)
    u0, v0 = build_ic(ICSpec("gaussian_bump", 2.0, 0.15), d)
    cfg = StepperConfig(dt_max=1e-2, t_end=0.3, blowup_threshold=1e6)
    return p, cfg, step(SimState(t=0.0, u=u0, v=v0), p, cfg)


@pytest.mark.parametrize("d, value", [(Domain((1.0,), (16,)), -0.5),
                                      (Domain((1.0, 1.0), (6, 6)), -0.2)])
def test_density_set_negative_in_place_is_rejected(d, value):
    p, cfg, s1 = _edit_case(d)
    s1.u.values.flat[3] = value
    with pytest.raises(ValueError, match="negative density"):
        step(s1, p, cfg)


def test_signal_scaled_in_place_runs_as_a_rebuilt_state():
    p, cfg, s1 = _edit_case(Domain((1.0,), (16,)))
    v = s1.v.values
    v *= 3.0
    edited = run_state(s1, p, cfg).final
    rebuilt = run_state(SimState(s1.t, s1.u.copy(), s1.v.copy(), s1.steps), p, cfg).final
    assert edited.steps == rebuilt.steps > s1.steps + 3
    assert edited.status is rebuilt.status is RunStatus.FINISHED
    assert edited.t == rebuilt.t
    assert np.array_equal(edited.u.values, rebuilt.u.values)
    assert np.array_equal(edited.v.values, rebuilt.v.values)


@pytest.mark.parametrize("name", ["plain-1d", "plain-2d"])
def test_carried_step_takes_one_signal_stencil(monkeypatch, name):
    p, cfg, s0 = _carry_case(name)
    grads, laps = [], []
    grad, divergence = grid._grad, grid._divergence

    def counted_grad(v, d, *out):
        g = grad(v, d, *out)
        grads.append(g)
        return g

    def counted_divergence(flux, d, *out):
        # a run's gradients alternate between two arrays of its own, so
        # each divergence of a gradient counts once
        if any(flux is g for g in grads):
            laps.append(1)
        return divergence(flux, d, *out)

    monkeypatch.setattr(grid, "_grad", counted_grad)
    monkeypatch.setattr(grid, "_divergence", counted_divergence)
    # a run: the starting state's stencil, then one per state a step makes
    final = run_state(s0, p, cfg).final
    assert final.steps > 3
    assert (len(grads), len(laps)) == (final.steps + 1, final.steps + 1)
    # the public step: the given state's stencil, then the result's
    for state in (s0, step(s0, p, cfg)):
        grads.clear()
        laps.clear()
        step(state, p, cfg)
        assert (len(grads), len(laps)) == (2, 2)


# ------------------------------------------------------- a run's own arrays

@pytest.mark.parametrize("name", ["plain-2d", "plain-2d@40", "plain-1d@1100"])
def test_runs_on_one_domain_keep_their_own_arrays(name):
    # a run writes its steps into arrays of its own, so a second run on the
    # same domain, from other data, leaves the first's results as they were
    p, cfg, s0 = _carry_case(name)
    first = run(s0.u, s0.v, p, cfg, capture_fields=True)
    final = [first.final.u.values.copy(), first.final.v.values.copy()]
    captured = [(t, u.values.copy(), v.values.copy()) for t, u, v in first.snapshots]
    d = s0.domain
    second = run(Field(0.5 * s0.u.values, d), Field(s0.v.values + 0.25, d), p, cfg,
                 capture_fields=True)
    assert first.final.steps > 3 and second.final.steps > 3
    assert not np.array_equal(second.final.u.values, final[0])
    assert np.array_equal(first.final.u.values, final[0])
    assert np.array_equal(first.final.v.values, final[1])
    assert len(first.snapshots) == len(captured) > 2
    for (t, u, v), (t0, u0, v0) in zip(first.snapshots, captured):
        assert t == t0
        assert np.array_equal(u.values, u0) and np.array_equal(v.values, v0)


@pytest.mark.parametrize("name", [n for n in CARRY_PATHS if n != "steady-2d"])
def test_step_leaves_its_inputs_and_shares_no_memory_with_them(name):
    # steady-2d's signal does not move, and step() hands it back as it is
    p, cfg, s0 = _carry_case(name)
    given = [s0.u.values.copy(), s0.v.values.copy()]
    s1 = step(s0, p, cfg)
    assert np.array_equal(s0.u.values, given[0]) and np.array_equal(s0.v.values, given[1])
    for new in (s1.u.values, s1.v.values):
        for old in (s0.u.values, s0.v.values):
            assert not np.shares_memory(new, old)


@pytest.mark.parametrize("name", ["plain-2d", "resolve-2d@40", "plain-1d@1100"])
def test_run_state_leaves_the_given_state_unchanged(name):
    p, cfg, s0 = _carry_case(name)
    given = [s0.u.values.copy(), s0.v.values.copy()]
    assert run_state(s0, p, cfg).final.steps > 3
    assert np.array_equal(s0.u.values, given[0]) and np.array_equal(s0.v.values, given[1])


@pytest.mark.parametrize("case", [0.0, 1.0, "resolve-2d@128"])
def test_run_steps_allocate_no_full_size_array(monkeypatch, case):
    # criterion 7's physics at 128^2 with diffusivity exponent 0 and 1, and
    # a 128^2 run whose dt rule takes its fastest outflow more often than
    # the run steps: after the first steps (the first builds the signal's eigenbasis), a
    # step writes every full-size array into the run's own and allocates at
    # its peak less than two cell arrays (numpy's iterator buffers for
    # broadcast and strided operands, at most 8192 elements each, which
    # below about 110^2 cells alone come to more)
    if isinstance(case, str):
        p, cfg, s0 = _carry_case(case)
        cfg = replace(cfg, max_steps=6)
        u0, v0, d = s0.u, s0.v, s0.domain
    else:
        d = Domain((1.0, 1.0), (128, 128))
        p = ModelParams(tau=1.0, chi=1.0, mu=10.0, a=4.0, k=1.0, p=case)
        u0, v0 = build_ic(ICSpec("gaussian_bump", 0.35, 0.15), d)
        cfg = StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=1e-2, max_steps=6,
                            blowup_threshold=1e6)
    peaks, drains = [], []
    inner, outflow = stepper._step, stepper._max_outflow

    def traced(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = inner(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    def counted_outflow(*args):
        drains.append(1)
        return outflow(*args)

    monkeypatch.setattr(stepper, "_step", traced)
    monkeypatch.setattr(stepper, "_max_outflow", counted_outflow)
    tracemalloc.start()
    try:
        final = run(u0, v0, p, cfg).final
    finally:
        tracemalloc.stop()
    # the seventh call meets the budget and ends the run without a step
    assert final.steps == len(peaks) - 1 == 6
    assert (len(drains) > final.steps) == isinstance(case, str)
    assert max(peaks[2:]) < 2 * d.n_cells * 8
    # the signal's inverse took the folded basis on both axes
    assert all(type(c) is grid._Fold for c in d._eigen[0])


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
