"""Theory constants, norm monitors, the regularity-constant estimator,
and the two classifiers."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from kellerscope import (Domain, Field, ModelParams, RunOutcome, RunStatus,
                         SimState, StepperConfig, TheoryRegime,
                         C2, classify_run, classify_theory,
                         estimate_c_reg, lgamma_norm, mu_threshold, run, theta0)
from kellerscope.ic import ICSpec, build_ic
from kellerscope.stepper import ObserverSample


# ------------------------------------------------------------- lgamma_norm

def test_lgamma_norm_constant_on_unit_domain():
    d = Domain((1.0,), (8,))
    f = Field.constant(d, 3.7)
    for gamma in (1.0, 2.0, 5.5):
        assert lgamma_norm(f, gamma, d) == pytest.approx(3.7, rel=1e-13)


def test_lgamma_norm_gamma_one_is_mass():
    d = Domain((2.0,), (10,))
    rng = np.random.default_rng(1)
    f = Field(rng.random(10), d)
    from kellerscope import integrate
    assert lgamma_norm(f, 1.0, d) == pytest.approx(integrate(f, d), rel=1e-14)


def test_lgamma_norm_arithmetic():
    d = Domain((3.0,), (3,))   # h = 1
    f = Field(np.array([1.0, 2.0, 0.0]), d)
    assert lgamma_norm(f, 2.0, d) == pytest.approx(math.sqrt(5.0), rel=1e-14)


def test_lgamma_norm_rejects_gamma_below_one():
    d = Domain((1.0,), (4,))
    with pytest.raises(ValueError):
        lgamma_norm(Field.constant(d, 1.0), 0.9, d)


@pytest.mark.parametrize("vals, clipped", [
    ([1.0, 2.0, -1e-14], True),     # round-off below 1e-12 of the scale
    ([1e6, 2e6, -1e-7], True),      # the band grows with the field's scale
    ([1.0, 2.0, -1e-9], False),
    ([1e6, 2e6, -1e-5], False),
])
def test_lgamma_norm_clips_round_off_and_rejects_negative_data(vals, clipped):
    d = Domain((3.0,), (3,))   # h = 1
    f = Field(np.array(vals), d)
    if clipped:
        want = lgamma_norm(Field(np.maximum(f.values, 0.0), d), 2.0, d)
        assert lgamma_norm(f, 2.0, d) == want
    else:
        with pytest.raises(ValueError, match="nonnegative"):
            lgamma_norm(f, 2.0, d)


def test_lgamma_norm_monotone_in_gamma_on_probability_domain():
    d = Domain((1.0,), (32,))
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = Field(rng.random(32) + 0.01, d)
        norms = [lgamma_norm(f, g, d) for g in (1.0, 1.5, 2.0, 3.0, 6.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


# ----------------------------------------------------------------------- C2

def test_c2_value_against_grid_scan():
    # scan of (1/g)(1+1/g)^-(g+1) on (1, 500] plus the g->1+ limit
    g = 1.0 + np.arange(1, 4_990_001) * 1e-4
    f = (1.0 / g) * (1.0 + 1.0 / g) ** (-(g + 1.0))
    scan_sup = max(float(f.max()), 0.25)  # limit value at g -> 1+
    assert abs(C2 - scan_sup) <= 1e-6
    assert np.all(np.diff(f) < 0.0)  # strictly decreasing on the scan


def test_c2_sanity_points():
    g = 2.0
    assert (1 / g) * (1 + 1 / g) ** (-(g + 1)) == pytest.approx(4.0 / 27.0)
    assert 4.0 / 27.0 < C2
    g = 100.0
    assert (1 / g) * (1 + 1 / g) ** (-(g + 1)) < 0.004


# ------------------------------------------------------------- mu_threshold

def test_mu_threshold_example():
    assert mu_threshold(2.0, 1.0, 1.0, 1.0) == pytest.approx(1.25, rel=1e-14)


def test_mu_threshold_chi_limit_and_linearity():
    base = mu_threshold(3.0, 2.0, 1e-8, 5.0)
    assert base == pytest.approx(2.0, rel=1e-9)
    one = mu_threshold(3.0, 2.0, 1.5, 5.0) - 2.0
    two = mu_threshold(3.0, 2.0, 1.5, 10.0) - 2.0
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_mu_threshold_rejects_bad_arguments():
    for bad in (dict(gamma=1.0), dict(eta=0.0), dict(chi=-1.0), dict(c_reg=0.0)):
        kw = dict(gamma=2.0, eta=1.0, chi=1.0, c_reg=1.0)
        kw.update(bad)
        with pytest.raises(ValueError):
            mu_threshold(**kw)


# ------------------------------------------------------------------- theta0

def test_theta0_reference_point():
    th, eta = theta0(3.0, 1.0, 2.0)
    assert eta == pytest.approx(1.5 ** 0.25, rel=1e-12)
    assert eta == pytest.approx(1.1066819, abs=1e-7)
    assert th == pytest.approx(0.67770, abs=1e-5)
    h_star = mu_threshold(3.0, eta, 1.0, 2.0)
    assert h_star == pytest.approx(1.4755759, abs=1e-7)


def test_theta0_scale_free_in_chi():
    base, _ = theta0(2.5, 1.0, 3.0)
    for lam in (0.1, 10.0):
        scaled, _ = theta0(2.5, lam, 3.0)
        assert scaled == pytest.approx(base, rel=1e-12)


def test_theta0_decreasing_in_c_reg():
    values = [theta0(3.0, 1.0, c)[0] for c in (1.0, 10.0, 100.0)]
    assert values[0] > values[1] > values[2]


def test_theta0_matches_independent_minimizer():
    rng = np.random.default_rng(99)
    for _ in range(100):
        gamma0 = 1.0 + 10.0 ** rng.uniform(-1.0, 1.2)
        chi = 10.0 ** rng.uniform(-1.0, 1.0)
        c_reg = 10.0 ** rng.uniform(-2.0, 2.0)
        th, eta = theta0(gamma0, chi, c_reg)
        h = lambda e: mu_threshold(gamma0, e, chi, c_reg)
        res = minimize_scalar(h, bounds=(eta * 1e-4, eta * 1e4),
                              method="bounded",
                              options={"xatol": eta * 1e-12})
        assert chi / h(res.x) == pytest.approx(th, rel=1e-10)


def test_theta0_rejects_bad_arguments():
    # the last: eta* overflows, so the threshold is not finite
    for args in ((1.0, 1.0, 1.0), (3.0, 0.0, 1.0), (3.0, 1.0, -2.0), (math.inf, 1.0, 1.0),
                 (3.0, 1e300, 1e300)):
        with pytest.raises(ValueError):
            theta0(*args)


@given(gamma0=st.floats(1.0, 20.0, exclude_min=True), chi=st.floats(1e-100, 1e100),
       c_reg=st.floats(1e-3, 1e3))
@example(gamma0=3.0, chi=1e100, c_reg=1.0)
def test_theta0_is_the_finite_scale_free_minimum_property(gamma0, chi, c_reg):
    th, eta = theta0(gamma0, chi, c_reg)
    assert math.isfinite(th) and math.isfinite(eta)
    assert th == pytest.approx(theta0(gamma0, 1.0, c_reg)[0], rel=1e-12)
    h = mu_threshold(gamma0, eta, chi, c_reg)
    for f in (1.0 - 1e-3, 1.0 + 1e-3):
        assert mu_threshold(gamma0, eta * f, chi, c_reg) >= h


# ----------------------------------------------------------- estimate_c_reg

def make_samples(fields, dt, t0=0.0):
    return [(t0 + i * dt, u, v) for i, (u, v) in enumerate(fields)]


def test_estimate_c_reg_zero_solution():
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    zero = Field.constant(d, 0.0)
    samples = make_samples([(zero, zero)] * 4, 0.1)
    assert estimate_c_reg(samples, 2.0, p.tau) == 0.0


def test_estimate_c_reg_steady_state_is_zero():
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=2.0, a=1.0)
    const = Field.constant(d, 0.5)
    samples = make_samples([(const, const)] * 5, 0.05, t0=0.2)
    assert estimate_c_reg(samples, 2.0, p.tau) == 0.0


def test_estimate_c_reg_requires_two_samples_and_increasing_times():
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    f = Field.constant(d, 1.0)
    with pytest.raises(ValueError):
        estimate_c_reg([(0.0, f, f)], 2.0, p.tau)
    for times in ((0.0, 0.1, 0.1), (0.0, 0.2, 0.1)):
        with pytest.raises(ValueError):
            estimate_c_reg([(t, f, f) for t in times], 2.0, p.tau)
    with pytest.raises(ValueError):
        estimate_c_reg([(0.0, f, f), (0.1, f, f)], 1.0, p.tau)
    with pytest.raises(ValueError, match="tau must be positive"):
        estimate_c_reg([(0.0, f, f), (0.1, f, f)], 2.0, 0.0)


def test_a_run_that_stops_without_a_step_captures_each_state_once():
    # stride 5, max_steps 10: step 10 is sampled and captured, then the
    # MaxSteps stop adds its own row at dt 0 but no second capture of it
    d = Domain((1.0,), (8,))
    p = ModelParams()
    u0, v0 = build_ic(ICSpec("gaussian_bump", 1.0, 0.2), d)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-3, dt_max=1e-3, max_steps=10,
                        observer_stride=5, blowup_threshold=1e6)
    res = run(u0, v0, p, cfg, capture_fields=True)
    times = [t for t, _, _ in res.snapshots]
    assert len(times) == 3 and times[0] < times[1] < times[2] == res.final.t
    assert math.isfinite(estimate_c_reg(res.snapshots, 2.0, 1.0))
    assert res.series == run(u0, v0, p, cfg).series
    assert [(s.t, s.dt, s.status) for s in res.series] == [
        (0.0, 0.0, "Running"), (times[1], pytest.approx(1e-3), "Running"),
        (times[2], pytest.approx(1e-3), "Running"), (times[2], 0.0, "MaxSteps")]


def test_estimate_c_reg_weights_each_sample_by_its_interval():
    # h = 1: v = (0, 1, 0) has lap v = (1, -2, 1), so integral |lap v|^2 = 6,
    # integral v^2 = 1 and integral u^2 = 3 for u = 1; the samples at
    # 0, 0.1, 0.3 weigh 0.1, 0.2 and (the last interval again) 0.2
    d = Domain((3.0,), (3,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    u, v = Field.constant(d, 1.0), Field(np.array([0.0, 1.0, 0.0]), d)
    samples = [(t, u, v) for t in (0.0, 0.1, 0.3)]
    s = sum(math.exp(2.0 * (t - 0.3)) * w for t, w in ((0.0, 0.1), (0.1, 0.2), (0.3, 0.2)))
    want = 6.0 * s / (3.0 * s + math.exp(-0.6) * (1.0 + 6.0))
    assert estimate_c_reg(samples, 2.0, p.tau) == pytest.approx(want, rel=1e-12)


def test_estimate_c_reg_accepts_adaptive_dt_run():
    d = Domain((1.0, 1.0), (16, 16))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0, k=1.0, phi_family="linear")
    u0, v0 = build_ic(ICSpec("gaussian_bump", 3.0, 0.15), d)
    cfg = StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=1e-2, t_end=0.3,
                        observer_stride=5, blowup_threshold=1e6)
    res = run(u0, v0, p, cfg, capture_fields=True)
    assert res.final.steps >= 200
    gaps = np.diff([t for t, _, _ in res.snapshots])
    assert gaps.max() > 1.1 * gaps.min()     # sampled at uneven times
    r = estimate_c_reg(res.snapshots, 2.0, p.tau)
    assert 0.0 < r < math.inf


def test_estimate_c_reg_zero_forcing_inconsistency():
    # curvature accumulates while the forcing and initial terms are all
    # zero: the ratio is undefined and must be reported, not divided
    d = Domain((1.0,), (8,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0)
    zero = Field.constant(d, 0.0)
    bump = Field(np.array([0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0]), d)
    samples = [(0.0, zero, zero), (0.1, zero, bump)]
    with pytest.raises(RuntimeError):
        estimate_c_reg(samples, 2.0, p.tau)


def test_estimate_c_reg_is_invariant_to_a_shift_of_every_time():
    # criterion 11's 48-cell trajectory, shifted to t = 1e3, where a weight
    # e^{(r/tau) t} not referenced to the last sample overflows a double
    d = Domain((1.0,), (48,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.5, k=1.0, phi_family="linear")
    u0, v0 = build_ic(ICSpec("gaussian_bump", 2.0, 0.08), d)
    dt = 2e-5
    cfg = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=0.05,
                        observer_stride=50, blowup_threshold=1e6)
    snaps = run(u0, v0, p, cfg, capture_fields=True).snapshots
    late = [(t + 1e3, u, v) for t, u, v in snaps]
    with pytest.raises(OverflowError):
        math.exp(2.0 / p.tau * late[0][0])
    base = estimate_c_reg(snaps, 2.0, p.tau)
    shifted = estimate_c_reg(late, 2.0, p.tau)
    assert base > 0.0 and math.isfinite(shifted)
    assert shifted == pytest.approx(base, rel=1e-9)


def test_estimate_c_reg_positive_on_bump_run():
    d = Domain((1.0,), (32,))
    p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, reaction=False)
    u0, v0 = build_ic(ICSpec("gaussian_bump", 2.0, 0.1), d)
    dt = 1e-4
    cfg = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=0.02,
                        observer_stride=20, blowup_threshold=1e6)
    res = run(u0, v0, p, cfg, capture_fields=True)
    ratio = estimate_c_reg(res.snapshots, 2.0, p.tau)
    assert 0.0 < ratio < math.inf


# ----------------------------------------------------------- classify_theory

def test_classify_theory_paper_examples():
    assert classify_theory(1.0, 10.0, 0.5) \
        is TheoryRegime.CRITICAL_BOUNDED_BY_LOGISTIC


def test_classify_theory_rule_order():
    # a ratio above the threshold stays open, and so does one exactly at it
    assert classify_theory(1.0, 1.0, 0.5) \
        is TheoryRegime.CRITICAL_UNDETERMINED
    assert classify_theory(1.0, 2.0, 0.5) \
        is TheoryRegime.CRITICAL_UNDETERMINED


def test_classify_theory_stable_under_ratio_preserving_perturbations():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = 10.0 ** rng.uniform(-1, 1)
        chi = 10.0 ** rng.uniform(-1, 1)
        ratio = theta * rng.uniform(0.1, 0.95)   # stay below the threshold
        mu = chi / ratio
        base = classify_theory(chi, mu, theta)
        assert base is TheoryRegime.CRITICAL_BOUNDED_BY_LOGISTIC
        scale = rng.uniform(0.5, 2.0)
        again = classify_theory(chi * scale, mu * scale, theta)
        assert again is base


positive = st.floats(1e-6, 1e6)


@given(chi=positive, mu=positive, theta=positive)
@example(chi=1.0, mu=2.0, theta=0.5)
def test_classify_theory_is_the_ratio_rule_property(chi, mu, theta):
    # one comparison decides, and nothing else enters
    bounded = classify_theory(chi, mu, theta) is TheoryRegime.CRITICAL_BOUNDED_BY_LOGISTIC
    assert bounded == (chi / mu < theta)


@given(args=st.lists(positive, min_size=3, max_size=3),
       at=st.integers(0, 2),
       bad=st.floats(max_value=0.0) | st.just(math.nan))
def test_classify_theory_rejects_non_positive_inputs_property(args, at, bad):
    args[at] = bad
    with pytest.raises(ValueError, match="must be positive"):
        classify_theory(*args)


# -------------------------------------------------------------- classify_run

def fake_state(status):
    d = Domain((1.0,), (4,))
    return SimState(t=1.0, u=Field.constant(d, 1.0), v=Field.constant(d, 1.0),
                    status=status)


def fake_series(sups, status="Finished"):
    return [ObserverSample(t=float(i), dt=1.0, mass=1.0, sup_u=s, sup_v=s,
                           l2_u=s, lgamma_u=s, status=status)
            for i, s in enumerate(sups)]


def test_classify_run_blowup_passthrough():
    out = classify_run(fake_state(RunStatus.BLOWUP), fake_series([1, 2, 3]),
                       StepperConfig())
    assert out is RunOutcome.BLOWUP


def test_classify_run_steady_series_is_bounded():
    out = classify_run(fake_state(RunStatus.FINISHED),
                       fake_series([1.0] * 20), StepperConfig())
    assert out is RunOutcome.BOUNDED


def test_classify_run_growing_tail_is_undecided():
    sups = list(np.linspace(1.0, 2.0, 50))   # 30%-ish growth in last window
    out = classify_run(fake_state(RunStatus.FINISHED), fake_series(sups),
                       StepperConfig())
    assert out is RunOutcome.UNDECIDED


def test_classify_run_spike_above_median_is_undecided():
    sups = [1.0] * 40 + [15.0] + [1.0] * 10  # spike 15x the median
    out = classify_run(fake_state(RunStatus.FINISHED), fake_series(sups),
                       StepperConfig())
    assert out is RunOutcome.UNDECIDED


def test_classify_run_stalled_is_undecided():
    # a run stopped by the dt floor or by the step budget did not reach t_end
    for status in (RunStatus.DT_FLOOR, RunStatus.MAX_STEPS):
        out = classify_run(fake_state(status), fake_series([1.0] * 10), StepperConfig())
        assert out is RunOutcome.UNDECIDED


def test_classify_run_zero_solution_is_bounded():
    out = classify_run(fake_state(RunStatus.FINISHED),
                       fake_series([0.0] * 12), StepperConfig())
    assert out is RunOutcome.BOUNDED
