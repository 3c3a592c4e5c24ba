"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every criterion prints one line, ``ACCEPTANCE <n> <name>: PASS|FAIL``, on the
captured stdout (run with ``pytest tests/test_acceptance.py -v -s`` to watch
them live). Shared expensive artifacts (the randomized-run batch) are built
once per session.
"""

import contextlib
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from kellerscope import (Domain, Field, ModelParams, RunOutcome, RunStatus,
                         StepperConfig, c2_constant, estimate_c_reg, integrate,
                         lgamma_norm, mu_threshold, run, theta0)
from kellerscope.cli import main
from kellerscope.diagnostics import classify_run
from kellerscope.ic import ICName, ICSpec, build_ic


@contextlib.contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {num} runtime {elapsed:.1f}s exceeds {budget_s}s")
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num:2d} {name}: FAIL ({elapsed:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 1

def test_criterion_1_homogeneous_logistic_oracle():
    with criterion(1, "homogeneous logistic oracle", 5.0):
        d = Domain((1.0,), (3,))
        p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=2.0)
        dt = 5.0e-4
        cfg = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=5.0,
                            observer_stride=20, blowup_threshold=1e6)
        res = run(Field.constant(d, 1.0), Field.constant(d, 1.0), p, cfg)
        assert res.final.status is RunStatus.FINISHED

        def exact(t):  # u' = 2u - u^2, u(0) = 1
            return 2.0 * math.exp(2.0 * t) / (1.0 + math.exp(2.0 * t))

        err = max(abs(s.sup_u - exact(s.t)) for s in res.series)
        assert err <= 1.0e-3, f"max logistic deviation {err:.2e}"


# --------------------------------------------------------------- criterion 2

def test_criterion_2_steady_state_fixed_point():
    with criterion(2, "steady state preserved 1e4 steps", 10.0):
        rng = np.random.default_rng(20240811)
        for case in range(5):
            tau = 10.0 ** rng.uniform(-0.3, 0.3)
            chi = 10.0 ** rng.uniform(-0.5, 0.3)
            mu = 10.0 ** rng.uniform(-0.3, 0.5)
            a = rng.uniform(0.2, 2.0)
            k = 10.0 ** rng.uniform(-0.5, 0.2)
            p_exp = float(rng.integers(0, 3))
            p = ModelParams(tau=tau, chi=chi, mu=mu, a=a, k=k, p=p_exp)
            d = Domain((1.0,), (8,)) if case % 2 else Domain((1.0, 1.0), (6, 6))
            u_star = p.a / p.mu
            dt = 1e-4
            cfg = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=1.0001,
                                observer_stride=2000, blowup_threshold=1e6)
            res = run(Field.constant(d, u_star), Field.constant(d, u_star),
                      p, cfg)
            assert res.final.steps >= 10_000
            drift = max(np.max(np.abs(res.final.u.values - u_star)),
                        np.max(np.abs(res.final.v.values - u_star)))
            assert drift <= 1e-10, f"case {case}: drift {drift:.2e}"


# ---------------------------------------------------- criteria 3 and 4 batch

def _random_case(seed):
    rng = np.random.default_rng([20240811, seed])
    tau = 10.0 ** rng.uniform(-0.3, 0.3)
    chi = 10.0 ** rng.uniform(-0.7, 0.3)
    mu = 10.0 ** rng.uniform(-0.3, 0.5)
    a = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 2.0)
    k = 10.0 ** rng.uniform(-0.5, 0.2)
    p_exp = float(rng.integers(0, 3))
    family = "linear" if (p_exp == 0 and rng.random() < 0.5) else "canonical"
    reaction = bool(rng.random() < 0.85)
    params = ModelParams(tau=tau, chi=chi, mu=mu, a=a, k=k, p=p_exp,
                         phi_family=family, reaction_on=reaction)
    if seed % 2:
        domain = Domain((1.0,), (24,))
    else:
        domain = Domain((1.0, 1.0), (10, 10))
    amp = rng.uniform(0.2, 2.0)
    if seed % 3 == 0:
        u0 = Field(amp * rng.random(domain.shape), domain)
        v0 = Field(amp * rng.random(domain.shape), domain)
    else:
        name = list(ICName)[seed % 4]
        u0, v0 = build_ic(ICSpec(name, amp, rng.uniform(0.08, 0.25)),
                          domain, rng, perturbation=0.3)
    cfg = StepperConfig(dt_init=1e-3, dt_min=1e-12, dt_max=5e-3, t_end=0.15,
                        observer_stride=10, blowup_threshold=None)
    return params, domain, u0, v0, cfg


_BATCH: list = []


def randomized_runs():
    """50 randomized runs, built once and reused by criteria 3 and 4."""
    if not _BATCH:
        for seed in range(50):
            params, domain, u0, v0, cfg = _random_case(seed)
            res = run(u0, v0, params, cfg, capture_fields=True)
            _BATCH.append((seed, params, domain, res))
    return _BATCH


def test_criterion_3_positivity():
    with criterion(3, "positivity across 50 randomized runs", 120.0):
        for seed, params, domain, res in randomized_runs():
            for t, u, v in res.snapshots:
                u_scale = max(1.0, float(np.max(np.abs(u.values))))
                v_scale = max(1.0, float(np.max(np.abs(v.values))))
                assert np.min(u.values) >= -1e-14 * u_scale, \
                    f"seed {seed}: negative u at t={t}"
                assert np.min(v.values) >= -1e-14 * v_scale, \
                    f"seed {seed}: negative v at t={t}"


def _rk4_mass_ode(m0, a_eff, mu_over_measure, times):
    """Fourth-order fixed-step integration of m' = a*m - (mu/|box|)*m^2."""
    f = lambda m: a_eff * m - mu_over_measure * m * m
    out = [m0]
    m = m0
    for t0, t1 in zip(times, times[1:]):
        n_sub = 32
        h = (t1 - t0) / n_sub
        for _ in range(n_sub):
            k1 = f(m)
            k2 = f(m + 0.5 * h * k1)
            k3 = f(m + 0.5 * h * k2)
            k4 = f(m + h * k3)
            m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(m)
    return np.array(out)


def test_criterion_4_mass_bound():
    with criterion(4, "mass bound vs comparison law", 120.0):
        for seed, params, domain, res in randomized_runs():
            masses = np.array([s.mass for s in res.series])
            times = np.array([s.t for s in res.series])
            m0 = masses[0]
            if params.reaction_on:
                cap = max(m0, params.a * domain.measure / params.mu)
                a_eff, mu_eff = params.a, params.mu
            else:
                cap = m0
                a_eff, mu_eff = 0.0, 0.0
            assert np.all(masses <= cap * (1.0 + 1e-6)), \
                f"seed {seed}: mass exceeds max(m0, a|box|/mu)"
            # Cross-check against the integrated comparison law. Two known
            # first-order effects let the discrete mass sit slightly above
            # the exact comparison flow: the semi-implicit quadratic sink
            # exceeds the exact local flow by (a/2)(mu max u) dt^2 per step
            # (compounds to at most exp(a t / 4) under the reaction part of
            # the step-size limit), and the sink couples to the diffusive
            # flux at O(mu dt^2 * integral(phi |grad u|^2)) per step, which
            # under the diffusion step-size limit stays within a few percent
            # over these short horizons. Envelope: exp(a t / 2) times a
            # flat 5% allowance for the flux coupling.
            m_ode = _rk4_mass_ode(m0, a_eff, mu_eff / domain.measure, times)
            envelope = m_ode * np.exp(0.5 * a_eff * times) * 1.05 + 1e-15
            assert np.all(masses <= envelope), \
                f"seed {seed}: mass escapes the comparison envelope"


# --------------------------------------------------------------- criterion 5

def test_criterion_5_conservation_reaction_off():
    with criterion(5, "mass conservation over 1e4 steps", 120.0):
        for domain, dt in ((Domain((1.0,), (32,)), 2e-5),
                           (Domain((1.0, 1.0), (12, 12)), 5e-5)):
            p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.0, k=0.5,
                            phi_family="linear", reaction_on=False)
            u0, v0 = build_ic(ICSpec("gaussian_bump", 1.0, 0.12), domain)
            cfg = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt,
                                t_end=10_000 * dt, observer_stride=500,
                                blowup_threshold=1e6)
            res = run(u0, v0, p, cfg)
            assert res.final.steps >= 10_000
            masses = [s.mass for s in res.series]
            drift = max(abs(m - masses[0]) for m in masses) / masses[0]
            assert drift <= 1e-12, f"{domain.dim}d relative drift {drift:.2e}"


# --------------------------------------------------------------- criterion 6

def test_criterion_6_explicit_constants(capsys):
    with criterion(6, "explicit threshold constants", 5.0):
        # grid scan oracle for the Young-splitting constant
        g = 1.0 + np.arange(1, 4_990_001, dtype=np.float64) * 1e-4
        f = (1.0 / g) * (1.0 + 1.0 / g) ** (-(g + 1.0))
        scan = max(float(f.max()), 0.25)   # supremum attained at g -> 1+
        assert abs(c2_constant() - scan) <= 1e-6
        assert np.all(np.diff(f[:10_000]) < 0.0)

        rng = np.random.default_rng(6)
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

        assert main(["theta0", "3", "1", "2"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(row[3]) == pytest.approx(1.1066819197003215, abs=1e-6)
        assert float(row[5]) == pytest.approx(0.6777015027073837, abs=1e-6)


# --------------------------------------------------------------- criterion 7

@pytest.mark.slow
def test_criterion_7_damped_regime_bounded():
    with criterion(7, "damped 2d regime bounded + refinement", 600.0):
        shared = dict(tau=1.0, chi=1.0, a=4.0, k=1.0, phi_family="linear")
        ic = ICSpec("gaussian_bump", 0.35, 0.15)

        def simulate(cells, mu, t_end):
            d = Domain((1.0, 1.0), (cells, cells))
            cfg = StepperConfig(dt_init=1e-4, dt_min=1e-10, dt_max=1e-2,
                                t_end=t_end, observer_stride=50,
                                blowup_threshold=None)
            u0, v0 = build_ic(ic, d)
            res = run(u0, v0, ModelParams(mu=mu, **shared), cfg)
            return res, classify_run(res.final, res.series, cfg)

        for mu in (5.0, 10.0, 20.0):
            res, outcome = simulate(64, mu, 2.0)
            assert res.final.status is RunStatus.FINISHED
            assert outcome is RunOutcome.BOUNDED, f"mu={mu}: {outcome}"

        coarse, _ = simulate(64, 10.0, 1.0)
        fine, _ = simulate(128, 10.0, 1.0)
        sup_c = coarse.series[-1].sup_u
        sup_f = fine.series[-1].sup_u
        assert abs(sup_f - sup_c) <= 0.05 * abs(sup_f), (sup_c, sup_f)


# --------------------------------------------------------------- criterion 8

def test_criterion_8_blowup_detector_fires():
    with criterion(8, "aggregation blow-up detector", 300.0):
        # regression-fixed instance: strong sensitivity, growth switched
        # off, supercritical concentrated mass on a 64^2 grid
        d = Domain((1.0, 1.0), (64, 64))
        p = ModelParams(tau=1.0, chi=8.0, mu=1.0, a=0.0, k=1.0,
                        phi_family="linear", reaction_on=False)
        u0, v0 = build_ic(ICSpec("gaussian_bump", 30.0, 0.25), d)
        assert integrate(u0, d) > 10.0    # far above the critical mass
        cfg = StepperConfig(dt_init=1e-5, dt_min=1e-10, dt_max=1e-3,
                            t_end=0.3, observer_stride=100,
                            blowup_threshold=5.0e3)
        res = run(u0, v0, p, cfg)
        growth = max(s.sup_u for s in res.series) / u0.values.max()
        fired = res.final.status is RunStatus.BLOWUP
        assert fired or growth >= 1.0e3, (res.final.status, growth)
        outcome = classify_run(res.final, res.series, cfg)
        assert outcome is not RunOutcome.UNDECIDED
        # regression goldens for this fixed instance (first recorded run:
        # detector fired at t ~ 1e-3 after ~1e2 steps, growth > 100x)
        assert fired
        assert res.final.t < 0.05
        assert growth > 100.0


# --------------------------------------------------------------- criterion 9

def test_criterion_9_self_convergence():
    with criterion(9, "self-convergence order window", 60.0):
        p = ModelParams(tau=1.0, chi=0.5, mu=1.0, a=1.0, k=0.02, p=1.0)

        def solve(cells, dt_max):
            d = Domain((1.0,), (cells,))
            x = d.centers(0)
            u0 = Field(1.0 + 0.5 * np.cos(np.pi * x), d)
            v0 = Field(1.0 - 0.25 * np.cos(np.pi * x), d)
            cfg = StepperConfig(dt_init=dt_max, dt_min=1e-12, dt_max=dt_max,
                                t_end=0.25, observer_stride=10_000,
                                blowup_threshold=1e6)
            res = run(u0, v0, p, cfg)
            assert res.final.status is RunStatus.FINISHED
            return res.final.u.values

        ref = solve(512, 1e-5)
        errors = []
        for cells in (32, 64, 128):
            coarse = solve(cells, (1.0 / cells) / 20.0)
            restricted = ref.reshape(-1, 512 // cells).mean(axis=1)
            errors.append(float(np.max(np.abs(coarse - restricted))))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        mean_order = sum(orders) / len(orders)
        assert 0.8 <= mean_order <= 2.2, (errors, orders)


# -------------------------------------------------------------- criterion 10

SWEEP_CONFIG = """\
[domain]
dim = 2
lengths = 1.0, 1.0
cells = 32, 32

[model]
tau = 1.0
chi = 1.0
mu = 1.0
a = 1.0
phi_family = linear

[stepper]
dt_init = 1e-4
dt_min = 1e-10
dt_max = 1e-2
t_end = 0.3
observer_stride = 25
blowup_threshold = 1e6

[ic]
name = gaussian_bump
amplitude = 0.5
width = 0.15

[sweep]
chi_values = 0.5, 1.0, 2.0
mu_values = 2.0, 5.0, 10.0
p_values = 0.0
repeat = 1
seed = 11
"""


def test_criterion_10_sweep_determinism(tmp_path):
    with criterion(10, "sweep determinism 1 vs 8 workers", 300.0):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(SWEEP_CONFIG)
        out1 = tmp_path / "w1"
        out8 = tmp_path / "w8"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out8),
                     "--workers", "8"]) == 0
        rec1 = (out1 / "records.csv").read_bytes()
        rec8 = (out8 / "records.csv").read_bytes()
        assert rec1 == rec8
        map1 = (out1 / "regime_map.csv").read_bytes()
        map8 = (out8 / "regime_map.csv").read_bytes()
        assert map1 == map8
        assert rec1.decode().count("\n") == 10   # header + 9 cells


# -------------------------------------------------------------- criterion 11

def test_criterion_11_regularity_constant_estimator():
    with criterion(11, "empirical regularity constant", 120.0):
        d = Domain((1.0,), (16,))
        p = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.5)
        zero = Field.constant(d, 0.0)
        zeros = [(0.1 * i, zero, zero) for i in range(4)]
        assert estimate_c_reg(zeros, 2.0, p, 0.0) == 0.0
        u_star = p.a / p.mu
        const = Field.constant(d, u_star)
        steady = [(0.1 * i, const, const) for i in range(4)]
        assert estimate_c_reg(steady, 2.0, p, 0.0) == 0.0

        p_run = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=0.5, k=1.0,
                            phi_family="linear")

        def ratio(cells):
            dom = Domain((1.0,), (cells,))
            u0, v0 = build_ic(ICSpec("gaussian_bump", 2.0, 0.08), dom)
            dt = 2e-5
            cfg = StepperConfig(dt_init=dt, dt_min=dt, dt_max=dt, t_end=0.05,
                                observer_stride=50, blowup_threshold=1e6)
            res = run(u0, v0, p_run, cfg, capture_fields=True)
            assert res.final.status is RunStatus.FINISHED
            return res.snapshots

        snaps48 = ratio(48)
        r48 = estimate_c_reg(snaps48, 2.0, p_run, snaps48[0][0])
        snaps96 = ratio(96)
        r96 = estimate_c_reg(snaps96, 2.0, p_run, snaps96[0][0])
        assert 0.0 < r48 < math.inf
        # golden from the first recorded run of this fixed instance
        assert r48 == pytest.approx(0.002757497073227674, rel=1e-6)
        assert abs(r96 - r48) <= 0.20 * abs(r96), (r48, r96)
        shifted = estimate_c_reg(snaps48, 2.0, p_run, snaps48[0][0],
                                 weight_ref_time=0.0)
        assert shifted == pytest.approx(r48, rel=1e-12)
