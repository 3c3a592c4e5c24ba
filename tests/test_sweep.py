"""Sweep determinism, aggregation, and the IC catalogue."""

from dataclasses import fields, replace

import numpy as np
import pytest

from kellerscope import (Domain, ModelParams, RunOutcome, StepperConfig,
                         SweepSpec, TheoryRegime, build_ic, classify_run,
                         classify_theory, integrate, regime_map, run, run_sweep,
                         theta0)
from kellerscope.config import RunConfig
from kellerscope.ic import ICName, ICSpec
from kellerscope.sweep import RunRecord

_SWEEP_KEYS = {f.name for f in fields(SweepSpec)}


def small_cfg(**kw):
    """A 2 x 2 x 1 grid of 2 replicas on 16 cells; a keyword names a
    RunConfig part (domain, params, stepper, ic) or a SweepSpec field."""
    parts = dict(
        domain=Domain((1.0,), (16,)),
        params=ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0, phi_family="linear"),
        stepper=StepperConfig(dt_init=1e-3, dt_min=1e-8, dt_max=1e-3,
                              t_end=0.4, observer_stride=20,
                              blowup_threshold=1e6),
        ic=ICSpec("gaussian_bump", 0.5, 0.12),
    )
    sweep = dict(chi_values=(0.5, 1.0), mu_values=(2.0, 5.0), p_values=(0.0,),
                 repeat=2, seed=42)
    for key, val in kw.items():
        (sweep if key in _SWEEP_KEYS else parts)[key] = val
    return RunConfig(sweep=SweepSpec(**sweep), **parts)


# ------------------------------------------------------------------ IC zoo

def test_ic_families_shapes_and_nonnegativity():
    for d in (Domain((1.0,), (16,)), Domain((1.0, 1.0), (8, 8))):
        for name in ICName:
            u0, v0 = build_ic(ICSpec(name, 1.5, 0.2), d)
            assert u0.values.shape == d.shape
            assert np.min(u0.values) >= 0.0
            assert np.array_equal(u0.values, v0.values)


def test_ic_constant_amplitude_and_bump_mass():
    d = Domain((1.0,), (32,))
    u0, _ = build_ic(ICSpec("constant", 2.5, 0.1), d)
    assert np.all(u0.values == 2.5)
    u0, _ = build_ic(ICSpec("gaussian_bump", 1.0, 0.05), d)
    # mass of a narrow centered bump ~ amplitude * sqrt(2 pi) * width
    assert integrate(u0, d) == pytest.approx(np.sqrt(2 * np.pi) * 0.05, rel=1e-3)


def test_ic_perturbation_seeded_and_bounded():
    d = Domain((1.0,), (16,))
    rng1 = np.random.default_rng([7, 3])
    rng2 = np.random.default_rng([7, 3])
    a1, _ = build_ic(ICSpec("constant", 1.0, 0.1), d, rng1, 0.05)
    a2, _ = build_ic(ICSpec("constant", 1.0, 0.1), d, rng2, 0.05)
    assert np.array_equal(a1.values, a2.values)
    assert np.all(a1.values >= 1.0) and np.all(a1.values <= 1.05)


def test_ic_validation():
    with pytest.raises(ValueError):
        ICSpec("no_such_family", 1.0, 0.1)
    with pytest.raises(ValueError):
        ICSpec("constant", -1.0, 0.1)
    with pytest.raises(ValueError):
        ICSpec("constant", 1.0, 0.0)


# --------------------------------------------------------------- SweepSpec

def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(chi_values=())
    with pytest.raises(ValueError):
        SweepSpec(mu_values=(2.0, 1.0))       # not ascending
    with pytest.raises(ValueError):
        SweepSpec(chi_values=(-1.0, 1.0))
    with pytest.raises(ValueError):
        SweepSpec(repeat=0)


@pytest.mark.parametrize("name, value", [("repeat", 2.0), ("repeat", "2"),
                                         ("seed", 1.5), ("seed", 3.0)])
def test_sweep_spec_counts_must_be_integers(name, value):
    # a config file's int parser already refuses both; a spec built in code
    # refuses them too, rather than failing inside run_sweep or its cells
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        SweepSpec(**{name: value})
    assert getattr(SweepSpec(**{name: np.int64(2)}), name) == 2


def test_linear_family_sweeps_p_zero_alone():
    # ModelParams requires p = 0 under the linear family, so a swept p
    # would fail its cells; the canonical family takes any p. The rule
    # spans [model] and [sweep], so the RunConfig checks it, built in code too
    for p_values in ((0.0, 2.0), (1.0,)):
        assert SweepSpec(p_values=p_values).p_values == p_values
        with pytest.raises(ValueError, match="^p_values"):
            small_cfg(p_values=p_values)
    canonical = ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0)
    assert small_cfg(p_values=(0.0, 2.0), params=canonical).sweep.p_values == (0.0, 2.0)


# --------------------------------------------------------------- run_sweep

def test_sweep_single_cell_steady_state_bounded():
    p = ModelParams(tau=1.0, chi=0.5, mu=2.0, a=1.0, phi_family="linear")
    cfg = small_cfg(
        chi_values=(0.5,), mu_values=(2.0,), repeat=1,
        params=p,
        ic=ICSpec("constant", p.a / 2.0, 0.1),   # the steady state itself
    )
    records = run_sweep(cfg, workers=1)
    assert len(records) == 1
    assert records[0].outcome is RunOutcome.BOUNDED
    assert records[0].theory_prediction in TheoryRegime


def test_sweep_deterministic_across_workers():
    cfg = small_cfg()
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=4)
    assert serial == parallel   # wall_time is excluded from comparison


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_cell_is_the_run_of_its_config(workers):
    # replica 0 of a cell is `kellerscope run` of the same config at the
    # cell's chi, mu and p, classified as the CLI classifies it
    cfg = small_cfg()
    firsts = [r for r in run_sweep(cfg, workers=workers) if r.replica == 0]
    assert len(firsts) == 2 * 2 * 1
    for record in firsts:
        params = replace(cfg.params, chi=record.chi, mu=record.mu, p=record.p)
        u0, v0 = build_ic(cfg.ic, cfg.domain)
        res = run(u0, v0, params, cfg.stepper)
        assert record.outcome is classify_run(res.final, res.series, cfg.stepper)
        assert record.t_final.hex() == res.final.t.hex()
        assert record.sup_u_max.hex() == max(s.sup_u for s in res.series).hex()


def test_sweep_lexicographic_order():
    records = run_sweep(small_cfg(), workers=2)
    keys = [(r.chi, r.mu, r.p, r.replica) for r in records]
    assert keys == sorted(keys) and len(keys) == 2 * 2 * 1 * 2


def test_sweep_records_failures_as_undecided():
    # negative p with the canonical family cannot be constructed; the cell
    # must come back Undecided with a note instead of aborting the sweep
    cfg = small_cfg(p_values=(-1.0,), repeat=1,
                    params=ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0))
    records = run_sweep(cfg, workers=1)
    assert len(records) == 4
    assert all(r.outcome is RunOutcome.UNDECIDED for r in records)
    assert all("error" in r.note for r in records)


def test_sweep_runs_a_cell_of_huge_chi():
    # theta0's closed form stays finite at chi = 1e100: a prediction, a run
    cfg = small_cfg(chi_values=(1e100,), mu_values=(2.0,), repeat=1,
                    ic=ICSpec("constant", 0.5, 0.1))
    [record] = run_sweep(cfg, workers=1)
    assert record.note == ""
    assert record.theory_prediction is TheoryRegime.CRITICAL_UNDETERMINED
    assert record.outcome is RunOutcome.BOUNDED


def test_sweep_records_a_threshold_that_is_not_finite_as_an_error():
    # eta* overflows at chi = c_reg = 1e300: an error cell, not a silent
    # CriticalUndetermined prediction
    cfg = small_cfg(chi_values=(1e300,), mu_values=(2.0,), repeat=1,
                    c_reg=1e300, ic=ICSpec("constant", 0.5, 0.1))
    [record] = run_sweep(cfg, workers=1)
    assert record.outcome is RunOutcome.UNDECIDED
    assert record.note.startswith("error: threshold not finite")


def test_theory_column_ignores_p():
    # the rule is chi/mu against theta0 alone: every p of a (chi, mu) cell
    # gets one prediction, and the cells straddle the threshold (~0.81 at
    # the automatic gamma0 = 3 of a 1D grid, ~0.91 at gamma0 = 30)
    predicted = {}
    for gamma0 in (None, 30.0):
        cfg = small_cfg(chi_values=(0.5, 1.0), mu_values=(0.5, 1.2, 2.0),
                        p_values=(0.0, 1.0, 2.0), repeat=1, gamma0=gamma0,
                        params=ModelParams(tau=1.0, chi=1.0, mu=1.0, a=1.0),
                        stepper=StepperConfig(dt_init=1e-3, dt_min=1e-8,
                                              dt_max=1e-3, t_end=0.01,
                                              blowup_threshold=1e6))
        columns = {}
        for r in run_sweep(cfg, workers=1):
            assert r.note == ""
            columns.setdefault((r.chi, r.mu), set()).add(r.theory_prediction)
        spec = cfg.sweep
        resolved = 3.0 if gamma0 is None else gamma0   # auto: 1D floors at n = 2
        th = {chi: theta0(resolved, chi, spec.c_reg)[0] for chi in spec.chi_values}
        assert columns == {(chi, mu): {classify_theory(chi, mu, th[chi])}
                           for chi in spec.chi_values for mu in spec.mu_values}
        assert set.union(*columns.values()) == set(TheoryRegime)
        predicted[gamma0] = columns
    # the explicit gamma0 reaches the runs: chi/mu = 1/1.2 crosses its threshold
    assert [cell for cell in predicted[None]
            if predicted[None][cell] != predicted[30.0][cell]] == [(1.0, 1.2)]


# -------------------------------------------------------------- regime_map

def rec(chi, mu, p, replica, outcome,
        prediction=TheoryRegime.CRITICAL_BOUNDED_BY_LOGISTIC):
    return RunRecord(chi=chi, mu=mu, p=p, replica=replica,
                     outcome=outcome, theory_prediction=prediction)


def test_regime_map_all_bounded_agree():
    records = [rec(1.0, m, 0.0, r, RunOutcome.BOUNDED)
               for m in (1.0, 2.0) for r in (0, 1)]
    rmap = regime_map(records)
    assert len(rmap.rows) == 2
    assert all(row.agree for row in rmap.rows)
    assert rmap.agreement_fraction == 1.0


def test_regime_map_worst_outcome_wins():
    records = [rec(1.0, 1.0, 0.0, 0, RunOutcome.BOUNDED),
               rec(1.0, 1.0, 0.0, 1, RunOutcome.BLOWUP)]
    rmap = regime_map(records)
    assert rmap.rows[0].outcome is RunOutcome.BLOWUP
    assert not rmap.rows[0].agree
    assert rmap.agreement_fraction == 0.0


def test_regime_map_agreement_fraction_arithmetic():
    records = [rec(1.0, 1.0, 0.0, 0, RunOutcome.BOUNDED),
               rec(1.0, 2.0, 0.0, 0, RunOutcome.UNDECIDED),
               rec(1.0, 3.0, 0.0, 0, RunOutcome.BOUNDED)]
    rmap = regime_map(records)
    assert rmap.agreement_fraction == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_regime_map_noncommittal_predictions_not_falsifiable():
    records = [rec(1.0, 1.0, 0.0, 0, RunOutcome.BLOWUP,
                   TheoryRegime.CRITICAL_UNDETERMINED)]
    rmap = regime_map(records)
    assert rmap.rows[0].agree


def test_regime_map_monotonicity_flags():
    records = [rec(1.0, 1.0, 0.0, 0, RunOutcome.BOUNDED),
               rec(1.0, 2.0, 0.0, 0, RunOutcome.BLOWUP)]
    rmap = regime_map(records)
    assert len(rmap.monotonicity_violations) == 1
    assert "mu=1" in rmap.monotonicity_violations[0]
