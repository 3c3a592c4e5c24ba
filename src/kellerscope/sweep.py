"""Parameter-regime mapping over (chi, mu, p) grids.

A sweep is its RunConfig's run at every cell of the config's SweepSpec
grid, times replicas. Each is an independent simulation, and the record
list is a pure function of the RunConfig, regardless of how many workers
execute it. Replica aggregation is worst-outcome-wins because a single
blowing-up replica falsifies a boundedness claim for that cell.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .diagnostics import RunOutcome, TheoryRegime, classify_run, classify_theory, theta0
from .ic import build_ic
from .stepper import run

if TYPE_CHECKING:
    from .config import RunConfig

REPLICA_PERTURBATION = 0.05


@dataclass(frozen=True)
class SweepSpec:
    """The [sweep] keys alone: value grids, replicas, seeding and the
    theta0 inputs; every cell runs the domain, model, stepper and initial
    data of the RunConfig that holds it."""

    chi_values: tuple[float, ...] = (1.0,)
    mu_values: tuple[float, ...] = (1.0,)
    p_values: tuple[float, ...] = (0.0,)
    repeat: int = 1
    seed: int = 0
    gamma0: float | None = None   # None: domain dimension + 1, floored at 3
    C_reg: float = 1.0

    def __post_init__(self):
        for name in ("chi_values", "mu_values", "p_values"):
            vals = tuple(float(x) for x in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly ascending, got {vals}")
            if name != "p_values" and vals[0] <= 0.0:
                raise ValueError(f"{name} must be positive, got {vals}")
        if self.repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {self.repeat}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.gamma0 is not None and not self.gamma0 > 1.0:
            raise ValueError(f"gamma0 must exceed 1, got {self.gamma0}")
        if not self.C_reg > 0.0:
            raise ValueError(f"C_reg must be positive, got {self.C_reg}")


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one sweep cell replica.

    Wall time is bookkeeping, not part of the record's identity: it is
    excluded from equality so identical sweeps compare equal regardless of
    scheduling, and it is likewise left out of the records CSV.
    """

    chi: float
    mu: float
    p: float
    replica: int
    outcome: RunOutcome = RunOutcome.UNDECIDED
    sup_u_max: float = 0.0
    t_final: float = 0.0
    theory_prediction: TheoryRegime = TheoryRegime.CRITICAL_UNDETERMINED
    note: str = ""
    wall_time: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class RegimeCell:
    chi: float
    mu: float
    p: float
    outcome: RunOutcome
    theory_prediction: TheoryRegime
    agree: bool


@dataclass(frozen=True)
class RegimeMap:
    rows: tuple[RegimeCell, ...]
    agreement_fraction: float
    monotonicity_violations: tuple[str, ...]


@dataclass(frozen=True)
class _Task:
    index: int
    chi: float
    mu: float
    p: float
    replica: int
    cfg: RunConfig


def _execute(task: _Task) -> RunRecord:
    cfg, spec = task.cfg, task.cfg.sweep
    prediction = TheoryRegime.CRITICAL_UNDETERMINED
    start = time.perf_counter()
    try:
        # a threshold that is not finite (chi = C_reg = 1e300) is an error cell
        gamma0 = spec.gamma0 or float(max(2, cfg.domain.dim) + 1)   # None: auto
        theta_est, _ = theta0(gamma0, task.chi, spec.C_reg)
        prediction = classify_theory(task.chi, task.mu, theta_est)
        params = replace(cfg.params, chi=task.chi, mu=task.mu, p=task.p)
        rng = np.random.default_rng([spec.seed, task.index])
        perturbation = REPLICA_PERTURBATION if task.replica > 0 else 0.0
        u0, v0 = build_ic(cfg.ic, cfg.domain, rng, perturbation)
        result = run(u0, v0, params, cfg.stepper)
        outcome = classify_run(result.final, result.series, cfg.stepper)
        return RunRecord(
            chi=task.chi, mu=task.mu, p=task.p, replica=task.replica,
            outcome=outcome,
            sup_u_max=max(s.sup_u for s in result.series),
            t_final=result.final.t,
            theory_prediction=prediction,
            wall_time=time.perf_counter() - start,
        )
    except Exception as exc:  # a failed cell must not abort the sweep
        return _failed(task, exc, prediction, time.perf_counter() - start)


def _failed(task: _Task, exc: BaseException,
            prediction: TheoryRegime = TheoryRegime.CRITICAL_UNDETERMINED,
            wall_time: float = 0.0) -> RunRecord:
    """The Undecided record of a cell that raised or whose worker died."""
    return RunRecord(
        chi=task.chi, mu=task.mu, p=task.p, replica=task.replica,
        outcome=RunOutcome.UNDECIDED,
        theory_prediction=prediction,
        note=f"error: {exc}",
        wall_time=wall_time,
    )


def _tasks(cfg: RunConfig) -> list[_Task]:
    """Every cell replica, in lexicographic (chi, mu, p, replica) order."""
    s = cfg.sweep
    cells = itertools.product(s.chi_values, s.mu_values, s.p_values, range(s.repeat))
    return [_Task(index, *cell, cfg) for index, cell in enumerate(cells)]


def check_workers(workers: int) -> None:
    """The one check of a worker count, so a caller can make it before it
    writes anything."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def run_sweep(cfg: RunConfig, workers: int = 1) -> list[RunRecord]:
    """Run ``cfg`` at every cell of ``cfg.sweep``, ``repeat`` replicas each:
    replica 0 is ``cfg``'s own run at the cell's chi, mu and p, and the
    others perturb its initial data, seeded by the sweep's seed and the
    task index. Records come back in lexicographic (chi, mu, p, replica)
    order no matter how many workers ran them.

    A worker process that dies (killed, out of memory) breaks the pool: the
    records finished before that are kept, and every cell the pool lost
    comes back Undecided with an ``error:`` note, as a cell that raised.
    """
    check_workers(workers)
    tasks = _tasks(cfg)
    if workers == 1 or len(tasks) == 1:
        return [_execute(t) for t in tasks]
    # only a pool needs the process machinery, so only a pool imports it
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    records = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_execute, t) for t in tasks]
        for task, future in zip(tasks, futures):
            try:
                records.append(future.result())
            except BrokenProcessPool as exc:
                records.append(_failed(task, exc))
    return records  # task construction order is already lexicographic


_OUTCOME_RANK = {RunOutcome.BLOWUP: 2, RunOutcome.UNDECIDED: 1, RunOutcome.BOUNDED: 0}


def regime_map(records: Sequence[RunRecord]) -> RegimeMap:
    """Aggregate replicas per (chi, mu, p) cell and score theory agreement.

    CriticalBoundedByLogistic (chi/mu below theta0) asserts boundedness and
    agrees only with a Bounded cell; CriticalUndetermined cannot be
    falsified and counts as agreeing. The diffusivity exponent p enters no
    rule: the cells of one (chi, mu) carry one prediction whatever their p.
    Worsening outcomes as mu increases (at fixed chi, p) are reported as
    monotonicity violations, not errors.
    """
    cells: dict[tuple[float, float, float], list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.chi, rec.mu, rec.p), []).append(rec)
    rows = []
    for (chi, mu, p), group in sorted(cells.items()):
        outcome = max((r.outcome for r in group), key=_OUTCOME_RANK.__getitem__)
        prediction = group[0].theory_prediction
        agree = (prediction is not TheoryRegime.CRITICAL_BOUNDED_BY_LOGISTIC
                 or outcome is RunOutcome.BOUNDED)
        rows.append(RegimeCell(chi, mu, p, outcome, prediction, agree))
    agreement = sum(r.agree for r in rows) / len(rows) if rows else 1.0

    violations = []
    by_chi_p: dict[tuple[float, float], list[RegimeCell]] = {}
    for row in rows:
        by_chi_p.setdefault((row.chi, row.p), []).append(row)
    for (chi, p), group in sorted(by_chi_p.items()):
        group = sorted(group, key=lambda r: r.mu)
        for lo, hi in zip(group, group[1:]):
            if lo.outcome is RunOutcome.BOUNDED and hi.outcome is not RunOutcome.BOUNDED:
                violations.append(
                    f"chi={chi:g} p={p:g}: mu={lo.mu:g} bounded but mu={hi.mu:g} "
                    f"is {hi.outcome.value}"
                )
    return RegimeMap(tuple(rows), agreement, tuple(violations))
