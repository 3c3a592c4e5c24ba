"""Parameter-regime mapping over (chi, mu, p) grids.

Every grid cell (times replica) is an independent simulation; the record
list is a pure function of the SweepSpec, regardless of how many workers
execute it. Replica aggregation is worst-outcome-wins because a single
blowing-up replica falsifies a boundedness claim for that cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .diagnostics import RunOutcome, TheoryRegime, classify_run, classify_theory, theta0
from .grid import Domain
from .ic import ICSpec, build_ic
from .model import ModelParams
from .stepper import StepperConfig, _gtsv, run

REPLICA_PERTURBATION = 0.05


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: value grids, shared template, initial data, seeding."""

    domain: Domain
    chi_values: tuple[float, ...]
    mu_values: tuple[float, ...]
    p_values: tuple[float, ...]
    base_params: ModelParams
    base_cfg: StepperConfig
    ic: ICSpec = ICSpec()
    repeat: int = 1
    seed: int = 0
    gamma0: float | None = None   # None: domain dimension + 1 (floored at 3)
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
        if self.gamma0 is not None and not self.gamma0 > 1.0:
            raise ValueError(f"gamma0 must exceed 1, got {self.gamma0}")
        if not self.C_reg > 0.0:
            raise ValueError(f"C_reg must be positive, got {self.C_reg}")

    @property
    def run_count(self) -> int:
        return (len(self.chi_values) * len(self.mu_values)
                * len(self.p_values) * self.repeat)

    def effective_gamma0(self) -> float:
        if self.gamma0 is not None:
            return self.gamma0
        return float(max(2, self.domain.dim) + 1)


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
    params: ModelParams = field(compare=False)
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
    spec: SweepSpec


def _cell_params(spec: SweepSpec, chi: float, mu: float, p: float) -> ModelParams:
    return replace(spec.base_params, chi=chi, mu=mu, p=p)


def _execute(task: _Task) -> RunRecord:
    spec = task.spec
    prediction = TheoryRegime.CRITICAL_UNDETERMINED
    start = time.perf_counter()
    try:
        # theta0 overflows for extreme chi, e.g. 1e100: an error cell
        theta_est, _ = theta0(spec.effective_gamma0(), task.chi, spec.C_reg)
        prediction = classify_theory(
            p=task.p, q=1.0, n=max(2, spec.domain.dim),
            chi=task.chi, mu=task.mu, theta0_est=theta_est,
        )
        params = _cell_params(spec, task.chi, task.mu, task.p)
        rng = np.random.default_rng([spec.seed, task.index])
        perturbation = REPLICA_PERTURBATION if task.replica > 0 else 0.0
        u0, v0 = build_ic(spec.ic, spec.domain, rng, perturbation)
        result = run(u0, v0, params, spec.base_cfg)
        outcome = classify_run(result.final, result.series, spec.base_cfg)
        return RunRecord(
            chi=task.chi, mu=task.mu, p=task.p, replica=task.replica,
            params=params,
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
        params=task.spec.base_params,
        outcome=RunOutcome.UNDECIDED,
        theory_prediction=prediction,
        note=f"error: {exc}",
        wall_time=wall_time,
    )


def _tasks(spec: SweepSpec) -> list[_Task]:
    tasks = []
    index = 0
    for chi in spec.chi_values:
        for mu in spec.mu_values:
            for p in spec.p_values:
                for rep in range(spec.repeat):
                    tasks.append(_Task(index, chi, mu, p, rep, spec))
                    index += 1
    return tasks


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[RunRecord]:
    """Execute every cell replica; records come back in lexicographic
    (chi, mu, p, replica) order no matter how many workers ran them.

    A worker process that dies (killed, out of memory) breaks the pool: the
    records finished before that are kept, and every cell the pool lost
    comes back Undecided with an ``error:`` note, as a cell that raised.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = _tasks(spec)
    if workers == 1 or len(tasks) == 1:
        return [_execute(t) for t in tasks]
    # only a pool needs the process machinery, so only a pool imports it
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if spec.domain.dim == 1:
        _gtsv()   # forked workers inherit LAPACK instead of each loading it
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

_BOUNDED_PREDICTIONS = frozenset({
    TheoryRegime.SUB_LOGISTIC_BOUNDED,
    TheoryRegime.SUBCRITICAL_BOUNDED,
    TheoryRegime.CRITICAL_BOUNDED_BY_LOGISTIC,
})


def regime_map(records: Sequence[RunRecord]) -> RegimeMap:
    """Aggregate replicas per (chi, mu, p) cell and score theory agreement.

    A prediction that asserts boundedness agrees only with a Bounded cell;
    the non-committal regimes cannot be falsified and count as agreeing.
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
        if prediction in _BOUNDED_PREDICTIONS:
            agree = outcome is RunOutcome.BOUNDED
        else:
            agree = True
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
