"""Command-line front end.

Subcommands: run (``--resume`` continues a snapshot), sweep (``--workers``,
default 1, the only source of its worker count), theta0, and check (no
options). Outcome exit codes: 0 bounded / finished, 2 blow-up, 3 undecided
(DtFloor and MaxSteps runs too); 10 means no result (bad usage, bad config,
IO failure, arithmetic overflow) or that cells of a sweep failed.
"""

from __future__ import annotations

import argparse
import enum
import os
import sys
from dataclasses import fields

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .diagnostics import RunOutcome, classify_run, mu_threshold, theta0
from .grid import (Domain, Field, HelmholtzError, chemotactic_divergence, integrate,
                   laplacian_neumann, solve_helmholtz)
from .ic import ICSpec, build_ic
from .model import ModelParams, diffusive_divergence, homogeneous_steady_state
from .snapshot import read_snapshot, write_snapshot
from .stepper import ObserverSample, SimState, StepperConfig, run, run_state, step
from .sweep import RegimeCell, RunRecord, check_workers, regime_map, run_sweep

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_UNDECIDED = 3
EXIT_FAILURE = 10

_OUTCOME_EXIT = {
    RunOutcome.BOUNDED: EXIT_OK,
    RunOutcome.BLOWUP: EXIT_BLOWUP,
    RunOutcome.UNDECIDED: EXIT_UNDECIDED,
}


class _CliError(Exception):
    """Anything that should abort with exit code 10."""


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise _CliError(f"invalid config {path}:\n{exc}") from exc


def _csv_cell(val) -> str:
    if isinstance(val, enum.Enum):
        return val.value
    if isinstance(val, str):
        return val.replace(",", ";")
    if isinstance(val, int):  # bool included: written as 0 / 1
        return str(int(val))
    return _g17(val)


def _write_csv(path: str, row_type: type, rows) -> None:
    """One line per row; the columns are the fields of ``row_type`` that
    take part in its equality (a record's ``wall_time`` does not)."""
    columns = [f.name for f in fields(row_type) if f.compare]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(getattr(row, c)) for c in columns) + "\n")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _ensure_out_dir(cfg: RunConfig, override: str | None) -> str:
    out = override or cfg.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_run(cfg: RunConfig, out_dir: str | None = None,
            resume_path: str | None = None) -> int:
    """Integrate one configuration; writes series.csv and final.snap."""
    out = _ensure_out_dir(cfg, out_dir)
    if resume_path is not None:
        try:
            state = read_snapshot(resume_path, cfg.domain)
        except (OSError, ValueError) as exc:
            raise _CliError(f"cannot resume from {resume_path}: {exc}") from exc
        result = run_state(state, cfg.params, cfg.stepper)
    else:
        u0, v0 = build_ic(cfg.ic, cfg.domain)
        result = run(u0, v0, cfg.params, cfg.stepper)
    _write_csv(os.path.join(out, "series.csv"), ObserverSample, result.series)
    try:
        write_snapshot(result.final, os.path.join(out, "final.snap"))
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot write snapshot: {exc}") from exc
    outcome = classify_run(result.final, result.series, cfg.stepper)
    print(f"status={result.final.status.value} outcome={outcome.value} "
          f"t={result.final.t:.6g} steps={result.final.steps} "
          f"sup_u={max(s.sup_u for s in result.series):.6g}")
    return _OUTCOME_EXIT[outcome]


def cmd_sweep(cfg: RunConfig, workers: int, out_dir: str | None = None) -> int:
    """Map the configured (chi, mu, p) grid; writes records and regime CSVs.

    Cells that raised are recorded as Undecided with an ``error:`` note;
    if any did, the command fails after writing both files.
    """
    check_workers(workers)   # before the output directory is made
    out = _ensure_out_dir(cfg, out_dir)
    records = run_sweep(cfg, workers=workers)
    rmap = regime_map(records)
    _write_csv(os.path.join(out, "records.csv"), RunRecord, records)
    _write_csv(os.path.join(out, "regime_map.csv"), RegimeCell, rmap.rows)
    print(f"runs={len(records)} agreement={rmap.agreement_fraction:.6g}")
    for note in rmap.monotonicity_violations:
        print(f"monotonicity: {note}")
    failed = sum(r.note.startswith("error:") for r in records)
    if failed:
        print(f"error: {failed} of {len(records)} sweep cells failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_theta0(gamma0: float, chi: float, c_reg: float) -> int:
    """Print 'gamma0,chi,C_reg,eta_star,mu_min,theta0' on one CSV row."""
    th, eta_star = theta0(gamma0, chi, c_reg)
    mu_min = mu_threshold(gamma0, eta_star, chi, c_reg)
    print(",".join([_g17(gamma0), _g17(chi), _g17(c_reg),
                    _g17(eta_star), _g17(mu_min), _g17(th)]))
    return EXIT_OK


def cmd_check() -> int:
    """Self-test battery over operator and stepping invariants.

    Prints one line per check; exits 10 with an ``error:`` line if any
    check fails.
    """
    checks: list[tuple[str, bool]] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    rng = np.random.default_rng(2024)
    domains = [Domain((1.7,), (41,)), Domain((1.0, 1.4), (12, 17))]
    params = ModelParams(tau=1.0, chi=0.8, mu=2.0, a=1.0, k=0.7, p=1.0)
    for d in domains:
        tag = f"{d.dim}d"
        u = Field(rng.random(d.shape) + 0.2, d)
        v = Field(rng.random(d.shape), d)
        for name, out in (
            ("laplacian", laplacian_neumann(v, d)),
            ("diffusive flux", diffusive_divergence(u, params, d)),
            ("chemotactic flux", chemotactic_divergence(u, v, params.chi, d)),
        ):
            budget = 1e-12 * np.abs(out.values).sum() * d.cell_volume + 1e-14
            record(f"{name} conserves ({tag})", abs(integrate(out, d)) <= budget)
        record(f"laplacian kills constants ({tag})",
               np.all(laplacian_neumann(Field.constant(d, 3.3), d).values == 0.0))
        try:
            solve_helmholtz(Field(rng.random(d.shape), d), 2.5, d)
            record(f"helmholtz residual ({tag})", True)
        except RuntimeError as exc:
            record(f"helmholtz residual ({tag})", False, str(exc))
        u_star, v_star = homogeneous_steady_state(params)
        cfg_s = StepperConfig(dt_init=1e-3, dt_min=1e-7, dt_max=1e-2, t_end=1.0,
                              blowup_threshold=1e6)
        state = SimState(t=0.0, u=Field.constant(d, u_star),
                         v=Field.constant(d, v_star))
        for _ in range(100):
            state = step(state, params, cfg_s)
        drift = max(np.max(np.abs(state.u.values - u_star)),
                    np.max(np.abs(state.v.values - v_star)))
        record(f"steady state preserved ({tag})", drift <= 1e-10,
               f"drift={drift:.2e}")
    worst = ""
    for _ in range(5):
        gamma0, chi, c_reg = (1.0 + 10.0 ** rng.uniform(-0.5, 1.0),
                              10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 2))
        th, eta = theta0(gamma0, chi, c_reg)
        h = [mu_threshold(gamma0, eta * f, chi, c_reg) for f in (1.0, 1 - 1e-3, 1 + 1e-3)]
        if not (abs(h[0] - chi / th) <= 1e-12 * chi / th and h[0] <= min(h[1:])):
            worst = f"theta0({gamma0!r}, {chi!r}, {c_reg!r}) = {th!r}: mu_threshold {h!r}"
    record("theta0 closed form is the minimum", not worst, worst)
    d = domains[0]
    u0, v0 = build_ic(ICSpec("gaussian_bump", 1.5, 0.2), d)
    cfg_s = StepperConfig(dt_max=1e-3, t_end=0.2, blowup_threshold=1e6)
    result = run(u0, v0, params, cfg_s)
    m0 = result.series[0].mass
    cap = max(m0, params.a * d.measure / params.mu) * (1 + 1e-6)
    record("mass bound on short run",
           all(s.mass <= cap for s in result.series),
           f"max mass={max(s.mass for s in result.series):.6g} cap={cap:.6g}")
    failed = sum(1 for _, ok in checks if not ok)
    if failed:
        print(f"error: {failed} of {len(checks)} checks failed", file=sys.stderr)
        return EXIT_FAILURE
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellerscope",
        description="Finite-volume chemotaxis-with-growth simulator and "
                    "theory diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="path to a run configuration file")
        p.add_argument("--out", help="output directory (overrides the config)")
        return p

    add_common(sub.add_parser("run", help="integrate one configuration")).add_argument(
        "--resume", help="snapshot file to continue from")
    add_common(sub.add_parser("sweep", help="map a (chi, mu, p) grid")).add_argument(
        "--workers", type=int, default=1, help="worker process count (default: 1)")
    p_theta = sub.add_parser("theta0", help="print the boundedness threshold "
                                            "as a CSV row")
    p_theta.add_argument("gamma0", type=float)
    p_theta.add_argument("chi", type=float)
    p_theta.add_argument("c_reg", type=float)
    sub.add_parser("check", help="run the invariant self-tests")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code == 0 else EXIT_FAILURE
    try:
        if args.command == "theta0":
            return cmd_theta0(args.gamma0, args.chi, args.c_reg)
        if args.command == "check":
            return cmd_check()
        cfg = _load_config(args.config)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.workers, args.out)
        return cmd_run(cfg, args.out, args.resume)
    except (_CliError, ValueError, ArithmeticError, HelmholtzError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
