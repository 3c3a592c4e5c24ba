"""Command-line front end.

Subcommands: run, sweep, theta0, check, resume. Outcome exit codes:
0 bounded / finished, 2 blow-up, 3 undecided or stalled; 10 means the
command never produced a result (bad usage, bad config, IO failure) or
that cells of a sweep failed.
"""

from __future__ import annotations

import argparse
import enum
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .diagnostics import RunOutcome, c2_constant, classify_run, mu_threshold, theta0
from .grid import Domain, Field, chemotactic_divergence, diffusive_divergence, \
    integrate, laplacian_neumann
from .ic import ICSpec, build_ic
from .model import ModelParams, homogeneous_steady_state
from .snapshot import read_snapshot, write_snapshot
from .stepper import SimState, StepperConfig, run, run_state, \
    solve_helmholtz, step
from .sweep import regime_map, run_sweep

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_UNDECIDED = 3
EXIT_FAILURE = 10

_OUTCOME_EXIT = {
    RunOutcome.BOUNDED: EXIT_OK,
    RunOutcome.BLOWUP: EXIT_BLOWUP,
    RunOutcome.UNDECIDED: EXIT_UNDECIDED,
}

# CSV columns, each the name of an attribute of the rows written
SERIES_COLUMNS = ("t", "dt", "mass", "sup_u", "sup_v", "l2_u", "lgamma_u", "status")
RECORD_COLUMNS = ("chi", "mu", "p", "replica", "outcome", "sup_u_max", "t_final",
                  "theory_prediction", "note")
REGIME_COLUMNS = ("chi", "mu", "p", "outcome", "theory_prediction", "agree")


class _CliError(Exception):
    """Anything that should abort with exit code 10."""


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        raise _CliError("--config is required for this subcommand")
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


def _write_csv(path: str, columns: tuple[str, ...], rows) -> None:
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
    _write_csv(os.path.join(out, "series.csv"), SERIES_COLUMNS, result.series)
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
    out = _ensure_out_dir(cfg, out_dir)
    records = run_sweep(cfg.sweep, workers=workers)
    rmap = regime_map(records)
    _write_csv(os.path.join(out, "records.csv"), RECORD_COLUMNS, records)
    _write_csv(os.path.join(out, "regime_map.csv"), REGIME_COLUMNS, rmap.rows)
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


def cmd_check(cfg: RunConfig | None = None) -> int:
    """Self-test battery over operator and stepping invariants.

    Exits nonzero if any check fails; prints one line per check.
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
    record("c2 constant", c2_constant() == 0.25)
    try:
        for _ in range(5):
            theta0(1.0 + 10.0 ** rng.uniform(-0.5, 1.0),
                   10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 2))
        record("theta0 closed form vs minimizer", True)
    except RuntimeError as exc:
        record("theta0 closed form vs minimizer", False, str(exc))
    d = domains[0]
    ic = cfg.ic if cfg is not None else ICSpec("gaussian_bump", 1.5, 0.2)
    u0, v0 = build_ic(ic, d)
    cfg_s = StepperConfig(dt_max=1e-3, t_end=0.2, blowup_threshold=1e6)
    result = run(u0, v0, params, cfg_s)
    m0 = result.series[0].mass
    cap = max(m0, params.a * d.measure / params.mu) * (1 + 1e-6)
    record("mass bound on short run",
           all(s.mass <= cap for s in result.series),
           f"max mass={max(s.mass for s in result.series):.6g} cap={cap:.6g}")
    failed = sum(1 for _, ok in checks if not ok)
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellerscope",
        description="Finite-volume chemotaxis-with-growth simulator and "
                    "theory diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, workers=False, resume=False):
        p.add_argument("--config", help="path to a run configuration file")
        p.add_argument("--out", help="output directory (overrides the config)")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           help="worker process count "
                                "(default: KELLERSCOPE_WORKERS or 1)")
        if resume:
            p.add_argument("--resume", help="snapshot file to continue from")

    add_common(sub.add_parser("run", help="integrate one configuration"),
               resume=True)
    add_common(sub.add_parser("sweep", help="map a (chi, mu, p) grid"),
               workers=True)
    p_theta = sub.add_parser("theta0", help="print the boundedness threshold "
                                            "as a CSV row")
    p_theta.add_argument("gamma0", type=float)
    p_theta.add_argument("chi", type=float)
    p_theta.add_argument("c_reg", type=float)
    add_common(sub.add_parser("check", help="run the invariant self-tests"))
    add_common(sub.add_parser("resume", help="continue a run from a snapshot"),
               resume=True)
    return parser


def _workers_from(args) -> int:
    if getattr(args, "workers", None):
        return args.workers
    env = os.environ.get("KELLERSCOPE_WORKERS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise _CliError(f"bad KELLERSCOPE_WORKERS={env!r}: {exc}") from exc
    return 1


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
            return cmd_check(_load_config(args.config) if args.config else None)
        cfg = _load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg, args.out, args.resume)
        if args.command == "resume":
            if not args.resume:
                raise _CliError("resume requires --resume <snapshot>")
            return cmd_run(cfg, args.out, args.resume)
        if args.command == "sweep":
            return cmd_sweep(cfg, _workers_from(args), args.out)
        raise _CliError(f"unknown command {args.command}")
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
