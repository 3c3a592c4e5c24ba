"""The per-layer table of the traced run.

For every grid the benchmark uses, take the states its workload visits at
sampled steps, replay the public calls of each layer on them and time them
with perf_counter. Sweep figures come from the traced pool rounds, the
CLI's output cost from the traced rounds of damped-2d.
"""

from __future__ import annotations

import os
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from kellerscope import (Domain, Field, HelmholtzError, SimState, build_ic,
                         chemotactic_divergence, classify_run, diffusive_divergence,
                         integrate, laplacian_neumann, lgamma_norm, run,
                         solve_helmholtz, stable_dt, step, theta0)
from kellerscope.config import parse_config
from kellerscope.model import ModelParams
from kellerscope.snapshot import read_snapshot, write_snapshot

CLI_GRIDS = ("64x64", "128x128")
SAMPLED_STATES = 3
BATCH_S = 0.003


def per_call_us(fn) -> float:
    """Best of three batches, each long enough to time (>= BATCH_S)."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= BATCH_S:
            break
        n *= 2
    best = elapsed
    for _ in range(2):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        best = min(best, perf_counter() - t0)
    return best / n * 1e6


def alloc_kib(fn) -> float:
    """Peak memory traced while one call runs, above what was live before."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1024.0
    finally:
        tracemalloc.stop()


def min_maxiter(rhs: Field, alpha: float, d: Domain, tol: float, x0: Field,
                cap: int) -> int:
    """Smallest maxiter (at most ``cap``) for which solve_helmholtz meets its
    target."""
    def ok(m):
        try:
            solve_helmholtz(rhs, alpha, d, tol, m, x0)
            return True
        except HelmholtzError:
            return False
    if ok(0):
        return 0
    lo, hi = 0, 1
    while not ok(hi):
        if hi >= cap:
            raise HelmholtzError(f"no solve within maxiter={cap}", float("nan"))
        lo, hi = hi, min(hi * 2, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def grid_table(label: str, config_path: str, cfg, params: ModelParams, ic,
               scratch: str, tr) -> dict:
    """Replay each layer's public calls on sampled states of one grid."""
    d, st = cfg.domain, cfg.stepper
    with open(config_path) as fh:
        text = fh.read()
    with tr.span(f"trajectory {label}"):
        res = run(*ic, params, st, capture_fields=True)
    inner = res.snapshots[1:-1] or res.snapshots
    picks = [inner[i] for i in np.linspace(0, len(inner) - 1, SAMPLED_STATES).astype(int)]
    snap_path = os.path.join(scratch, f"layer-{label}.snap")
    rows: dict[str, list[float]] = {}

    def add(name, value):
        rows.setdefault(name, []).append(value)

    for t, u, v in picks:
        state = SimState(t=t, u=u, v=v, steps=1)
        dt = stable_dt(u, v, params, d, st)
        alpha = params.tau / dt + 1.0
        rhs = Field((params.tau / dt) * v.values + u.values, d)
        with tr.span(f"replay {label}"):
            timed = {
                "grid.laplacian_us": lambda: laplacian_neumann(v, d),
                "grid.diffusive_us": lambda: diffusive_divergence(u, params, d),
                "grid.chemotactic_us": lambda: chemotactic_divergence(u, v, params.chi, d),
                "grid.integrate_us": lambda: integrate(u, d),
                "stepper.stable_dt_us": lambda: stable_dt(u, v, params, d, st),
                "stepper.helmholtz_us": lambda: solve_helmholtz(
                    rhs, alpha, d, st.helmholtz_tol, st.helmholtz_maxiter, v),
                "stepper.step_us": lambda: step(state, params, st),
                "diagnostics.lgamma_norm_us": lambda: lgamma_norm(u, st.series_gamma, d),
                "snapshot.write_us": lambda: write_snapshot(state, snap_path),
                "snapshot.read_us": lambda: read_snapshot(snap_path, d),
                "grid.domain_build_us": lambda: Domain(d.lengths, d.cells),
                "config.parse_us": lambda: parse_config(text),
                "ic.build_us": lambda: build_ic(cfg.ic, d),
            }
            for name, fn in timed.items():
                with tr.span(name):
                    add(name, per_call_us(fn))
            add("grid.laplacian_alloc_kib", alloc_kib(timed["grid.laplacian_us"]))
            add("stepper.step_alloc_kib", alloc_kib(timed["stepper.step_us"]))
            if d.dim == 2:
                add("stepper.cg_iters", min_maxiter(rhs, alpha, d, st.helmholtz_tol, v,
                                                    st.helmholtz_maxiter))
        add("snapshot.bytes", os.path.getsize(snap_path))
    out = {name: statistics.median(vals) for name, vals in rows.items()}
    out["stepper.glue_us"] = out["stepper.step_us"] - sum(
        out[k] for k in ("stepper.stable_dt_us", "stepper.helmholtz_us",
                         "grid.diffusive_us", "grid.chemotactic_us"))
    out["stepper.dt_mean"] = res.final.t / res.final.steps
    return {f"{name}.{label}": value for name, value in out.items()}


def cli_output_ms(tr) -> dict:
    """Time cli.main spends outside parse_config, build_ic, run and
    classify_run in the traced damped-2d rounds: argument parsing, reading
    the config file, writing series.csv and final.snap. Median per grid."""
    skip = {"config.parse", "ic.build", "stepper.run", "diagnostics.classify_run"}
    per_grid: dict[str, list[float]] = {}
    for main in tr.find("cli.main"):
        grid = tr.spans[tr.spans[main][3]][0].split()[-1]  # parent: "op <grid>"
        if grid not in CLI_GRIDS:
            continue
        inner = sum(tr.duration(c) for c in tr.children(main) if tr.spans[c][0] in skip)
        per_grid.setdefault(grid, []).append((tr.duration(main) - inner) * 1e3)
    return {f"cli.output_ms.{g}": statistics.median(per_grid[g]) for g in CLI_GRIDS}


def global_table(sweep, tr) -> dict:
    """Layer figures that do not depend on the grid, and the sweep's from
    its fastest traced pool round: the pool's wall and the wall time each
    cell's record reports from its worker."""
    cfg, res = sweep.cfg, sweep.last_result
    chi, mu, p = sweep.cells[-1]
    with tr.span("replay global"):
        out = {
            "diagnostics.theta0_us": per_call_us(lambda: theta0(sweep.GAMMA0, chi, sweep.C_REG)),
            "diagnostics.classify_run_us": per_call_us(
                lambda: classify_run(res.final, res.series, cfg.stepper)),
            "model.params_build_us": per_call_us(
                lambda: ModelParams(tau=1.0, chi=chi, mu=mu, a=cfg.params.a, k=1.0, p=p)),
        }
    pool_wall, records = min(zip((tr.duration(i) for i in tr.find("sweep.run_sweep")),
                                 tr.kept["sweep.run_sweep"]), key=lambda pair: pair[0])
    cell_s = [r.wall_time for r in records]
    serial = sum(cell_s)
    out.update({
        "sweep.cell_s_median": statistics.median(cell_s),
        "sweep.cell_s_max": max(cell_s),
        "sweep.serial_s": serial,
        "sweep.pool_overhead_s": pool_wall - serial / sweep.WORKERS,
        "sweep.speedup": serial / pool_wall,
    })
    return out
