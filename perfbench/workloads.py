"""The three workloads: inputs made from the seed, one round of operations,
and the checks of every output.

An operation is one simulation run or one sweep cell. A round runs every
operation of the workload once on the same inputs, so every run of the
benchmark attempts whole rounds and the share of failed operations cannot
depend on how long it ran.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import replace
from time import perf_counter

import numpy as np

import checks
from kellerscope import build_ic, classify_run, run
from kellerscope import cli
from kellerscope.config import parse_config
from kellerscope import stepper as stepper_module


def _f(x: float) -> str:
    return repr(float(x))


def config_text(cells, model: dict, stepper: dict, ic: dict, out_dir: str,
                sweep: dict | None = None) -> str:
    """A config file in the documented format; floats as repr so that they
    parse back to the same bits."""
    sections = {
        "domain": {"dim": str(len(cells)),
                   "lengths": ", ".join("1.0" for _ in cells),
                   "cells": ", ".join(str(n) for n in cells)},
        "model": model, "stepper": stepper, "ic": ic,
        "output": {"out_dir": out_dir}, "sweep": sweep or {},
    }
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {_f(v) if isinstance(v, float) else v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def grid_label(cells) -> str:
    return "x".join(str(n) for n in cells)


def remove_outputs(out: str, names) -> None:
    """So that a run that writes nothing cannot pass on a stale file."""
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, name))


class Workload:
    """Inputs of one workload for one seed, written as config files under
    ``work``. ``prepare`` reads them back through the config layer."""

    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, work: str):
        self.work = os.path.join(work, self.name)
        os.makedirs(self.work, exist_ok=True)
        self.config_paths: list[str] = []
        self.rng = np.random.default_rng([seed, WORKLOADS.index(type(self))])
        self.op_walls: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def timed(self, label: str):
        """Wall time of one operation, from its first step to its checked
        result, appended to ``op_walls[label]``."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.op_walls.setdefault(label, []).append(perf_counter() - t0)

    def _write_config(self, label: str, text: str) -> str:
        path = os.path.join(self.work, f"{label}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        self.config_paths.append(path)
        return path

    def prepare(self) -> None:
        """Parse the configs and build what a round needs; not timed."""

    def round(self, tr) -> tuple[int, int]:
        """Run every operation once and check its output. Returns the number
        of failed operations and the steps taken; a wrong output raises
        CheckError."""
        raise NotImplementedError

    def layer_sources(self):
        """(grid label, config path, parsed config, params, (u0, v0)) for
        each grid whose visited states the per-layer replay samples."""
        raise NotImplementedError

    def trace_targets(self):
        """Program functions that get a span per call in a traced round."""
        return [(stepper_module, "step", "stepper.step", False)]


# ------------------------------------------------------------- tiny-fixed-dt

class TinyFixedDt(Workload):
    """Fixed dt on the 8-cell 1D grid and the 6x6 grid: two steady-state
    cases and two reaction-off transport cases from perturbed bumps."""

    name = "tiny-fixed-dt"
    ops_per_round = 4
    DT = 1e-4
    STEPS = 2000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        r = self.rng
        stepper = {"dt_init": self.DT, "dt_min": self.DT, "dt_max": self.DT,
                   # half a step short of STEPS * DT: exactly STEPS steps
                   "t_end": (self.STEPS - 0.5) * self.DT,
                   "observer_stride": 500, "blowup_threshold": 1e6}
        self.cases = []
        # the diffusivity exponent p picks a code path (p = 0 skips the face
        # mean), so it is fixed per case and only the coefficients are drawn
        for cells, p in (((8,), 1.0), ((6, 6), 2.0)):
            # criterion 2's parameter ranges
            a, mu = r.uniform(0.2, 2.0), 10.0 ** r.uniform(-0.3, 0.5)
            model = {"tau": 10.0 ** r.uniform(-0.3, 0.3), "chi": 10.0 ** r.uniform(-0.5, 0.3),
                     "mu": mu, "a": a, "k": 10.0 ** r.uniform(-0.5, 0.2), "p": p}
            ic = {"name": "constant", "amplitude": a / mu}
            path = self._write_config(f"steady-{grid_label(cells)}",
                                      config_text(cells, model, stepper, ic, self.work))
            self.cases.append(("steady", cells, path, None))
        for cells, p in (((8,), 0.0), ((6, 6), 1.0)):
            model = {"tau": 10.0 ** r.uniform(-0.3, 0.3), "chi": 10.0 ** r.uniform(-0.7, 0.0),
                     "mu": 1.0, "k": 10.0 ** r.uniform(-0.5, 0.0), "p": p, "reaction": "off"}
            ic = {"name": "gaussian_bump", "amplitude": r.uniform(0.5, 1.5),
                  "width": r.uniform(0.1, 0.25)}
            path = self._write_config(f"transport-{grid_label(cells)}",
                                      config_text(cells, model, stepper, ic, self.work))
            self.cases.append(("transport", cells, path, int(r.integers(2**31))))

    def _initial(self, cfg, ic_seed):
        if ic_seed is None:
            return build_ic(cfg.ic, cfg.domain)
        return build_ic(cfg.ic, cfg.domain, np.random.default_rng(ic_seed), 0.3)

    def prepare(self):
        self.runs = []
        for kind, cells, path, ic_seed in self.cases:
            with open(path) as fh:
                cfg = parse_config(fh.read())
            self.runs.append((f"{kind}-{grid_label(cells)}", kind, cfg,
                              self._initial(cfg, ic_seed)))

    def round(self, tr):
        failed = steps = 0
        for label, kind, cfg, (u0, v0) in self.runs:
            tr.op += 1
            with self.timed(label), tr.span(f"op {label}"):
                try:
                    with tr.span("stepper.run"):
                        res = run(u0, v0, cfg.params, cfg.stepper)
                except Exception as exc:  # a failed operation, counted
                    print(f"{self.name} {label}: {exc!r}", flush=True)
                    failed += 1
                    continue
                with tr.span("check"):
                    checks.require(res.final.status.value == "Finished"
                                   and res.final.steps == self.STEPS,
                                   f"{label}: {res.final.status.value} after "
                                   f"{res.final.steps} steps")
                    u, v = res.final.u.values, res.final.v.values
                    if kind == "steady":
                        checks.check_steady(label, u, v, cfg.params.a / cfg.params.mu)
                    else:
                        checks.check_conserved(label, [s.mass for s in res.series], u, v)
            steps += res.final.steps
        return failed, steps

    def layer_sources(self):
        for (_, _, path, _), (_, kind, cfg, ic) in zip(self.cases, self.runs):
            if kind == "transport":
                yield grid_label(cfg.domain.cells), path, cfg, cfg.params, ic


# ---------------------------------------------------------------- damped-2d

class Damped2d(Workload):
    """Criterion 7's damped regime through ``kellerscope run`` at 64^2 to
    t=0.1 and at 128^2 to t=0.01, adaptive dt."""

    name = "damped-2d"
    ops_per_round = 2
    A, MU = 4.0, 10.0
    CASES = ((64, 0.1), (128, 0.01))

    def __init__(self, seed, work):
        super().__init__(seed, work)
        model = {"tau": 1.0, "chi": 1.0, "mu": self.MU, "a": self.A, "k": 1.0,
                 "phi_family": "linear"}
        # the same bump on both grids, so the refinement check compares them
        ic = {"name": "gaussian_bump", "amplitude": 0.35 * (1.0 + self.rng.uniform(-0.02, 0.02)),
              "width": 0.15 * (1.0 + self.rng.uniform(-0.02, 0.02))}
        self.cases = []
        for n, t_end in self.CASES:
            stepper = {"dt_init": 1e-4, "dt_min": 1e-10, "dt_max": 1e-2, "t_end": t_end,
                       "observer_stride": 50, "blowup_threshold": "auto"}
            out = os.path.join(self.work, f"out-{n}")
            path = self._write_config(f"damped-{n}", config_text(
                (n, n), model, stepper, ic, out))
            self.cases.append((f"{n}x{n}", path, out))

    def round(self, tr):
        failed = steps = 0
        series = {}
        for label, path, out in self.cases:
            tr.op += 1
            remove_outputs(out, ("series.csv", "final.snap"))
            with self.timed(label), tr.span(f"op {label}"):
                with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", path, "--out", out])
                if code == cli.EXIT_FAILURE:
                    print(f"{self.name} {label}: exit code {code}", flush=True)
                    failed += 1
                    continue
                with tr.span("check"):
                    rows = checks.read_csv(os.path.join(out, "series.csv"))
                    snap = checks.read_snap(os.path.join(out, "final.snap"))
                    n = snap["shape"][0]
                    checks.check_run_output(label, rows, snap, self.A, self.MU,
                                            1.0, 1.0 / n**2)
                    series[label] = rows
                    if len(series) == len(self.cases):   # the fine run closes the round
                        checks.check_refinement(*series.values())
            steps += snap["steps"]
        return failed, steps

    def layer_sources(self):
        for label, path, _ in self.cases:
            with open(path) as fh:
                cfg = parse_config(fh.read())
            yield label, path, cfg, cfg.params, build_ic(cfg.ic, cfg.domain)

    def trace_targets(self):
        return super().trace_targets() + [
            (cli, "parse_config", "config.parse", False), (cli, "build_ic", "ic.build", False),
            (cli, "run", "stepper.run", False),
            (cli, "classify_run", "diagnostics.classify_run", False),
            (cli, "write_snapshot", "snapshot.write", False)]


# ----------------------------------------------------------------- sweep-2w

class Sweep2w(Workload):
    """A (chi, mu, p) grid of 12 cells on 32^2 through ``kellerscope sweep
    --workers 2``; p in {0, 1} so that cell costs differ."""

    name = "sweep-2w"
    WORKERS = 2
    GAMMA0 = 3.0   # the sweep's gamma0 = auto in 2D
    C_REG = 1.0

    def __init__(self, seed, work):
        super().__init__(seed, work)
        r = self.rng
        # chi = 15 puts some cells above theta0 (about 0.81); the data is
        # mild enough that every cell still settles
        chi = tuple(sorted(c * (1.0 + r.uniform(-0.05, 0.05)) for c in (1.0, 15.0)))
        mu = tuple(sorted(m * (1.0 + r.uniform(-0.05, 0.05)) for m in (15.0, 30.0, 60.0)))
        p = (0.0, 1.0)
        self.cells = [(c, m, q) for c in chi for m in mu for q in p]
        self.ops_per_round = len(self.cells)
        model = {"tau": 1.0, "chi": 1.0, "mu": 30.0, "a": 30.0, "k": 1.0, "p": 0.0}
        stepper = {"dt_init": 1e-4, "dt_min": 1e-10, "dt_max": 1e-2, "t_end": 0.25,
                   "observer_stride": 20, "blowup_threshold": "auto"}
        ic = {"name": "gaussian_bump", "amplitude": 1.0 + r.uniform(-0.05, 0.05),
              "width": 0.3}
        sweep = {"chi_values": ", ".join(map(_f, chi)), "mu_values": ", ".join(map(_f, mu)),
                 "p_values": "0.0, 1.0", "repeat": "1", "seed": str(seed % 2**31),
                 "gamma0": _f(self.GAMMA0), "c_reg": _f(self.C_REG)}
        self.out = os.path.join(self.work, "out")
        self.path = self._write_config("sweep", config_text(
            (32, 32), model, stepper, ic, self.out, sweep))
        self.th0 = {c: checks.theta0_ref(self.GAMMA0, c, self.C_REG) for c in chi}

    def prepare(self):
        with open(self.path) as fh:
            self.cfg = parse_config(fh.read())
        self.replay()

    def round(self, tr):
        tr.op += 1
        remove_outputs(self.out, ("records.csv", "regime_map.csv"))
        with self.timed("sweep"), tr.span("op sweep"):
            with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["sweep", "--config", self.path, "--out", self.out,
                                 "--workers", str(self.WORKERS)])
            if code != cli.EXIT_OK:
                print(f"{self.name}: exit code {code}", flush=True)
                return len(self.cells), 0
            with tr.span("check"):
                records = checks.read_csv(os.path.join(self.out, "records.csv"))
                regime = checks.read_csv(os.path.join(self.out, "regime_map.csv"))
                failed = checks.check_sweep(records, regime, self.cells, self.th0)
                self.check_against_replay(records)
        return failed, self.steps

    def replay(self) -> None:
        """Run the cells one by one in this process, as a sweep worker runs
        them: this gives the steps a sweep takes (records.csv does not carry
        them) and the results every round's records must equal."""
        cells = []
        for chi, mu, p in self.cells:
            params = replace(self.cfg.params, chi=chi, mu=mu, p=p)
            u0, v0 = build_ic(self.cfg.ic, self.cfg.domain)
            res = run(u0, v0, params, self.cfg.stepper)
            outcome = classify_run(res.final, res.series, self.cfg.stepper)
            cells.append({"steps": res.final.steps,
                          "t_final": res.final.t, "outcome": outcome.value,
                          "sup_u_max": max(s.sup_u for s in res.series)})
        self.replayed = cells
        self.last_result = res
        self.steps = sum(c["steps"] for c in cells)

    def check_against_replay(self, records: list[dict]) -> None:
        """The records of the pool must equal a serial run of each cell."""
        for rec, cell in zip(records, self.replayed):
            if rec["note"].startswith("error:"):
                continue
            got = (rec["outcome"], float(rec["t_final"]), float(rec["sup_u_max"]))
            want = (cell["outcome"], cell["t_final"], cell["sup_u_max"])
            checks.require(got == want, f"cell chi={rec['chi']} mu={rec['mu']} "
                           f"p={rec['p']}: pool gave {got}, a serial run {want}")

    def layer_sources(self):
        # the slowest cell: largest chi, smallest mu, p = 1
        chi, mu, p = max(self.cells, key=lambda c: (c[0], -c[1], c[2]))
        params = replace(self.cfg.params, chi=chi, mu=mu, p=p)
        yield "32x32", self.path, self.cfg, params, build_ic(self.cfg.ic, self.cfg.domain)

    def trace_targets(self):
        # the cells run in worker processes, where these spans cannot reach;
        # the records kept carry each cell's wall time in its worker
        return [(cli, "run_sweep", "sweep.run_sweep", True),
                (cli, "regime_map", "sweep.regime_map", False)]


WORKLOADS = [TinyFixedDt, Damped2d, Sweep2w]
BY_NAME = {w.name: w for w in WORKLOADS}
