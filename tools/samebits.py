"""Check that two checkouts compute bit-identical runs and sweep files.

    python3 tools/samebits.py PARENT_DIR CHANGE_DIR [--seed K]

For one seed (default 1), builds the configs of the tiny-fixed-dt,
damped-2d and sweep-2w workloads with the classes of each checkout's own
``perfbench/workloads.py`` and runs every one of them to its end with that
checkout's ``kellerscope.run``, one subprocess per checkout. sweep-2w's 12
cells run one by one in that process, as its replay runs them; they are the
only runs whose dt rule computes the fastest outflow. Three more runs take
damped-2d's model and initial data where the grid operators take their
slice path (above 1024 cells) on code the workloads leave out there: the
face mean of ``phi`` (``p = 1``) and reaction off, each on 40 x 40, and 1D
on 1100 cells. Then ``kellerscope sweep --workers 1`` runs sweep-2w's
config, which writes ``records.csv`` and ``regime_map.csv``. Last,
``kellerscope run`` takes damped-2d's 64 x 64 config to t = 0.05, and
``kellerscope run --resume`` continues from its ``final.snap`` to the
config's ``t_end``; each writes ``series.csv`` and ``final.snap``.
``kellerscope theta0`` prints its CSV row for each of ``THETA0_ROWS``. The
configs and the files are written to a temporary directory; nothing in
either checkout changes. Last, ``format_config(parse_config(text))`` of
each of ``CONFIG_TEXTS`` states every config default, including those no
workload sets, and reads back every key set to another value of its type,
an int list, a float list, ``auto``'s alternative and ``off`` among them.
It compares, per run, the bytes of the final ``u`` and
``v``, the final ``t``, ``steps`` and ``status``, and every field of every
series row, and the bytes of the six files, of ``theta0``'s output and of
the formatted configs. It
exits 0 when all of them agree, and 1 naming the first difference; then
it lists every run whose final fields differ with the largest relative
difference of its final ``u`` and ``v`` (see :func:`drifts`), and every
file that differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np


FILES = ("sweep records.csv", "sweep regime_map.csv", "run series.csv",
         "run final.snap", "resume series.csv", "resume final.snap",
         "theta0 stdout", "config format_config")
# (gamma0, chi, C_reg) arguments of `kellerscope theta0`
THETA0_ROWS = (("3", "1", "2"), ("4", "0.5", "1"), ("2.5", "15", "1e-3"))
# the empty config; one that sets each enum key to a member other than its
# default; and one that sets every other key of every section to a value
# other than its default (phi_family stays canonical there, since linear
# pins p and p_values to 0)
CONFIG_TEXTS = ("", "[model]\nphi_family = linear\n[ic]\nname = checkerboard\n",
                """[domain]
dim = 2
lengths = 2.0, 3.0
cells = 8, 12
[model]
tau = 0.5
chi = 2.5
mu = 1.5
a = 0.25
k = 2.0
p = 1.5
phi_family = canonical
reaction = off
[stepper]
dt_init = 0.002
dt_min = 1e-08
dt_max = 0.05
safety = 0.5
blowup_threshold = 100000.0
t_end = 2.5
observer_stride = 3
series_gamma = 4.0
max_steps = 12345
helmholtz_tol = 1e-09
helmholtz_maxiter = 500
[ic]
name = gaussian_bump
amplitude = 2.0
width = 0.2
[output]
out_dir = runs/nested/full
[sweep]
chi_values = 0.5, 1.5, 4.0
mu_values = 0.25, 2.0
p_values = 0.0, 1.0
repeat = 2
seed = 7
gamma0 = 3.5
c_reg = 2.0
""")
RUN_T_END = 0.05   # where the run stops and the resumed run starts


def _runs(checkout: str, seed: int) -> dict:
    """Every run of the three workloads in ``checkout`` under ``"runs"``,
    keyed by workload and grid or sweep cell, with floats as hex strings and
    fields as hex bytes; and under ``"files"`` each of ``FILES``, a CSV as
    its text and a snapshot as its bytes in hex."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import workloads
    from kellerscope import Domain, build_ic, cli, run
    from kellerscope.config import format_config, parse_config

    def row(sample) -> list:
        return [x.hex() if isinstance(x, float) else x for x in vars(sample).values()]

    out, files = {}, {}
    with tempfile.TemporaryDirectory() as work:
        tiny = workloads.TinyFixedDt(seed, work)
        tiny.prepare()
        cases = [(tiny.name, label, cfg.params, cfg.stepper, ic)
                 for label, _, cfg, ic in tiny.runs]
        damped = workloads.Damped2d(seed, work)
        sources = list(damped.layer_sources())
        cases += [(damped.name, label, params, cfg.stepper, ic)
                  for label, _, cfg, params, ic in sources]
        _, _, cfg, params, _ = sources[0]
        for label, changed, cells, t_end in (
                ("p=1 40x40", {"phi_family": "canonical", "p": 1.0}, (40, 40), 0.01),
                ("reaction-off 40x40", {"reaction_on": False}, (40, 40), 0.01),
                ("1d 1100", {}, (1100,), 1e-4)):
            d = Domain((1.0,) * len(cells), cells)
            cases.append(("slice", label, replace(params, **changed),
                          replace(cfg.stepper, t_end=t_end), build_ic(cfg.ic, d)))
        # the cells as Sweep2w.replay builds them, without running its replay
        sweep = workloads.Sweep2w(seed, work)
        with open(sweep.path) as fh:
            cfg = parse_config(fh.read())
        cases += [(sweep.name, f"chi={chi!r} mu={mu!r} p={p!r}",
                   replace(cfg.params, chi=chi, mu=mu, p=p), cfg.stepper,
                   build_ic(cfg.ic, cfg.domain)) for chi, mu, p in sweep.cells]
        for name, label, params, stepper, (u0, v0) in cases:
            res = run(u0, v0, params, stepper)
            final = res.final
            out[f"{name} {label}"] = {
                "t": final.t.hex(), "steps": final.steps, "status": final.status.value,
                "u": final.u.values.tobytes().hex(), "v": final.v.values.tobytes().hex(),
                "series": [row(s) for s in res.series]}
        _, full, _ = damped.cases[0]   # 64x64
        with open(full) as fh:
            cfg = parse_config(fh.read())
        half = os.path.join(work, "damped-half.cfg")
        with open(half, "w") as fh:
            fh.write(format_config(replace(cfg, stepper=replace(cfg.stepper,
                                                                t_end=RUN_T_END))))
        first = os.path.join(work, "run")
        for command, argv in (
                ("sweep", ["sweep", "--config", sweep.path, "--workers", "1"]),
                ("run", ["run", "--config", half]),
                ("resume", ["run", "--config", full,
                            "--resume", os.path.join(first, "final.snap")])):
            dest = os.path.join(work, command)
            # each command prints its summary, and stdout carries this tool's JSON
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", dest])
            if code == cli.EXIT_FAILURE:
                raise RuntimeError(f"kellerscope {' '.join(argv)} exited {code}")
            for key in FILES:
                if key.startswith(f"{command} "):
                    path = os.path.join(dest, key.split(" ", 1)[1])
                    with open(path, "rb") as fh:
                        raw = fh.read()
                    files[key] = raw.hex() if key.endswith(".snap") else raw.decode()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for row in THETA0_ROWS:
            if cli.main(["theta0", *row]) != cli.EXIT_OK:
                raise RuntimeError(f"kellerscope theta0 {' '.join(row)} failed")
    files["theta0 stdout"] = printed.getvalue()
    files["config format_config"] = "".join(format_config(parse_config(text))
                                            for text in CONFIG_TEXTS)
    return {"runs": out, "files": files}


def collect(checkout: str, seed: int) -> dict:
    """``_runs`` of one checkout, computed in a fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                           os.path.abspath(checkout), "--seed", str(seed)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: runs failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(a: dict, b: dict) -> str | None:
    """The first difference between two ``collect`` results, or None."""
    diff = _compare_runs(a["runs"], b["runs"])
    if diff is not None:
        return diff
    for name in FILES:
        fa, fb = a["files"][name], b["files"][name]
        if fa == fb:
            continue
        if name.endswith(".snap"):   # hex, two digits a byte
            i = next((i for i, (x, y) in enumerate(zip(fa, fb)) if x != y),
                     min(len(fa), len(fb)))
            return (f"{name}: first difference at byte {i // 2} "
                    f"({len(fa) // 2} vs {len(fb) // 2} bytes)")
        la, lb = (f.splitlines(keepends=True) + ["(end of file)"] for f in (fa, fb))
        i = next(i for i, (x, y) in enumerate(zip(la, lb)) if x != y)
        return f"{name}: line {i + 1}: {la[i]!r} vs {lb[i]!r}"
    return None


def _compare_runs(a: dict, b: dict) -> str | None:
    """The first difference between the ``"runs"`` of two results, or None."""
    if list(a) != list(b):
        return f"different runs: {list(a)} vs {list(b)}"
    for run_name, ra in a.items():
        rb = b[run_name]
        for key in ("t", "steps", "status"):
            if ra[key] != rb[key]:
                return f"{run_name}: {key} {ra[key]} vs {rb[key]}"
        for key in ("u", "v"):
            if ra[key] != rb[key]:
                cell = next(i for i in range(0, len(ra[key]), 16)
                            if ra[key][i:i + 16] != rb[key][i:i + 16]) // 16
                return f"{run_name}: final {key} differs, first at flat cell {cell}"
        if len(ra["series"]) != len(rb["series"]):
            return (f"{run_name}: {len(ra['series'])} vs {len(rb['series'])} "
                    f"series rows")
        for i, (sa, sb) in enumerate(zip(ra["series"], rb["series"])):
            if sa != sb:
                col = next(j for j, (x, y) in enumerate(zip(sa, sb)) if x != y)
                return f"{run_name}: series row {i} column {col}: {sa[col]} vs {sb[col]}"
    return None


def drifts(a: dict, b: dict) -> dict[str, float]:
    """Per run that differs between ``a`` and ``b`` in anything, the
    largest difference of its final ``u`` and ``v`` entries relative to the
    largest magnitude of ``a``'s field (0 when only its steps, time or
    series differ)."""
    out = {}
    for run_name, ra in a["runs"].items():
        rb = b["runs"].get(run_name)
        if rb is None or ra == rb:
            continue
        worst = 0.0
        for key in ("u", "v"):
            x, y = (np.frombuffer(bytes.fromhex(r[key])) for r in (ra, rb))
            worst = max(worst, float(np.max(np.abs(x - y)) / np.max(np.abs(x))))
        out[run_name] = worst
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        json.dump(_runs(args.child, args.seed), sys.stdout)
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT_DIR and CHANGE_DIR are required")
    a, b = collect(args.parent, args.seed), collect(args.change, args.seed)
    diff = compare(a, b)
    if diff is not None:
        print(f"differ: {diff}")
        for run_name, drift in drifts(a, b).items():
            steps = {a["runs"][run_name]["steps"], b["runs"][run_name]["steps"]}
            print(f"  final fields of {run_name}: largest relative difference "
                  f"{drift:.2e} after {' vs '.join(map(str, sorted(steps)))} steps")
        for name in FILES:
            if a["files"][name] != b["files"][name]:
                print(f"  file {name} differs")
        return 1
    runs = a["runs"]
    print(f"bit-identical: {len(runs)} runs (final u, v, t, steps, status and "
          f"{sum(len(r['series']) for r in runs.values())} series rows); "
          f"byte-identical: {', '.join(FILES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
