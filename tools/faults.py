"""Minor page faults, system time and wall time of damped-2d's runs.

    python3 tools/faults.py CHECKOUT [OTHER_CHECKOUT] [--rounds R]
        [--repeat N] [--seed K] [--grid N ...]

Builds damped-2d's two configs (64^2 to t=0.1 and 128^2 to t=0.01) with
the classes of each checkout's own ``perfbench/workloads.py`` and runs them
with that checkout's ``kellerscope.run``, in one fresh interpreter per
checkout and round, one BLAS thread. A round runs the two configs in turn,
``--repeat`` times, in one process, as the benchmark does. ``--grid N``
runs the 64^2 config's model, initial data and stepper on an N x N grid
instead (repeatable). With two checkouts the rounds alternate, the first
checkout first in even rounds.

Per checkout and operation it prints the fastest wall time, and the median
over runs of the minor page faults (``ru_minflt``) and of the system time,
both from ``getrusage`` around each run; with two checkouts also the
second's faults as a share of the first's. This script only runs the two
checkouts; it changes nothing in either.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def _ops(checkout: str, seed: int, grids: list[int]):
    """(label, params, stepper config, (u0, v0)) of each operation."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import workloads
    from kellerscope import Domain, build_ic

    with tempfile.TemporaryDirectory() as work:
        cases = list(workloads.Damped2d(seed, work).layer_sources())
    if not grids:
        return [(label, params, cfg.stepper, ic) for label, _, cfg, params, ic in cases]
    _, _, cfg, params, _ = cases[0]
    return [(f"{n}x{n}", params, cfg.stepper, build_ic(cfg.ic, Domain((1.0, 1.0), (n, n))))
            for n in grids]


def _measure(checkout: str, seed: int, grids: list[int], repeat: int) -> dict:
    """Per operation, a list of [wall_s, minor faults, system s] per run."""
    import resource
    from time import perf_counter

    ops = _ops(checkout, seed, grids)
    from kellerscope import run

    out: dict[str, list] = {label: [] for label, *_ in ops}
    for _ in range(repeat):
        for label, params, stepper, (u0, v0) in ops:
            r0, t0 = resource.getrusage(resource.RUSAGE_SELF), perf_counter()
            run(u0, v0, params, stepper)
            t1, r1 = perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
            out[label].append([t1 - t0, r1.ru_minflt - r0.ru_minflt,
                               r1.ru_stime - r0.ru_stime])
    return out


def collect(checkout: str, seed: int, grids: list[int], repeat: int) -> dict:
    """``_measure`` of one checkout, in a fresh interpreter."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), os.path.abspath(checkout),
           "--child", "--seed", str(seed), "--repeat", str(repeat)]
    cmd += [arg for n in grids for arg in ("--grid", str(n))]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: runs failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def summarize(runs: dict[str, list]) -> dict[str, dict]:
    """Per operation: the fastest wall and the median faults and system time."""
    return {label: {"best_wall_s": min(r[0] for r in rows),
                    "minflt": statistics.median(r[1] for r in rows),
                    "sys_s": statistics.median(r[2] for r in rows)}
            for label, rows in runs.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--grid", type=int, action="append", default=[])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        json.dump(_measure(args.checkouts[0], args.seed, args.grid, args.repeat), sys.stdout)
        return 0
    if len(args.checkouts) > 2:
        ap.error("at most two checkouts")
    sides: list[tuple[str, dict[str, list]]] = [(c, {}) for c in args.checkouts]
    for i in range(args.rounds):
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            for label, rows in collect(checkout, args.seed, args.grid, args.repeat).items():
                runs.setdefault(label, []).extend(rows)
    stats = [summarize(runs) for _, runs in sides]
    for (checkout, _), ops in zip(sides, stats):
        for label, s in ops.items():
            print(f"{checkout}  {label:9s} best wall {s['best_wall_s']:.4f} s  "
                  f"minor faults {s['minflt']:.0f}  sys {s['sys_s']:.3f} s")
    if len(stats) == 2:
        first, second = stats
        for label in first:
            share = (second[label]["minflt"] / first[label]["minflt"]
                     if first[label]["minflt"] else float("nan"))
            print(f"{label:9s} faults, second over first: {share:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
