"""kellerscope benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's operations for S seconds, checks every
output, prints each metric with its unit and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the workload once untraced and once
traced and reports the per-layer table. --workload all runs every workload
in turn, each in its own process. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread in this process and in every process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("tiny-fixed-dt", "damped-2d", "sweep-2w")
SETUP_PROBES = 9
OVERHEAD_PAIRS = 3   # untraced/traced round pairs behind trace.overhead_s

UNITS = {"wall_s": "s", "setup_s": "s", "steps": "count", "step_us": "us",
         "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    kind = name.split(".")[1]
    special = {"cg_iters": "count", "bytes": "bytes", "dt_mean": "model_time",
               "speedup": "ratio", "cell_s_median": "s", "cell_s_max": "s"}
    if kind in special:
        return special[kind]
    return {"us": "us", "ms": "ms", "s": "s", "kib": "KiB"}[kind.rsplit("_", 1)[1]]


def setup_seconds(config_paths: list[str]) -> float:
    """Median over SETUP_PROBES fresh interpreters, taking turns on each CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for i in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})   # the probe inherits it
            out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                                  SRC, *config_paths], capture_output=True, text=True,
                                 timeout=120, check=True)
            times.append(float(out.stdout.split()[-1]))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus, for a pool, the worker count times the
    largest worker's peak. Workers are forked, so pages they share with this
    process count twice: an upper bound."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def measure(name: str, seed: int, seconds: float, work: str):
    import checks
    from tracing import NULL
    from workloads import BY_NAME

    wl = BY_NAME[name](seed, work)
    wl.prepare()
    workers = getattr(wl, "WORKERS", 0)
    cpus = sorted(os.sched_getaffinity(0))
    rounds, steps_seen = 0, set()
    attempted = failed = 0
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        if not workers:   # a single-process workload takes turns on each CPU
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        f, steps = wl.round(NULL)
        rounds += 1
        attempted += wl.ops_per_round
        failed += f
        steps_seen.add(steps)
    os.sched_setaffinity(0, cpus)
    checks.require(len(steps_seen) == 1,
                   f"identical rounds took different step counts {sorted(steps_seen)}")
    rss = peak_rss_mib(workers)   # before any set-up probe runs
    # each operation's fastest time: on a shared box the same code can run
    # 1.6 times slower for seconds at a time, and a median tracks how long
    # a run spent in such a phase (see README)
    wall = sum(min(ws) for ws in wl.op_walls.values())
    metrics = {"wall_s": wall, "setup_s": setup_seconds(wl.config_paths),
               "steps": steps, "step_us": wall / max(steps, 1) * 1e6, "peak_rss_mib": rss}
    print(f"{name}: {rounds} rounds; operation walls (s): " + "; ".join(
        f"{op} min {min(ws):.4f} median {statistics.median(ws):.4f}"
        for op, ws in wl.op_walls.items()))
    return attempted, failed, {k: (v, UNITS[k]) for k, v in metrics.items()}


def trace(name: str, seed: int, work: str, trace_path: str):
    """Untraced and traced rounds of the workload, alternated, traced rounds
    of the other workloads and the per-layer replay on every grid."""
    import layers
    from tracing import NULL, Tracer
    from workloads import BY_NAME

    wls = {n: BY_NAME[n](seed, work) for n in WORKLOAD_NAMES}
    for wl in wls.values():
        wl.prepare()
    tr = Tracer()
    walls = {NULL: [], tr: []}
    attempted = failed = 0
    for wl in wls.values():
        for t in (NULL, tr) * OVERHEAD_PAIRS if wl.name == name else (tr,):
            with t.span(f"round {wl.name}"), t.patched(wl.trace_targets()):
                t0 = perf_counter()
                failed += wl.round(t)[0]
                elapsed = perf_counter() - t0
            if wl.name == name:
                walls[t].append(elapsed)
            attempted += wl.ops_per_round
    metrics = {}
    for wl in wls.values():
        for source in wl.layer_sources():
            metrics.update(layers.grid_table(*source, work, tr))
    metrics.update(layers.cli_output_ms(tr))
    metrics.update(layers.global_table(wls["sweep-2w"], tr))
    metrics["trace.overhead_s"] = min(walls[tr]) - min(walls[NULL])
    tr.dump(trace_path)
    print(f"{name}: untraced rounds {walls[NULL]}, traced {walls[tr]}, "
          f"{len(tr.spans)} spans in {os.path.relpath(trace_path, ROOT)}")
    return attempted, failed, {k: (v, layer_unit(k)) for k, v in sorted(metrics.items())}


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results
    with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kellerscope", "__init__.py")):
        print(f"error: no kellerscope sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import kellerscope
    if os.path.dirname(os.path.dirname(os.path.abspath(kellerscope.__file__))) != SRC:
        print(f"error: kellerscope imported from {kellerscope.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checks

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        if args.trace:
            attempted, failed, metrics = trace(
                args.workload, args.seed, work,
                os.path.join(OUT, "results", f"spans-{tag}.json"))
        else:
            attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, work)
    except checks.CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"attempted = {attempted} operations, failed = {failed}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
