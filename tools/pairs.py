"""Run alternating parent/change benchmark pairs and judge them.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2]
        --pairs N --seconds S --seed0 K [--out BENCH_<n>.json] [--note TEXT]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Pair i of a
workload runs ``perfbench/run.py --workload W --seed K+i --seconds S`` in
each checkout, with its own copy of the harness; even pairs run the parent
first and odd pairs the change. Every run's final JSON line is written, with
its workload, seed, pair, side and order, and with each operation's fastest
wall from the harness's ``operation walls (s):`` line as ``op_best_s``, to
the ``--out`` file (the layout of the BENCH files). Then, per workload and
end-to-end metric of the change's ``BENCHMARK.json``, it prints the two
medians, the parent's quartile spread, the change's wins, whether the claim
rule holds (the change better in at least 9 of every 10 pairs and the
medians further apart than the parent's quartile spread) and whether the
change's median stays within the metric's bound. Per workload and
operation it prints the medians of the fastest walls and the median of the
paired ratios (change over parent). This script only runs the harness; it
changes nothing in either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
OP_WALLS = "operation walls (s): "
OP_BEST = re.compile(r"(\S+) min (\S+) median \S+")


def op_bests(stdout: str) -> dict[str, float]:
    """Each operation's fastest wall (s), from the harness's line
    ``<workload>: <n> rounds; operation walls (s): <op> min <s> median <s>; ...``;
    empty when the run printed no such line."""
    for line in stdout.splitlines():
        if OP_WALLS in line:
            walls = line.split(OP_WALLS, 1)[1]
            return {op: float(best) for op, best in OP_BEST.findall(walls)}
    return {}


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> tuple[dict | None, dict[str, float]]:
    """The final JSON line of one benchmark run (None if it printed none) and
    its operations' fastest walls (see :func:`op_bests`)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        result = None
    return result, op_bests(proc.stdout)


def spread(values: list[float]) -> float:
    """Distance between the quartiles (``statistics.quantiles(n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per workload and metric of a list of run entries.

    ``metrics`` are the ``end_to_end`` entries of BENCHMARK.json. A pair
    counts when both of its runs produced a result; the change wins it when
    its value is strictly better. ``worse`` is the change's median relative
    to the parent's, signed so that a positive value is a loss.
    """
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        both = [p for p in pairs.values() if len(p) == 2]
        for m in metrics if both else ():
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            vals = {s: [p[s]["metrics"][name]["value"] for p in both] for s in SIDES}
            med = {s: statistics.median(vals[s]) for s in SIDES}
            wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            gap = sign * (med["parent"] - med["change"])
            worse = -gap / med["parent"] if med["parent"] else 0.0
            rows.append({
                "workload": workload, "metric": name, "pairs": len(both),
                "parent_median": med["parent"], "change_median": med["change"],
                "parent_spread": spread(vals["parent"]), "wins": wins,
                "claim": wins >= 0.9 * len(both) and gap > spread(vals["parent"]),
                "worse": worse, "bound": m["bound"], "within_bound": worse <= m["bound"]})
    return rows


def op_summary(runs: list[dict]) -> list[dict]:
    """One row per workload and operation: the medians of each side's
    fastest walls and, over the pairs where both sides timed the operation,
    the median ratio change/parent and the change's wins (strictly faster)."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["op_best_s"]
        both = [p for p in pairs.values() if len(p) == 2]
        for op in dict.fromkeys(op for p in both for op in p["parent"]):
            timed = [(p["parent"][op], p["change"][op]) for p in both
                     if op in p["parent"] and op in p["change"]]
            if not timed:
                continue
            rows.append({
                "workload": workload, "op": op, "pairs": len(timed),
                "parent_median": statistics.median(p for p, _ in timed),
                "change_median": statistics.median(c for _, c in timed),
                "ratio_median": statistics.median(c / p for p, c in timed),
                "wins": sum(c < p for p, c in timed)})
    return rows


def health(runs: list[dict]) -> list[str]:
    """Per workload: runs without a result, failed operations, incorrect runs."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        done = [r["result"] for r in mine if r["result"] is not None]
        out.append(f"{workload}: {len(done)}/{len(mine)} runs gave a result, "
                   f"{sum(not d['correct'] for d in done)} incorrect, "
                   f"{sum(d['failed'] for d in done)} of "
                   f"{sum(d['attempted'] for d in done)} operations failed")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--out", help="BENCH-style JSON file to write")
    parser.add_argument("--note", default="", help="description stored in --out")
    args = parser.parse_args(argv)
    # absolute, since each run starts in its own checkout
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = []
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = list(SIDES) if i % 2 == 0 else list(reversed(SIDES))
            for side in order:
                result, best = run_once(dirs[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "pair": i,
                             "order": order, "side": side, "result": result,
                             "op_best_s": best})
                shown = "no result" if result is None else ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                print(f"{workload} seed {seed} {side}: {shown}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"description": args.note, "seconds": args.seconds,
                       "runs": runs}, fh, indent=1)
            fh.write("\n")
    for line in health(runs):
        print(line)
    ok = all(r["result"] is not None and r["result"]["correct"] for r in runs)
    for row in summarize(runs, bench["end_to_end"]):
        print(f"{row['workload']:14s} {row['metric']:13s} "
              f"parent {row['parent_median']:.5g}  change {row['change_median']:.5g}  "
              f"loss {row['worse']:+.1%}  parent spread {row['parent_spread']:.4g}  "
              f"wins {row['wins']}/{row['pairs']}  claim {'holds' if row['claim'] else 'no'}  "
              f"bound {row['bound']:.0%} {'ok' if row['within_bound'] else 'EXCEEDED'}")
    for row in op_summary(runs):
        print(f"{row['workload']:14s} op {row['op']:14s} "
              f"parent {row['parent_median']:.5g}  change {row['change_median']:.5g}  "
              f"paired ratio {row['ratio_median']:.3f}  wins {row['wins']}/{row['pairs']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
