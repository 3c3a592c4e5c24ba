"""Run the benchmark on several seeds and summarise each end-to-end metric:
median, quartiles and the quartile spread as a share of the median.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S]

Runs are sequential. The summary is printed and written to
.perfbench/spread.json; the README's reference figures come from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": os.cpu_count(), "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= out.returncode == 0 and result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[key] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": vals}
            print(f"  {key:13s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {rows[key]['spread']:.4f} (bound {bounds[key]})")
        summary["workloads"][name] = {"failed_shares": sorted(shares), "metrics": rows}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "spread.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
