"""Self-test of the benchmark's checks: every check passes on the outputs of
one real round of each workload and fails on a deliberately corrupted copy.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise. Takes about half a minute.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
import sys
import tempfile

import run as bench  # pins BLAS threads before numpy loads

sys.path.insert(0, bench.SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import NULL  # noqa: E402
from workloads import Damped2d, Sweep2w, TinyFixedDt  # noqa: E402
from kellerscope import run  # noqa: E402

FAILURES = []


def expect(label: str, fn, fails: bool) -> None:
    try:
        fn()
        raised = None
    except checks.CheckError as exc:
        raised = exc
    if (raised is not None) == fails:
        print(f"ok    {label}" + (f": {raised}" if raised else ""))
    else:
        print(f"WRONG {label}: " + (f"raised {raised}" if raised else "passed"))
        FAILURES.append(label)


def references() -> None:
    # golden of acceptance criterion 6: theta0(3, 1, 2) = 0.6777015027073837
    expect("theta0 reference matches the criterion-6 golden",
           lambda: checks.require(abs(checks.theta0_ref(3.0, 1.0, 2.0)
                                      - 0.6777015027073837) <= 1e-12, "golden"), False)
    a, mu, m0 = 4.0, 10.0, 0.05
    t = np.linspace(0.0, 1.0, 11)
    k = a / mu
    exact = k / (1.0 + (k / m0 - 1.0) * np.exp(-a * t))
    err = float(np.max(np.abs(checks.rk4_mass(m0, a, mu, t) / exact - 1.0)))
    expect("RK4 comparison law matches the logistic closed form",
           lambda: checks.require(err <= 1e-9, f"error {err:.2e}"), False)


def tiny(work: str) -> None:
    wl = TinyFixedDt(7, work)
    wl.prepare()
    expect("tiny-fixed-dt round", lambda: wl.round(NULL), False)
    for label, kind, cfg, (u0, v0) in wl.runs:
        res = run(u0, v0, cfg.params, cfg.stepper)
        u, v = res.final.u.values.copy(), res.final.v.values.copy()
        masses = [s.mass for s in res.series]
        if kind == "steady":
            u_star = cfg.params.a / cfg.params.mu
            bad = u.copy()
            bad.flat[0] += 1e-9
            expect(f"{label}: drift 1e-9 from (a/mu, a/mu)",
                   lambda: checks.check_steady(label, bad, v, u_star), True)
        else:
            expect(f"{label}: mass drift 1e-11",
                   lambda: checks.check_conserved(label, masses[:-1] + [masses[-1] * (1 + 1e-11)],
                                                  u, v), True)
            bad = u.copy()
            bad.flat[0] = -1e-12 * max(1.0, float(np.abs(u).max()))
            expect(f"{label}: u at -1e-12 x scale",
                   lambda: checks.check_conserved(label, masses, bad, v), True)


def damped(work: str) -> None:
    wl = Damped2d(7, work)
    wl.prepare()
    expect("damped-2d round", lambda: wl.round(NULL), False)
    series, snaps = {}, {}
    for label, _, out in wl.cases:
        series[label] = checks.read_csv(os.path.join(out, "series.csv"))
        snaps[label] = checks.read_snap(os.path.join(out, "final.snap"))
    label = "64x64"
    rows, snap = series[label], snaps[label]

    def check(rows=rows, snap=snap):
        checks.check_run_output(label, rows, snap, wl.A, wl.MU, 1.0, 1.0 / 64**2)

    expect("damped-2d 64x64 outputs", check, False)
    path = os.path.join(work, "negative.snap")
    shutil.copy(os.path.join(wl.cases[0][2], "final.snap"), path)
    with open(path, "r+b") as fh:   # first density value of the payload
        fh.seek(checks.SNAP_HEADER_BYTES)
        fh.write(np.array([-1e-3], dtype="<f8").tobytes())
    expect("negative density in final.snap", lambda: check(snap=checks.read_snap(path)), True)
    bad = copy.deepcopy(rows)
    bad[-1]["status"] = "BlowUp"
    expect("last status BlowUp", lambda: check(rows=bad), True)
    bad = copy.deepcopy(rows)
    cap = max(float(rows[0]["mass"]), wl.A / wl.MU)
    bad[-2]["mass"] = repr(cap * 1.01)
    expect("mass above max(m0, a|box|/mu)", lambda: check(rows=bad), True)
    bad = copy.deepcopy(rows)
    bad[1]["mass"] = repr(float(rows[1]["mass"]) * 1.2)   # still under the cap
    expect("mass above the RK4 envelope", lambda: check(rows=bad), True)
    bad_snap = dict(snap, u=snap["u"] * (1.0 + 1e-9))
    expect("final.snap does not match the last series row", lambda: check(snap=bad_snap), True)
    bad_snap = dict(snap, t=math.nextafter(snap["t"], 1.0))
    expect("final.snap time one ulp off", lambda: check(snap=bad_snap), True)
    with open(path, "r+b") as fh:
        fh.write(b"KSSNAP2")
    expect("snapshot with a bad magic", lambda: checks.read_snap(path), True)
    expect("refinement", lambda: checks.check_refinement(series["64x64"], series["128x128"]),
           False)
    bad = copy.deepcopy(series["128x128"])
    bad[-1]["sup_u"] = repr(float(bad[-1]["sup_u"]) * 1.1)
    expect("refinement off by 10%", lambda: checks.check_refinement(series["64x64"], bad), True)


def sweep(work: str) -> None:
    wl = Sweep2w(7, work)
    wl.prepare()
    expect("sweep-2w round", lambda: wl.round(NULL), False)
    records = checks.read_csv(os.path.join(wl.out, "records.csv"))
    regime = checks.read_csv(os.path.join(wl.out, "regime_map.csv"))

    def check(records=records, regime=regime):
        failed = checks.check_sweep(records, regime, wl.cells, wl.th0)
        checks.require(failed == 0, f"{failed} cells failed")

    below = next(i for i, (c, m, _) in enumerate(wl.cells) if c / m < wl.th0[c])
    above = next(i for i, (c, m, _) in enumerate(wl.cells) if c / m >= wl.th0[c])
    expect("one records row missing", lambda: check(records=records[:-1]), True)
    expect("one regime_map row missing", lambda: check(regime=regime[1:]), True)
    bad = copy.deepcopy(records)
    bad[below]["outcome"] = "Undecided"
    expect("Undecided cell with chi/mu < theta0", lambda: check(records=bad), True)
    for idx, what in ((below, "below"), (above, "above")):
        bad = copy.deepcopy(records)
        bad[idx]["theory_prediction"] = ("CriticalUndetermined" if idx == below
                                         else "CriticalBoundedByLogistic")
        expect(f"prediction disagrees with theta0 ({what} the threshold)",
               lambda: check(records=bad), True)
    bad = copy.deepcopy(records)
    bad[0]["note"] = "error: worker died"
    expect("a cell whose note reads error:", lambda: check(records=bad), True)
    bad = copy.deepcopy(records)
    bad[0]["t_final"] = repr(math.nextafter(float(bad[0]["t_final"]), 0.0))
    expect("records differ from a serial run", lambda: wl.check_against_replay(bad), True)


def main() -> int:
    os.makedirs(bench.OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT)
    try:
        references()
        tiny(work)
        damped(work)
        sweep(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "every check behaves")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
