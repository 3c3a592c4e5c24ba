"""Independent references and output checks.

Nothing here imports kellerscope: the threshold, the mass envelope and the
snapshot layout are recomputed from their documented definitions, so a
fault in the program cannot hide in a check that shares its code. Every
check raises CheckError with a message that names the broken property.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.optimize import minimize_scalar

C2 = 0.25                   # sup over g > 1 of (1/g)(1+1/g)^-(g+1), at g -> 1+
SNAP_HEADER_BYTES = 64
STEADY_TOL = 1e-10          # steady state: |u - a/mu|, |v - a/mu|
MASS_DRIFT_TOL = 1e-12      # reaction off: relative mass drift
NEG_TOL = 1e-14             # u, v >= -NEG_TOL * scale
MASS_CAP_SLACK = 1e-6       # masses <= max(m0, a|box|/mu) * (1 + slack)
REFINEMENT_TOL = 0.05       # criterion 7: |sup_f - sup_c| <= 5% of sup_f
SNAP_SERIES_RTOL = 1e-12    # integrals recomputed from final.snap


class CheckError(AssertionError):
    """An output of the program violates a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ------------------------------------------------------------ references

def theta0_ref(gamma0: float, chi: float, c_reg: float) -> float:
    """Boundedness threshold from the closed form

        eta* = (gamma0 * c2 * C)^(1/(gamma0+1)) * chi,
        theta0 = chi / (eta* * (1 + 1/gamma0)),

    cross-checked against a bounded scalar minimization of
    h(eta) = eta + c2*C*eta^-gamma0*chi^(gamma0+1)."""
    eta_star = (gamma0 * C2 * c_reg) ** (1.0 / (gamma0 + 1.0)) * chi
    h_star = eta_star * (1.0 + 1.0 / gamma0)

    def h(eta):
        return eta + C2 * c_reg * eta ** (-gamma0) * chi ** (gamma0 + 1.0)

    res = minimize_scalar(h, bounds=(eta_star * 1e-4, eta_star * 1e4),
                          method="bounded", options={"xatol": eta_star * 1e-12})
    require(abs(h(res.x) - h_star) <= 1e-10 * h_star,
            f"theta0 reference: closed form {h_star!r} vs minimizer {h(res.x)!r}")
    return chi / h_star


def rk4_mass(m0: float, a: float, mu_over_measure: float,
             times: np.ndarray) -> np.ndarray:
    """RK4 solution of the comparison law m' = a*m - (mu/|box|)*m^2,
    32 substeps between consecutive sample times."""
    f = lambda m: a * m - mu_over_measure * m * m
    out = [m0]
    m = m0
    for t0, t1 in zip(times, times[1:]):
        h = (t1 - t0) / 32
        for _ in range(32):
            k1 = f(m)
            k2 = f(m + 0.5 * h * k1)
            k3 = f(m + 0.5 * h * k2)
            k4 = f(m + h * k3)
            m += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(m)
    return np.array(out)


def mass_envelope(m0: float, a: float, mu: float, measure: float,
                  times: np.ndarray) -> np.ndarray:
    """The acceptance-criterion-4 envelope: the RK4 comparison mass times
    exp(a t / 2) (semi-implicit sink) times a flat 5% (flux coupling)."""
    return rk4_mass(m0, a, mu / measure, times) * np.exp(0.5 * a * times) * 1.05 + 1e-15


# ------------------------------------------------------------ file formats

def read_snap(path: str) -> dict:
    """Parse a snapshot from its documented layout: a 64-byte ASCII header
    ``KSSNAP1 dim=<d> nx=<nx> ny=<ny> t=<hex-float> steps=<n>\\n`` padded
    with spaces, then u and v as row-major little-endian doubles."""
    with open(path, "rb") as fh:
        raw = fh.read()
    require(len(raw) >= SNAP_HEADER_BYTES, f"{path}: shorter than its header")
    head = raw[:SNAP_HEADER_BYTES].decode("ascii")
    line, _, pad = head.partition("\n")
    require(pad.strip(" ") == "", f"{path}: header padding is not spaces")
    magic, *pairs = line.split(" ")
    require(magic == "KSSNAP1", f"{path}: bad magic {magic!r}")
    kv = dict(p.split("=", 1) for p in pairs)
    dim, nx, ny = int(kv["dim"]), int(kv["nx"]), int(kv["ny"])
    shape = (nx,) if dim == 1 else (nx, ny)
    n = nx * ny
    require(len(raw) == SNAP_HEADER_BYTES + 16 * n,
            f"{path}: {len(raw)} bytes, expected {SNAP_HEADER_BYTES + 16 * n}")
    data = np.frombuffer(raw, dtype="<f8", offset=SNAP_HEADER_BYTES)
    return {"dim": dim, "shape": shape, "t": float.fromhex(kv["t"]),
            "steps": int(kv["steps"]), "u": data[:n].reshape(shape),
            "v": data[n:].reshape(shape), "bytes": len(raw)}


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------ tiny-fixed-dt

def check_nonnegative(name: str, vals: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(vals))))
    require(float(vals.min()) >= -NEG_TOL * scale,
            f"{name}: min {float(vals.min()):.3e} below -{NEG_TOL:g} x scale")


def check_steady(case: str, u: np.ndarray, v: np.ndarray, u_star: float) -> None:
    drift = max(float(np.max(np.abs(u - u_star))), float(np.max(np.abs(v - u_star))))
    require(drift <= STEADY_TOL, f"{case}: drift {drift:.3e} from (a/mu, a/mu)")
    check_nonnegative(f"{case} u", u)
    check_nonnegative(f"{case} v", v)


def check_conserved(case: str, masses: list[float], u: np.ndarray,
                    v: np.ndarray) -> None:
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    require(drift <= MASS_DRIFT_TOL, f"{case}: relative mass drift {drift:.3e}")
    check_nonnegative(f"{case} u", u)
    check_nonnegative(f"{case} v", v)


# ------------------------------------------------------------ damped-2d

def check_run_output(case: str, series: list[dict], snap: dict, a: float, mu: float,
                     measure: float, cell_volume: float) -> None:
    """series.csv and final.snap of one finished run of the damped regime."""
    require(series[-1]["status"] == "Finished",
            f"{case}: last status {series[-1]['status']}")
    u, v = snap["u"], snap["v"]
    require(float(u.min()) >= 0.0, f"{case}: negative density {float(u.min()):.3e}")
    t = np.array([float(r["t"]) for r in series])
    mass = np.array([float(r["mass"]) for r in series])
    cap = max(mass[0], a * measure / mu) * (1.0 + MASS_CAP_SLACK)
    require(bool(np.all(mass <= cap)), f"{case}: mass {mass.max():.17g} above cap {cap:.17g}")
    env = mass_envelope(mass[0], a, mu, measure, t)
    require(bool(np.all(mass <= env)), f"{case}: mass escapes the RK4 envelope")
    last = series[-1]
    require(snap["t"] == float(last["t"]), f"{case}: snapshot t {snap['t']!r} "
            f"vs series t {last['t']}")
    require(float(u.max()) == float(last["sup_u"]) and float(v.max()) == float(last["sup_v"]),
            f"{case}: snapshot sup norms disagree with the last series row")
    snap_mass = math.fsum(u.ravel()) * cell_volume
    snap_l2 = math.sqrt(math.fsum((u * u).ravel()) * cell_volume)
    for name, got, want in (("mass", snap_mass, float(last["mass"])),
                            ("l2_u", snap_l2, float(last["l2_u"]))):
        require(abs(got - want) <= SNAP_SERIES_RTOL * abs(want),
                f"{case}: snapshot {name} {got!r} vs series {want!r}")


def sup_at(series: list[dict], t: float) -> float:
    """sup_u linearly interpolated at time t from the series rows."""
    ts = np.array([float(r["t"]) for r in series])
    sup = np.array([float(r["sup_u"]) for r in series])
    require(ts[0] <= t <= ts[-1], f"t={t} outside the series span")
    return float(np.interp(t, ts, sup))


def check_refinement(coarse: list[dict], fine: list[dict]) -> None:
    """Criterion 7's refinement check at the fine run's final time."""
    t = float(fine[-1]["t"])
    sup_f = float(fine[-1]["sup_u"])
    sup_c = sup_at(coarse, t)
    require(abs(sup_f - sup_c) <= REFINEMENT_TOL * abs(sup_f),
            f"refinement at t={t:g}: coarse {sup_c:.6g} vs fine {sup_f:.6g}")


# ------------------------------------------------------------ sweep-2w

def expected_prediction(chi: float, mu: float, th0: float) -> str:
    """Theory regime for linear sensitivity growth (q = 1): the ratio
    chi/mu against theta0 decides, whatever the diffusivity exponent p."""
    return "CriticalBoundedByLogistic" if chi / mu < th0 else "CriticalUndetermined"


def check_sweep(records: list[dict], regime: list[dict],
                cells: list[tuple[float, float, float]], th0: dict) -> int:
    """records.csv and regime_map.csv of a one-replica sweep over ``cells``
    (in lexicographic order); ``th0`` maps chi to the reference theta0.
    Returns the number of cells whose run failed (a note reading
    ``error:``); their outcome is not checked."""
    require(len(records) == len(cells), f"records.csv: {len(records)} rows, "
            f"expected {len(cells)}")
    require(len(regime) == len(cells), f"regime_map.csv: {len(regime)} rows, "
            f"expected {len(cells)}")
    failed = 0
    for rec, row, (chi, mu, p) in zip(records, regime, cells):
        for r, name in ((rec, "records"), (row, "regime_map")):
            got = (float(r["chi"]), float(r["mu"]), float(r["p"]))
            require(got == (chi, mu, p), f"{name}.csv: cell {got} where "
                    f"{(chi, mu, p)} was expected")
        where = f"cell chi={chi:g} mu={mu:g} p={p:g}"
        want = expected_prediction(chi, mu, th0[chi])
        for r, name in ((rec, "records"), (row, "regime_map")):
            require(r["theory_prediction"] == want,
                    f"{where}: {name}.csv predicts {r['theory_prediction']}, "
                    f"theta0={th0[chi]:.17g} gives {want}")
        if rec["note"].startswith("error:"):
            print(f"{where}: {rec['note']}", flush=True)
            failed += 1
        elif chi / mu < th0[chi]:
            for r, name in ((rec, "records"), (row, "regime_map")):
                require(r["outcome"] == "Bounded",
                        f"{where}: chi/mu < theta0 but {name}.csv has {r['outcome']}")
    return failed
