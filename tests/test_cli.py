"""End-to-end CLI: subcommands, exit codes, file outputs, resume."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import kellerscope
from kellerscope import cli, sweep
from kellerscope.cli import main

STEADY_CONFIG = """\
[domain]
dim = 1
lengths = 1.0
cells = 12

[model]
tau = 1.0
chi = 0.5
mu = 2.0
a = 1.0

[stepper]
dt_init = 1e-3
dt_min = 1e-8
dt_max = 1e-3
t_end = 0.05
observer_stride = 5
blowup_threshold = 1e6

[ic]
name = constant
amplitude = 0.5
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_steady_state_exit_zero_and_series(tmp_path, capsys):
    cfg = write(tmp_path, STEADY_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "series.csv"))
    assert list(rows[0].keys()) == ["t", "dt", "mass", "sup_u", "sup_v",
                                    "l2_u", "lgamma_u", "status"]
    sup = {float(r["sup_u"]) for r in rows}
    assert all(abs(s - 0.5) < 1e-10 for s in sup)
    assert rows[-1]["status"] == "Finished"
    assert os.path.exists(os.path.join(out, "final.snap"))
    assert "outcome=Bounded" in capsys.readouterr().out


def test_run_blowup_threshold_exit_two(tmp_path):
    text = STEADY_CONFIG.replace("blowup_threshold = 1e6",
                                 "blowup_threshold = 1.0001")
    text = text.replace("a = 1.0", "a = 3.0").replace("amplitude = 0.5",
                                                      "amplitude = 1.0")
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_run_undecided_exit_three(tmp_path):
    # still visibly drifting at t_end: growing toward the carrying capacity
    text = (STEADY_CONFIG
            .replace("amplitude = 0.5", "amplitude = 0.01")
            .replace("a = 1.0", "a = 3.0")
            .replace("t_end = 0.05", "t_end = 0.5"))
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_run_above_the_dt_limit_ends_dt_floor_exit_three(tmp_path, capsys):
    # a fixed dt about 45 times the diffusion limit: no step is taken
    cfg = write(tmp_path, "[domain]\ncells = 512\n[model]\nphi_family = linear\n"
                          "a = 1.0\n[stepper]\ndt_init = 1e-4\ndt_min = 1e-4\n"
                          "dt_max = 1e-4\nt_end = 0.1\n[ic]\nname = gaussian_bump\n"
                          "amplitude = 0.35\nwidth = 0.15\n")
    out = str(tmp_path / "o")
    assert main(["run", "--config", cfg, "--out", out]) == 3
    assert "status=DtFloor outcome=Undecided t=0 steps=0 " in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "series.csv"))
    assert [(float(r["t"]), float(r["dt"]), r["status"]) for r in rows] == [
        (0.0, 0.0, "Running"), (0.0, 0.0, "DtFloor")]


@pytest.mark.parametrize("tau", [10.0, 1.0])
def test_diffusion_alone_above_dt_min_ends_dt_floor_before_the_solve(tmp_path, capsys,
                                                                     tau):
    # dt = 1 on 197 cells of a 0.05 box: diffusion alone caps dt near 3e-8,
    # and the signal solve at dt = 1 would miss its residual target
    cfg = write(tmp_path, f"[domain]\nlengths = 0.05\ncells = 197\n[model]\n"
                          f"tau = {tau}\n[stepper]\ndt_init = 1\ndt_min = 1\n"
                          "dt_max = 1\nt_end = 2\n[ic]\nname = gaussian_bump\n"
                          "amplitude = 1.0\nwidth = 0.01\n")
    out = str(tmp_path / "o")
    assert main(["run", "--config", cfg, "--out", out]) == 3
    assert "status=DtFloor outcome=Undecided t=0 steps=0 " in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "series.csv"))
    assert [(float(r["t"]), float(r["dt"]), r["status"]) for r in rows] == [
        (0.0, 0.0, "Running"), (0.0, 0.0, "DtFloor")]


def test_missing_config_exit_ten(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 10
    assert "error" in capsys.readouterr().err
    for command in ("run", "sweep"):
        assert main([command, "--out", str(tmp_path / "o")]) == 10
        assert "the following arguments are required: --config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_invalid_config_exit_ten(tmp_path, capsys):
    cfg = write(tmp_path, "[model]\nmu = -2\n")
    assert main(["run", "--config", cfg]) == 10
    err = capsys.readouterr().err
    assert "mu" in err and "line" in err


def test_run_ignores_unwritable_config_out_dir_when_out_given(tmp_path, monkeypatch):
    # the config's out_dir is never used, so it must not be probed
    cfg = write(tmp_path, STEADY_CONFIG + "\n[output]\nout_dir = /nonexistent/x\n")
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "series.csv")


def test_theta0_row_golden(capsys):
    assert main(["theta0", "3", "1", "2"]) == 0
    row = capsys.readouterr().out.strip().split(",")
    assert len(row) == 6
    assert [float(x) for x in row[:3]] == [3.0, 1.0, 2.0]
    assert float(row[3]) == pytest.approx(1.1066819, abs=1e-6)
    assert float(row[4]) == pytest.approx(1.4755759, abs=1e-6)
    assert float(row[5]) == pytest.approx(0.67770, abs=1e-5)


def test_theta0_row_at_huge_chi_is_finite(capsys):
    # chi**(gamma0+1) overflows a float here; the closed form does not
    assert main(["theta0", "3", "1e100", "1"]) == 0
    row = [float(x) for x in capsys.readouterr().out.strip().split(",")]
    assert all(np.isfinite(row))
    assert row[5] == pytest.approx(0.8059274488676567, rel=1e-12)
    assert row[4] == pytest.approx(row[1] / row[5], rel=1e-12)


def test_theta0_reports_a_bad_c_reg_by_its_argument_name(capsys):
    assert main(["theta0", "3", "1", "0"]) == 10
    assert capsys.readouterr().err == "error: c_reg must be positive, got 0.0\n"


@pytest.mark.parametrize("command, clash, message", [
    ("run", None, "cannot create output directory {out}: "),
    ("run", "series.csv", "cannot write {out}/series.csv: "),
    ("run", "final.snap", "cannot write snapshot: "),
    ("sweep", "records.csv", "cannot write {out}/records.csv: "),
], ids=["out-is-a-file", "series.csv", "final.snap", "records.csv"])
def test_a_failed_write_exits_ten_with_one_error_line(tmp_path, capsys, command, clash,
                                                      message):
    # a file where --out names a directory, or a directory where the command
    # writes a file; root ignores file modes, so no test here rests on them
    cfg = write(tmp_path, STEADY_CONFIG)
    out = tmp_path / "o"
    if clash is None:
        out.write_text("")
    else:
        (out / clash).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 10
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(out=out))
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    if clash == "final.snap":   # the series is written, and no temporary is left
        assert sorted(os.listdir(out)) == ["final.snap", "series.csv"]


def test_run_overflow_exits_ten_with_one_error_line(tmp_path, capsys):
    # phi(1e200) = (1 + 1e200)**2 overflows a float in the dt rule
    text = (STEADY_CONFIG.replace("amplitude = 0.5", "amplitude = 1e200")
            .replace("a = 1.0", "a = 1.0\np = 2.0"))
    cfg = write(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert err.strip() == ("error: diffusivity phi(u) = k*(1+u)^p overflows a "
                           "float at density u = 1e+200 with p = 2.0")


def test_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out


def test_failed_check_exits_ten(monkeypatch, capsys):
    def missed(rhs, alpha, d):
        raise kellerscope.HelmholtzError("missed its target", 1e-3)

    monkeypatch.setattr(cli, "solve_helmholtz", missed)
    assert main(["check"]) == 10
    out, err = capsys.readouterr()
    n = sum(line.startswith(("ok  ", "FAIL")) for line in out.splitlines())
    for tag in ("1d", "2d"):
        assert f"FAIL helmholtz residual ({tag}): missed its target" in out
    assert err.strip() == f"error: 2 of {n} checks failed"


def test_check_fails_a_theta0_off_its_closed_form(monkeypatch, capsys):
    true_theta0 = cli.theta0

    def skewed(gamma0, chi, c_reg):
        th, eta = true_theta0(gamma0, chi, c_reg)
        return th * (1.0 + 1e-6), eta

    monkeypatch.setattr(cli, "theta0", skewed)
    assert main(["check"]) == 10
    out, err = capsys.readouterr()
    assert "FAIL theta0 closed form is the minimum" in out
    assert err.strip().startswith("error: 1 of ")


def test_check_rejects_out(capsys):
    assert main(["check", "--out", "/nonexistent/x"]) == 10
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_check_takes_no_config(tmp_path, capsys):
    # the battery's short run uses its own bump, so a config has nothing to set
    cfg = write(tmp_path, STEADY_CONFIG)
    assert main(["check", "--config", cfg]) == 10
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_sweep_writes_records_and_regime_map(tmp_path, capsys):
    text = STEADY_CONFIG + """
[sweep]
chi_values = 0.5
mu_values = 2.0, 4.0, 20.0
p_values = 0.0
repeat = 1
seed = 3
"""
    cfg = write(tmp_path, text)
    out = str(tmp_path / "sweep_out")
    assert main(["sweep", "--config", cfg, "--out", out, "--workers", "2"]) == 0
    records = read_csv(os.path.join(out, "records.csv"))
    assert len(records) == 3
    assert list(records[0]) == ["chi", "mu", "p", "replica", "outcome", "sup_u_max",
                                "t_final", "theory_prediction", "note"]
    # mu = 20 pulls u from 0.5 toward 0.05, still moving at t_end
    assert [r["outcome"] for r in records] == ["Bounded", "Bounded", "Undecided"]
    rmap = read_csv(os.path.join(out, "regime_map.csv"))
    assert len(rmap) == 3
    assert list(rmap[0]) == ["chi", "mu", "p", "outcome", "theory_prediction", "agree"]
    assert capsys.readouterr().out.splitlines()[1:] == [
        "monotonicity: chi=0.5 p=0: mu=4 bounded but mu=20 is Undecided"]


def test_sweep_with_failed_cells_exits_ten(tmp_path, capsys):
    # negative p cannot be built under the canonical family, so every cell
    # fails; both CSVs are still written, but the command must not exit 0
    text = STEADY_CONFIG + """
[sweep]
chi_values = 0.5
mu_values = 2.0, 4.0
p_values = -1.0
"""
    cfg = write(tmp_path, text)
    out = str(tmp_path / "sweep_out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 10
    records = read_csv(os.path.join(out, "records.csv"))
    assert len(records) == 2
    assert all(r["note"].startswith("error:") for r in records)
    assert len(read_csv(os.path.join(out, "regime_map.csv"))) == 2
    assert "error: 2 of 2 sweep cells failed" in capsys.readouterr().err


def test_sweep_survives_a_dead_worker(tmp_path, capsys, monkeypatch):
    # one cell's worker process dies (as when it is killed or runs out of
    # memory): the finished cells are kept, the lost ones are error cells,
    # both CSVs are written and the command exits 10
    text = STEADY_CONFIG + """
[sweep]
chi_values = 0.5, 1.0
mu_values = 2.0, 4.0
"""
    cfg = write(tmp_path, text)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
    serial = read_csv(tmp_path / "serial" / "records.csv")
    capsys.readouterr()
    real_run = sweep.run

    def run_or_die(u0, v0, params, cfg):
        if params.chi == 1.0 and params.mu == 4.0:
            os._exit(1)   # workers are forked, so they call this
        return real_run(u0, v0, params, cfg)

    monkeypatch.setattr(sweep, "run", run_or_die)
    out = tmp_path / "pool"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "2"]) == 10
    records = read_csv(out / "records.csv")
    assert [(r["chi"], r["mu"]) for r in records] == [(r["chi"], r["mu"]) for r in serial]
    lost = [r for r in records if r["note"]]
    assert records[-1] in lost
    assert all(r["note"].startswith("error:") and r["outcome"] == "Undecided"
               for r in lost)
    assert len(lost) < len(records)   # at least the first cell finished
    for got, want in zip(records, serial):
        if not got["note"]:
            assert got == want
    assert len(read_csv(out / "regime_map.csv")) == 4
    assert f"error: {len(lost)} of 4 sweep cells failed" in capsys.readouterr().err


def test_cli_import_loads_neither_scipy_nor_the_process_pool():
    # no command needs scipy, and only a sweep with workers needs the
    # process pool; 1D and 2D signal solves and the whole check battery run
    # on numpy alone
    code = """
import sys
import numpy as np
import kellerscope.cli
from kellerscope import Domain, Field, solve_helmholtz
loaded = [m for m in ("scipy", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded
for d in (Domain((1.0,), (16,)), Domain((1.0, 1.5), (9, 7))):
    w = solve_helmholtz(Field(np.linspace(0.0, 1.0, d.n_cells).reshape(d.shape), d),
                        2.5, d)
    assert np.all(np.isfinite(w.values))
assert kellerscope.cli.main(["check"]) == 0
assert "scipy" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(kellerscope.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_workers_default_to_one_whatever_the_environment(tmp_path, monkeypatch):
    # --workers is the one source of the count: no variable sets it
    text = STEADY_CONFIG + "\n[sweep]\nchi_values = 0.5\nmu_values = 2.0\n"
    cfg = write(tmp_path, text)
    monkeypatch.setenv("KELLERSCOPE_WORKERS", "0")
    seen = []
    monkeypatch.setattr(cli, "run_sweep",
                        lambda spec, workers: seen.append(workers) or [])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert seen == [1]


def test_zero_workers_exit_ten(tmp_path, capsys):
    # a zero count is taken as given, and refused before anything is written
    text = STEADY_CONFIG + "\n[sweep]\nchi_values = 0.5\nmu_values = 2.0\n"
    cfg = write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "0"]) == 10
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_resume_continues_run(tmp_path):
    cfg_half = write(tmp_path, STEADY_CONFIG.replace("t_end = 0.05",
                                                     "t_end = 0.02"), "half.cfg")
    cfg_full = write(tmp_path, STEADY_CONFIG, "full.cfg")
    out_half = str(tmp_path / "half")
    out_resumed = str(tmp_path / "resumed")
    out_full = str(tmp_path / "full")
    assert main(["run", "--config", cfg_half, "--out", out_half]) == 0
    snap = os.path.join(out_half, "final.snap")
    assert main(["run", "--config", cfg_full, "--out", out_resumed,
                 "--resume", snap]) == 0
    assert main(["run", "--config", cfg_full, "--out", out_full]) == 0
    from kellerscope import Domain
    from kellerscope.snapshot import read_snapshot
    d = Domain((1.0,), (12,))
    a = read_snapshot(os.path.join(out_resumed, "final.snap"), d)
    b = read_snapshot(os.path.join(out_full, "final.snap"), d)
    assert a.t == pytest.approx(b.t, abs=1e-12)
    assert np.allclose(a.u.values, b.u.values, rtol=1e-12, atol=1e-15)


AUTO_CONFIG = """\
[domain]
dim = 1
lengths = 1.0
cells = 64

[model]
tau = 1.0
chi = 0.5
mu = 1.0
reaction = off

[stepper]
t_end = 0.02
blowup_threshold = auto

[ic]
name = gaussian_bump
amplitude = 4.0
width = 0.05
"""


def test_resume_keeps_the_auto_threshold(tmp_path, monkeypatch):
    # the auto threshold is 1e6 * max(1, sup u0) of the configured initial
    # data, on the resumed run as on the fresh one: the bump has spread out
    # by t = 0.02, so its density's sup there is about a third of u0's
    from kellerscope import stepper
    thresholds = {}
    inner = stepper._step

    def spy(state, old, params, cfg, work):
        thresholds.setdefault(label, set()).add(cfg.blowup_threshold)
        return inner(state, old, params, cfg, work)

    monkeypatch.setattr(stepper, "_step", spy)
    half = write(tmp_path, AUTO_CONFIG, "half.cfg")
    full = write(tmp_path, AUTO_CONFIG.replace("t_end = 0.02", "t_end = 0.04"))
    for label, argv in (("half", ["--config", half]), ("fresh", ["--config", full]),
                        ("resumed", ["--config", full, "--resume",
                                     str(tmp_path / "half" / "final.snap")])):
        assert main(["run", *argv, "--out", str(tmp_path / label)]) != 10
    sup_u0 = float(read_csv(tmp_path / "half" / "series.csv")[0]["sup_u"])
    assert sup_u0 > 3.0
    assert thresholds == {label: {1e6 * sup_u0} for label in ("half", "fresh", "resumed")}


@pytest.mark.parametrize("max_steps", [None, 50])
def test_resuming_a_finished_run_changes_nothing(tmp_path, capsys, max_steps):
    # t_end = 0.05 at dt 1e-3 takes 50 steps: with max_steps = 50 the run
    # finishes on its last step, and its resume is still Finished
    budget = f"\nmax_steps = {max_steps}" if max_steps else ""
    cfg = write(tmp_path, STEADY_CONFIG.replace("t_end = 0.05", "t_end = 0.05" + budget))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["run", "--config", cfg, "--out", str(first)]) == 0
    summary = capsys.readouterr().out
    assert main(["run", "--config", cfg, "--out", str(again),
                 "--resume", str(first / "final.snap")]) == 0
    assert capsys.readouterr().out == summary
    assert summary.startswith("status=Finished ") and " steps=50 " in summary
    assert (again / "final.snap").read_bytes() == (first / "final.snap").read_bytes()


@pytest.mark.parametrize("field, cell, value", [("u", 3, np.nan), ("v", 7, -3.0)])
def test_resume_rejects_invalid_fields(tmp_path, capsys, field, cell, value):
    # run and resume share run_state's check of the fields they start from
    from kellerscope import Domain, Field, SimState
    from kellerscope.snapshot import write_snapshot
    d = Domain((1.0,), (12,))
    fields = {"u": np.full(12, 0.5), "v": np.full(12, 0.5)}
    fields[field][cell] = value
    snap = str(tmp_path / "bad.snap")
    write_snapshot(SimState(t=0.01, u=Field(fields["u"], d), v=Field(fields["v"], d),
                            steps=10), snap)
    cfg = write(tmp_path, STEADY_CONFIG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--resume", snap]) == 10
    assert "error: initial data must be finite and nonnegative" in capsys.readouterr().err


def test_resume_from_a_missing_snapshot_exits_ten(tmp_path, capsys):
    cfg = write(tmp_path, STEADY_CONFIG)
    snap = str(tmp_path / "nope.snap")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--resume", snap]) == 10
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot resume from {snap}: ")
    assert len(err.splitlines()) == 1


def test_helmholtz_failure_exits_ten(tmp_path, capsys):
    # a residual target below rounding level cannot be met on the default grid
    cfg = write(tmp_path, "[stepper]\nhelmholtz_tol = 1e-18\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 10
    err = capsys.readouterr().err
    assert err.startswith("error: Helmholtz solve missed its residual target")
    assert "Traceback" not in err


def test_resume_is_run_resume_only(tmp_path, capsys):
    # there is no separate resume command: `run --resume` is the one way in
    cfg = write(tmp_path, STEADY_CONFIG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    snap = str(tmp_path / "o" / "final.snap")
    capsys.readouterr()
    assert main(["resume", "--config", cfg, "--resume", snap]) == 10
    assert "invalid choice: 'resume'" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 10
    assert main([]) == 10
