"""End-to-end CLI: subcommands, exit codes, file outputs, resume."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import kellerscope
from kellerscope import sweep
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


def test_missing_config_exit_ten(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 10
    assert "error" in capsys.readouterr().err


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


def test_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out


def test_sweep_writes_records_and_regime_map(tmp_path):
    text = STEADY_CONFIG + """
[sweep]
chi_values = 0.5
mu_values = 2.0, 4.0
p_values = 0.0
repeat = 1
seed = 3
"""
    cfg = write(tmp_path, text)
    out = str(tmp_path / "sweep_out")
    assert main(["sweep", "--config", cfg, "--out", out, "--workers", "2"]) == 0
    records = read_csv(os.path.join(out, "records.csv"))
    assert len(records) == 2
    assert records[0]["outcome"] == "Bounded"
    assert "wall_time" not in records[0]
    rmap = read_csv(os.path.join(out, "regime_map.csv"))
    assert len(rmap) == 2
    assert {"chi", "mu", "p", "outcome", "theory_prediction", "agree"} \
        <= set(rmap[0].keys())


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
    # scipy.linalg only serves the 1D signal solve and the process pool only
    # a sweep with workers; neither belongs in the start-up of every command
    code = """
import sys
import numpy as np
import kellerscope.cli
from kellerscope import Domain, Field, solve_helmholtz
loaded = [m for m in ("scipy", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded
d = Domain((1.0,), (16,))
w = solve_helmholtz(Field(np.linspace(0.0, 1.0, 16), d), 2.5, d)
assert np.all(np.isfinite(w.values))
assert "scipy.linalg.lapack" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(kellerscope.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_workers_env_variable(tmp_path, monkeypatch):
    text = STEADY_CONFIG + "\n[sweep]\nchi_values = 0.5\nmu_values = 2.0\n"
    cfg = write(tmp_path, text)
    monkeypatch.setenv("KELLERSCOPE_WORKERS", "2")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_resume_continues_run(tmp_path):
    cfg_half = write(tmp_path, STEADY_CONFIG.replace("t_end = 0.05",
                                                     "t_end = 0.02"), "half.cfg")
    cfg_full = write(tmp_path, STEADY_CONFIG, "full.cfg")
    out_half = str(tmp_path / "half")
    out_resumed = str(tmp_path / "resumed")
    out_full = str(tmp_path / "full")
    assert main(["run", "--config", cfg_half, "--out", out_half]) == 0
    snap = os.path.join(out_half, "final.snap")
    assert main(["resume", "--config", cfg_full, "--out", out_resumed,
                 "--resume", snap]) == 0
    assert main(["run", "--config", cfg_full, "--out", out_full]) == 0
    from kellerscope import Domain
    from kellerscope.snapshot import read_snapshot
    d = Domain((1.0,), (12,))
    a = read_snapshot(os.path.join(out_resumed, "final.snap"), d)
    b = read_snapshot(os.path.join(out_full, "final.snap"), d)
    assert a.t == pytest.approx(b.t, abs=1e-12)
    assert np.allclose(a.u.values, b.u.values, rtol=1e-12, atol=1e-15)


def test_resume_requires_snapshot_flag(tmp_path):
    cfg = write(tmp_path, STEADY_CONFIG)
    assert main(["resume", "--config", cfg]) == 10


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 10
    assert main([]) == 10
