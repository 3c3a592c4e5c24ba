"""The page-fault probe of tools/faults.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("faults", ROOT / "tools" / "faults.py")
faults = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(faults)


def test_one_checkout_reports_each_operation():
    runs = faults.collect(str(ROOT), seed=1, grids=[16], repeat=2)
    assert list(runs) == ["16x16"]
    assert len(runs["16x16"]) == 2
    for wall, minflt, sys_s in runs["16x16"]:
        assert wall > 0.0 and minflt >= 0 and sys_s >= 0.0
    stats = faults.summarize(runs)["16x16"]
    assert stats["best_wall_s"] == min(r[0] for r in runs["16x16"])


def test_two_checkouts_alternate_and_compare(capsys):
    assert faults.main([str(ROOT), str(ROOT), "--grid", "16", "--rounds", "2",
                        "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines[:2]:
        assert "16x16" in line and "best wall" in line and "minor faults" in line
    assert lines[2].startswith("16x16") and "second over first" in lines[2]


def test_summary_takes_the_fastest_wall_and_median_counts():
    stats = faults.summarize({"op": [[0.5, 10, 0.1], [0.3, 30, 0.3], [0.4, 20, 0.2]]})
    assert stats == {"op": {"best_wall_s": 0.3, "minflt": 20, "sys_s": 0.2}}
