"""The bitwise run comparison of tools/samebits.py."""

import copy
import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("samebits", ROOT / "tools" / "samebits.py")
samebits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebits)


def _field(result, name, key="u"):
    return np.frombuffer(bytes.fromhex(result["runs"][name][key]))


def test_identical_trees_compare_equal_and_a_difference_is_named(tmp_path):
    trees = []
    for side in ("a", "b"):
        for sub in ("src", "perfbench"):
            shutil.copytree(ROOT / sub, tmp_path / side / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(samebits.collect(str(tmp_path / side), seed=3))
    a, b = trees
    assert samebits.compare(a, b) is None
    assert samebits.drifts(a, b) == {}
    # tiny-fixed-dt's 4 runs, damped-2d's 2, sweep-2w's 12 cells and the
    # 3 slice-path runs; then the sweep's two files, a header and 12 rows
    # each, the series and 64x64 snapshot of the run and of its resume, and
    # one theta0 row per argument triple
    runs = a["runs"]
    assert len(runs) == 21 and all(r["series"] for r in runs.values())
    files = a["files"]
    assert list(files) == list(samebits.FILES) == [
        "sweep records.csv", "sweep regime_map.csv", "run series.csv",
        "run final.snap", "resume series.csv", "resume final.snap",
        "theta0 stdout", "config format_config"]
    assert [len(files[f"sweep {name}"].splitlines())
            for name in ("records.csv", "regime_map.csv")] == [13, 13]
    for command in ("run", "resume"):
        assert len(files[f"{command} series.csv"].splitlines()) > 2
        assert len(files[f"{command} final.snap"]) == 2 * (64 + 2 * 64 * 64 * 8)
    assert files["run final.snap"] != files["resume final.snap"]
    rows = files["theta0 stdout"].splitlines()
    assert len(rows) == len(samebits.THETA0_ROWS) == 3
    assert [row.split(",")[:3] for row in rows] == [
        ["3", "1", "2"], ["4", "0.5", "1"], ["2.5", "15", "0.001"]]

    name = list(runs)[-1]
    for key, edit, message in (
            ("steps", lambda r: r["steps"] + 1, "steps"),
            ("u", lambda r: r["u"][:40] + ("0" if r["u"][40] != "0" else "1") + r["u"][41:],
             "final u differs, first at flat cell 2"),
            ("series", lambda r: r["series"][:-1], "series rows")):
        other = copy.deepcopy(b)
        other["runs"][name][key] = edit(other["runs"][name])
        assert samebits.compare(a, other).startswith(f"{name}: ")
        assert message in samebits.compare(a, other)
        assert samebits.drifts(a, other) == {name: 0.0 if key != "u" else pytest.approx(
            np.max(np.abs(_field(other, name) - _field(a, name)))
            / np.max(np.abs(_field(a, name))))}
    # a field entry moved by 1e-9 of the field's largest magnitude
    other = copy.deepcopy(b)
    u = _field(b, name, "v").copy()
    u[3] += 1e-9 * np.max(np.abs(u))
    other["runs"][name]["v"] = u.tobytes().hex()
    assert samebits.drifts(a, other) == {name: pytest.approx(1e-9, rel=1e-6)}

    # a changed record names its file, its line and both versions of it
    for file_name in ("sweep records.csv", "sweep regime_map.csv"):
        other = copy.deepcopy(b)
        lines = other["files"][file_name].splitlines(keepends=True)
        changed = lines[4].replace("Critical", "Kritical")
        other["files"][file_name] = "".join(lines[:4] + [changed] + lines[5:])
        assert changed != lines[4]
        assert samebits.compare(a, other) == (
            f"{file_name}: line 5: {lines[4]!r} vs {changed!r}")
    # a changed default, its line in the formatted configs; the second
    # config writes the enum members it sets, and the third differs from the
    # defaults in every key but phi_family
    configs = files["config format_config"].splitlines(keepends=True)
    assert len(configs) == 3 * 44   # 33 keys, 6 headers, 5 blank lines each
    assert {"phi_family = linear\n", "name = checkerboard\n"} <= set(configs[44:88])
    same = [a for a, b in zip(configs[:44], configs[88:]) if a == b]
    assert [line for line in same if " = " in line] == ["phi_family = canonical\n"]
    assert {"cells = 8, 12\n", "lengths = 2.0, 3.0\n", "reaction = off\n",
            "blowup_threshold = 100000.0\n", "gamma0 = 3.5\n",
            "out_dir = runs/nested/full\n"} <= set(configs[88:])
    i = configs.index("max_steps = 5000000\n")
    other = copy.deepcopy(b)
    other["files"]["config format_config"] = "".join(
        configs[:i] + ["max_steps = 5000001\n"] + configs[i + 1:])
    assert samebits.compare(a, other) == (
        f"config format_config: line {i + 1}: 'max_steps = 5000000\\n' "
        f"vs 'max_steps = 5000001\\n'")
    # and a missing one, the end of its file
    other = copy.deepcopy(b)
    other["files"]["resume series.csv"] = "".join(
        a["files"]["resume series.csv"].splitlines(keepends=True)[:-1])
    n = len(a["files"]["resume series.csv"].splitlines())
    assert samebits.compare(a, other).startswith(f"resume series.csv: line {n}: ")
    assert samebits.compare(a, other).endswith("vs '(end of file)'")
    # a snapshot names its first differing byte, or the end of the shorter
    snap = a["files"]["run final.snap"]
    for edited, message in ((snap[:200] + ("0" if snap[200] != "0" else "1") + snap[201:],
                             "first difference at byte 100 (65600 vs 65600 bytes)"),
                            (snap[:-16], "first difference at byte 65592 "
                                         "(65600 vs 65592 bytes)")):
        other = copy.deepcopy(b)
        other["files"]["run final.snap"] = edited
        assert samebits.compare(a, other) == f"run final.snap: {message}"
