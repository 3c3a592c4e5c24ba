"""The bitwise run comparison of tools/samebits.py."""

import copy
import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("samebits", ROOT / "tools" / "samebits.py")
samebits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebits)


def test_identical_trees_compare_equal_and_a_difference_is_named(tmp_path):
    trees = []
    for side in ("a", "b"):
        for sub in ("src", "perfbench"):
            shutil.copytree(ROOT / sub, tmp_path / side / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(samebits.collect(str(tmp_path / side), seed=3))
    a, b = trees
    assert samebits.compare(a, b) is None
    # tiny-fixed-dt's 4 runs, damped-2d's 2, sweep-2w's 12 cells and the
    # 3 slice-path runs; then the sweep's two files, a header and 12 rows each
    runs = a["runs"]
    assert len(runs) == 21 and all(r["series"] for r in runs.values())
    assert list(a["files"]) == ["records.csv", "regime_map.csv"]
    assert all(len(text.splitlines()) == 13 for text in a["files"].values())

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

    # a changed record names its file, its line and both versions of it
    for file_name in samebits.SWEEP_FILES:
        other = copy.deepcopy(b)
        lines = other["files"][file_name].splitlines(keepends=True)
        changed = lines[4].replace("Critical", "Kritical")
        other["files"][file_name] = "".join(lines[:4] + [changed] + lines[5:])
        assert changed != lines[4]
        assert samebits.compare(a, other) == (
            f"sweep {file_name}: line 5: {lines[4]!r} vs {changed!r}")
    # and a missing one, the end of its file
    other = copy.deepcopy(b)
    other["files"]["regime_map.csv"] = "".join(
        a["files"]["regime_map.csv"].splitlines(keepends=True)[:-1])
    assert samebits.compare(a, other).startswith("sweep regime_map.csv: line 13: ")
    assert samebits.compare(a, other).endswith("vs '(end of file)'")
