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
    # 3 slice-path runs
    assert len(a) == 21 and all(r["series"] for r in a.values())

    name = list(a)[-1]
    for key, edit, message in (
            ("steps", lambda r: r["steps"] + 1, "steps"),
            ("u", lambda r: r["u"][:40] + ("0" if r["u"][40] != "0" else "1") + r["u"][41:],
             "final u differs, first at flat cell 2"),
            ("series", lambda r: r["series"][:-1], "series rows")):
        other = copy.deepcopy(b)
        other[name][key] = edit(other[name])
        assert samebits.compare(a, other).startswith(f"{name}: ")
        assert message in samebits.compare(a, other)
