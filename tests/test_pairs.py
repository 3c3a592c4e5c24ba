"""The pair judge of tools/pairs.py: wins, claim rule and bounds."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "speedup", "better": "higher", "bound": 0.1}]


def runs_of(parent, change, workload="w"):
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, (wall, speed) in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "seed": i, "pair": i, "side": side,
                         "result": {"metrics": {"wall_s": {"value": wall},
                                                "speedup": {"value": speed}}}})
    return runs


def test_clear_gain_meets_the_claim_rule():
    parent = [(2.0 + 0.01 * i, 1.0) for i in range(10)]
    change = [(1.0 + 0.01 * i, 1.0) for i in range(10)]
    wall, speed = pairs.summarize(runs_of(parent, change), METRICS)
    assert (wall["wins"], wall["claim"], wall["within_bound"]) == (10, True, True)
    assert wall["worse"] < 0.0
    assert (speed["wins"], speed["claim"]) == (0, False)   # ties win nothing


def test_eight_wins_of_ten_is_no_claim_and_a_loss_past_the_bound_shows():
    parent = [(1.0, 2.0)] * 10
    change = [(0.5, 1.0)] * 8 + [(1.5, 1.0)] * 2
    wall, speed = pairs.summarize(runs_of(parent, change), METRICS)
    assert (wall["wins"], wall["claim"]) == (8, False)
    assert speed["worse"] == 0.5 and not speed["within_bound"]


def test_a_pair_missing_a_result_does_not_count():
    runs = runs_of([(1.0, 1.0)] * 3, [(0.5, 1.0)] * 3)
    runs[0]["result"] = None
    [wall, _] = pairs.summarize(runs, METRICS)
    assert wall["pairs"] == 2


STDOUT = """tiny-fixed-dt: setup done
tiny-fixed-dt: 21 rounds; operation walls (s): steady-8 min 0.0631 median 0.0702; \
transport-6x6 min 0.1116 median 0.1200
{"correct": true, "attempted": 84, "failed": 0, "metrics": {}}
"""


def test_operation_bests_are_parsed_from_the_harness_line():
    assert pairs.op_bests(STDOUT) == {"steady-8": 0.0631, "transport-6x6": 0.1116}
    assert pairs.op_bests('{"correct": true}\n') == {}


def test_operation_medians_are_paired():
    runs = []
    for i, (p, c) in enumerate([(0.10, 0.08), (0.20, 0.15), (0.12, 0.13)]):
        for side, best in (("parent", p), ("change", c)):
            line = STDOUT.replace("min 0.0631", f"min {best}")
            runs.append({"workload": "w", "seed": i, "pair": i, "side": side,
                         "result": None, "op_best_s": pairs.op_bests(line)})
    steady, transport = pairs.op_summary(runs)
    assert (steady["op"], steady["pairs"], steady["wins"]) == ("steady-8", 3, 2)
    assert (steady["parent_median"], steady["change_median"]) == (0.12, 0.13)
    assert steady["ratio_median"] == pytest.approx(0.8)   # of 0.8, 0.75 and 13/12
    assert (transport["ratio_median"], transport["wins"]) == (1.0, 0)
