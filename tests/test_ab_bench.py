import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# ten parent runs: median 1.035, quartiles 1.0075 and 1.0725 (IQR 0.065)
PARENT = [1.00, 1.05, 0.99, 1.08, 1.02, 1.10, 1.01, 1.04, 1.03, 1.07]


class TestSummarize:
    def test_quartiles(self):
        assert ab.quartiles([5.0]) == (5.0, 5.0, 5.0)
        assert ab.quartiles(PARENT) == pytest.approx((1.0075, 1.035, 1.0725))

    def test_clear_gain_may_be_claimed(self):
        change = [p - 0.2 for p in PARENT]
        s = ab.summarize(PARENT, change, "lower", 0.2)
        assert (s["wins"], s["losses"], s["claim"], s["regressed"]) == (10, 0, True, False)

    def test_nine_of_ten_pairs_suffice_eight_do_not(self):
        change = [p - 0.2 for p in PARENT]
        change[0] = PARENT[0] + 0.01
        assert ab.summarize(PARENT, change, "lower", 0.2)["claim"]
        change[1] = PARENT[1] + 0.01
        s = ab.summarize(PARENT, change, "lower", 0.2)
        assert (s["wins"], s["losses"], s["claim"]) == (8, 2, False)

    def test_ties_count_for_neither_side(self):
        change = [p - 0.2 for p in PARENT]
        change[3] = PARENT[3]
        s = ab.summarize(PARENT, change, "lower", 0.2)
        assert (s["wins"], s["losses"], s["claim"]) == (9, 0, True)
        change[4] = PARENT[4]
        assert not ab.summarize(PARENT, change, "lower", 0.2)["claim"]

    def test_every_pair_won_within_the_parents_spread_is_no_gain(self):
        # medians 1.035 -> 1.005: less than the parent's IQR of 0.065
        change = [p - 0.03 for p in PARENT]
        s = ab.summarize(PARENT, change, "lower", 0.2)
        assert (s["wins"], s["claim"]) == (10, False)

    def test_higher_is_better(self):
        change = [p + 0.2 for p in PARENT]
        s = ab.summarize(PARENT, change, "higher", 0.2)
        assert (s["wins"], s["claim"], s["regressed"]) == (10, True, False)
        s = ab.summarize(PARENT, change, "lower", 0.2)
        assert (s["wins"], s["losses"], s["claim"], s["regressed"]) == (0, 10, False, False)

    def test_regression_beyond_the_bound(self):
        # a 15% worse median is within a 0.2 bound and beyond a 0.1 one
        change = [p * 1.15 for p in PARENT]
        assert not ab.summarize(PARENT, change, "lower", 0.2)["regressed"]
        assert ab.summarize(PARENT, change, "lower", 0.1)["regressed"]

    def test_unpaired_runs_rejected(self):
        with pytest.raises(ValueError):
            ab.summarize(PARENT, PARENT[:-1], "lower", 0.2)
        with pytest.raises(ValueError):
            ab.summarize([], [], "lower", 0.2)


def test_every_workload_runs_in_file_order_by_default(monkeypatch):
    # the checkout, the runs and the report are stubbed: only the choice
    # of workloads and the pair order are exercised
    runs = []

    def fake_run(side, workload, seed, seconds):
        runs.append((side.name, workload, seed))
        return {}

    monkeypatch.setattr(ab, "_checkout", lambda parent_rev, dest: None)
    monkeypatch.setattr(ab, "_run", fake_run)
    monkeypatch.setattr(ab, "_report", lambda workload, args, spec, runs: None)
    assert ab.main(["--parent", "HEAD", "--pairs", "2"]) == 0
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    assert [w for _side, w, _seed in runs] == [
        w["name"] for w in spec["workloads"] for _ in range(4)
    ]
    assert runs[:4] == [("parent", runs[0][1], 1), ("change", runs[0][1], 1),
                        ("change", runs[0][1], 2), ("parent", runs[0][1], 2)]
    runs.clear()
    ab.main(["--parent", "HEAD", "--pairs", "1", "--workload", "n3-cli"])
    assert runs == [("parent", "n3-cli", 1), ("change", "n3-cli", 1)]
