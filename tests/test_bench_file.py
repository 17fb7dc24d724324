"""The BENCH file summary of ``tools/bench_file.py``, on synthetic run results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"
_SPEC = importlib.util.spec_from_file_location("bench_file", _PATH)
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def record(ops_per_s, op_p50_ms, ops=100, failed=0, numpy="2.4.6"):
    """A result dict shaped like the ones ``bench/run.py`` writes."""
    return {
        "python": "3.11.7",
        "numpy": numpy,
        "nproc": 2,
        "ops": ops,
        "error_rate": failed / ops,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
        },
    }


def test_spread_of_repeated_runs():
    stats = bench_file.spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (stats["median"], stats["q1"], stats["q3"]) == (3.0, 2.0, 4.0)
    assert (stats["min"], stats["max"], stats["repeats"]) == (1.0, 5.0, 5)
    assert stats["values"] == [5.0, 1.0, 3.0, 2.0, 4.0]  # pair order kept
    even = bench_file.spread([1.0, 2.0, 3.0, 4.0])
    assert (even["q1"], even["median"], even["q3"]) == pytest.approx((1.75, 2.5, 3.25))
    one = bench_file.spread([7.0])
    assert (one["q1"], one["median"], one["q3"], one["repeats"]) == (7.0, 7.0, 7.0, 1)


def test_summary_counts_pairs_won_in_each_metrics_direction():
    records = {
        "base": [record(100.0, 10.0), record(110.0, 9.0), record(90.0, 8.0, failed=3)],
        "head": [record(400.0, 2.0), record(105.0, 9.0), record(300.0, 9.5, numpy="2.4.7")],
    }
    summary = bench_file.summarize(records, METRICS)
    assert summary["head_won_pairs"] == {"ops_per_s": 2, "op_p50_ms": 1}  # a tie wins for neither
    base, head = summary["base"], summary["head"]
    assert base["metrics"]["ops_per_s"]["median"] == 100.0
    assert head["metrics"]["op_p50_ms"]["values"] == [2.0, 9.0, 9.5]
    assert (base["ops"], base["failed_ops"], head["failed_ops"]) == (300, 3, 0)
    assert base["python"] == ["3.11.7"] and head["numpy"] == ["2.4.6", "2.4.7"]
    assert base["nproc"] == [2]


def test_summary_holds_each_pairs_head_over_base_ratio():
    records = {
        "base": [record(100.0, 10.0), record(200.0, 8.0), record(50.0, 4.0), record(80.0, 5.0)],
        "head": [record(150.0, 5.0), record(100.0, 8.0), record(100.0, 3.0), record(80.0, 6.0)],
    }
    ratios = bench_file.summarize(records, METRICS)["head_over_base"]
    assert ratios["ops_per_s"] == {"median": 1.25, "values": [1.5, 0.5, 2.0, 1.0]}
    assert ratios["op_p50_ms"] == {"median": 0.875, "values": [0.5, 1.0, 0.75, 1.2]}


def spreads(base, head):
    return bench_file.spread(base), bench_file.spread(head)


def test_verdict_improved_needs_nine_in_ten_pairs_and_a_gap_beyond_the_base_iqr():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [7.0, 7.1, 6.9, 7.2, 7.0, 6.8, 7.1, 7.0, 10.5, 7.0]  # loses one pair
    assert bench_file.verdict(*spreads(base, faster), "lower", 0.25) == "improved"
    slower = [13.0 - (value - 10.0) for value in faster]
    assert bench_file.verdict(*spreads(base, slower), "lower", 0.25) == "worse"
    assert bench_file.verdict(*spreads(base, faster), "higher", 0.25) == "worse"
    two_lost = faster[:7] + [10.5, 10.6, 7.0]  # wins 8 of 10
    assert bench_file.verdict(*spreads(base, two_lost), "lower", 0.25) == "unchanged"


def test_verdict_unchanged_when_the_medians_differ_by_less_than_the_base_iqr():
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.0]
    head = [value - 0.5 for value in base]  # wins every pair, gap 0.5 < IQR 2.0
    stats = spreads(base, head)
    assert stats[0]["q3"] - stats[0]["q1"] > 0.5
    assert bench_file.verdict(*stats, "lower", 0.25) == "unchanged"
    assert bench_file.verdict(*spreads(base, base), "lower", 0.25) == "unchanged"


def test_verdict_unresolved_when_the_base_spreads_past_the_bound():
    base = [10.0, 20.0, 12.0, 18.0, 11.0, 19.0, 13.0, 17.0, 10.0, 20.0]  # IQR 7.5, median 15
    head = [value * 0.45 for value in base]
    head[1] = 12.0  # wins every pair, median gap 8.25 > IQR, yet overlaps the base
    assert bench_file.verdict(*spreads(base, head), "lower", 0.25) == "unresolved"
    assert bench_file.verdict(*spreads(base, head), "lower", 0.5) == "improved"
    below = [4.0] * 10  # every head run beats every base run
    assert bench_file.verdict(*spreads(base, below), "lower", 0.25) == "improved"
    above = [27.0] * 10  # every base run beats every head run: still unresolved
    assert bench_file.verdict(*spreads(base, above), "lower", 0.25) == "unresolved"
    assert bench_file.verdict(*spreads(base, above), "lower", 0.5) == "worse"
    assert bench_file.verdict(*spreads(base, below[:9] + [15.0]), "lower", 0.25) == "unresolved"
    # separated, but the medians differ by 6, within the base's IQR
    assert bench_file.verdict(*spreads(base, [9.0] * 10), "lower", 0.25) == "unchanged"


def test_summary_holds_one_verdict_per_metric():
    records = {
        "base": [record(100.0 + i, 10.0 + 0.1 * i) for i in range(10)],
        "head": [record(150.0 + i, 10.0 + 0.1 * i) for i in range(10)],
    }
    verdicts = bench_file.summarize(records, METRICS)["verdicts"]
    assert verdicts == {"ops_per_s": "improved", "op_p50_ms": "unchanged"}
