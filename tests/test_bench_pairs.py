"""``tools/bench_pairs.py``'s summary arithmetic, on made-up runs (no subprocess)."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def runs(name, values):
    return [{name: v} for v in values]


def test_quartiles_are_perfbenchs():
    values = [0.5, 0.1, 0.4, 0.3, 0.2, 0.9]
    assert bench_pairs.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert bench_pairs.quartiles([0.7]) == (0.7, 0.7, 0.7)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_parents_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [p - 0.1 for p in parent]
    change[3] = 1.05  # one pair lost
    (row,) = bench_pairs.summarise(runs("pass_s", parent), runs("pass_s", change), {"pass_s": "lower"})
    q1, med, q3 = statistics.quantiles(parent, n=4)
    assert (row["won"], row["lost"], row["pairs"]) == (9, 1, 10)
    assert row["parent"] == (q1, med, q3)
    assert row["parent_iqr"] == pytest.approx(q3 - q1)
    assert row["median_gap"] == pytest.approx(med - statistics.median(change))
    assert row["gain"]

    change[4] = 1.05  # two pairs lost: 8 of 10
    (row,) = bench_pairs.summarise(runs("pass_s", parent), runs("pass_s", change), {"pass_s": "lower"})
    assert row["won"] == 8 and not row["gain"]


def test_winning_every_pair_by_less_than_the_parents_iqr_is_no_gain():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.0, 1.2, 0.8]
    change = [p - 0.01 for p in parent]
    (row,) = bench_pairs.summarise(runs("pass_s", parent), runs("pass_s", change), {})
    assert row["won"] == 10 and row["median_gap"] < row["parent_iqr"] and not row["gain"]


def test_ties_count_for_neither_side_and_higher_can_be_better():
    parent = [10.0] * 10
    change = [10.0] * 2 + [11.0] * 8
    (row,) = bench_pairs.summarise(runs("ops", parent), runs("ops", change), {"ops": "higher"})
    assert (row["won"], row["lost"]) == (8, 0)
    assert row["median_gap"] == 1.0 and not row["gain"]  # 8 of 10 pairs, though the IQR is 0
    (row,) = bench_pairs.summarise(runs("ops", parent), runs("ops", change), {"ops": "lower"})
    assert (row["won"], row["lost"]) == (0, 8) and row["median_gap"] == -1.0 and not row["gain"]


def test_per_pair_gaps_cancel_drift_that_both_sides_of_a_pair_share():
    """The machine slows down across the batch for both checkouts alike: the
    parent's spread hides the gap from the gain rule, and the per-pair gaps
    show it."""
    parent = [0.65 - 0.02 * i for i in range(10)]
    change = [p - 0.05 + 0.001 * (-1) ** i for i, p in enumerate(parent)]
    (row,) = bench_pairs.summarise(runs("pass_s", parent), runs("pass_s", change), {"pass_s": "lower"})
    assert row["won"] == 10 and row["parent_iqr"] > row["median_gap"] and not row["gain"]
    gaps = [a - b for a, b in zip(parent, change)]
    assert row["pair_gaps"] == tuple(statistics.quantiles(gaps, n=4))
    assert row["pair_gaps"] == pytest.approx((0.049, 0.05, 0.051), abs=1e-3)
    assert row["pair_gaps"][2] - row["pair_gaps"][0] < 0.01 < row["parent_iqr"]
    (row,) = bench_pairs.summarise(runs("ops", parent), runs("ops", change), {"ops": "higher"})
    assert row["pair_gaps"] == pytest.approx([-g for g in reversed(statistics.quantiles(gaps, n=4))])


def test_runs_that_are_not_correct_or_failed_are_flagged():
    assert not bench_pairs.flagged({"correct": True, "failed": 0})
    assert bench_pairs.flagged({"correct": False, "failed": 0})
    assert bench_pairs.flagged({"correct": True, "failed": 2})
    assert bench_pairs.flagged({})
