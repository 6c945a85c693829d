"""Every recorded benchmark comparison supports the verdict it states.

A ``BENCH_*.json`` at the repository root records the perfbench runs behind
one claim: the claimed workload and end-to-end metric, the stated verdict
(``"gain"`` or ``"no gain"``) and every pair of runs made, each with its
workload, seed, which side ran first and both sides' result lines (the JSON
object ``perfbench/run.py`` prints last).  The verdict is recomputed from the
claimed workload's pairs: a gain needs at least 10 pairs, alternating which
side ran first, every run correct, the change better in at least 9 of every
10 pairs (ties count for neither side), and the change's median better than
the parent's by more than the parent's interquartile range.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def verdict(record: dict) -> str:
    """``"gain"`` if the claimed workload's pairs show the claimed metric improved, else ``"no gain"``."""
    workload, metric = record["claim"]["workload"], record["claim"]["metric"]
    sign = {"lower": -1.0, "higher": 1.0}[BETTER[metric]]
    pairs = [pair for pair in record["pairs"] if pair["workload"] == workload]
    parent, change = (
        [sign * pair[side]["metrics"][metric]["value"] for pair in pairs] for side in ("parent", "change")
    )
    firsts = [pair["order"] for pair in pairs]
    if len(pairs) < 10 or abs(firsts.count("parent-first") - firsts.count("change-first")) > 1:
        return "no gain"
    if not all(pair[side]["correct"] and pair[side]["failed"] == 0 for pair in pairs for side in ("parent", "change")):
        return "no gain"
    wins = sum(c > p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = 10 * wins >= 9 * len(pairs) and statistics.median(change) - statistics.median(parent) > q3 - q1
    return "gain" if gain else "no gain"


def test_a_record_exists():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_bench_record_supports_its_verdict(path):
    record = json.loads(path.read_text())
    assert record["claim"]["metric"] in BETTER
    assert record["verdict"] in ("gain", "no gain")
    for pair in record["pairs"]:
        assert pair["order"] in ("parent-first", "change-first")
        assert isinstance(pair["seed"], int)
    assert any(pair["workload"] == record["claim"]["workload"] for pair in record["pairs"])
    assert verdict(record) == record["verdict"], f"{path.name}: its pairs say {verdict(record)!r}"
