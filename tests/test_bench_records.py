"""Every recorded benchmark comparison supports the verdict it states.

A ``BENCH_*.json`` at the repository root records the perfbench runs behind
one change: its claim (the claimed workload and end-to-end metric, or
``null`` for none), the stated verdict (``"gain"`` or ``"no gain"``) and every
pair of runs made, each with its workload, seed, which side ran first and
both sides' result lines (the JSON object ``perfbench/run.py`` prints last).
``tools/bench_pairs.py`` prints such a record as its last line.

The verdict is recomputed from the claimed workload's pairs with
``bench_pairs.summarise``: a gain needs at least 10 pairs, alternating which
side ran first, every run correct, the change better in at least 9 of every
10 pairs (ties count for neither side), and the change's median better than
the parent's by more than the parent's interquartile range.  A record with no
claim says ``"no gain"`` and shows no regression instead: on every workload
of ``BENCHMARK.json``, at least 10 alternating pairs with every run correct,
and on each end-to-end metric the change's median no worse than the
parent's by more than the metric's bound times the parent's median.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def sound(pairs: list) -> bool:
    """At least 10 pairs, each ordered unlike the one before, every run correct with nothing failed."""
    orders = [pair["order"] for pair in pairs]
    return (
        len(pairs) >= 10
        and all(a != b for a, b in zip(orders, orders[1:]))
        and all(pair[side]["correct"] and pair[side]["failed"] == 0 for pair in pairs for side in ("parent", "change"))
    )


def summary(pairs: list, metrics) -> list[dict]:
    """``bench_pairs.summarise`` of ``metrics`` over ``pairs``, one row per metric."""
    parent, change = (
        [{name: pair[side]["metrics"][name]["value"] for name in metrics} for pair in pairs]
        for side in ("parent", "change")
    )
    return bench_pairs.summarise(parent, change, BETTER)


def verdict(record: dict) -> str:
    """``"gain"`` if the claimed workload's pairs show the claimed metric improved, else ``"no gain"``."""
    if record["claim"] is None:
        return "no gain"
    pairs = [pair for pair in record["pairs"] if pair["workload"] == record["claim"]["workload"]]
    if not sound(pairs):
        return "no gain"
    (row,) = summary(pairs, [record["claim"]["metric"]])
    return "gain" if row["gain"] else "no gain"


def regressions(record: dict) -> list[str]:
    """What keeps ``record`` from showing no regression on every workload of ``BENCHMARK.json``."""
    found = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        pairs = [pair for pair in record["pairs"] if pair["workload"] == workload]
        if not sound(pairs):
            found.append(f"{workload}: too few pairs, not alternating or not all correct")
            continue
        for row in summary(pairs, BETTER):
            parent_median, bound = row["parent"][1], BOUND[row["metric"]]
            if -row["median_gap"] > bound * parent_median:
                found.append(f"{workload} {row['metric']}: median {row['change'][1]:.6g} against the "
                             f"parent's {parent_median:.6g}, beyond its bound {bound} of it")
    return found


def test_a_record_exists():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_bench_record_supports_its_verdict(path):
    record = json.loads(path.read_text())
    assert record["verdict"] in ("gain", "no gain")
    for pair in record["pairs"]:
        assert pair["order"] in ("parent-first", "change-first")
        assert isinstance(pair["seed"], int)
    assert verdict(record) == record["verdict"], f"{path.name}: its pairs say {verdict(record)!r}"
    if record["claim"] is None:
        assert not regressions(record), f"{path.name}: {regressions(record)}"
    else:
        assert record["claim"]["metric"] in BETTER
        assert any(pair["workload"] == record["claim"]["workload"] for pair in record["pairs"])


@pytest.mark.parametrize("metric, shift, regressed", [
    ("peak_rss_mb", lambda v: v + 0.13, False),  # +0.13 MB of ~50 MB is well inside a bound of 0.1
    ("setup_s", lambda v: 1.34 * v, True),  # +34% is beyond a bound of 0.25
    ("pass_s", lambda v: 0.5 * v, False),  # a gain is never a regression
])
def test_a_record_without_a_claim_is_judged_against_relative_bounds(metric, shift, regressed):
    """A change identical to the parent except that ``metric`` moves by ``shift`` on every run."""
    record = json.loads((ROOT / "BENCH_30.json").read_text())
    record["claim"], record["verdict"] = None, "no gain"
    for pair in record["pairs"]:
        pair["change"] = json.loads(json.dumps(pair["parent"]))
        pair["change"]["metrics"][metric]["value"] = shift(pair["parent"]["metrics"][metric]["value"])
    assert verdict(record) == "no gain"
    found = regressions(record)
    assert len(found) == (3 if regressed else 0) and all(metric in line for line in found)
    record["pairs"][4]["change"]["failed"] = 1
    assert any(line.startswith(f"{record['pairs'][4]['workload']}: too few") for line in regressions(record))
