"""Run perfbench on two checkouts in alternating pairs and summarise the gap.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload estimators --pairs 10 --seconds 10

Pair i runs each checkout's ``perfbench/run.py --workload W --seed S+i
--seconds T`` in a fresh interpreter, the parent first in even pairs and the
change first in odd ones, and prints one line per run.  A run whose result is
not ``correct`` or has ``failed > 0`` is flagged.  Then, for every metric of
the result, it prints each side's median and quartiles, the pairs the change
won (ties count for neither side) and whether a gain may be claimed: the
change wins at least nine tenths of the pairs and the medians differ, in the
better direction, by more than the parent's interquartile range.  The
direction of each metric is read from the parent's ``BENCHMARK.json``.  The
exit code is 1 if any run was flagged.

``setup_s`` times fresh imports of ``src/tdlab``, so both checkouts' ``src``
trees are byte-compiled first (``compileall``; the caches are git-ignored);
the runs then write no bytecode, and ``perfbench/`` is only read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as perfbench reports a run's passes."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(parent: list[dict], change: list[dict], better: dict) -> list[dict]:
    """One summary per metric of paired runs; ``parent[i]`` and ``change[i]`` are pair i's metric values.

    ``better`` maps a metric to ``"lower"`` or ``"higher"`` (``"lower"`` if absent).
    """
    rows = []
    for name in parent[0]:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        won = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gap = sign * (pq[1] - cq[1])  # positive when the change's median is better
        iqr = pq[2] - pq[0]
        rows.append({
            "metric": name, "parent": pq, "change": cq, "pairs": len(p), "won": won, "lost": lost,
            "parent_iqr": iqr, "median_gap": gap,
            "gain": won >= math.ceil(0.9 * len(p)) and gap > iqr,
        })
    return rows


def flagged(result: dict) -> bool:
    """True for a run that is not correct or has a failed operation."""
    return not result.get("correct", False) or result.get("failed", 1) > 0


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result (the last line) of one perfbench run in ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=0, help="pair i runs at seed first-seed + i")
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m.get("better", "lower") for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {"parent": [], "change": []}
    any_flagged = False
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")], check=True)
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(sides[side], args.workload, seed, args.seconds)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            values[side].append(metrics)
            flag = flagged(result)
            any_flagged |= flag
            shown = " ".join(f"{name}={value:.6g}" for name, value in metrics.items())
            print(f"pair {i} seed {seed} {side:6s} {shown} correct={result['correct']} "
                  f"failed={result['failed']}{'  FLAGGED' if flag else ''}", flush=True)
    for row in summarise(values["parent"], values["change"], better):
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        print(f"{row['metric']}: parent {pm:.6g} [{p1:.6g} .. {p3:.6g}], change {cm:.6g} [{c1:.6g} .. {c3:.6g}], "
              f"change better in {row['won']}/{row['pairs']} pairs (worse in {row['lost']}), "
              f"median gap {row['median_gap']:+.6g} vs parent IQR {row['parent_iqr']:.6g}: "
              f"gain {'holds' if row['gain'] else 'not shown'}")
    return 1 if any_flagged else 0


if __name__ == "__main__":
    sys.exit(main())
