"""Print the sha256 of every CSV the ten experiments write at perfbench's configs.

    python3 tools/csv_digests.py --kernel SkylakeX --seeds 0-9 > skylakex.txt

Each experiment runs at ``perfbench/workloads.py``'s ``CONFIGS`` under the
environment that module pins (one BLAS thread and the given
``OPENBLAS_CORETYPE``), set before numpy loads, with the ``src`` tree next to
this script.  One line per CSV, ``<sha256>  seed<N>/<experiment>/<file>``, in
a fixed order, so two checkouts' outputs compare with ``diff``.  perfbench's
files are only read.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> range:
    """``N`` or ``A-B`` (inclusive) as a range of nonnegative seeds."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", required=True, help="OPENBLAS_CORETYPE, e.g. SkylakeX or Haswell")
    parser.add_argument("--seeds", type=seed_range, default=range(1), help="N or A-B (default 0)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache files beside perfbench's sources
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import workloads

    workloads.pin_environment(args.kernel)
    from tdlab.experiments import EXPERIMENT_ORDER, run_experiment

    for seed in args.seeds:
        for name in EXPERIMENT_ORDER:
            with tempfile.TemporaryDirectory() as tmp:
                run_experiment(name, dict(workloads.CONFIGS[name]), tmp, seed)
                for path in sorted(Path(tmp).glob("*.csv")):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  seed{seed}/{name}/{path.name}", flush=True)


if __name__ == "__main__":
    main()
