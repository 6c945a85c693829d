"""Stored reference outputs and the value-by-value check against them.

The reference is every CSV cell that the ten experiments wrote at the seed
commit, for workload seeds ``0 .. N_REFERENCE_SEEDS-1``, under the pinned
configs and environment of ``workloads.py``, once per OpenBLAS kernel
family.  ``refs/<family>/index.json`` maps (seed, experiment, file) to a
header, a row count and one array key per column; ``refs/<family>/values.npz``
holds the arrays, shared between seeds where a column is identical.
Numeric columns are float64; a column with any cell that is not a number is
stored as text.

Every column is checked under the first matching rule of ``RULES``, each
with its reason.  Numeric cells pass when ``|x - ref| <= atol + rtol*|ref|``
(NaN matches NaN); text cells must match exactly.

Regenerate only when an output change is intended and explained, once per
family (the host must run both):

    python3 perfbench/reference.py SkylakeX
    python3 perfbench/reference.py Haswell
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import workloads

REF_DIR = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Rule:
    pattern: str  # fnmatch pattern on "experiment/file/column"; file drops "rep000_" and ".csv"
    rtol: float
    atol: float
    reason: str
    caveat: str = ""  # a known dependence that a failure of this column may point to


_EXACT = "an index, count, label or config echo: any change is a different output"
_ANGLE = (
    "an angle computed as arccos of a cosine; where the cosine is within an ulp of 1 "
    "the angle moves by up to sqrt(2*eps) = 2.1e-8, so a 1e-7 floor; elsewhere as the default"
)
_DEFAULT = (
    "a float from BLAS/LAPACK and numpy kernels: summation order changes with the thread "
    "count and the SIMD path numpy dispatches to; measured at most 2e-11 relative between "
    "those, so 1e-9 leaves a wide margin and still catches a 1e-6 change"
)

RULES = (
    Rule("two-state/trajectories/flow", 0, 0, _EXACT),
    Rule("two-state/trajectories/init", 0, 0, _EXACT),
    Rule("chain-transfer/*/feature_policy", 0, 0, _EXACT),
    Rule("chain-transfer/*/d_value_*", 1e-9, 1e-7, _ANGLE),
    Rule("four-rooms-features/feature_convergence/m_heads", 0, 0, _EXACT),
    Rule(
        "four-rooms-features/feature_convergence/grassmann_distance", 1e-9, 1e-7, _ANGLE,
        caveat=(
            "eigensolver-dependent: the K=10 target subspace cuts through the pair of "
            "eigenvalues at 0.8818, so it is not unique; another eigensolver (eigh instead "
            "of eig) or another BLAS kernel picks another top-10 subspace and moves this "
            "column by up to ~0.9 (see the eigengap note in ROADMAP.md)"
        ),
    ),
    Rule("random-cumulants/covariance/[ij]", 0, 0, _EXACT),
    Rule("random-cumulants/covariance_error/n_pooled_columns", 0, 0, _EXACT),
    Rule("random-cumulants/flow_alignment/grassmann_distance_to_resolvent_span", 1e-9, 1e-7, _ANGLE),
    Rule("kernel-circle/sweep/gamma", 0, 0, _EXACT),
    Rule("kernel-circle/sweep/lengthscale", 0, 0, _EXACT),
    Rule("kernel-circle/sweep/outcome", 0, 0, _EXACT),
    Rule("kernel-circle/trajectory_*/diverged", 0, 0, _EXACT),
    Rule("smooth-kernel-generalization/generalization/target", 0, 0, _EXACT),
    Rule("smooth-kernel-generalization/generalization/train_fraction", 0, 0, _EXACT),
    Rule(
        "smooth-kernel-generalization/generalization/*", 1e-9, 1e-12, _DEFAULT,
        caveat=(
            "ill-conditioned: the kernel solve adds only a 1e-10 jitter to a rank-20 Gram "
            "matrix, so last-bit changes in the eigenvectors grow to ~1e-6 here"
        ),
    ),
    Rule("bms-select/evidence/model", 0, 0, _EXACT),
    Rule("bms-select/stacking_weights/model", 0, 0, _EXACT),
    Rule("bms-select/selection/*", 0, 0, _EXACT),
    Rule(
        "bms-select/*", 1e-9, 1e-12, _DEFAULT,
        caveat=(
            "sampling-dependent: posterior draws use an eigh factor of covariances with "
            "repeated eigenvalues, so another eigensolver or BLAS kernel draws other "
            "(equally valid) samples and the estimator columns move by their Monte-Carlo error"
        ),
    ),
    Rule("misa-robustness/selection/*", 0, 0, _EXACT),
    Rule("misa-robustness/selection_summary/*", 0, 0, _EXACT),
    Rule("misa-robustness/robustness/do_value", 0, 0, _EXACT),
    Rule("capacity-ranks/feature_ranks/*", 0, 0, _EXACT),
    Rule("capacity-ranks/srank_invariance/*", 0, 0, _EXACT),
    Rule("capacity-ranks/tabular_update/n_transitions", 0, 0, _EXACT),
    Rule("capacity-ranks/tabular_update/update_rank", 0, 0, _EXACT),
    Rule("capacity-ranks/rbf_update_ranks/*", 0, 0, _EXACT),
    Rule("second-order/richardson/alpha", 0, 0, _EXACT),
    Rule("second-order/richardson/n_steps", 0, 0, _EXACT),
    Rule("second-order/ratios/alpha_*", 0, 0, _EXACT),
    Rule("*", 1e-9, 1e-12, _DEFAULT),
)


def rule_for(experiment: str, file_name: str, column: str) -> Rule:
    stem = file_name.removeprefix("rep000_").removesuffix(".csv")
    path = f"{experiment}/{stem}/{column}"
    return next(r for r in RULES if fnmatch.fnmatchcase(path, r.pattern))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and columns (lists of cell strings) of a CSV."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[row[j] for row in rows] for j in range(len(header))]


def _as_floats(cells):
    import numpy as np

    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return None


class Reference:
    """The stored outputs of one workload seed."""

    def __init__(self, seed: int, kernel: str):
        import numpy as np

        ref_dir = REF_DIR / kernel
        index = json.loads((ref_dir / "index.json").read_text())
        self.files = index["files"][str(seed)]
        keys = {key for exp in self.files.values() for f in exp.values() for key in f["columns"].values()}
        with np.load(ref_dir / "values.npz", allow_pickle=False) as npz:
            self.arrays = {key: npz[key] for key in keys}

    def check(self, experiment: str, out_dir: Path) -> list[str]:
        """Compare the CSVs in ``out_dir`` against the reference; returns the misses."""
        import numpy as np

        expected = self.files[experiment]
        written = sorted(p.name for p in Path(out_dir).glob("*.csv"))
        if written != sorted(expected):
            return [f"{experiment}: wrote files {written}, reference has {sorted(expected)}"]
        misses = []
        for file_name, spec in expected.items():
            try:
                header, columns = read_csv(Path(out_dir) / file_name)
            except (ValueError, IndexError):  # empty file, or a row shorter than the header
                misses.append(f"{experiment}/{file_name}: malformed CSV")
                continue
            if header != spec["header"]:
                misses.append(f"{experiment}/{file_name}: header {header} != {spec['header']}")
                continue
            if len(columns[0]) != spec["rows"]:
                misses.append(f"{experiment}/{file_name}: {len(columns[0])} rows != {spec['rows']}")
                continue
            for column, cells in zip(header, columns):
                ref = self.arrays[spec["columns"][column]]
                rule = rule_for(experiment, file_name, column)
                if ref.dtype.kind == "U":
                    bad = _text_misses(cells, ref, rule)
                else:
                    got = _as_floats(cells)
                    bad = np.arange(len(cells)) if got is None else _float_misses(got, ref, rule)
                if len(bad):
                    i = int(bad[0])
                    note = f" [{rule.caveat}]" if rule.caveat else ""
                    misses.append(
                        f"{experiment}/{file_name}:{column}: {len(bad)} cell(s) outside "
                        f"rtol={rule.rtol:g} atol={rule.atol:g}, first at row {i}: "
                        f"{cells[i]!r} vs reference {str(ref[i])!r}{note}"
                    )
        return misses


def _float_misses(got, ref, rule: Rule):
    import numpy as np

    with np.errstate(invalid="ignore"):
        ok = np.abs(got - ref) <= rule.atol + rule.rtol * np.abs(ref)
    ok |= np.isnan(got) & np.isnan(ref)
    return np.flatnonzero(~ok)


def _text_misses(cells, ref, rule: Rule):
    """Exact text, except that numeric cells of a mixed column compare by ``rule``."""
    bad = []
    for i, (cell, expected) in enumerate(zip(cells, ref)):
        if cell == expected:
            continue
        try:
            got_f, ref_f = float(cell), float(expected)
        except ValueError:
            bad.append(i)
            continue
        if not abs(got_f - ref_f) <= rule.atol + rule.rtol * abs(ref_f):
            bad.append(i)
    return bad


def write_references(seeds, kernel: str) -> None:
    """Run every experiment at the pinned configs and store its CSV cells."""
    import tempfile

    import numpy as np
    from tdlab.experiments import EXPERIMENT_ORDER, run_experiment

    arrays, files = {}, {}
    for seed in seeds:
        files[str(seed)] = {}
        for name in EXPERIMENT_ORDER:
            with tempfile.TemporaryDirectory(dir=REF_DIR.parent.parent) as tmp:
                run_experiment(name, workloads.CONFIGS[name], tmp, seed)
                entry = {}
                for path in sorted(Path(tmp).glob("*.csv")):
                    header, columns = read_csv(path)
                    keys = {}
                    for column, cells in zip(header, columns):
                        values = _as_floats(cells)
                        if values is None:
                            values = np.array(cells, dtype=str)
                        digest = hashlib.sha1(values.dtype.str.encode() + values.tobytes()).hexdigest()[:20]
                        keys[column] = digest
                        arrays[digest] = values
                    entry[path.name] = {"header": header, "rows": len(columns[0]), "columns": keys}
                files[str(seed)][name] = entry
            print(f"seed {seed} {name}: {len(entry)} file(s)", flush=True)
    ref_dir = REF_DIR / kernel
    ref_dir.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(ref_dir / "values.npz", **arrays)
    environment = dict(workloads.PINNED_ENV, OPENBLAS_CORETYPE=kernel)
    index = {"configs": workloads.CONFIGS, "environment": environment, "files": files}
    (ref_dir / "index.json").write_text(json.dumps(index, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in workloads.KERNEL_FAMILIES:
        sys.exit(f"usage: reference.py {{{'|'.join(workloads.KERNEL_FAMILIES)}}}")
    workloads.pin_environment(sys.argv[1])
    sys.path.insert(0, str(REF_DIR.parent.parent / "src"))
    write_references(range(workloads.N_REFERENCE_SEEDS), sys.argv[1])
