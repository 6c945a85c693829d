"""Command-line entry point.

``tdlab run <experiment> --out DIR [--config PATH] [--seed N] [--reps R]``
runs one experiment and writes CSV artifacts plus a manifest.  ``tdlab list``
prints the available experiments; ``tdlab validate --config PATH`` checks a
config file without running anything.

Config files are INI: each section is an experiment name and each key
overrides one default.  Unknown sections or keys are an error (exit code 2),
as is any value that fails to parse.  Numerical failures inside an experiment
(divergence, singular systems, non-real spectra, ...) exit with code 3 and
name the offending error class.  Set ``TDLAB_VERBOSE=1`` for progress lines
on stderr; the variable affects verbosity only, never results.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from .causal import InsufficientEnvironments
from .evidence import DegenerateSample
from .experiments import EXPERIMENT_ORDER, EXPERIMENTS, ConfigError, resolve_config, run_experiment
from .flows import DivergenceDetected
from .spectral import NonRealSpectrum

_NUMERICAL_ERRORS = (
    DivergenceDetected,
    NonRealSpectrum,
    DegenerateSample,
    InsufficientEnvironments,
    np.linalg.LinAlgError,
    FloatingPointError,
)


def _verbose() -> bool:
    return os.environ.get("TDLAB_VERBOSE", "") not in ("", "0")


def _load_config(path: str) -> dict[str, dict]:
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    sections: dict[str, dict] = {}
    for section in parser.sections():
        if section not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment section [{section}]; choices: {', '.join(EXPERIMENT_ORDER)}"
            )
        sections[section] = dict(parser.items(section))
    return sections


def _cmd_run(args) -> int:
    try:
        overrides = {}
        if args.config is not None:
            sections = _load_config(args.config)
            overrides = sections.get(args.experiment, {})
        # Validate every other section up front so a typo in an unused section
        # still fails fast rather than surfacing on a later run; run_experiment
        # validates this experiment's own section while building its inputs.
        if args.config is not None:
            for name, sect in sections.items():
                if name != args.experiment:
                    resolve_config(name, sect)
        if _verbose():
            print(f"tdlab: running {args.experiment} (seed={args.seed}, reps={args.reps})",
                  file=sys.stderr)
        manifest = run_experiment(args.experiment, overrides, args.out, args.seed, args.reps)
    except ConfigError as exc:
        print(f"tdlab: config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(
            f"tdlab: numerical failure in experiment {args.experiment!r}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    if _verbose():
        print(f"tdlab: wrote {manifest}", file=sys.stderr)
    print(manifest)
    return 0


def _cmd_list(_args) -> int:
    width = max(len(n) for n in EXPERIMENT_ORDER)
    for name in EXPERIMENT_ORDER:
        print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
    return 0


def _cmd_validate(args) -> int:
    try:
        sections = _load_config(args.config)
        for name, sect in sections.items():
            resolve_config(name, sect)
    except ConfigError as exc:
        print(f"tdlab: config error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.config}: ok ({len(sections)} section(s))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdlab",
        description="Deterministic numerical experiments for value-flow and model-selection analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write artifacts")
    run.add_argument("experiment", choices=EXPERIMENT_ORDER, metavar="experiment",
                     help=f"one of: {', '.join(EXPERIMENT_ORDER)}")
    run.add_argument("--config", default=None, help="INI file with per-experiment overrides")
    run.add_argument("--out", required=True, help="output directory for CSVs and manifest.json")
    run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    run.add_argument("--reps", type=int, default=1, help="number of repetitions (default 1)")
    run.set_defaults(func=_cmd_run)

    lst = sub.add_parser("list", help="list available experiments")
    lst.set_defaults(func=_cmd_list)

    val = sub.add_parser("validate", help="check a config file without running")
    val.add_argument("--config", required=True, help="INI file to validate")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
