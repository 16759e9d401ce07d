"""Command-line experiment runner.

Usage:
    fdsic <experiment> --profile <path|type1|type2> --trials N --mu-frac F
          --tx-grid a:b:step --source gaussian|ofdm --seed S --out DIR [--check]

Exit codes: 0 success, 2 configuration error, 3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import EXPERIMENTS, ExperimentConfig, resolve_profile, run_experiment
from .transceiver import read_key_values


def parse_tx_grid(text: str) -> tuple[float, ...]:
    """'a:b:step' inclusive range, or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be a:b:step")
        a, b, step = (float(p) for p in parts)
        if step <= 0 or b < a:
            raise ValueError("grid must satisfy a <= b, step > 0")
        vals, v = [], a
        while v <= b + 1e-9:
            vals.append(round(v, 9))
            v += step
        return tuple(vals)
    return tuple(float(p) for p in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsic",
        description="Self-interference cancellation experiments for "
                    "full-duplex direct-conversion transceivers.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--profile", default="type2",
                        help="profile file path or builtin preset name")
    parser.add_argument("--trials", type=int, default=50,
                        help="Monte Carlo trials (desk-scale default 50)")
    parser.add_argument("--full", action="store_true",
                        help="reference scale: 200 trials")
    parser.add_argument("--mu-frac", type=float, default=None,
                        help="step size as a fraction of the mean-square bound "
                             "(default depends on the experiment)")
    parser.add_argument("--mu", type=float, default=None,
                        help="absolute step size (overrides --mu-frac)")
    parser.add_argument("--tx-grid", default="-5:25:5",
                        help="transmit-power grid, a:b:step or comma list (dBm)")
    parser.add_argument("--source", choices=("gaussian", "ofdm"), default="gaussian")
    parser.add_argument("--iterations", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--M", type=int, default=5)
    parser.add_argument("--N", type=int, default=4)
    parser.add_argument("--out", default="out")
    parser.add_argument("--check", action="store_true",
                        help="run the experiment's acceptance checks")
    parser.add_argument("--config", default=None,
                        help="flat key=value file providing any of the options above")
    return parser


_CONFIG_TYPES = {
    "profile": str, "trials": int, "full": bool, "mu_frac": float, "mu": float,
    "tx_grid": str, "source": str, "iterations": int, "seed": int,
    "M": int, "N": int, "out": str, "check": bool,
}


# each option is accepted with dashes (as on the command line) or underscores
_CONFIG_KEYS = {*_CONFIG_TYPES, *(k.replace("_", "-") for k in _CONFIG_TYPES)}


def _apply_config_file(args: argparse.Namespace, path: str):
    for key, value in read_key_values(path, "config", _CONFIG_KEYS):
        attr = key.replace("-", "_")
        kind = _CONFIG_TYPES[attr]
        if kind is bool:
            truth = {"1": True, "true": True, "yes": True, "on": True,
                     "0": False, "false": False, "no": False, "off": False}
            if value.lower() not in truth:
                raise ValueError(f"{key} must be one of {', '.join(truth)}; "
                                 f"got {value!r}")
            setattr(args, attr, truth[value.lower()])
        else:
            setattr(args, attr, kind(value))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args, args.config)
        config = ExperimentConfig(
            experiment=args.experiment,
            profile=resolve_profile(args.profile),
            trials=200 if args.full else args.trials,
            M=args.M,
            N=args.N,
            mu_frac=args.mu_frac,
            mu_abs=args.mu,
            tx_grid_dbm=parse_tx_grid(args.tx_grid),
            signal_source=args.source,
            seed=args.seed,
            iterations=args.iterations,
            output_dir=Path(args.out),
            check=args.check,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    report = run_experiment(config)
    for path in report.csv_paths + report.svg_paths + [report.meta_path]:
        print(f"wrote {path}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    if config.check and not report.all_passed:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
