"""Command-line experiment runner.

Usage:
    fdsic <experiment> --profile <path|type1|type2> --trials N --mu-frac F
          --tx-grid a:b:step --source gaussian|ofdm --seed S --out DIR [--check]

Exit codes: 0 success, 2 configuration error, 3 acceptance-check failure.

This module owns the command-line process, so it starts numpy's OpenBLAS on
one thread: if numpy is not loaded yet and none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, it imports numpy with
``OPENBLAS_NUM_THREADS=1`` and then removes the variable again. OpenBLAS
reads it only when it loads, so it starts no helper thread, which would
otherwise busy-wait beside every run without ever being given work (each
LAPACK call of fdsic runs under ``_native.one_blas_thread``), and the
kernel build's compiler and any other child process inherit the user's
environment unchanged. A preset variable wins, and a process that imported
numpy first keeps its own thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

if "numpy" not in sys.modules and not any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .harness import EXPERIMENTS, ExperimentConfig, resolve_profile, run_experiment
from .transceiver import read_key_values


# far above any real grid (the default has 7 points), and bounds the loop
_MAX_GRID_POINTS = 10_000


def parse_tx_grid(text: str) -> tuple[float, ...]:
    """'a:b:step' inclusive range, or a comma-separated list. A range of
    more than ``_MAX_GRID_POINTS`` points, or whose step does not advance
    its points, is a ``ValueError``."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be a:b:step")
        a, b, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (a, b, step))):
            raise ValueError("grid a:b:step must be finite")
        if step <= 0 or b < a:
            raise ValueError("grid must satisfy a <= b, step > 0")
        if (b - a) / step >= _MAX_GRID_POINTS:
            raise ValueError(f"grid a:b:step asks for more than "
                             f"{_MAX_GRID_POINTS} points")
        vals, v = [], a
        while v <= b + 1e-9:
            vals.append(round(v, 9))
            if v + step == v:
                raise ValueError(f"grid step {step:g} does not advance {v:g}")
            v += step
        return tuple(vals)
    return tuple(float(p) for p in text.split(","))


# option -> (the ExperimentConfig field it sets, the parser of its text, help).
# The command line and a --config file take these options under the same
# names; an option given in neither takes the field's default, apart from
# --profile (resolve_profile's default) and --out (the directory "out").
OPTIONS = {
    "profile": ("profile", str, "profile file path or builtin preset name"),
    "trials": ("trials", int, "Monte Carlo trials"),
    "mu-frac": ("mu_frac", float, "step size as a fraction of the mean-square "
                                  "bound (default depends on the experiment)"),
    "mu": ("mu_abs", float, "absolute step size (overrides --mu-frac)"),
    "tx-grid": ("tx_grid_dbm", parse_tx_grid,
                "transmit-power grid, a:b:step or comma list (dBm)"),
    "source": ("signal_source", str, "reference waveform: gaussian or ofdm"),
    "iterations": ("iterations", int, "LMS steps per trial"),
    "seed": ("seed", int, "base seed; trial t uses seed + t"),
    "M": ("M", int, "linear taps"),
    "N": ("N", int, "IMD taps"),
    "out": ("output_dir", Path, "output directory"),
    "check": ("check", bool, "run the experiment's acceptance checks"),
}

_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def build_parser() -> argparse.ArgumentParser:
    """A parser whose namespace holds the text of each option given, under
    the option's name, and nothing for an option left out."""
    parser = argparse.ArgumentParser(
        prog="fdsic", argument_default=argparse.SUPPRESS,
        description="Self-interference cancellation experiments for "
                    "full-duplex direct-conversion transceivers.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    for option, (_, kind, text) in OPTIONS.items():
        # a switch given on the command line reads as a --config file's "on"
        switch = {"action": "store_const", "const": "on"} if kind is bool else {}
        parser.add_argument(f"--{option}", dest=option, help=text, **switch)
    parser.add_argument("--config",
                        help="flat key=value file providing any of the options above")
    return parser


def _parse_options(texts: dict[str, str]) -> dict:
    """ExperimentConfig fields from option texts keyed by option name."""
    fields = {}
    for option, text in texts.items():
        field, kind, _ = OPTIONS[option]
        try:
            fields[field] = _SWITCH_VALUES[text.lower()] if kind is bool else kind(text)
        except KeyError:
            raise ValueError(f"{option} must be one of {', '.join(_SWITCH_VALUES)}; "
                             f"got {text!r}") from None
        except ValueError as exc:
            raise ValueError(f"{option}: {exc}") from None
    return fields


def main(argv=None) -> int:
    texts = vars(build_parser().parse_args(argv))
    experiment = texts.pop("experiment")
    try:
        if "config" in texts:
            # the file names each option with dashes, as on the command line,
            # or underscores; its values override the command line's
            keys = {*OPTIONS, *(option.replace("-", "_") for option in OPTIONS)}
            texts.update((key.replace("_", "-"), value) for key, value
                         in read_key_values(texts.pop("config"), "config", keys))
        fields = {"output_dir": Path("out"), **_parse_options(texts)}
        config = ExperimentConfig(experiment=experiment,
                                  profile=resolve_profile(fields.pop("profile", None)),
                                  **fields)
    except (ValueError, OSError) as exc:  # OSError: a --config or --profile path
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
