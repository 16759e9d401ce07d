import dataclasses
import importlib
import importlib.util
import json
import math
import os
import re
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fdsic import _native, cli, harness, plots
from fdsic.cancellers import Job, JobRun, newton_preconditioner, run_batch, run_jobs
from fdsic.cli import main as cli_main
from fdsic.cli import parse_tx_grid
from fdsic.harness import (ExperimentConfig, resolve_profile, run_experiment,
                           write_csv)
from fdsic.theory import (alms_ms_bound, anclms_exact_steady_mse, anclms_ms_analysis,
                          anclms_transient, rb_matrix)
from fdsic.signals import gen_proper_gaussian
from fdsic.transceiver import (OperatingPoint, builtin_profile, compute_noise_budget,
                               render_observation, synthesize_channels)

from conftest import M, N, SEED, operating_point, stack_trials


def test_parse_tx_grid():
    assert parse_tx_grid("-5:25:5") == (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    assert parse_tx_grid("0,10,20") == (0.0, 10.0, 20.0)
    with pytest.raises(ValueError):
        parse_tx_grid("5:0:1")
    for text in ("-inf:0:1", "0:inf:1", "0:25:nan"):
        with pytest.raises(ValueError, match="finite"):
            parse_tx_grid(text)
    # 10^12 points, and a step that leaves the point where it is: each is
    # refused before the range is walked
    with pytest.raises(ValueError, match="more than"):
        parse_tx_grid("0:1e6:1e-6")
    with pytest.raises(ValueError, match="does not advance"):
        parse_tx_grid("1e17:1e17:1")


def test_write_csv_format(tmp_path):
    path = write_csv(tmp_path / "t.csv", "x", [1, 2],
                     {"a": [1.23456789012, float("inf")], "b": [0.1, float("nan")]})
    lines = path.read_text().splitlines()
    assert lines[0] == "x,a,b"
    assert lines[1] == "1,1.23456789,0.1"
    assert lines[2] == "2,inf,nan"


def _fmt_one(v) -> str:
    """A CSV value written out one at a time: an integer by str(int), any
    other value as a float to 9 digits, nan, inf or -inf."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.9g}"


def test_write_csv_formats_each_column_as_each_value(tmp_path):
    """A column of integers (or bools) is written by str(int), any other as
    floats to 9 digits, each value as ``_fmt_one`` writes it alone; a curve
    longer than the x values is cut to them, a shorter one is an error."""
    x = np.arange(4)
    curves = {"ints": [3, -7, 10**12, 0], "bools": np.array([True, False, True, False]),
              "floats": [1.23456789012, -np.nan, np.inf, -np.inf],
              "float32": np.array([0.1, 2.5, -3.0, 1e-9], dtype=np.float32),
              "digits": ["0", "1", "1", "0"], "longer": np.linspace(0.0, 1.0, 6)}
    lines = write_csv(tmp_path / "t.csv", "x", x, curves).read_text().splitlines()
    assert lines[0] == "x," + ",".join(curves)
    assert lines[1:] == [",".join([_fmt_one(x[i]), *(_fmt_one(c[i]) for c in curves.values())])
                         for i in range(len(x))]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "u.csv", "x", x, {"shorter": [1.0, 2.0]})


def test_line_plot_draws_each_finite_run_as_one_polyline(tmp_path):
    """Each run of finite samples of a curve is one polyline, each point at
    the pixel coordinates the scalar formulas give; the y range spans every
    finite value, and a curve's samples past the last x are not drawn."""
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    curves = {"a": [1.0, np.nan, 2.0, 3.0, np.inf, 4.0], "b": [np.nan] * 6,
              "c": [-np.inf, 2.5, 2.5, 2.5, 2.5, 2.5, 9.0]}
    svg = plots.line_plot(tmp_path / "p.svg", x, curves, "t", "x", "y").read_text()
    ylo, yhi = 1.0 - 0.05 * 8.0, 9.0 + 0.05 * 8.0

    def point(xv, yv):
        px = plots._ML + (xv - 0.0) / (5.0 - 0.0) * (plots._W - plots._ML - plots._MR)
        py = (plots._H - plots._MB
              - (yv - ylo) / (yhi - ylo) * (plots._H - plots._MT - plots._MB))
        return f"{px:.2f},{py:.2f}"

    runs = [[(0, 1.0)], [(2, 2.0), (3, 3.0)], [(5, 4.0)],
            [(i, 2.5) for i in range(1, 6)]]
    assert re.findall(r'<polyline points="([^"]*)"', svg) == [
        " ".join(point(x[i], y) for i, y in run) for run in runs]


def test_experiment_config_validation(type2):
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope", profile=type2)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="bias", profile=type2, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="bias", profile=type2, tx_grid_dbm=())
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="bias", profile=type2, signal_source="noise")


def test_mu_frac_defaults(type2, tmp_path):
    """A runner's step size is the experiment's default fraction of the
    bound, the fraction asked for or the absolute step asked for, and the
    runner names it in meta.txt as given."""
    bound = 2.0
    for experiment, options, mu, line in (
            ("bias", {}, 0.05 * bound, ("mu_frac", "0.05")),
            ("sinr-sweep", {}, 0.15 * bound, ("mu_frac", "0.15")),
            ("sinr-sweep", {"mu_frac": 0.02}, 0.02 * bound, ("mu_frac", "0.02")),
            ("bias", {"mu_abs": 1e-3}, 1e-3, ("mu_abs", "0.001"))):
        cfg = ExperimentConfig(experiment=experiment, profile=type2, **options)
        report = harness.ExperimentReport()
        assert harness._resolve_mu(cfg, bound, report) == mu
        assert report.meta == dict([line])
    cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2, trials=1,
                           iterations=3000, tx_grid_dbm=(0.0,), seed=SEED,
                           output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    assert meta["mu_frac"] == "0.15" and "mu_abs" not in meta


def test_power_budget_determinism(type2, tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig(experiment="power-budget", profile=type2,
                               tx_grid_dbm=(0.0, 10.0), seed=SEED,
                               output_dir=tmp_path / name)
        run_experiment(cfg)
        outs.append((tmp_path / name / "power-budget.csv").read_bytes())
    assert outs[0] == outs[1]


def test_trial_independence(lowpower_setup):
    """Doubling trials moves the trial-mean by less than the standard error."""
    prof, channels, budget = lowpower_setup
    mu = 0.05 * alms_ms_bound(prof.natural_sigma_x2, M)
    config = ExperimentConfig(experiment="bias", profile=prof, trials=20,
                              seed=SEED)
    xs, ds = stack_trials(config, operating_point(prof, channels, budget), 12_000 + M)
    mse = np.array([run.steady_state_mse
                    for run, _, _ in run_batch(xs, ds, Job(mu), M, prof.k_tiq,
                                               keep_residuals=False)])
    half, full = mse[:10].mean(), mse.mean()
    stderr = mse.std(ddof=1) / np.sqrt(10)
    assert abs(half - full) < 2 * stderr + 1e-18


def test_ofdm_source_runs(type2, tmp_path, monkeypatch):
    """power-budget renders its reference from the configured source."""
    drawn = []
    for name in ("gen_ofdm_waveform", "gen_proper_gaussian"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, _real=real, _name=name, **k:
                            drawn.append(_name) or _real(*a, **k))
    cfg = ExperimentConfig(experiment="power-budget", profile=type2,
                           tx_grid_dbm=(10.0,), signal_source="ofdm",
                           output_dir=tmp_path)
    report = run_experiment(cfg)
    assert report.csv_paths[0].exists()
    assert drawn == ["gen_ofdm_waveform"]


@pytest.mark.parametrize("experiment", ["power-budget", "bias", "sinr-sweep", "bounds-probe"])
def test_ofdm_run_says_what_its_theory_assumes(experiment, type2, tmp_path):
    """Every experiment that takes the OFDM source records in meta.txt that
    the closed forms it checks against assume white proper Gaussian input;
    the same run on the Gaussian source records no such line."""
    metas = {}
    for source in ("ofdm", "gaussian"):
        cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=1,
                               iterations=3000, tx_grid_dbm=(-5.0,), signal_source=source,
                               seed=SEED, output_dir=tmp_path / source)
        metas[source] = _meta(run_experiment(cfg))
    assert metas["ofdm"]["theory_input"] == ("white proper Gaussian, which the ofdm "
                                             "source is not")
    assert "theory_input" not in metas["gaussian"]


def test_cli_runs_power_budget(tmp_path):
    code = cli_main(["power-budget", "--profile", "type2", "--tx-grid", "0,20",
                     "--out", str(tmp_path), "--check"])
    assert code == 0
    assert (tmp_path / "power-budget.csv").exists()
    assert (tmp_path / "power-budget.svg").exists()
    assert (tmp_path / "meta.txt").exists()


@pytest.mark.parametrize("grid, written", [
    (["--tx-grid", "-5:25:5"], "-5,0,5,10,15,20,25"),
    (["--tx-grid", "-5,0,5"], "-5,0,5"),
    (["--tx-grid=-5:25:5"], "-5,0,5,10,15,20,25"),
])
def test_cli_takes_a_grid_below_0_dbm(tmp_path, grid, written):
    """A transmit-power grid that starts below 0 dBm is the value of
    --tx-grid in either form, not an option of its own."""
    code = cli_main(["power-budget", "--profile", "type2", *grid, "--out", str(tmp_path)])
    assert code == 0
    assert f"tx_grid_dbm = {written}\n" in (tmp_path / "meta.txt").read_text()


def test_cli_small_bias_run(tmp_path):
    code = cli_main(["bias", "--profile", "type2", "--trials", "3",
                     "--iterations", "4000", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "bias.csv").exists()
    assert (tmp_path / "bias_taps.csv").exists()


def test_cli_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("tx-grid = 0,20\ntrials = 2\ncheck = on\nout = %s\n"
                    % (tmp_path / "o"))
    code = cli_main(["power-budget", "--config", str(conf)])
    assert code == 0
    assert (tmp_path / "o" / "power-budget.csv").exists()
    assert "check[analytic_vs_rendered_0.5dB] = pass" in \
        (tmp_path / "o" / "meta.txt").read_text()


@pytest.mark.parametrize("experiment, source",
                         [(experiment, "gaussian") for experiment in harness.EXPERIMENTS]
                         + [("power-budget", "ofdm")])
def test_every_run_judges_itself(experiment, source, tmp_path, capsys):
    """A run prints its checks and records them in meta.txt, the same lines
    with --check or without, and exits 0 without it; with it, the run exits
    3 exactly when one of its checks fails. The OFDM power budget fails its
    check, as its closed forms assume Gaussian input."""
    printed, recorded, codes = {}, {}, {}
    for check in (False, True):
        out = tmp_path / f"check-{check}"
        codes[check] = cli_main([experiment, "--profile", "type2", "--trials", "2",
                                 "--iterations", "3000", "--seed", "17", "--source", source,
                                 "--out", str(out)] + ["--check"] * check)
        printed[check] = [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith(("[PASS] ", "[FAIL] "))]
        recorded[check] = [line for line in (out / "meta.txt").read_text().splitlines()
                           if line.startswith("check[")]
    assert printed[True] and printed[False] == printed[True]
    assert len(recorded[True]) == len(printed[True]) and recorded[False] == recorded[True]
    failed = any(line.startswith("[FAIL]") for line in printed[True])
    assert codes == {False: 0, True: 3 if failed else 0}
    assert failed or source == "gaussian"


def _cli_config(argv, monkeypatch) -> tuple[ExperimentConfig, int]:
    """The ExperimentConfig that ``cli.main(argv)`` hands to run_experiment,
    and main's exit status when that run's one check fails."""
    configs = []

    def record(config):
        configs.append(config)
        report = harness.ExperimentReport()
        report.add_check("failing", False)
        return report

    monkeypatch.setattr(cli, "run_experiment", record)
    code = cli_main(argv)
    [config] = configs
    return config, code


def test_cli_defaults_are_the_config_defaults(monkeypatch):
    """An experiment name alone gives ExperimentConfig's defaults, the type2
    profile and the output directory ``out``, and exits 0 though a check
    fails."""
    assert _cli_config(["bias"], monkeypatch) == (ExperimentConfig(
        experiment="bias", profile=builtin_profile("type2"), output_dir=Path("out")), 0)


def test_cli_options_match_config_file_keys(tmp_path, monkeypatch):
    """Every command-line option, written under its name in a --config file,
    gives the same config, and the same exit status, as on the command
    line: ``check``, which sets no config field, exits 3 on a failed check
    from either."""
    values = {"profile": "type1", "trials": "3", "mu-frac": "0.1", "mu": "1e-3",
              "tx-grid": "0:10:5", "source": "ofdm", "iterations": "4000",
              "seed": "5", "M": "6", "N": "3", "out": str(tmp_path / "o"),
              "check": "on"}
    assert set(values) == set(cli.OPTIONS)
    argv = ["bias"]
    for option, value in values.items():
        argv += [f"--{option}"] if option == "check" else [f"--{option}", value]
    from_argv, code = _cli_config(argv, monkeypatch)
    assert code == 3
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert _cli_config(["bias", "--config", str(conf)], monkeypatch) == (from_argv, 3)
    conf.write_text("check = off\n")
    assert _cli_config(["bias", "--check", "--config", str(conf)], monkeypatch)[1] == 0
    assert from_argv != ExperimentConfig(experiment="bias", profile=from_argv.profile)
    for field, value in (("trials", 3), ("mu_abs", 1e-3),
                         ("tx_grid_dbm", (0.0, 5.0, 10.0)), ("signal_source", "ofdm")):
        assert getattr(from_argv, field) == value


@pytest.mark.parametrize("text, message", [
    ("trials 2\n", "malformed config line"),
    ("trails = 2\n", "unknown config key"),
    ("check = maybe\n", "check must be one of 1, true, yes, on, 0, false, no, off"),
    # a key given twice, under either spelling, is an error, not an override
    ("trials = 2\ntrials = 3\n", "repeated config key: 'trials'"),
    ("mu-frac = 0.1\ntrials = 2\nmu_frac = 0.2\n", "repeated config key: 'mu_frac'"),
])
def test_cli_config_file_errors(tmp_path, capsys, text, message):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    argv = ["power-budget", "--config", str(conf), "--out", str(tmp_path / "o")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert message in err


def test_cli_bad_profile_exit_code(tmp_path, capsys):
    """A missing profile file and a directory are configuration errors."""
    for profile in (tmp_path / "nope.profile", tmp_path):
        code = cli_main(["power-budget", "--profile", str(profile),
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "Traceback" not in err


@pytest.mark.parametrize("bits", ["inf", "12.7"])
def test_cli_profile_adc_bits_exit_code(bits, tmp_path, capsys):
    """A bit count that is not an integer is a configuration error."""
    text = (Path(harness.__file__).parent / "data" / "type2.profile").read_text()
    profile = tmp_path / "bits.profile"
    profile.write_text(text.replace("adc_bits = 12\n", f"adc_bits = {bits}\n"))
    assert profile.read_text() != text
    code = cli_main(["power-budget", "--profile", str(profile), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: adc_bits must be an integer, not '{bits}'")
    assert "Traceback" not in err


def test_cli_power_budget_check_at_infinite_irr(tmp_path, capsys, monkeypatch):
    """At irr = inf dB the image branches have no analytic power (-inf dBm)
    and render none: power-budget --check compares the other components
    and passes, exit 0. A component that renders power where the analytic
    budget has none fails the check, exit 3."""
    text = (Path(harness.__file__).parent / "data" / "type2.profile").read_text()
    profile = tmp_path / "balanced.profile"
    profile.write_text(text.replace("irr = 25 dB\n", "irr = inf dB\n"))
    assert profile.read_text() != text
    argv = ["power-budget", "--profile", str(profile), "--check", "--tx-grid", "0,20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main([*argv, "--out", str(tmp_path / "balanced")])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err
    check = "check[analytic_vs_rendered_0.5dB]"

    def meta(out):
        return dict(line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines())

    assert meta(tmp_path / "balanced")[check].startswith("pass worst gap")
    header, *rows = (tmp_path / "balanced" / "power-budget.csv").read_text().splitlines()
    columns = header.split(",")
    for row in rows:
        values = dict(zip(columns, row.split(",")))
        for key in ("image_si", "image_imd_si"):
            assert values[f"{key}_dbm"] == values[f"{key}_measured_dbm"] == "-inf"
    # the type2 image branches render power; claim the closed form has none
    real = OperatingPoint.component_powers
    monkeypatch.setattr(OperatingPoint, "component_powers",
                        property(lambda point: real.fget(point) | {"image_si": 0.0}))
    code = cli_main(["power-budget", "--check", "--tx-grid", "0,20",
                     "--out", str(tmp_path / "stray")])
    assert code == 3
    assert meta(tmp_path / "stray")[check].startswith("FAIL")
    assert "power where none is due in image_si" in meta(tmp_path / "stray")[check]


def test_cli_power_budget_crossover_check_reads_the_render(tmp_path, monkeypatch):
    """The crossover check holds the rendered thermal and quantization noises
    to the order of the point's own closed forms: type1, whose thermal noise
    stays above the quantization noise over the grid, passes (exit 0), and
    type2 with the two closed forms swapped fails (exit 3)."""
    check = "check[thermal_quant_crossover]"

    def meta(out):
        return dict(line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines())

    argv = ["power-budget", "--check", "--tx-grid", "10,15,25"]
    assert cli_main([*argv, "--profile", "type1", "--out", str(tmp_path / "type1")]) == 0
    assert meta(tmp_path / "type1")[check] == (
        "pass thermal above quantization at tx (dBm) analytic 10 15 25; rendered 10 15 25")
    real = OperatingPoint.component_powers

    def swapped(point):
        powers = real.fget(point)
        return powers | {"thermal": powers["quantization"], "quantization": powers["thermal"]}

    monkeypatch.setattr(OperatingPoint, "component_powers", property(swapped))
    assert cli_main([*argv, "--out", str(tmp_path / "swapped")]) == 3
    assert meta(tmp_path / "swapped")[check] == (
        "FAIL thermal above quantization at tx (dBm) analytic 15 25; rendered 10")


def test_cli_profile_repeated_key_exit_code(tmp_path, capsys):
    """A profile that gives tx_power twice is a configuration error that
    names the key, not a run at the second value."""
    text = (Path(harness.__file__).parent / "data" / "type2.profile").read_text()
    assert "tx_power = 25 dBm\n" in text
    profile = tmp_path / "twice.profile"
    profile.write_text(text + "tx_power = 0\n")
    code = cli_main(["power-budget", "--profile", str(profile), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: repeated profile key: 'tx_power'")
    assert "Traceback" not in err


def test_cli_bad_grid_exit_code(tmp_path):
    code = cli_main(["power-budget", "--tx-grid", "25:5:-5", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["bias", "--M", "1", "--N", "4"],
    ["bias", "--iterations", "0"],
    ["bias", "--mu", "-1"],
    ["sinr-sweep", "--tx-grid", "30"],
    ["sinr-sweep", "--tx-grid", "nan"],
    ["sinr-sweep", "--mu", "0"],
    ["bias", "--mu-frac", "0"],
    ["sinr-sweep", "--iterations", "2"],  # at or below the 2000-step steady window
    ["bias", "--iterations", "2000"],
    ["bias", "--seed", "-1"],
    ["sinr-sweep", "--mu-frac", "1.2"],  # at or above the ALMS mean-square bound
    ["sinr-sweep", "--mu", "1e6"],
    ["sinr-sweep", "--tx-grid", "5,0,5"],  # a repeated grid point
    ["sinr-sweep", "--tx-grid=-inf:0:1"],
    ["sinr-sweep", "--tx-grid", "0:inf:1"],
    ["sinr-sweep", "--tx-grid", "0:25:nan"],
    ["bias", "--mu", "inf"],
    ["bias", "--mu-frac", "inf"],
    ["bias", "--mu-frac", "1e308"],  # mu, or 2 mu, overflows at the profile's bound
    ["power-budget", "--config", "{tmp}"],  # a directory
    ["power-budget", "--out", "{tmp}/a-file"],
    ["power-budget", "--out", "{tmp}/a-file/run"],
    ["sinr-sweep", "--tx-grid", "0:1e6:1e-6"],  # 10^12 points
    ["sinr-sweep", "--tx-grid", "1e17:1e17:1"],  # a step that does not advance
])
def test_cli_invalid_config_exit_code(argv, tmp_path, capsys):
    """``{tmp}`` in ``argv`` names tmp_path, which holds the file
    ``a-file``; an ``--out`` in ``argv`` overrides the default tmp_path."""
    (tmp_path / "a-file").write_text("")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli_main([argv[0], "--out", str(tmp_path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_cli_bias_absolute_mu(type2, tmp_path):
    """``--mu`` runs mu and 2 mu, labelled by their fraction of the bound."""
    mu = 1.0
    code = cli_main(["bias", "--mu", str(mu), "--trials", "2", "--iterations",
                     "3000", "--out", str(tmp_path)])
    assert code == 0
    bound = alms_ms_bound(type2.natural_sigma_x2, M)
    lines = (tmp_path / "bias.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    cols = {name: rows[:, i] for i, name in enumerate(header)}
    for label in ("alms", "anclms"):
        one = cols[f"{label}_mu{mu / bound:g}_tap1"]
        two = cols[f"{label}_mu{2 * mu / bound:g}_tap1"]
        assert not np.array_equal(one, two), label
    meta = (tmp_path / "meta.txt").read_text().splitlines()
    assert f"mu_abs = {mu}" in meta
    assert not any(line.startswith("mu_frac") for line in meta)


def test_cli_diverged_bias_run_fails_without_warnings(tmp_path, capsys):
    """A bias run whose every trial diverges fails each of its four checks
    with nan and exits 3, without a numpy warning (which pytest raises),
    and meta.txt counts the 8 diverged runs. A run whose ANCLMS jobs
    diverge with a finite trial-mean weight error near 1e272 (strong IMD at
    seed 634, M = 2, N = 1) fails its weight-error norm check with inf,
    where the norm's squares overflow, exits 3 without a warning too, and
    meta.txt counts its 4 diverged ANCLMS runs."""
    code = cli_main(["bias", "--mu", "1e30", "--trials", "2", "--iterations",
                     "3000", "--check", "--out", str(tmp_path)])
    assert code == 3
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[")]
    assert len(checks) == 4
    assert all(line.startswith("[FAIL]") and " nan" in line for line in checks), checks
    assert "diverged_trials = 8" in (tmp_path / "meta.txt").read_text().splitlines()
    profile = _edited_type2(tmp_path / "strong-imd.profile",
                            {"k_tiq": "36 dB", "pa_iip3": "30 dBm", "k_lna": "85 dB"})
    out = tmp_path / "finite"
    code = cli_main(["bias", "--profile", str(profile), "--M", "2", "--N", "1",
                     "--trials", "2", "--iterations", "2500", "--seed", "634",
                     "--check", "--out", str(out)])
    assert code == 3
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[")]
    assert "[FAIL] anclms_error_norm_5pct: weight error norm inf of ||w_opt||" in checks
    meta = (out / "meta.txt").read_text().splitlines()
    assert "diverged_trials = 4" in meta


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(argv: list[str], **preset: str) -> str:
    """The standard output of a fresh interpreter run with ``argv``, fdsic
    importable from the sources, none of the BLAS thread variables set but
    those ``preset``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items()
           if key not in _BLAS_THREAD_VARIABLES}
    env.update(preset, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


def _skip_without_two_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("OpenBLAS runs at most one thread per CPU")


needs_openblas = pytest.mark.skipif(_native._openblas() is None,
                                    reason="numpy bundles no OpenBLAS")


def test_cli_import_skips_the_filter_module():
    """The package needs numpy alone: importing the CLI loads no scipy module
    (scipy took about 0.5 s and 49 MB to import)."""
    code = ("import sys, fdsic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(["-c", code]).strip() == "[]"


def test_cli_import_loads_no_kernel():
    """Importing the CLI neither compiles nor loads the C library."""
    code = ("import fdsic.cli; from fdsic import _native; "
            "print(_native.library.cache_info().currsize)")
    assert _fresh_python(["-c", code]).strip() == "0"


def test_package_import_loads_no_numpy():
    """``import fdsic`` alone imports no numpy, so the CLI imported after it
    still chooses numpy's BLAS threads."""
    code = "import sys, fdsic; print('numpy' in sys.modules)"
    assert _fresh_python(["-c", code]).strip() == "False"


def test_cli_import_loads_no_build_tools():
    """The CLI's imports load none of the kernel build's tools; numpy (which
    imports ``platform`` itself) is loaded first, so that what is counted is
    fdsic's own."""
    code = ("import sys, numpy; before = set(sys.modules); import fdsic.cli; "
            "print(sorted(({'subprocess', 'tempfile', 'platform'} - before) "
            "& set(sys.modules)))")
    assert _fresh_python(["-c", code]).strip() == "[]"


def test_cli_run_with_the_kernel_cached_loads_no_build_tools(tmp_path):
    """A CLI run whose kernel is cached imports neither the build's
    ``subprocess`` nor ``numpy.ctypeslib``: every array crosses into C as
    its address. (``site`` may import ``tempfile`` itself, so it is not
    counted.)"""
    _native.library()  # cached before the fresh process looks for it
    code = ("import sys; from fdsic.cli import main; "
            f"main(['bias', '--trials', '2', '--iterations', '3000', '--out', {str(tmp_path)!r}]); "
            "print(sorted({'subprocess', 'numpy.ctypeslib'} & set(sys.modules)))")
    assert _fresh_python(["-c", code]).splitlines()[-1] == "[]"


@needs_openblas
def test_cli_import_starts_openblas_on_one_thread():
    """A fresh ``import fdsic.cli`` starts numpy's OpenBLAS on one thread,
    so the process holds its main thread alone, and leaves the environment,
    the one its child processes inherit too, as it found it."""
    code = """
import os, subprocess, sys
before = dict(os.environ)
import fdsic.cli
from fdsic import _native
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
probe = "import os; print('OPENBLAS_NUM_THREADS' in os.environ)"
child = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True).stdout.strip()
print(tasks, _native._openblas().scipy_openblas_get_num_threads64_(),
      dict(os.environ) == before, "OPENBLAS_NUM_THREADS" in os.environ, child)
"""
    tasks, threads, same_env, left, child = _fresh_python(["-c", code]).split()
    assert (threads, same_env, left, child) == ("1", "True", "False", "False")
    if tasks == "None":
        pytest.skip("no /proc/self/task to count the threads in")
    assert tasks == "1"


@needs_openblas
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_import_obeys_a_preset_blas_thread_count(variable):
    """A thread count the user set before the CLI starts wins, and stays set."""
    _skip_without_two_cpus()
    code = ("import os; before = dict(os.environ); import fdsic.cli; "
            "from fdsic import _native; "
            "print(_native._openblas().scipy_openblas_get_num_threads64_(), "
            f"dict(os.environ) == before, os.environ[{variable!r}])")
    assert _fresh_python(["-c", code], **{variable: "2"}).split() == ["2", "True", "2"]


@needs_openblas
@pytest.mark.parametrize("preset, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_run_records_its_blas_threads(preset, threads, tmp_path):
    """A command-line run in a fresh process records in meta.txt the
    OpenBLAS thread count it ran with: 1 by the CLI's choice, or the
    user's preset count."""
    if preset:
        _skip_without_two_cpus()
    _fresh_python(["-m", "fdsic.cli", "power-budget", "--tx-grid", "0",
                   "--out", str(tmp_path)], **preset)
    meta = dict(line.split(" = ", 1) for line in (tmp_path / "meta.txt").read_text().splitlines())
    assert meta["blas_threads"] == threads


def _meta(report) -> dict[str, str]:
    return dict(line.split(" = ", 1)
                for line in report.meta_path.read_text().splitlines())


def test_power_budget_meta_names_no_step_size(type2, tmp_path):
    """power-budget runs no canceller, so meta.txt names no step size."""
    for mu_abs in (None, 1e-3):
        cfg = ExperimentConfig(experiment="power-budget", profile=type2,
                               tx_grid_dbm=(0.0,), mu_abs=mu_abs, seed=SEED,
                               output_dir=tmp_path)
        meta = _meta(run_experiment(cfg))
        assert meta["experiment"] == "power-budget"
        assert "mu_frac" not in meta and "mu_abs" not in meta


def test_convergence_meta_names_its_step_size(type2, tmp_path):
    """convergence runs a fixed fraction of the mean bound, whatever --mu says."""
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=2,
                           iterations=3000, mu_abs=1.0, seed=SEED,
                           output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    assert meta["mu_frac"] == "0.005"
    assert meta["mu_bound"] == "anclms_mean_bound"
    assert "mu_abs" not in meta


def test_convergence_meta_records_its_peak_rss_rise(type2, tmp_path):
    """meta.txt records the rise of the process's peak RSS over the run, in
    MB: 0 or more (0 when an earlier run of the process peaked higher)."""
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=2,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    rise = float(_meta(run_experiment(cfg))["peak_rss_rise_mb"])
    assert math.isfinite(rise) and rise >= 0


def test_meta_records_the_runs_cpu_time_and_page_faults(type2, tmp_path):
    """meta.txt records the process's user and system CPU seconds and its
    minor page faults over the run, as getrusage differences: each is 0 or
    more, the faults a count, and the CPU time no more than the process has
    spent in all."""
    cfg = ExperimentConfig(experiment="bounds-probe", profile=type2, trials=2,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    spent = resource.getrusage(resource.RUSAGE_SELF)
    user, system = float(meta["cpu_user_s"]), float(meta["cpu_sys_s"])
    assert 0 < user <= spent.ru_utime and 0 <= system <= spent.ru_stime
    assert 0 <= int(meta["minor_faults"]) <= spent.ru_minflt


@pytest.mark.parametrize("iterations, run", [(3000, 20_000), (20_500, 20_500)])
def test_convergence_meta_names_the_iterations_it_ran(iterations, run, type2, tmp_path):
    """convergence runs at least 20000 iterations, and meta.txt says how many
    it ran beside the configured ``iterations``: every one of its three jobs
    takes iterations_run + 1 steps a trial."""
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=1,
                           iterations=iterations, seed=SEED, output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    assert meta["iterations"] == str(iterations)
    assert meta["iterations_run"] == str(run)
    assert int(meta["trial_steps"]) == 3 * cfg.trials * (run + 1)


def test_convergence_renders_two_runs(type2, tmp_path, monkeypatch, lms_calls):
    """The whitened run adapts on the optimal run's own trials: two rendered
    trial sets, not three, from one source row per trial, drawn once with
    seed ``seed + t`` and rendered at both powers in one call, and all three
    jobs of a trial in one kernel call, with those of the next trials where
    the lanes have room; meta.txt names the exact whitening."""
    rendered, seeds = [], []  # the points of each render call
    real = harness.render_observations
    monkeypatch.setattr(harness, "render_observations", lambda zs, points, *a, **k:
                        rendered.append(len(points)) or real(zs, points, *a, **k))
    real_source = harness.gen_proper_gaussian
    monkeypatch.setattr(harness, "gen_proper_gaussian", lambda n, seed, **k:
                        seeds.append(seed) or real_source(n, seed, **k))
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=2,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    assert rendered == [2] * cfg.trials
    assert int(meta["samples_rendered"]) == 2 * cfg.trials * (20_000 + cfg.M)
    assert seeds == [SEED + t for t in range(cfg.trials)]
    assert int(meta["samples"]) == cfg.trials * (20_000 + cfg.M)
    assert int(meta["trial_steps"]) == 3 * cfg.trials * 20_001
    assert [count for count, _ in lms_calls] == _call_jobs(cfg.trials, (3,), points=2)
    assert float(meta["lms_lane_fill"]) == pytest.approx(_lane_fill(lms_calls), abs=1e-4)
    assert meta["whitening"] == "exact rb_matrix inverse"


def test_convergence_whitening_speedup_at_seed_22(type2, tmp_path):
    """At seed 22, where a whitening transform fitted on a sampled
    preamble fell short (5800 vs 7200 iterations), the exact one passes."""
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=50,
                           iterations=20_000, seed=22, output_dir=tmp_path)
    checks = {c.name: c for c in run_experiment(cfg).checks}
    assert checks["whitening_speedup"].passed, checks["whitening_speedup"].detail


def test_cli_convergence_ofdm_exit_code(tmp_path, capsys):
    """convergence whitens with the covariance of white Gaussian input, so
    an OFDM source is a configuration error."""
    code = cli_main(["convergence", "--source", "ofdm", "--trials", "2",
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "white Gaussian input" in err
    assert not (tmp_path / "convergence.csv").exists()


def test_sweep_renders_once_per_run_length(type2, tmp_path, monkeypatch):
    """Both cancellers run on one rendered set of trials at every grid point,
    15 dBm (where the cold-started ANCLMS once ran longer) included, and
    one render call per trial renders both points of the pass."""
    rendered = []  # the points of each render call
    real = harness.render_observations
    monkeypatch.setattr(harness, "render_observations", lambda zs, points, *a, **k:
                        rendered.append(len(points)) or real(zs, points, *a, **k))
    cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2, trials=2,
                           iterations=3000, tx_grid_dbm=(-5.0, 15.0), seed=SEED,
                           output_dir=tmp_path)
    report = run_experiment(cfg)
    assert report.meta["anclms_iterations"] == "-5:3000;15:3000"
    assert rendered == [len(cfg.tx_grid_dbm)] * cfg.trials


def test_sweep_writes_attenuation_view(type2, tmp_path):
    """One sweep run plots its SINR columns and its four attenuation columns."""
    cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2, trials=1,
                           iterations=3000, tx_grid_dbm=(0.0, 10.0), seed=SEED,
                           output_dir=tmp_path)
    report = run_experiment(cfg)
    assert [p.name for p in report.csv_paths] == ["sinr-sweep.csv"]
    assert [p.name for p in report.svg_paths] == ["sinr-sweep.svg", "attenuation.svg"]
    svg = (tmp_path / "attenuation.svg").read_text()
    assert ">Digital attenuation</text>" in svg
    att = [k for k in report.tables["columns"] if "_att_" in k]
    assert len(att) == 4
    for key in report.tables["columns"]:
        assert (f">{key}</text>" in svg) == (key in att), key
    assert svg.count("<polyline") == 4


def test_sweep_anclms_starts_in_steady_state(type2, tmp_path):
    """Started at the Wiener solution, ANCLMS reads its steady-state MSE
    within 0.2 dB after 30k steps at 10 and 15 dBm, where its slowest
    covariance mode would leave a cold start 1.3 and 8.8 dB short."""
    cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2, trials=4,
                           iterations=30_000, tx_grid_dbm=(10.0, 15.0), seed=SEED,
                           output_dir=tmp_path)
    report = run_experiment(cfg)
    cols = report.tables["columns"]
    gaps = (np.array(cols["anclms_sinr_sim_db"])
            - np.array(cols["anclms_sinr_theory_db"]))
    assert np.all(np.abs(gaps) <= 0.2), gaps
    assert _meta(report)["anclms_start"] == "wiener"


@pytest.fixture
def lms_calls(monkeypatch):
    """The ``(jobs, lanes)`` of every LMS kernel call a runner makes during
    the test, the lanes those of the build (``_native.lanes()``)."""
    calls = []
    real = harness.run_jobs

    def counted(jobs, *args, **options):
        runs = real(jobs, *args, **options)
        calls.append((len(runs), _native.lanes()))
        return runs

    monkeypatch.setattr(harness, "run_jobs", counted)
    return calls


def _lane_fill(calls) -> float:
    """The jobs of ``calls`` over the lanes they offered, whole vectors."""
    return sum(jobs for jobs, _ in calls) / sum(-(-jobs // lanes) * lanes
                                                for jobs, lanes in calls)


def _call_jobs(trials: int, widths: tuple[int, ...], points: int = 1) -> list[int]:
    """The jobs of each kernel call of a pass over ``points`` points and
    ``trials`` trials, each trial running ``widths[w]`` jobs of the w-th
    canceller width N: one call per group of consecutive trials, the fewest
    whose jobs of each width fill whole vectors where the group's rows
    (1 + ``points`` a trial) are at most ``lanes``, else
    lanes / gcd(lanes, jobs); ``lanes`` the build's lanes per vector."""
    lanes = _native.lanes()
    jobs = sum(widths)
    group = math.lcm(*(lanes // math.gcd(lanes, count) for count in widths))
    if group * (1 + points) > lanes:
        group = lanes // math.gcd(lanes, jobs)
    return [min(group, trials - first) * jobs for first in range(0, trials, group)]


@pytest.mark.parametrize("experiment, trial_steps", [
    ("bias", 2 * 4 * 3001),        # 2 trials x 4 jobs x 3001 steps
    ("sinr-sweep", 2 * 2 * 3001),  # 2 trials x 2 cancellers at -5 dBm
])
def test_meta_records_phase_times(experiment, trial_steps, type2, tmp_path, lms_calls):
    """meta.txt times the generate, render and LMS phases of the trial loop
    and the LMS loop's waits for its next trial, and counts the samples
    generated and rendered and the LMS trial-steps."""
    cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=2,
                           iterations=3000, tx_grid_dbm=(-5.0,), seed=SEED,
                           output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    for key in ("phase.generate_s", "phase.render_s", "phase.lms_s",
                "phase.wait_s", "ns_per_sample.generate",
                "ns_per_sample.render", "ns_per_trial_step"):
        assert float(meta[key]) > 0, key
    # the LMS loop waits at least for trial 0, and never longer than the run
    assert float(meta["phase.wait_s"]) <= float(meta["duration_s"]) + 0.05
    # 2 trials of 3000 + M samples: bias's 4 jobs share each trial, and so
    # do the sweep's 2 cancellers, which run the same length at -5 dBm
    assert int(meta["samples"]) == int(meta["samples_rendered"]) == 2 * (3000 + cfg.M)
    assert int(meta["trial_steps"]) == trial_steps
    # all jobs of a trial (4 and 2, half of them ALMS) in one kernel call,
    # and those of both trials where the lanes have room for them
    jobs = trial_steps // (2 * 3001)
    widths = (jobs // 2, jobs // 2)
    assert int(meta["lms_calls"]) == len(_call_jobs(2, widths))
    assert [count for count, _ in lms_calls] == _call_jobs(2, widths)
    assert int(meta["lms_lanes"]) == max(lanes for _, lanes in lms_calls)
    assert float(meta["lms_lane_fill"]) == pytest.approx(_lane_fill(lms_calls), abs=1e-4)
    assert meta["diverged_trials"] == "0" and meta["first_nonfinite_step"] == "none"


_IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path
from fdsic.harness import ExperimentConfig, run_experiment
from fdsic.transceiver import builtin_profile
out = Path(tempfile.mkdtemp())
for experiment in ("bias", "sinr-sweep", "convergence"):
    run_experiment(ExperimentConfig(experiment=experiment, profile=builtin_profile("type2"),
                                    trials=3, iterations=3000, tx_grid_dbm=(-5.0, 5.0, 15.0),
                                    output_dir=out / experiment))
loaded = sorted(name for name in ("numpy.random", "_hashlib", "hashlib", "secrets",
                                  "numpy.ma", "concurrent.futures", "logging")
                if name in sys.modules)
sys.path.insert(0, sys.argv[1])
from test_golden import GOLDEN, experiment_digests  # hashes with hashlib
want = {k: v for k, v in json.loads(GOLDEN.read_text()).items() if k.startswith("bias-ofdm/")}
ofdm_matches = experiment_digests(out / "golden", ("bias-ofdm",)) == want
print(json.dumps([loaded, "numpy.random" in sys.modules, ofdm_matches]))
"""


@pytest.fixture(scope="module")
def import_probe():
    """What a fresh process imports running Gaussian bias, sinr-sweep and
    convergence (``_IMPORT_PROBE``): the modules of its list it loaded,
    whether a later OFDM run loaded ``numpy.random``, and whether that run
    matched its golden digests."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tests)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_gaussian_runs_import_no_numpy_random(import_probe):
    """Gaussian bias, sinr-sweep and convergence runs in a fresh process
    draw their channels, sources and noise without importing
    ``numpy.random`` or OpenSSL's ``_hashlib`` (each adds resident memory),
    and an OFDM run after them imports ``numpy.random`` for its symbols and
    still matches its golden digests."""
    loaded, ofdm_loaded, ofdm_matches = import_probe
    assert not {"numpy.random", "_hashlib", "hashlib", "secrets"} & set(loaded)
    assert ofdm_loaded and ofdm_matches


def test_gaussian_runs_import_no_numpy_ma_or_futures(import_probe):
    """The same runs import neither ``numpy.ma`` (``np.median`` would, on
    its first call) nor ``concurrent.futures`` and the ``logging`` it pulls
    in: their import costs a fresh run milliseconds it does not need."""
    loaded, _, _ = import_probe
    assert not {"numpy.ma", "concurrent.futures", "logging"} & set(loaded)


@pytest.mark.parametrize("experiment", ["bias", "power-budget"])
def test_kernel_build_is_not_timed_as_generation(experiment, type2, tmp_path,
                                                 monkeypatch, stub_compiler):
    """With no cached library, the kernels are compiled on the caller's
    thread before the run draws its first trial (before the trial loop's
    producer starts), so the compile does not count as the generate
    phase. The compiler is a stub that takes a fixed 0.3 s and copies the
    test session's library (``stub_compiler``), so the build has a known
    length without a compile of the kernel."""
    kernel = tmp_path / "kernel"
    kernel.mkdir()
    for path in (_native._KERNEL_SOURCE, *_native._KERNEL_SOURCE.parent.glob("*.h")):
        (kernel / path.name).write_bytes(path.read_bytes())
    builds = []  # (thread name, seconds) of each compile
    real = _native._build_kernel

    def timed_build():
        started = time.perf_counter()
        try:
            return real()
        finally:
            builds.append((threading.current_thread().name,
                           time.perf_counter() - started))

    cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=2,
                           iterations=3000, seed=SEED, output_dir=tmp_path / "out")
    with monkeypatch.context() as patch:
        patch.setattr(_native, "_KERNEL_SOURCE", kernel / _native._KERNEL_SOURCE.name)
        patch.setattr(_native, "_COMPILER", stub_compiler(0.3))
        patch.setattr(_native, "_build_kernel", timed_build)
        _native.library.cache_clear()
        try:
            meta = _meta(run_experiment(cfg))
        finally:
            _native.library.cache_clear()  # the next call loads the package's build
    [(thread, built_s)] = builds
    assert thread == threading.main_thread().name
    assert list((kernel / "__pycache__").glob("_lms-*.so"))  # compiled, not cached
    assert float(meta["phase.generate_s"]) < built_s / 4


@pytest.mark.parametrize("experiment", sorted(harness.EXPERIMENTS))
def test_meta_times_the_output(experiment, type2, tmp_path, monkeypatch):
    """Every experiment's meta.txt times the writing of its CSVs and SVGs
    as ``phase.output_s``, through the ``fdsic.harness`` names the
    benchmark's tracer wraps."""
    written = []
    for name in ("write_csv", "line_plot", "heatmap"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, real=real: written.append(1)
                            or real(*a))
    cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=1,
                           iterations=3000, tx_grid_dbm=(-5.0,), seed=SEED,
                           output_dir=tmp_path)
    report = run_experiment(cfg)
    meta = _meta(report)
    assert 0 < float(meta["phase.output_s"]) <= float(meta["duration_s"]) + 0.05
    assert len(written) == len(report.csv_paths) + len(report.svg_paths) > 0


@pytest.mark.parametrize("experiment", sorted(harness.EXPERIMENTS))
def test_meta_records_phase_cpu(experiment, type2, tmp_path):
    """Every experiment's meta.txt gives each phase's thread CPU beside its
    wall time: no phase's CPU exceeds its wall time, and together they do
    not exceed the process's user and system CPU over the run (each up to
    the rounding of meta.txt and a millisecond of clock resolution). A run
    of the LMS loop gives its CPU per trial-step too."""
    cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=2,
                           iterations=3000, tx_grid_dbm=(-5.0,), seed=SEED,
                           output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    cpu = {name: float(meta[f"phase_cpu.{name}_s"]) for name in harness.PhaseClock.PHASES}
    for name, seconds in cpu.items():
        assert 0 <= seconds <= float(meta[f"phase.{name}_s"]) * 1.001 + 1e-3, name
    process = float(meta["cpu_user_s"]) + float(meta["cpu_sys_s"])
    assert sum(cpu.values()) <= process * 1.001 + 1e-3, (cpu, process)
    if experiment != "power-budget":
        assert 0 < float(meta["ns_per_trial_step_cpu"]) < math.inf


@pytest.mark.parametrize("experiment, trials, widths, points", [
    # 2 trials of 4 ALMS and 4 ANCLMS jobs: one call for both on 8 lanes
    ("bounds-probe", 2, (4, 4), 1),
    # 2 trials of 3 jobs: the optimal, the whitened (Newton) and the
    # suboptimal jobs share a trial's call as lanes, both trials' on 8 lanes
    ("convergence", 2, (3,), 2),
], ids=["bounds-probe-2-8", "convergence-2-3"])
def test_meta_names_the_lms_path(experiment, trials, widths, points, type2, tmp_path,
                                 lms_calls):
    """meta.txt counts the LMS kernel calls and names the widest lane count
    the kernel reported running them in, the build's own."""
    cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=trials,
                           iterations=3000, tx_grid_dbm=(-5.0,), seed=SEED,
                           output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    calls = _call_jobs(trials, widths, points)
    assert int(meta["lms_calls"]) == len(lms_calls) == len(calls)
    assert [count for count, _ in lms_calls] == calls
    assert int(meta["lms_lanes"]) == max(lanes for _, lanes in lms_calls)
    assert int(meta["lms_lanes"]) == _native.lanes()
    # both run the fourth-moment analysis, timed as the theory phase
    assert 0 < float(meta["phase.theory_s"]) <= float(meta["duration_s"]) + 0.05


def test_theory_runs_on_one_blas_thread(type2, tmp_path, monkeypatch):
    """Every LAPACK call of the theory and of the covariance checks runs
    with numpy's OpenBLAS on one thread, in convergence's run and in a
    library caller's calls of the analysis, its bound, its steady state and
    its transient alike, and the thread count the process had, two here, is
    restored after each."""
    lib = _native._openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    threads = []
    for name in ("cholesky", "eigh", "eigvalsh", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, real=real: threads.append(
            lib.scipy_openblas_get_num_threads64_()) or real(*a))
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=1,
                               iterations=3000, seed=SEED, output_dir=tmp_path)
        run_experiment(cfg)
        assert len(threads) >= 3  # the preconditioner, the analysis, the transient
        ana = anclms_ms_analysis(type2.natural_sigma_x2, type2.k_tiq, M, N)
        mu = 0.5 * ana.bound
        anclms_exact_steady_mse(ana, 1e-3, mu)
        anclms_transient(ana, 1e-3, mu, np.ones(2 * (M + N)), np.arange(3))
        assert len(threads) >= 3 + 5 and set(threads) == {1}
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


@pytest.mark.parametrize("experiment, options, jobs, calls, fill", [
    ("bias", dict(iterations=3000), 4, 13, "1"),
    ("sinr-sweep", dict(iterations=3000, tx_grid_dbm=(15.0, 25.0)), 4, 25, "1"),
    ("convergence", dict(iterations=20_000), 3, 7, "0.9868"),
], ids=["bias", "sweep-long", "convergence"])
def test_meta_pairs_the_trials_on_eight_lanes(experiment, options, jobs, calls, fill,
                                              type2, tmp_path):
    """At 8 lanes, the 50 trials of the benchmark's workloads fill the
    vectors of their kernel calls: bias's 4 jobs run four trials to a call,
    one vector per canceller width, two vectors in each of 12 calls and one
    in the last; sweep-long's 4 jobs run two trials to a call, all 8 lanes
    of 25 calls; convergence's 3 jobs run eight trials to a call, three
    whole vectors each, and the last 2 trials' 6 jobs share one vector (150
    jobs in 152 lanes); every trial still takes every step of every job."""
    if _native.lanes() != 8:
        pytest.skip("the build runs no 8-lane vectors")
    cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=50, seed=SEED,
                           output_dir=tmp_path, **options)
    meta = _meta(run_experiment(cfg))
    assert meta["lms_lanes"] == "8"
    assert meta["lms_calls"] == str(calls)
    assert meta["lms_lane_fill"] == fill
    assert int(meta["trial_steps"]) == cfg.trials * jobs * (cfg.iterations + 1)


@pytest.mark.parametrize("grid, jobs", [
    ((-5.0, 5.0), (4,)),            # one pass of both points: 4 jobs a call
    ((-5.0, 5.0, 15.0), (4, 2)),    # a pair, then the last point alone
])
def test_sweep_runs_grid_points_in_pairs(grid, jobs, type2, tmp_path, monkeypatch,
                                         lms_calls):
    """The sweep runs the cancellers of two grid points in one kernel call
    per trial (with those of the next trials where the lanes have room) and
    draws each trial's source row once per pass: a 2-point sweep draws
    every trial once, a 3-point sweep twice; every point renders each
    trial."""
    seeds = []
    real = harness.gen_proper_gaussian
    monkeypatch.setattr(harness, "gen_proper_gaussian", lambda n, seed, **k:
                        seeds.append(seed) or real(n, seed, **k))
    cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2, trials=3,
                           iterations=3000, tx_grid_dbm=grid, seed=SEED,
                           output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    passes = len(jobs)
    # a pass of k jobs runs an ALMS and an ANCLMS job at each of k / 2 points
    calls = [count for k in jobs
             for count in _call_jobs(cfg.trials, (k // 2, k // 2), k // 2)]
    assert seeds == [SEED + t for t in range(cfg.trials)] * passes
    assert int(meta["lms_calls"]) == len(calls)
    n = 3000 + cfg.M
    assert int(meta["samples"]) == passes * cfg.trials * n
    assert int(meta["samples_rendered"]) == len(grid) * cfg.trials * n
    assert [count for count, _ in lms_calls] == calls
    assert float(meta["lms_lane_fill"]) == pytest.approx(_lane_fill(lms_calls), abs=1e-4)


def test_meta_names_diverged_trials(type2, tmp_path):
    """A sweep step size of 0.95 of the ALMS bound is above the ANCLMS
    bound at 25 dBm: both ANCLMS trials there grow without going
    non-finite (their SINR reads about -144 dB), and meta.txt names them."""
    cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2, trials=2,
                           iterations=3000, tx_grid_dbm=(0.0, 25.0), mu_frac=0.95,
                           seed=SEED, output_dir=tmp_path)
    report = run_experiment(cfg)
    meta = _meta(report)
    assert report.tables["columns"]["anclms_sinr_sim_db"][1] < -100
    assert meta["diverged_trials[anclms@25dBm]"] == "2"
    assert meta["diverged_trials"] == "2"
    assert meta["first_nonfinite_step"] == "none"


@pytest.mark.parametrize("check, code", [(False, 0), (True, 3)])
def test_cli_diverged_sweep_point_runs_without_warnings(check, code, tmp_path):
    """At k_tiq = k_riq = 60 dB the sweep's step size diverges ANCLMS at
    the upper grid points: their simulated SINR and attenuation cells read
    -inf, without a numpy warning (which pytest raises); the run exits 0, or
    3 with --check, and meta.txt names each such cell's job as diverged."""
    text = (Path(harness.__file__).parent / "data" / "type2.profile").read_text()
    profile = tmp_path / "strong-iq.profile"
    profile.write_text(text.replace("k_tiq = 6 dB\n", "k_tiq = 60 dB\n")
                       .replace("k_riq = 6 dB\n", "k_riq = 60 dB\n"))
    assert profile.read_text().count("= 60 dB") == 2
    out = tmp_path / "out"
    argv = ["sinr-sweep", "--profile", str(profile), "--trials", "2",
            "--iterations", "3000", "--out", str(out)]
    assert cli_main(argv + ["--check"] * check) == code
    meta = dict(line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines())
    header, *rows = (out / "sinr-sweep.csv").read_text().splitlines()
    nonfinite = set()  # the job of each non-finite cell
    for row in rows:
        tx, *cells = row.split(",")
        for column, cell in zip(header.split(",")[1:], cells):
            if not math.isfinite(float(cell)):
                nonfinite.add(f"{column.split('_')[0]}@{tx}dBm")
    assert nonfinite
    for label in nonfinite:
        assert int(meta.get(f"diverged_trials[{label}]", "0")) > 0, label


# the edge cases of the five experiments' runs: (command-line options, the
# type2 profile entries they replace); --mu-frac is bias's and the sweep's
# alone, since convergence and bounds-probe run fixed fractions of their own
# bounds and power-budget runs no canceller
_EDGE_CASES = {
    "trials-1": (["--trials", "1"], {}),
    "irr-inf": ([], {"irr": "inf dB"}),
    "iq-60dB": ([], {"k_tiq": "60 dB", "k_riq": "60 dB"}),
    "M2-N1": (["--M", "2", "--N", "1"], {}),
    "M3-N1": (["--M", "3", "--N", "1"], {}),
    "M8-N6": (["--M", "8", "--N", "6"], {}),
    "mu-frac-0.99": (["--mu-frac", "0.99"], {}),
    "iip3-1000dBm": ([], {"pa_iip3": "1000 dBm"}),
    "adc-30bits": ([], {"adc_bits": "30"}),
    "ktiq-minus-inf": ([], {"k_tiq": "-inf dB"}),
    "pa-gain-67dB": ([], {"pa_gain": "67 dB"}),
}


def _edited_type2(path: Path, entries: dict[str, str]) -> Path:
    """Write the type2 profile to ``path`` with ``entries`` replacing its
    entries of those keys."""
    text = (Path(harness.__file__).parent / "data" / "type2.profile").read_text()
    for key, value in entries.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    path.write_text(text)
    return path


def _cell_job(csv_name: str, column: str, base_job: str, cells: dict) -> str | None:
    """The canceller job whose run a cell of ``column`` of a bias, sweep,
    convergence or bounds-probe CSV reads, in the row whose cells by column
    are ``cells``, or None for an axis or theory column: ``bias.csv``'s
    curves are ``<job>_tap<k>``, ``bias_taps.csv``'s measured columns read
    ``base_job`` (the ALMS job at the base step size), a
    ``sinr-sweep.csv`` row's simulated columns ``<canceller>_{sinr,att}_sim_db``
    read the job ``<canceller>@<tx>dBm`` at that row's transmit power,
    ``convergence.csv``'s curves are named by their jobs and a
    ``bounds-probe.csv`` row's MSE columns read the job
    ``<variant>_mu<fraction>`` of that row."""
    if csv_name == "bias.csv" and re.fullmatch(r"a(nc)?lms_mu.*_tap\d", column):
        return column.rsplit("_", 1)[0]
    if csv_name == "bias_taps.csv" and column in ("measured_abs", "rel_error"):
        return base_job
    if csv_name == "sinr-sweep.csv" and re.fullmatch(r"a(nc)?lms_(sinr|att)_sim_db", column):
        return f"{column.split('_')[0]}@{cells['tx_power_dbm']}dBm"
    if csv_name == "convergence.csv" and re.fullmatch(r"anclms_[a-z]+", column):
        return column
    if csv_name == "bounds-probe.csv" and column in ("mean_mse", "median_mse"):
        return f"{('alms', 'anclms')[int(cells['variant'])]}_mu{cells['mu_frac']}"
    return None


@pytest.mark.parametrize("experiment, case", [
    (experiment, case)
    for experiment in ("power-budget", "bias", "sinr-sweep", "convergence", "bounds-probe")
    for case in _EDGE_CASES if experiment in ("bias", "sinr-sweep") or case != "mu-frac-0.99"])
def test_edge_cases_run_explained(experiment, case, tmp_path, capsys):
    """Each experiment at 2 trials and 3000 steps, at each edge case,
    through the command line with --check: the run exits 0, 2 or 3 without
    a warning, and every non-finite cell of its CSVs reads a job that
    meta.txt names as diverged. bounds-probe's are there by design alone:
    in a row whose fraction of the bound, one of meta.txt's ``mu_frac``, is
    at or above 1, where ``theory_mse`` has no steady state and the MSE
    columns read that fraction's diverged job. power-budget runs no job: its
    only non-finite cells are the -inf dBm of its image columns, analytic
    and rendered, where irr = inf leaves no image branch, and its analytic
    powers match the rendered ones at every case, so it exits 0 at each,
    a 30-bit ADC's included, whose quantization noise stays below the
    thermal noise over the whole grid. A k_tiq of -inf dB is a configuration
    error (exit 2), and so is bounds-probe at a PA gain of 67 dB, whose
    regressor covariance is singular at -5 dBm: each prints one line that
    says so."""
    options, entries = _EDGE_CASES[case]
    profile = _edited_type2(tmp_path / "edge.profile", entries)
    out = tmp_path / "out"
    argv = [experiment, "--profile", str(profile), "--trials", "2", "--iterations",
            "3000", "--check", "--out", str(out), *options]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(argv)
    assert code in (0, 2, 3)
    singular = (experiment, case) == ("bounds-probe", "pa-gain-67dB")
    assert (code == 2) == (case == "ktiq-minus-inf" or singular), case
    if code == 2:
        error = capsys.readouterr().err
        assert error.startswith("configuration error: ") and error.count("\n") == 1, error
        assert ("singular regressor covariance" in error) == singular, error
        return
    meta = dict(line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines())
    if experiment == "power-budget":
        # each component's closed form reads the taps the point renders, so
        # it matches the render at every edge case, truncated channels too
        failed = [key for key, value in meta.items()
                  if key.startswith("check[") and value.startswith("FAIL")]
        assert failed == [], case
        assert code == 0, case
    if (experiment, case) == ("bias", "iip3-1000dBm"):
        # the predicted bias is about zero, so the relative error is about
        # 1e99: the detail gives it to three digits
        detail = meta["check[alms_bias_10pct]"]
        assert code == 3 and detail.startswith("FAIL worst per-tap rel error "), detail
        assert len(detail) < 50, detail
    diverged = {key[len("diverged_trials["):-1] for key, value in meta.items()
                if key.startswith("diverged_trials[") and int(value) > 0}
    base_job = None
    for path in sorted(out.glob("*.csv")):  # bias.csv before bias_taps.csv
        header, *rows = path.read_text().splitlines()
        columns = header.split(",")
        if path.name == "bias.csv":
            base_job = columns[1].rsplit("_", 1)[0]
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            for column, cell in cells.items():
                if not math.isfinite(float(cell)):
                    if path.name == "power-budget.csv":
                        assert entries.get("irr") == "inf dB", (column, cells)
                        assert column.startswith("image_") and cell == "-inf", column
                        continue
                    if path.name == "bounds-probe.csv":
                        assert cells["mu_frac"] in meta["mu_frac"].split(","), cells
                        assert float(cells["mu_frac"]) >= 1, (column, cells)
                        if column == "theory_mse":
                            continue
                    job = _cell_job(path.name, column, base_job, cells)
                    assert job in diverged, (path.name, column, cell)


def test_nonfinite_observation_is_a_diverged_trial(type2, tmp_path, monkeypatch):
    """A source row holding a NaN renders a non-finite observation from
    that sample on: a bias or convergence run completes, convergence's
    trial sums taking the non-finite row included, and meta.txt names each
    of its jobs as diverged on that trial, first non-finite at the step
    that reads the sample."""
    real = harness.gen_proper_gaussian

    def source(n, seed, **kwargs):
        draw = real(n, seed, **kwargs)
        if seed == SEED + 1:
            draw.samples[100] = np.nan
        return draw

    monkeypatch.setattr(harness, "gen_proper_gaussian", source)
    for experiment, jobs in (("bias", 4), ("convergence", 3)):
        cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=2,
                               iterations=3000, seed=SEED,
                               output_dir=tmp_path / experiment)
        meta = _meta(run_experiment(cfg))
        step = str(100 - (cfg.M - 1))
        diverged = {key: value for key, value in meta.items()
                    if key.startswith("diverged_trials[")}
        assert len(diverged) == jobs and set(diverged.values()) == {"1"}, diverged
        assert meta["diverged_trials"] == str(jobs)
        assert meta["first_nonfinite_step"] == step
        for key in diverged:
            label = key.removeprefix("diverged_trials")
            assert meta[f"first_nonfinite_step{label}"] == step


def test_phase_clock_counts_diverged_trials():
    """count_lms flags, by job, a trial that went non-finite or whose peak
    residual exceeds 1e3 times its observation's mean |d|^2, keeps each job's
    non-finite steps in trial order, returns nothing, and counts the lanes
    the calls filled: a 9-run call on 4 lanes per vector, then a 3-run call
    on 1, then a 6-run call on 8; ``lms_lanes`` names the lanes of the last
    call."""
    x = gen_proper_gaussian(3000, seed=30).reference(1.0)
    calm = [run for run, _, _ in run_batch(np.stack([x] * 3), np.stack([x] * 3),
                                           Job(0.01), M, 1.0, keep_residuals=False)]
    grown = [dataclasses.replace(run, peak_residual=peak)
             for run, peak in zip(calm, (0.5, 2e3, 999.0))]
    broken = [dataclasses.replace(run, diverged_at=step)
              for run, step in zip(calm, (-1, 70, 40))]

    def call(runs: dict[str, list[JobRun]], power: float = 1.0):
        """The (label, run) pairs of ``runs``, job-major, each on an
        observation whose mean |d|^2 is ``power``."""
        return [(label, dataclasses.replace(run, d_power=power))
                for label, trials in runs.items() for run in trials]

    clock = harness.PhaseClock()
    assert clock.count_lms(call({"calm": calm, "grown": grown, "broken": broken}), 4) is None
    assert clock.diverged == {"grown": 1, "broken": 2}
    clock.count_lms(call({"broken": [dataclasses.replace(run, diverged_at=step)
                                     for run, step in zip(calm, (-1, 90, 55))]}), 1)
    assert clock.first_nonfinite == {"broken": [70, 40, 90, 55]}
    lines = clock.meta_lines()
    for line in ("diverged_trials = 5", "first_nonfinite_step = 40",
                 "diverged_trials[grown] = 1", "diverged_trials[broken] = 4",
                 "first_nonfinite_step[broken] = 40", "lms_calls = 2",
                 "lms_lanes = 1", "lms_lane_fill = 0.8"):
        assert line in lines, line
    assert not any("[calm]" in line for line in lines)
    # the runs of one call, each on its own observation: the peak of 2e3 is
    # under 1e3 times a power of 3
    clock.count_lms(call({"grown": grown}) + call({"grown": grown}, 3.0), 8)
    assert clock.diverged == {"grown": 2, "broken": 4}
    lines = clock.meta_lines()
    for line in ("lms_calls = 3", "lms_lanes = 8", "lms_lane_fill = 0.7826",
                 "diverged_trials[grown] = 2"):
        assert line in lines, line


def test_divergence_threshold_is_the_runs_observed_power():
    """A finite run diverges when its peak residual exceeds 1e3 times the
    mean |d|^2 of the observation it ran on (``JobRun.d_power``): a peak one
    ulp below or at that level does not, one ulp above does."""
    x = gen_proper_gaussian(3000, seed=30).reference(1.0)
    [(run, _, _)] = run_batch(x, x, Job(0.01), M, 1.0, keep_residuals=False)
    level = 1e3 * run.d_power
    for peak, want in ((np.nextafter(level, 0), False), (level, False),
                       (np.nextafter(level, math.inf), True)):
        assert harness._diverged(dataclasses.replace(run, peak_residual=peak)) is want


def test_point_holds_the_profiles_fields_bit_for_bit(type2):
    """``_point`` builds a profile's point from the profile's natural
    sigma_x2, its k_tiq and the three noise powers of its noise budget, bit
    for bit, and from channels drawn with the config's M, N and seed; at a
    reference power given, from that power and the channels scaled to it."""
    for tx in (-5.0, 25.0):
        prof = type2.with_tx_power(tx)
        config = ExperimentConfig(experiment="bias", profile=prof, M=8, N=6, seed=SEED + 1)
        budget = compute_noise_budget(prof)
        for sigma_x2 in (None, 0.25):
            point = harness._point(config, prof, sigma_x2)
            want = (prof.natural_sigma_x2 if sigma_x2 is None else sigma_x2, prof.k_tiq,
                    budget.sigma_v2, budget.sigma_q2, budget.p_x_soi)
            got = (point.sigma_x2, point.k_tiq, point.sigma_v2, point.sigma_q2, point.p_x_soi)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            channels = synthesize_channels(prof, 8, 6, seed=SEED + 1, sigma_x2=sigma_x2)
            for name in ("h", "g", "h_imd", "g_imd"):
                assert (getattr(point.channels, name).tobytes()
                        == getattr(channels, name).tobytes()), name


def _trial_loop(type2, trials=3, n=3000 + M, clock=None):
    """An ``iter_trials`` generator over ``trials`` trials of type2 at -5 dBm,
    one trial a group."""
    prof = type2.with_tx_power(-5.0)
    config = ExperimentConfig(experiment="bias", profile=prof, trials=trials,
                              seed=SEED)
    point = operating_point(prof, synthesize_channels(prof, M, N, seed=SEED),
                            compute_noise_budget(prof))
    return harness.iter_trials(config, [point], n, clock or harness.PhaseClock())


def test_run_trials_equals_one_call_per_trial(type2):
    """run_trials runs the jobs of two points, a plain ALMS job at twice its
    bound (it overflows) and a Newton job, in one call per trial: it
    returns each job's runs by label in the order given, one per trial in
    trial order, each bit for bit the run of its job alone on the trial's
    reference and observation, and its clock counts the trials
    ``_diverged`` flags on those runs; each job's residual and tap rows,
    handed to all its trials, end as the trial-order sums of its one-job
    rows. A pass whose points differ in k_tiq is refused."""
    config = ExperimentConfig(experiment="bias", profile=type2, trials=2, seed=SEED)
    n = 3000 + M
    steps, kept = n - M + 1, -(-(n - M + 1) // 7)
    low, high = (harness._point(config, type2.with_tx_power(tx)) for tx in (-5.0, 5.0))
    k = type2.k_tiq

    def rows():
        return dict(residuals=np.full(steps, -0.0), taps=np.full((kept, 2), -0.0j))

    points = [
        (low, {"plain": Job(2 * alms_ms_bound(low.sigma_x2, M), **rows())}),
        (high, {"newton": Job(0.01, N, preconditioner=newton_preconditioner(
            rb_matrix(high.sigma_x2, k, M, N), M, N), **rows())})]
    trial_rows = [stack_trials(config, point, n) for point, _ in points]
    sums = {label: rows() for _, jobs in points for label in jobs}
    options = dict(track_taps=(0, 5), tap_stride=7)
    clock = harness.PhaseClock()
    runs = harness.run_trials(config, points, n, clock, keep=lambda run: run, **options)
    assert list(runs) == ["plain", "newton"]
    diverged = {}
    for (xs, ds), (point, jobs) in zip(trial_rows, points):
        for label, job in jobs.items():
            assert len(runs[label]) == config.trials
            for t, run in enumerate(runs[label]):
                alone = job._replace(z=xs[t], d=ds[t], **rows())
                [want] = run_jobs([alone], M, k, **options)
                for name in (f.name for f in dataclasses.fields(JobRun)):
                    got, value = getattr(run, name), getattr(want, name)
                    assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), \
                        (label, name)
                if harness._diverged(want):
                    diverged[label] = diverged.get(label, 0) + 1
                with np.errstate(over="ignore", invalid="ignore"):
                    for name, total in sums[label].items():
                        total += getattr(alone, name)
    assert clock.diverged == diverged == {"plain": 2}
    for _, jobs in points:
        for label, job in jobs.items():
            for name, total in sums[label].items():
                assert getattr(job, name).tobytes() == total.tobytes(), (label, name)
    # a pass runs in kernel calls of one M and one k_tiq
    other = dataclasses.replace(high, k_tiq=2 * k)
    with pytest.raises(ValueError, match="share M and k_tiq"):
        harness.run_trials(config, [points[0], (other, points[1][1])], n,
                           harness.PhaseClock())


def test_run_trials_lays_the_lanes_out_job_major(type2, tmp_path, monkeypatch):
    """A kernel call runs each job over the group's trials side by side:
    convergence's calls hold its three jobs (optimal, whitened,
    suboptimal) one after another, each over lanes / gcd(lanes, 3)
    consecutive trials, so on 8 lanes each job fills a vector alone and
    only the whitened job's carries a preconditioner."""
    calls = []  # (step size, has a preconditioner, source row) of each job
    real = harness.run_jobs

    def recorded(jobs, *args, **options):
        calls.append([(job.mu, job.preconditioner is not None, job.z.ctypes.data)
                      for job in jobs])
        return real(jobs, *args, **options)

    monkeypatch.setattr(harness, "run_jobs", recorded)
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=5,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    run_experiment(cfg)
    group = _native.lanes() // math.gcd(_native.lanes(), 3)
    assert [len(call) for call in calls] == _call_jobs(cfg.trials, (3,), points=2)
    for call in calls:
        trials = len(call) // 3
        jobs = [call[k:k + trials] for k in range(0, len(call), trials)]
        # one step size and preconditioner per job, the trials' rows in order
        assert [len({(mu, pre) for mu, pre, _ in job}) for job in jobs] == [1, 1, 1]
        assert [pre for (_, pre, _), *_ in jobs] == [False, True, False]
        rows = [[z for _, _, z in job] for job in jobs]
        assert rows[0] == rows[1] == rows[2] and len(set(rows[0])) == trials
    assert len(calls[0]) == 3 * min(group, cfg.trials)


@pytest.mark.parametrize("experiment, widths, calls_at_50", [
    ("bias", (2, 2), 13), ("bounds-probe", (4, 4), 25)])
def test_one_point_passes_run_one_width_per_vector(experiment, widths, calls_at_50,
                                                   type2, tmp_path, monkeypatch):
    """bias and bounds-probe lay a call out width-major, ALMS (N = 0) jobs
    before ANCLMS ones, each job over the group's trials: every vector of a
    call of a whole group holds jobs of one N. On 8 lanes a group is 4 bias
    trials and 2 bounds-probe trials, so 50 trials take 13 and 25 calls."""
    calls = []  # the N of each job of each call
    real = harness.run_jobs

    def recorded(jobs, *args, **options):
        calls.append([job.N for job in jobs])
        return real(jobs, *args, **options)

    monkeypatch.setattr(harness, "run_jobs", recorded)
    lanes = _native.lanes()
    cfg = ExperimentConfig(experiment=experiment, profile=type2,
                           trials=50 if lanes == 8 else 5, iterations=3000,
                           seed=SEED, output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    assert [len(call) for call in calls] == _call_jobs(cfg.trials, widths)
    for call in calls:
        assert call == sorted(call)
        if len(call) == len(calls[0]):
            for first in range(0, len(call), lanes):
                assert len(set(call[first:first + lanes])) == 1, call
    if lanes == 8:
        assert meta["lms_calls"] == str(calls_at_50) and meta["lms_lane_fill"] == "1"


def test_power_budget_draws_its_source_once(type2, tmp_path, monkeypatch):
    """power-budget renders trial 0 at every grid point from one source
    row: one draw with seed ``config.seed``, one observation per point,
    both phases timed."""
    seeds = []
    real = harness.gen_proper_gaussian
    monkeypatch.setattr(harness, "gen_proper_gaussian", lambda n, seed, **k:
                        seeds.append(seed) or real(n, seed, **k))
    cfg = ExperimentConfig(experiment="power-budget", profile=type2,
                           tx_grid_dbm=(0.0, 10.0, 20.0), seed=SEED, output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    assert seeds == [SEED]
    assert int(meta["samples"]) == 100_000
    assert int(meta["samples_rendered"]) == 3 * 100_000
    assert float(meta["phase.generate_s"]) > 0 and float(meta["phase.render_s"]) > 0


def test_trials_are_made_only_when_asked_for(type2, tmp_path, monkeypatch):
    """A 3-trial sweep point generates trials 0, 1 and 2 once each, in
    order, and a 1-trial config generates trial 0 alone."""
    seeds = []
    real = harness.gen_proper_gaussian
    monkeypatch.setattr(harness, "gen_proper_gaussian", lambda n, seed, **k:
                        seeds.append(seed) or real(n, seed, **k))
    cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2, trials=3,
                           iterations=3000, tx_grid_dbm=(-5.0,), seed=SEED,
                           output_dir=tmp_path)
    run_experiment(cfg)
    assert seeds == [SEED, SEED + 1, SEED + 2]
    seeds.clear()
    assert len(list(_trial_loop(type2, trials=1))) == 1
    assert seeds == [SEED]


def test_trial_rows_match_one_thread(type2):
    """The rows handed over equal the trials rendered one after another
    without a producer thread, and trial t's rows stay intact until trial
    t + 1 is asked for."""
    prof = type2.with_tx_power(-5.0)
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof)
    n = 3000 + M
    for t, [(draw, [d])] in enumerate(_trial_loop(type2, trials=4, n=n)):
        want = gen_proper_gaussian(n, seed=SEED + t)
        want_d = render_observation(want.reference(prof.natural_sigma_x2),
                                    operating_point(prof, channels, budget),
                                    seed=SEED + harness._NOISE_SEED_OFFSET + t)
        time.sleep(0.02)  # the producer renders trial t + 1 meanwhile
        assert np.array_equal(draw.samples, want.samples)
        assert np.array_equal(d, want_d)


def test_phase_clock_counts_exactly_across_threads(type2):
    """With a thread switch forced every microsecond, every count of the
    producer and of the caller lands: 200 trials count 200 n samples."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clock = harness.PhaseClock()
        for _ in _trial_loop(type2, trials=200, n=64, clock=clock):
            with clock.phase("lms"):
                clock.trial_steps += 1
    finally:
        sys.setswitchinterval(interval)
    assert clock.samples == 200 * 64 and clock.trial_steps == 200
    assert all(s > 0 for s in clock.seconds.values()), clock.seconds


def test_producer_error_reaches_the_caller(type2, tmp_path, monkeypatch):
    """An error rendering a trial is raised in the caller, and out of the
    CLI, with its own type, and the producer thread is gone."""
    real = harness.render_observations

    def render(x, *args, seed, **kwargs):
        if seed == SEED + harness._NOISE_SEED_OFFSET + 1:
            raise ValueError("render failed on trial 1")
        return real(x, *args, seed=seed, **kwargs)

    monkeypatch.setattr(harness, "render_observations", render)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="trial 1"):
        list(_trial_loop(type2))
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match="trial 1"):
        cli_main(["bias", "--trials", "3", "--iterations", "3000",
                  "--out", str(tmp_path)])
    assert threading.active_count() == threads


def test_producer_makes_every_group_on_one_thread(type2, monkeypatch):
    """One long-lived producer thread, named ``fdsic-trials``, makes every
    group of a run of four groups: it lives for the whole loop instead of
    a thread per group, each of which would take fresh malloc-arena
    memory."""
    threads = []  # the thread that made each trial
    real = harness._trial
    monkeypatch.setattr(harness, "_trial", lambda *a: threads.append(
        (threading.get_ident(), threading.current_thread().name)) or real(*a))
    assert len(list(_trial_loop(type2, trials=4))) == 4
    assert len(threads) == 4 and len(set(threads)) == 1
    assert threads[0][0] != threading.get_ident() and threads[0][1] == "fdsic-trials"


def test_caller_error_or_close_joins_the_producer(type2):
    """An error in the caller's loop, or closing the generator after one
    trial, ends the producer thread."""
    threads = threading.active_count()
    with pytest.raises(KeyError):
        for _ in _trial_loop(type2):
            raise KeyError("caller failed")
    assert threading.active_count() == threads
    trials = _trial_loop(type2)
    next(trials)
    assert threading.active_count() == threads + 1
    trials.close()
    assert threading.active_count() == threads


def test_convergence_leaves_the_bound_uncomputed(type2, tmp_path, monkeypatch):
    """convergence reads S, T and R of its fourth-moment analysis for the
    transient overlay, never the mean-square bound, so the bound's
    factorisation and eigensolve never run."""
    analyses = []
    real = harness.anclms_ms_analysis
    monkeypatch.setattr(harness, "anclms_ms_analysis",
                        lambda *a: analyses.append(real(*a)) or analyses[-1])
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=1,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    run_experiment(cfg)
    assert len(analyses) == 1 and "bound" not in vars(analyses[0])


_MEDIAN_CASES = {
    "single": [3.0],
    "even2": [2.0, 1.0],
    "odd3": [5.0, -1.0, 2.0],
    "even4": [0.1, 0.7, 0.2, 0.3],
    "odd201": list(np.random.default_rng(SEED).normal(size=201)),
    "even200-huge": list(np.random.default_rng(SEED + 1).normal(size=200) * 1e300),
    "odd-infs": [np.inf, 1.0, -np.inf],
    "even-opposite-infs": [np.inf, -np.inf],
    "even-inf": [np.inf, 1.0],
    "even-minus-infs": [-np.inf, -np.inf],
    "nan": [1.0, np.nan, 2.0],
    "nan-alone": [np.nan],
    "nan-even": [1.0, 2.0, np.nan, -np.inf],
    "int-odd": [7, 2, 9],
    "int-even": [4, 1, 3, 8],
    "int-above-2**53": [2 ** 60 + 1, 3, 2 ** 60 + 3, 5],
    "int-single": [-5],
}


@pytest.mark.parametrize("values", _MEDIAN_CASES.values(), ids=_MEDIAN_CASES)
def test_median_equals_numpys(values):
    """``harness._median`` returns ``np.median``'s bits on odd and even
    counts, infinities, NaN, integers and a single value."""
    with np.errstate(invalid="ignore"):  # inf - inf in numpy's mean
        want = np.median(np.array(values))
    got = harness._median(np.array(values))
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
    assert harness._median(values) == got or math.isnan(got)


def test_sweep_memory_does_not_grow_with_trials(type2, tmp_path):
    """The sweep holds two groups of trials' samples at a time, a group the
    lanes / gcd(lanes, 2) trials whose two jobs share a kernel call: its
    traced peak at 8 groups' trials stays within 1.25x of its peak at 2
    groups' (a first, untraced run takes the one-time allocations of the
    process)."""
    group = _native.lanes() // math.gcd(_native.lanes(), 2)
    peaks = {}
    for trials in (1, 2 * group, 8 * group):
        cfg = ExperimentConfig(experiment="sinr-sweep", profile=type2,
                               trials=trials, iterations=20_000,
                               tx_grid_dbm=(-5.0,), seed=SEED,
                               output_dir=tmp_path / str(trials))
        if trials == 1:
            run_experiment(cfg)
            continue
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8 * group] <= 1.25 * peaks[2 * group], peaks


def test_convergence_memory_does_not_grow_with_trials(type2, tmp_path):
    """convergence holds two groups of trials' rows at a time, a group the
    lanes / gcd(lanes, 3) trials whose three jobs share a kernel call, and
    sums each run's rows of residual powers as the trials come, into one
    row per run, not in a (steps, trials) matrix per run: its traced peak
    at 8 groups' trials stays within 1.25x of its peak at 2 groups' (a
    first, untraced run takes the one-time allocations of the process)."""
    group = _native.lanes() // math.gcd(_native.lanes(), 3)
    peaks = {}
    for trials in (1, 2 * group, 8 * group):
        cfg = ExperimentConfig(experiment="convergence", profile=type2,
                               trials=trials, iterations=20_000, seed=SEED,
                               output_dir=tmp_path / str(trials))
        if trials == 1:
            run_experiment(cfg)
            continue
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8 * group] <= 1.25 * peaks[2 * group], peaks


@pytest.mark.parametrize("experiment", ["sinr-sweep", "convergence"])
def test_kept_results_do_not_grow_with_trials(experiment, type2, tmp_path):
    """A runner keeps only what it reads of each trial's runs
    (``run_trials``' ``keep``): the sweep a steady-state MSE a job,
    convergence nothing. 256 more trials of 3000 steps raise its traced
    peak by under 1 KB a trial, where keeping each trial's ``JobRun``
    records would add about 2 KB (sweep) and 3.3 KB (convergence) a trial
    (a first, untraced run takes the one-time allocations of the
    process)."""
    peaks = {}
    for trials in (1, 16, 272):
        cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=trials,
                               iterations=3000, tx_grid_dbm=(-5.0,), seed=SEED,
                               output_dir=tmp_path / str(trials))
        if trials == 1:
            run_experiment(cfg)
        else:
            peaks[trials] = _traced_peak(cfg)
    assert peaks[272] - peaks[16] < 256 * 1024, peaks


def _traced_peak(config: ExperimentConfig) -> int:
    """The ``tracemalloc`` peak of running ``config``, in bytes."""
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bias_memory_does_not_grow_with_trials(type2, tmp_path):
    """bias sums each job's taps as the trials come and keeps only each
    trial's window-mean weights, in place of a matrix per job over the
    trials: the traced peaks of 4 and 16
    trials differ by less than 1 MB, where 12 more trials' kept taps of the
    four jobs would take 4.6 MB (a first, untraced run takes the one-time
    allocations of the process)."""
    peaks = {}
    for trials in (1, 4, 16):
        cfg = ExperimentConfig(experiment="bias", profile=type2, trials=trials,
                               iterations=3000, seed=SEED,
                               output_dir=tmp_path / str(trials))
        if trials == 1:
            run_experiment(cfg)
        else:
            peaks[trials] = _traced_peak(cfg)
    assert abs(peaks[16] - peaks[4]) < 1e6, peaks


def test_power_budget_memory_does_not_grow_with_points(type2, tmp_path):
    """power-budget drops a point's seven 100k-sample component rows
    before the next point renders: the traced peak of a three-point grid
    stays within 1 MB of a one-point grid's (a first, untraced run takes
    the one-time allocations of the process)."""
    peaks = {}
    for name, grid in (("warm", (0.0,)), ("one", (0.0,)), ("three", (0.0, 10.0, 20.0))):
        cfg = ExperimentConfig(experiment="power-budget", profile=type2,
                               tx_grid_dbm=grid, seed=SEED, output_dir=tmp_path / name)
        if name == "warm":
            run_experiment(cfg)
        else:
            peaks[name] = _traced_peak(cfg)
    assert peaks["three"] - peaks["one"] < 1e6, peaks


def test_resolve_profile_default():
    prof = resolve_profile(None)
    assert prof.rf_separation_db == 30.0


def test_bias_plateau_earlier_for_larger_mu(type2, tmp_path):
    """The larger step size settles onto its bias plateau in fewer iterations."""
    cfg = ExperimentConfig(experiment="bias", profile=type2, trials=10,
                           iterations=10_000, seed=SEED, output_dir=tmp_path)
    report = run_experiment(cfg)
    traces = report.tables["traces"]

    def settle(curve):
        plateau = np.median(curve[-len(curve) // 5:])
        above = np.nonzero(curve > 1.5 * plateau)[0]
        return above[-1] if above.size else 0

    assert settle(traces["alms_mu0.1_tap1"]) < settle(traces["alms_mu0.05_tap1"])


def test_bounds_probe_records_first_divergence(type2, tmp_path):
    """meta.txt names the transmit power probed, the first of the grid, the
    probed step sizes and, for each, when the diverged trials blew up, and
    counts the diverged trials of each as the CSV does."""
    cfg = ExperimentConfig(experiment="bounds-probe", profile=type2, trials=2,
                           iterations=6000, tx_grid_dbm=(-5.0, 10.0), seed=SEED,
                           output_dir=tmp_path)
    report = run_experiment(cfg)
    lines = _meta(report)
    assert lines["tx_power_dbm"] == "-5"
    for row in report.tables["rows"]:
        label = f"{row['variant']}_mu{row['mu_frac']:g}"
        assert int(lines.get(f"diverged_trials[{label}]", 0)) == row["n_diverged"]
    assert lines["mu_frac"] == "0.5,0.9,1.1,1.5"
    assert lines["mu_bound"] == "alms_ms_bound,anclms_ms_bound"
    notes = {k: v for k, v in lines.items() if k.startswith("first_divergence[")}
    assert len(notes) == 8
    for variant in ("alms", "anclms"):
        assert notes[f"first_divergence[{variant}_mu0.5]"] == "none"
        n, earliest, median = re.fullmatch(
            r"n=(\d+) earliest=(\d+) median=([\d.]+)",
            notes[f"first_divergence[{variant}_mu1.5]"]).groups()
        assert int(n) == 2 and 0 < int(earliest) <= float(median) < 6000


def test_bias_check_at_infinite_irr(type2, tmp_path):
    """Image taps without theoretical bias (irr = inf) keep a finite error."""
    prof = dataclasses.replace(type2, irr_db=math.inf)
    cfg = ExperimentConfig(experiment="bias", profile=prof, trials=2,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(cfg)
    table = report.tables["bias_taps"]
    assert np.all(table["theory_abs"][N:] == 0)
    assert np.all(np.isfinite(table["rel_error"]))


def _perfbench_tracing(monkeypatch):
    """The benchmark's ``perfbench/tracing.py``, loaded without writing its
    bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_targets_resolve(monkeypatch):
    """Every (module, attribute) the benchmark tracer wraps is a callable of
    an fdsic module, though the package itself may no longer call it."""
    tracing = _perfbench_tracing(monkeypatch)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert module.split(".")[0] == "fdsic", module
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_benchmark_tracer_installs(tmp_path, monkeypatch):
    """The tracer's wrappers install over their targets, and a run through
    them records the spans of its layers."""
    tracing = _perfbench_tracing(monkeypatch)
    for module, attr, _, _ in tracing.TARGETS:
        mod = importlib.import_module(module)
        # install rebinds the name; the test's end restores it
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    recorder = tracing.Recorder("test", timed=True)
    tracing.install(recorder)
    for source in ("gaussian", "ofdm"):
        recorder.spans.clear()
        recorder.counts.clear()
        assert cli_main(["power-budget", "--source", source, "--tx-grid", "0",
                         "--out", str(tmp_path / source)]) == 0
        names = {span.name for span in recorder.spans}
        generator = ("signals.gen_ofdm_waveform" if source == "ofdm"
                     else "signals.gen_proper_gaussian")
        assert {"harness.run_experiment", generator,
                "transceiver.synthesize_channels", "io.write_csv",
                "io.line_plot"} <= names, names
        # power-budget renders 100,000 samples per grid point, and the
        # source draws exactly those
        assert recorder.counts["signals.samples"] == 100_000, source
