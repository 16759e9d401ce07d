import dataclasses
import importlib
import importlib.util
import json
import math
import os
import re
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
from fdsic.cancellers import (BatchRun, CancellerConfig, Job, newton_preconditioner,
                              run_batch, run_jobs)
from fdsic.cli import main as cli_main
from fdsic.cli import parse_tx_grid
from fdsic.harness import (ExperimentConfig, resolve_profile, run_experiment,
                           write_csv)
from fdsic.theory import alms_ms_bound, rb_matrix
from fdsic.signals import gen_proper_gaussian
from fdsic.transceiver import (builtin_profile, compute_noise_budget,
                               render_observation, synthesize_channels)

from conftest import M, N, SEED, stack_trials


def test_parse_tx_grid():
    assert parse_tx_grid("-5:25:5") == (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    assert parse_tx_grid("0,10,20") == (0.0, 10.0, 20.0)
    with pytest.raises(ValueError):
        parse_tx_grid("5:0:1")


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
        report = harness.ExperimentReport(experiment)
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
    cfg = CancellerConfig(mu=mu, M=M, k_tiq=prof.k_tiq)
    config = ExperimentConfig(experiment="bias", profile=prof, trials=20,
                              seed=SEED)
    xs, ds = stack_trials(config, prof, channels, budget,
                          prof.natural_sigma_x2, 12_000 + M)
    run = run_batch(xs, ds, cfg, keep_residuals=False)
    mse = run.steady_state_mse
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


def test_cli_runs_power_budget(tmp_path):
    code = cli_main(["power-budget", "--profile", "type2", "--tx-grid", "0,20",
                     "--out", str(tmp_path), "--check"])
    assert code == 0
    assert (tmp_path / "power-budget.csv").exists()
    assert (tmp_path / "power-budget.svg").exists()
    assert (tmp_path / "meta.txt").exists()


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


def _cli_config(argv, monkeypatch) -> ExperimentConfig:
    """The ExperimentConfig that ``cli.main(argv)`` hands to run_experiment."""
    configs = []

    def record(config):
        configs.append(config)
        return harness.ExperimentReport(config.experiment)

    monkeypatch.setattr(cli, "run_experiment", record)
    assert cli_main(argv) == 0
    [config] = configs
    return config


def test_cli_defaults_are_the_config_defaults(monkeypatch):
    """An experiment name alone gives ExperimentConfig's defaults, the type2
    profile and the output directory ``out``."""
    assert _cli_config(["bias"], monkeypatch) == ExperimentConfig(
        experiment="bias", profile=builtin_profile("type2"), output_dir=Path("out"))


def test_cli_options_match_config_file_keys(tmp_path, monkeypatch):
    """Every command-line option, written under its name in a --config file,
    gives the same config as on the command line."""
    values = {"profile": "type1", "trials": "3", "mu-frac": "0.1", "mu": "1e-3",
              "tx-grid": "0:10:5", "source": "ofdm", "iterations": "4000",
              "seed": "5", "M": "6", "N": "3", "out": str(tmp_path / "o"),
              "check": "on"}
    assert set(values) == set(cli.OPTIONS)
    argv = ["bias"]
    for option, value in values.items():
        argv += [f"--{option}"] if option == "check" else [f"--{option}", value]
    from_argv = _cli_config(argv, monkeypatch)
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert _cli_config(["bias", "--config", str(conf)], monkeypatch) == from_argv
    assert from_argv != ExperimentConfig(experiment="bias", profile=from_argv.profile)
    for field, value in (("trials", 3), ("mu_abs", 1e-3), ("check", True),
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
    # the type2 image branches render power; claim the budget has none
    real = harness.compute_power_budget
    monkeypatch.setattr(harness, "compute_power_budget", lambda *a: [
        dataclasses.replace(row, image_si_dbm=-math.inf) for row in real(*a)])
    code = cli_main(["power-budget", "--check", "--tx-grid", "0,20",
                     "--out", str(tmp_path / "stray")])
    assert code == 3
    assert meta(tmp_path / "stray")[check].startswith("FAIL")
    assert "power where none is due in image_si" in meta(tmp_path / "stray")[check]


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
    ["power-budget", "--config", "{tmp}"],  # a directory
    ["power-budget", "--out", "{tmp}/a-file"],
    ["power-budget", "--out", "{tmp}/a-file/run"],
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


def test_cli_import_skips_the_filter_module():
    """The package needs numpy alone: importing the CLI loads no scipy module
    (scipy took about 0.5 s and 49 MB to import)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, fdsic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_kernel():
    """Importing the CLI neither compiles nor loads the C library."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import fdsic.cli; from fdsic import _native; "
            "print(_native.library.cache_info().currsize)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


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
    assert [count for count, _ in lms_calls] == _call_jobs(cfg.trials, 3)
    assert float(meta["lms_lane_fill"]) == pytest.approx(_lane_fill(lms_calls), abs=1e-4)
    assert meta["whitening"] == "exact rb_matrix inverse"


def test_convergence_whitening_speedup_at_seed_22(type2, tmp_path):
    """At seed 22, where a whitening transform fitted on a sampled
    preamble fell short (5800 vs 7200 iterations), the exact one passes."""
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=50,
                           iterations=20_000, seed=22, output_dir=tmp_path,
                           check=True)
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

    def counted(jobs, **options):
        runs = real(jobs, **options)
        calls.append((len(runs), _native.lanes()))
        return runs

    monkeypatch.setattr(harness, "run_jobs", counted)
    return calls


def _lane_fill(calls) -> float:
    """The jobs of ``calls`` over the lanes they offered, whole vectors."""
    return sum(jobs for jobs, _ in calls) / sum(-(-jobs // lanes) * lanes
                                                for jobs, lanes in calls)


def _call_jobs(trials: int, jobs: int) -> list[int]:
    """The jobs of each kernel call of a pass of ``jobs`` jobs per trial
    over ``trials`` trials: one call per lanes / gcd(lanes, jobs)
    consecutive trials, ``lanes`` the build's lanes per vector."""
    lanes = _native.lanes()
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
    # all jobs of a trial (4 and 2) in one kernel call, and those of both
    # trials where the lanes have room for them
    jobs = trial_steps // (2 * 3001)
    assert int(meta["lms_calls"]) == len(_call_jobs(2, jobs))
    assert [count for count, _ in lms_calls] == _call_jobs(2, jobs)
    assert int(meta["lms_lanes"]) == max(lanes for _, lanes in lms_calls)
    assert float(meta["lms_lane_fill"]) == pytest.approx(_lane_fill(lms_calls), abs=1e-4)
    assert meta["diverged_trials"] == "0" and meta["first_nonfinite_step"] == "none"


_IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path
from fdsic.harness import ExperimentConfig, run_experiment
from fdsic.transceiver import builtin_profile
out = Path(tempfile.mkdtemp())
for experiment in ("bias", "sinr-sweep"):
    run_experiment(ExperimentConfig(experiment=experiment, profile=builtin_profile("type2"),
                                    trials=3, iterations=3000, tx_grid_dbm=(-5.0, 5.0, 15.0),
                                    output_dir=out / experiment))
loaded = sorted(name for name in ("numpy.random", "_hashlib", "hashlib", "secrets")
                if name in sys.modules)
sys.path.insert(0, sys.argv[1])
from test_golden import GOLDEN, experiment_digests  # hashes with hashlib
want = {k: v for k, v in json.loads(GOLDEN.read_text()).items() if k.startswith("bias-ofdm/")}
ofdm_matches = experiment_digests(out / "golden", ("bias-ofdm",)) == want
print(json.dumps([loaded, "numpy.random" in sys.modules, ofdm_matches]))
"""


def test_gaussian_runs_import_no_numpy_random():
    """Gaussian bias and sinr-sweep runs in a fresh process draw their
    channels, sources and noise without importing ``numpy.random`` or
    OpenSSL's ``_hashlib`` (each adds resident memory), and an OFDM run
    after them imports ``numpy.random`` for its symbols and still matches
    its golden digests."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tests)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, ofdm_loaded, ofdm_matches = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
    assert ofdm_loaded and ofdm_matches


@pytest.mark.parametrize("experiment", ["bias", "power-budget"])
def test_kernel_build_is_not_timed_as_generation(experiment, type2, tmp_path,
                                                 monkeypatch):
    """With no cached library, the kernels are compiled on the caller's
    thread before the run draws its first trial (before the trial loop's
    producer starts), so the compile does not count as the generate
    phase."""
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


@pytest.mark.parametrize("experiment, trials, jobs", [
    ("bounds-probe", 2, 8),   # 2 trials of 8 jobs: one call each
    # 2 trials of 3 jobs: the optimal, the whitened (Newton) and the
    # suboptimal jobs share a trial's call as lanes, both trials' on 8 lanes
    ("convergence", 2, 3),
])
def test_meta_names_the_lms_path(experiment, trials, jobs, type2, tmp_path, lms_calls):
    """meta.txt counts the LMS kernel calls and names the widest lane count
    the kernel reported running them in, the build's own."""
    cfg = ExperimentConfig(experiment=experiment, profile=type2, trials=trials,
                           iterations=3000, tx_grid_dbm=(-5.0,), seed=SEED,
                           output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    assert int(meta["lms_calls"]) == len(lms_calls) == len(_call_jobs(trials, jobs))
    assert [count for count, _ in lms_calls] == _call_jobs(trials, jobs)
    assert int(meta["lms_lanes"]) == max(lanes for _, lanes in lms_calls)
    assert int(meta["lms_lanes"]) == _native.lanes()
    # both run the fourth-moment analysis, timed as the theory phase
    assert 0 < float(meta["phase.theory_s"]) <= float(meta["duration_s"]) + 0.05


def test_theory_runs_on_one_blas_thread(type2, tmp_path, monkeypatch):
    """convergence's fourth-moment analysis and transient run with numpy's
    OpenBLAS on one thread, and the thread count it had is restored after
    the run."""
    lib = harness._openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    threads = []
    for name in ("anclms_ms_analysis", "anclms_transient"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, real=real: threads.append(
            lib.scipy_openblas_get_num_threads64_()) or real(*a))
    before = lib.scipy_openblas_get_num_threads64_()
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=1,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    run_experiment(cfg)
    assert threads == [1, 1]
    assert lib.scipy_openblas_get_num_threads64_() == before


@pytest.mark.parametrize("experiment, options, jobs, calls, fill", [
    ("bias", dict(iterations=3000), 4, 25, "1"),
    ("sinr-sweep", dict(iterations=3000, tx_grid_dbm=(15.0, 25.0)), 4, 25, "1"),
    ("convergence", dict(iterations=20_000), 3, 7, "0.9868"),
], ids=["bias", "sweep-long", "convergence"])
def test_meta_pairs_the_trials_on_eight_lanes(experiment, options, jobs, calls, fill,
                                              type2, tmp_path):
    """At 8 lanes, the 50 trials of the benchmark's workloads fill the
    vectors of their kernel calls: bias's and sweep-long's 4 jobs run two
    trials to a call, all 8 lanes of 25 calls; convergence's 3 jobs run
    eight trials to a call, three whole vectors each, and the last 2 trials'
    6 jobs share one vector (150 jobs in 152 lanes); every trial still takes
    every step of every job."""
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
    calls = [count for k in jobs for count in _call_jobs(cfg.trials, k)]
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


def test_nonfinite_observation_is_a_diverged_trial(type2, tmp_path, monkeypatch):
    """A source row holding a NaN renders a non-finite observation from
    that sample on: the run completes, and meta.txt names every job as
    diverged on that trial, first non-finite at the step that reads the
    sample."""
    real = harness.gen_proper_gaussian

    def source(n, seed, **kwargs):
        draw = real(n, seed, **kwargs)
        if seed == SEED + 1:
            draw.samples[100] = np.nan
        return draw

    monkeypatch.setattr(harness, "gen_proper_gaussian", source)
    cfg = ExperimentConfig(experiment="bias", profile=type2, trials=2,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    meta = _meta(run_experiment(cfg))
    step = str(100 - (cfg.M - 1))
    diverged = {key: value for key, value in meta.items()
                if key.startswith("diverged_trials[")}
    assert len(diverged) == 4 and set(diverged.values()) == {"1"}, diverged
    assert meta["diverged_trials"] == "4"
    assert meta["first_nonfinite_step"] == step
    for key in diverged:
        label = key.removeprefix("diverged_trials")
        assert meta[f"first_nonfinite_step{label}"] == step


def test_phase_clock_counts_diverged_trials():
    """count_lms flags, by job, a trial that went non-finite or whose peak
    residual exceeds 1e3 times its mean |d|^2, keeps each job's earliest
    non-finite step, and counts the lanes the calls filled: a 3-job call in
    4 lanes, then a 1-job call in 1, then one call of two trials' 4 jobs in
    8 lanes; ``lms_lanes`` names the lanes of the last call."""
    x = gen_proper_gaussian(3000, seed=30).reference(1.0)
    xs = np.stack([x] * 3)
    calm = run_batch(xs, xs, CancellerConfig(mu=0.01, M=M), keep_residuals=False)
    grown = dataclasses.replace(calm, peak_residual=np.array([0.5, 2e3, 999.0]))
    broken = dataclasses.replace(calm, diverged=np.array([False, True, True]),
                     diverged_at=np.array([-1, 70, 40]))
    clock = harness.PhaseClock()
    [masks] = clock.count_lms([({"calm": calm, "grown": grown, "broken": broken},
                                {"calm": 1.0, "grown": 1.0, "broken": 1.0})], 4)
    assert {label: mask.tolist() for label, mask in masks.items()} == {
        "calm": [False] * 3, "grown": [False, True, False], "broken": [False, True, True]}
    clock.count_lms([({"broken": dataclasses.replace(broken, diverged_at=np.array([-1, 90, 55]))},
                      {"broken": 1.0})], 1)
    lines = clock.meta_lines()
    for line in ("diverged_trials = 5", "first_nonfinite_step = 40",
                 "diverged_trials[grown] = 1", "diverged_trials[broken] = 4",
                 "first_nonfinite_step[broken] = 40", "lms_calls = 2",
                 "lms_lanes = 1", "lms_lane_fill = 0.8"):
        assert line in lines, line
    assert not any("[calm]" in line for line in lines)
    # two trials of one call, each with its own powers and its own masks
    wide = {"calm": calm, "grown": grown}
    first, second = clock.count_lms([(wide, {"calm": 1.0, "grown": 1.0}),
                                     (wide, {"calm": 1.0, "grown": 3.0})], 8)
    assert first["grown"].tolist() == [False, True, False]
    assert not second["grown"].any()
    lines = clock.meta_lines()
    for line in ("lms_calls = 3", "lms_lanes = 8", "lms_lane_fill = 0.6154",
                 "diverged_trials[grown] = 2"):
        assert line in lines, line


def _trial_loop(type2, trials=3, n=3000 + M, clock=None):
    """An ``iter_trials`` generator over ``trials`` trials of type2 at -5 dBm,
    one trial a group."""
    prof = type2.with_tx_power(-5.0)
    config = ExperimentConfig(experiment="bias", profile=prof, trials=trials,
                              seed=SEED)
    point = harness.Point(prof, synthesize_channels(prof, M, N, seed=SEED),
                          compute_noise_budget(prof), prof.natural_sigma_x2)
    return harness.iter_trials(config, [point], n, clock or harness.PhaseClock())


def test_run_trials_equals_one_call_per_trial(type2):
    """run_trials runs the jobs of two points, a plain ALMS job at twice its
    bound (it overflows) and a Newton job, in one call per trial: the runs
    come back by label in the order given, each bit for bit the run of its
    job alone on the trial's reference and observation, and so do the
    trials ``_diverged`` flags."""
    config = ExperimentConfig(experiment="bias", profile=type2, trials=2, seed=SEED)
    n = 3000 + M
    low, high = (harness._point(config, type2.with_tx_power(tx)) for tx in (-5.0, 5.0))
    k = type2.k_tiq
    points = [
        (low, {"plain": Job(CancellerConfig(mu=2 * alms_ms_bound(low.sigma_x2, M), M=M,
                                            k_tiq=k), None, None)}),
        (high, {"newton": Job(CancellerConfig(mu=0.01, M=M, N=N, k_tiq=k), None, None,
                              preconditioner=newton_preconditioner(
                                  rb_matrix(high.sigma_x2, k, M, N), M, N))})]
    rows = [stack_trials(config, *point, n) for point, _ in points]
    trials = []
    for t, runs, diverged in harness.run_trials(config, points, n, harness.PhaseClock(),
                                                track_taps=(0, 5)):
        trials.append(t)
        assert list(runs) == list(diverged) == ["plain", "newton"]
        for (xs, ds), (_, jobs) in zip(rows, points):
            for label, job in jobs.items():
                [want] = run_jobs([job._replace(z=xs[t], d=ds[t])], track_taps=(0, 5))
                for name in (f.name for f in dataclasses.fields(BatchRun)):
                    got, value = getattr(runs[label], name), getattr(want, name)
                    assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), \
                        (label, name)
                assert np.array_equal(diverged[label], harness._diverged(
                    want, harness._mean_power(ds[t])))
        assert diverged["plain"].all() and not diverged["newton"].any()
    assert trials == [0, 1]


def test_run_trials_lays_the_lanes_out_job_major(type2, tmp_path, monkeypatch):
    """A kernel call runs each job over the group's trials side by side:
    convergence's calls hold its three jobs (optimal, whitened,
    suboptimal) one after another, each over lanes / gcd(lanes, 3)
    consecutive trials, so on 8 lanes each job fills a vector alone and
    only the whitened job's carries a preconditioner."""
    calls = []  # (step size, has a preconditioner, source row) of each job
    real = harness.run_jobs

    def recorded(jobs, **options):
        calls.append([(job.config.mu, job.preconditioner is not None, job.z.ctypes.data)
                      for job in jobs])
        return real(jobs, **options)

    monkeypatch.setattr(harness, "run_jobs", recorded)
    cfg = ExperimentConfig(experiment="convergence", profile=type2, trials=5,
                           iterations=3000, seed=SEED, output_dir=tmp_path)
    run_experiment(cfg)
    group = _native.lanes() // math.gcd(_native.lanes(), 3)
    assert [len(call) for call in calls] == _call_jobs(cfg.trials, 3)
    for call in calls:
        trials = len(call) // 3
        jobs = [call[k:k + trials] for k in range(0, len(call), trials)]
        # one step size and preconditioner per job, the trials' rows in order
        assert [len({(mu, pre) for mu, pre, _ in job}) for job in jobs] == [1, 1, 1]
        assert [pre for (_, pre, _), *_ in jobs] == [False, True, False]
        rows = [[z for _, _, z in job] for job in jobs]
        assert rows[0] == rows[1] == rows[2] and len(set(rows[0])) == trials
    assert len(calls[0]) == 3 * min(group, cfg.trials)


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
    without a producer thread, with the mean |d|^2 of each, and trial t's
    rows stay intact until trial t + 1 is asked for."""
    prof = type2.with_tx_power(-5.0)
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof)
    n = 3000 + M
    for t, [(draw, [d], [power])] in enumerate(_trial_loop(type2, trials=4, n=n)):
        want = gen_proper_gaussian(n, seed=SEED + t)
        want_d = render_observation(want.reference(prof.natural_sigma_x2), channels,
                                    budget, prof,
                                    seed=SEED + harness._NOISE_SEED_OFFSET + t)
        time.sleep(0.02)  # the producer renders trial t + 1 meanwhile
        assert np.array_equal(draw.samples, want.samples)
        assert np.array_equal(d, want_d)
        assert power == harness._mean_power(want_d)


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
    sums each run's residual powers as the trials come (``TrialMean``), not
    in a (steps, trials) matrix per run: its traced peak at 8 groups' trials
    stays within 1.25x of its peak at 2 groups' (a first, untraced run takes
    the one-time allocations of the process)."""
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


def _trial_rows(count: int, n: int = 301) -> list[np.ndarray]:
    """``count`` rows of n residual powers spanning 16 decades, with an
    infinity, a NaN and both at once in some columns."""
    rng = np.random.default_rng(count)
    rows = [10.0 ** rng.uniform(-8, 8, n) for _ in range(count)]
    rows[count // 2][3] = np.inf
    rows[-1][4] = np.nan
    rows[0][5] = np.inf
    rows[count // 3][5] = np.nan
    return rows


@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 50, 128, 129, 300])
def test_trial_mean_sums_in_numpys_order(count):
    """TrialMean, fed one row per trial, gives the bits of np.mean and of
    np.add.reduce over axis 1 of the rows stacked as columns (numpy's
    pairwise sum of a contiguous axis), infinities and NaNs included."""
    rows = _trial_rows(count)
    stacked = np.stack(rows, axis=1)
    mean = harness.TrialMean(count)
    for row in rows:
        mean.add(row)
    got = mean.mean()
    assert got.tobytes() == np.mean(stacked, axis=1).tobytes()
    assert got.tobytes() == (np.add.reduce(stacked, axis=1) / count).tobytes()
    assert np.isinf(got[3]) and np.isnan(got[4]) and np.isnan(got[5])
    with pytest.raises(ValueError, match="takes"):
        mean.add(rows[0])


def test_trial_mean_order_is_not_the_sequential_sum():
    """The check above can tell the orders apart: at 50 rows, adding them
    in sequence rounds differently from numpy's pairwise sum, and a
    TrialMean still missing a row has no mean."""
    rows = _trial_rows(50)
    sequential = rows[0].copy()
    for row in rows[1:]:
        sequential += row
    assert (sequential / 50).tobytes() != np.mean(np.stack(rows, axis=1), axis=1).tobytes()
    mean = harness.TrialMean(50)
    for row in rows[1:]:
        mean.add(row)
    with pytest.raises(ValueError, match="49 of its 50"):
        mean.mean()


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
    """meta.txt names the probed step sizes and, for each, when the diverged
    trials blew up, and counts the diverged trials of each as the CSV does."""
    cfg = ExperimentConfig(experiment="bounds-probe", profile=type2, trials=2,
                           iterations=6000, tx_grid_dbm=(-5.0,), seed=SEED,
                           output_dir=tmp_path)
    report = run_experiment(cfg)
    lines = _meta(report)
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
                           iterations=3000, seed=SEED, output_dir=tmp_path,
                           check=True)
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
