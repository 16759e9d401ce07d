"""Experiment runner: sweeps, Monte Carlo trials, CSV/SVG reports.

Every experiment is deterministic for a fixed (config, seed): trial t draws
its source row z with seed ``base_seed + t`` and its receiver noise with
seed ``base_seed + _NOISE_SEED_OFFSET + t``, and the reference of every
transmit power is x = scale z of that one row (``signals.Draw``).
``_trial`` is the one function that applies this rule: it draws the row,
and renders the observations of any number of points from it in one call
(``transceiver.render_observations``), with one noise draw shared by all.
A grid point is a ``transceiver.OperatingPoint``, made by ``_point``: the
one record of it that the render and the closed forms read, so a runner
hands the point it simulates to the theory with each step size.
``run_trials`` is the trial loop of every canceller runner: it runs a pass
over one or more grid points, each with its canceller jobs
(``cancellers.Job``: step size, N and what a job adds to), with the M and
k_tiq the points of the pass share, takes the trials from ``iter_trials``
a group at a time in reused rows, the source row and one observation row
per point of each trial, and runs every job of every point of the pass on
every trial of the group in one LMS kernel call (``run_jobs``), while one
producer thread draws and renders the next group into a second set of
rows. A group of trials fills whole vectors of the kernel build's lanes
(8 on AVX-512, 4 on AVX2, else 1), and the call lays its jobs out
width-major, then job-major (``run_trials``): on 8 lanes, bias's four jobs
run four trials a call and bounds-probe's eight two, one canceller width N
per vector; the sweep's pairs of points run two, and convergence's three
jobs eight, one job per vector, so only the whitened job's vector pays the
LMS-Newton step. So a run holds two groups' rows at a time whatever the
number of trials: the SINR sweep walks its grid in passes of two points,
2 x group x (1 + 2) rows, each call running the ALMS and ANCLMS jobs of
both; convergence runs its two reference powers as one pass, its three
jobs in one call; every other runner runs one point per pass. A runner
still takes its results one trial at a time, in trial order
(``run_trials``), and keeps only its science: it builds the jobs and
reduces the per-trial runs across trials. In convergence and bias a run's
trial mean is its per-step row summed in trial order over the trial
count: the job carries one row, which ``run_trials`` hands to every trial
and into which the kernel adds each trial's records in lane order, so
that no per-trial row is made; bias sums its weight errors in Python as
the trials come, and the sweep keeps a value per trial and takes numpy's
sum of it.
``power-budget`` runs no canceller and renders trial 0 at every grid
point, a point at a time, from one draw, by ``_trial`` alone. Each
plotted curve is backed by a CSV column, and
``meta.txt`` records the busy time of the generate, render and LMS phases,
the time the LMS loop waited for its next trial, the time spent on the
closed-form theory (``phase.theory_s``: bounds, analyses, transients and
the condition landscape, each timed where it runs) and writing CSVs and SVGs
(``phase.output_s``; a runner writes them through ``ExperimentReport``'s
``add_csv`` and ``add_svg``), what the LMS calls ran (``lms_lane_fill``) and
the trials that diverged, by job (``PhaseClock.count_lms`` flags them once
for every runner). ``run_experiment`` is every run's skeleton: it makes the
output directory and the report, times the run and writes ``meta.txt``; a
runner fills the report in, the step size it runs included.

Step-size conventions (fractions of closed-form bounds):

* linear canceller: mu = mu_frac * (mean-square bound 1/((M+1) s2));
* nonlinear canceller, bias/low-power runs: the same mu (both cancellers
  share the step size, so their transients are directly comparable);
* SINR sweep: one shared mu and run length per grid point (DEFAULT_MU_FRAC
  of the linear mean-square bound); a mu at or above that bound at any grid
  point is a configuration error, as the theory has no steady state there.
  The nonlinear canceller starts at the Wiener solution
  ``channels.stacked_nonlinear()``, so its slowest covariance mode
  (eigenvalue lam3) has nothing to converge; the linear canceller, whose
  white regressor has no slow mode, starts at zero;
* whitening comparison: raw runs at 0.005 x the mean-convergence bound of
  their covariance; the whitened run is the LMS-Newton step with the exact
  inverse covariance ``rb_matrix``^-1 (the pre-whitened LMS in original
  coordinates), run as a second job on the optimal-power run's own trials,
  and keeps that run's steady-state misadjustment so only convergence speed
  differs. The exact covariance assumes white Gaussian input, so
  convergence takes no OFDM source.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from resource import RUSAGE_SELF, getrusage

import numpy as np

from . import __version__, _native
# run_batch, regressor_matrix and render_observation are not called here;
# the benchmark's tracer (perfbench/tracing.py) wraps them by name in this
# module
from .cancellers import (MIN_STEADY_WINDOW, Job, JobRun, newton_preconditioner,
                         regressor_matrix, run_batch, run_jobs)
from .plots import heatmap, line_plot
from .signals import gen_ofdm_waveform, gen_proper_gaussian
from .theory import (alms_bias, alms_ms_bound, alms_regime, alms_steady_mse,
                     anclms_exact_steady_mse, anclms_mean_bound,
                     anclms_ms_analysis, anclms_steady_mse, anclms_transient,
                     condition_number, optimal_sigma_x2, rb_matrix)
from .transceiver import (COMPONENTS, OperatingPoint, TransceiverProfile,
                          builtin_profile, compute_noise_budget, load_profile,
                          render_observation, render_observations,
                          synthesize_channels)
from .units import lin_to_db, mw_to_dbm

_NOISE_SEED_OFFSET = 10_000_019

# The SINR sweep shares one step size between the cancellers (as the source
# experiments do); 0.15 of the linear mean-square bound keeps the small-step
# steady-state formulas accurate.
DEFAULT_MU_FRAC = {"sinr-sweep": 0.15}
# convergence and bounds-probe run fixed fractions of their own bounds and
# ignore --mu-frac and --mu
CONVERGENCE_MU_FRAC = 0.005        # of the ANCLMS mean-convergence bound
PROBE_MU_FRACS = (0.5, 0.9, 1.1, 1.5)  # of each canceller's mean-square bound


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    profile: TransceiverProfile
    trials: int = 50
    M: int = 5
    N: int = 4
    mu_frac: float | None = None   # None -> experiment-specific default
    mu_abs: float | None = None
    tx_grid_dbm: tuple[float, ...] = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    signal_source: str = "gaussian"
    seed: int = 17
    iterations: int = 30_000
    output_dir: Path | None = None
    check: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            # numpy's SeedSequence seeds every trial and takes no negative seed
            raise ValueError("seed must be a non-negative integer")
        if len(self.tx_grid_dbm) == 0:
            raise ValueError("empty transmit-power grid")
        for tx in self.tx_grid_dbm:
            self.profile.with_tx_power(tx)  # raises outside the supported range
        if self.signal_source not in ("gaussian", "ofdm"):
            raise ValueError(f"unknown signal source {self.signal_source!r}")
        if self.experiment == "convergence" and self.signal_source != "gaussian":
            raise ValueError("convergence needs --source gaussian: its exact "
                             "whitening and its transient overlay assume white "
                             "Gaussian input")
        if not 1 <= self.N < self.M:
            raise ValueError("need 1 <= N < M")
        if self.output_dir is not None:
            # run_experiment creates the directory and any missing parents
            out = Path(self.output_dir).absolute()
            if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
                raise ValueError(f"output directory {self.output_dir} is, or is "
                                 f"inside, a file")
        if self.iterations <= MIN_STEADY_WINDOW:
            # a shorter run would average its transient as the steady state
            raise ValueError(f"iterations must exceed the {MIN_STEADY_WINDOW}-step "
                             f"minimum steady-state window")
        for name in ("mu_frac", "mu_abs"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.experiment == "bias":
            # bias runs mu and 2 mu, its columns labelled by their fractions
            # of the bound: were either infinite, both would read "inf"
            bound = alms_ms_bound(self.profile.natural_sigma_x2, self.M)
            mu = _step_size(self, bound)[0]
            if not math.isfinite(2 * mu):
                raise ValueError(f"bias runs mu = {mu:.6g} and 2 mu, which must "
                                 f"be finite")
        if self.experiment == "sinr-sweep":
            if len(set(self.tx_grid_dbm)) < len(self.tx_grid_dbm):
                raise ValueError("the sweep's transmit-power grid repeats a point")
            # the sweep's steady-state theory needs mu below the ALMS bound
            for tx in self.tx_grid_dbm:
                bound = alms_ms_bound(self.profile.with_tx_power(tx).natural_sigma_x2,
                                      self.M)
                mu = _step_size(self, bound)[0]
                if not mu < bound:
                    raise ValueError(f"mu = {mu:.6g} at {tx:g} dBm is not below the "
                                     f"ALMS mean-square bound {bound:.6g}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _mean_power(d: np.ndarray) -> float:
    """The mean |d|^2 of the observation row ``d``."""
    # numpy's own loop: a BLAS dot would leave a BLAS thread spinning
    # beside the producer and the LMS loop after every call
    return np.einsum("i,i->", d.view(np.float64), d.view(np.float64)) / len(d)


def _diverged(run: JobRun, d_power: float) -> bool:
    """Whether ``run`` diverged, on observations of mean |d|^2 ``d_power``:
    it went non-finite, or its peak residual exceeds 1e3 times that power."""
    return bool(run.diverged or run.peak_residual > 1e3 * d_power)


class PhaseClock:
    """Wall seconds of a run's generate, render and LMS phases, of the LMS
    loop's waits for its next trial, of its closed-form theory (bounds,
    analyses, transients and the condition landscape) and of
    writing its CSVs and SVGs (output, ``ExperimentReport.add_csv`` and
    ``add_svg``), the samples drawn and rendered, and the LMS calls: the
    trial-steps they took, their number, the lane count (jobs per vector)
    of the build that ran them, the (trial, job) pairs they ran and the
    lanes they offered, and the trials that diverged, by job.

    The producer thread of ``iter_trials`` updates only the generate and
    render times and the sample counts, the caller's thread only the rest,
    so no key has two writers.
    """

    # the trial loop's phases, then the run's theory and the writing of its
    # files, whose keys their first use adds
    PHASES = ("generate", "render", "lms", "wait", "theory", "output")

    def __init__(self):
        self.seconds = dict.fromkeys(self.PHASES[:4], 0.0)
        self.samples = 0
        self.samples_rendered = 0
        self.trial_steps = 0
        self.lms_calls = 0
        self.lms_lanes = 1
        self.lms_jobs = 0
        self.lms_lanes_offered = 0
        self.diverged: dict[str, int] = {}        # diverged trials by job label
        self.first_nonfinite: dict[str, int] = {}  # earliest such step by label

    def count_lms(self, runs: list[tuple[str, JobRun, float]], lanes: int) -> list[bool]:
        """Count one LMS call that ran, in ``lanes`` lanes per vector, the
        trials' ``runs``, a ``(label, run, d_power)`` each: the job's label,
        its run and the mean |d|^2 of its observation; count the trials that
        diverged (``_diverged``) by label and return whether each did."""
        self.lms_calls += 1
        self.lms_lanes = lanes
        self.lms_jobs += len(runs)
        self.lms_lanes_offered += -(-len(runs) // lanes) * lanes
        grew = []
        for label, run, d_power in runs:
            self.trial_steps += run.n_steps
            grew.append(_diverged(run, d_power))
            if grew[-1]:
                self.diverged[label] = self.diverged.get(label, 0) + 1
            if run.diverged:
                self.first_nonfinite[label] = min(
                    run.diverged_at, self.first_nonfinite.get(label, run.diverged_at))
        return grew

    @contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - started)

    def meta_lines(self) -> list[str]:
        lines = [f"phase.{name}_s = {self.seconds.get(name, 0.0):.4g}"
                 for name in self.PHASES]
        if self.samples:
            lines += [f"samples = {self.samples}",
                      f"samples_rendered = {self.samples_rendered}"]
            lines += [f"ns_per_sample.{name} = {1e9 * self.seconds[name] / count:.4g}"
                      for name, count in (("generate", self.samples),
                                          ("render", self.samples_rendered))]
        if self.trial_steps:
            ns = 1e9 * self.seconds["lms"] / self.trial_steps
            first = min(self.first_nonfinite.values(), default="none")
            lines += [f"trial_steps = {self.trial_steps}",
                      f"ns_per_trial_step = {ns:.4g}",
                      f"lms_lanes = {self.lms_lanes}",
                      f"lms_calls = {self.lms_calls}",
                      f"lms_lane_fill = {self.lms_jobs / self.lms_lanes_offered:.4g}",
                      f"diverged_trials = {sum(self.diverged.values())}",
                      f"first_nonfinite_step = {first}"]
            lines += [f"diverged_trials[{label}] = {count}"
                      for label, count in self.diverged.items()]
            lines += [f"first_nonfinite_step[{label}] = {step}"
                      for label, step in self.first_nonfinite.items()]
        return lines


@dataclass
class ExperimentReport:
    csv_paths: list[Path] = field(default_factory=list)
    svg_paths: list[Path] = field(default_factory=list)
    meta_path: Path | None = None
    checks: list[CheckResult] = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    clock: PhaseClock = field(default_factory=PhaseClock)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_check(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    def add_csv(self, *args) -> None:
        """Write a CSV by ``write_csv(*args)``, timed as the output phase."""
        with self.clock.phase("output"):
            self.csv_paths.append(write_csv(*args))

    def add_svg(self, plot, *args) -> None:
        """Draw an SVG by ``plot(*args)`` (``line_plot`` or ``heatmap``),
        timed as the output phase."""
        with self.clock.phase("output"):
            self.svg_paths.append(plot(*args))


def _column(values) -> tuple[str, list]:
    """A column's format and its values as Python numbers: ``%d`` if the
    column's numpy dtype is an integer (or bool) type, else ``%.9g`` of the
    values as floats (".9g" writes every NaN as nan and the infinities as
    inf and -inf)."""
    column = np.asarray(values)
    if column.dtype.kind in "biu":
        return "%d", column.tolist()
    return "%.9g", column.astype(float).tolist()


def _fmt_column(values) -> list[str]:
    """Every value of a column as ``_column`` formats it."""
    fmt, column = _column(values)
    return [fmt % v for v in column]


def _fmt(v) -> str:
    """One value as ``_fmt_column`` writes it."""
    return _fmt_column([v])[0]


def write_csv(path: Path, x_name: str, x_values, curves: dict) -> Path:
    """First column ``x_name``, one column per curve, each written as
    ``_fmt_column`` writes it: one row per x value, each curve's values
    after the last row unwritten."""
    fmts, columns = zip(_column(x_values), *map(_column, curves.values()))
    rows = len(columns[0])
    row = ",".join(fmts)
    lines = [",".join([x_name, *curves.keys()]),
             *(row % values for values in zip(*(c[:rows] for c in columns), strict=True))]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_meta(report: ExperimentReport, config: ExperimentConfig,
                out: Path, started: float):
    """Write ``meta.txt``: the configuration, the duration, ``report.meta``
    (a runner's step size among it), the phase clock and the checks."""
    lines = [
        f"experiment = {config.experiment}",
        f"version = {__version__}",
        f"seed = {config.seed}",
        f"trials = {config.trials}",
        f"iterations = {config.iterations}",
        f"signal_source = {config.signal_source}",
        f"M = {config.M}",
        f"N = {config.N}",
        f"tx_grid_dbm = {','.join(_fmt_column(config.tx_grid_dbm))}",
        f"duration_s = {time.time() - started:.1f}",
    ]
    lines += [f"{k} = {v}" for k, v in report.meta.items()]
    lines += report.clock.meta_lines()
    lines += [f"check[{c.name}] = {'pass' if c.passed else 'FAIL'} {c.detail}"
              for c in report.checks]
    path = out / "meta.txt"
    path.write_text("\n".join(lines) + "\n")
    report.meta_path = path


def _point(config: ExperimentConfig, profile: TransceiverProfile,
           sigma_x2: float | None = None) -> OperatingPoint:
    """``profile``'s ``OperatingPoint`` at the reference power ``sigma_x2``
    (the profile's natural power if None): its k_tiq, channels drawn for
    config's M and N with seed ``config.seed``, and the noise powers of the
    profile's noise budget."""
    channels = synthesize_channels(profile, config.M, config.N, seed=config.seed,
                                   sigma_x2=sigma_x2)
    budget = compute_noise_budget(profile)
    return OperatingPoint(profile.natural_sigma_x2 if sigma_x2 is None else sigma_x2,
                          profile.k_tiq, channels, budget.sigma_v2, budget.sigma_q2,
                          budget.p_x_soi)


def _trial(config: ExperimentConfig, t: int, n: int, clock: PhaseClock, z=None):
    """Trial t, by the seed rule: ``(draw, render)``.

    ``draw`` (``signals.Draw``), ``n`` samples of ``config.signal_source``,
    is drawn with seed ``config.seed + t`` (into the row ``z`` if given).
    ``render(points, ds, components=None)`` renders the observation of each
    of ``points`` into the matching row of ``ds`` (and its components into
    the matching array of ``components``, if given) in one
    ``render_observations`` call, from the point's reference
    x = ``draw.scale(point.sigma_x2)`` ``draw.samples``, with the one noise
    draw of seed ``config.seed + _NOISE_SEED_OFFSET + t``. ``clock`` times
    both phases and counts the samples drawn and rendered.
    """
    # looked up here at each call, so a wrapper installed over any of these
    # module-level names sees it
    source = gen_ofdm_waveform if config.signal_source == "ofdm" else gen_proper_gaussian
    with clock.phase("generate"):
        draw = source(n, seed=config.seed + t, out=z)
    clock.samples += n

    def render(points: list[OperatingPoint], ds, components=None):
        with clock.phase("render"):
            render_observations(
                draw.samples, [(point, draw.scale(point.sigma_x2)) for point in points],
                seed=config.seed + _NOISE_SEED_OFFSET + t, ds=ds, components=components)
        clock.samples_rendered += n * len(points)

    return draw, render


def iter_trials(config: ExperimentConfig, points: list[OperatingPoint], n: int,
                clock: PhaseClock, group: int = 1):
    """Yield the trials t = 0 ... config.trials - 1 in groups of ``group``
    consecutive trials (the last may be shorter), each group a list of
    ``(draw, ds, powers)``, one per trial, made by ``_trial``: the draw of
    ``n`` samples, the observation row d of each point and the mean |d|^2 of
    each (``_mean_power``, timed as rendering). ``clock`` also times the
    waits for each group.

    One producer thread, ``fdsic-trials``, started once for the whole loop,
    generates and renders the groups in order into two sets of rows, one
    source row and one observation row per point for each trial of a
    group, group g + 1 while the caller runs group g: two semaphores hand
    each group over and let the producer start the next, so a group's rows
    are overwritten once the caller asks for the group after it: a consumer
    copies whatever it keeps. Only the ``config.trials`` trials asked for
    are made (a caller that wants fewer passes a config with fewer). An
    error in the producer is raised here with its own type; an error in the
    caller, or closing the generator, lets the producer finish the group in
    hand and joins its thread.
    """
    firsts = range(0, config.trials, group)
    rows = [[(np.empty(n, dtype=np.complex128),
              [np.empty(n, dtype=np.complex128) for _ in points])
             for _ in range(min(config.trials, group))]
            for _ in range(min(len(firsts), 2))]
    asked = threading.Semaphore(1)   # one per group the producer may make
    handed = threading.Semaphore(0)  # one per group made, or for its error
    slot = []                        # that group, or the producer's error
    stopping = False

    def make(first: int):
        made = []
        # a set holds the rows of at most `group` trials
        for t, (z, ds) in zip(range(first, config.trials), rows[first // group % 2]):
            draw, render = _trial(config, t, n, clock, z)
            render(points, ds)
            with clock.phase("render"):
                powers = [_mean_power(d) for d in ds]
            made.append((draw, ds, powers))
        return made

    def produce():
        try:
            for first in firsts:
                asked.acquire()
                if stopping:
                    return
                slot.append(make(first))
                handed.release()
        except BaseException as exc:  # handed over, raised in the caller
            slot.append(exc)
            handed.release()

    # a daemon, so that a loop left unfinished and unclosed cannot hold up
    # the interpreter's exit with its producer waiting for a request
    producer = threading.Thread(target=produce, name="fdsic-trials", daemon=True)
    producer.start()
    try:
        for _ in firsts:
            with clock.phase("wait"):
                handed.acquire()
            made = slot.pop()
            if isinstance(made, BaseException):
                raise made
            # the caller is done with the group before this one, whose rows
            # take the next (if there is one)
            asked.release()
            yield made
    finally:
        stopping = True
        asked.release()
        producer.join()


def run_trials(config: ExperimentConfig, points: list[tuple[OperatingPoint, dict[str, Job]]],
               n: int, clock: PhaseClock, **run_options):
    """Run every trial of ``iter_trials`` over the ``points`` of a pass and
    yield ``(t, runs, diverged)`` for trial t, in trial order, each a dict
    by job label.

    ``points`` holds one ``(point, jobs)`` pair per point, ``jobs`` the
    point's ``Job`` records by label; each job runs on the trial's source
    row and its observation at the job's point, with the point's reference
    scale (``z``, ``d`` and ``scale`` are filled in here). The points of a
    pass share M and k_tiq (a ``ValueError`` otherwise), and each
    ``run_jobs`` call runs with them, so a job adapts with the k_tiq its
    observation was rendered with. One ``run_jobs``
    call with ``run_options`` runs the jobs of every point for a group of
    consecutive trials, width-major, then job-major: the jobs of each
    canceller width N in turn (ALMS first), in label order, each job's
    lanes over the group's trials side by side. A group is the fewest
    trials whose jobs of each width fill whole vectors of ``lanes``
    (``_native.lanes()``) if its rows (1 + points a trial) number at most
    ``lanes``, else lanes / gcd(lanes, jobs), whose jobs fill them together.
    So a vector holds one width, or one job, where the group allows, and
    only a preconditioned job's vector pays the LMS-Newton operations. Every
    trial of a job shares its ``residuals`` and ``taps`` rows, if it has
    any, and its trials of a call are consecutive lanes in trial order, so
    the kernel adds their records into those rows in trial order. The
    call is timed and counted as the LMS phase. ``runs`` holds each job's
    ``JobRun`` and ``diverged`` whether it diverged
    (``PhaseClock.count_lms``), in the order of the labels in ``points``.
    """
    M, k_tiq = points[0][0].M, points[0][0].k_tiq
    if any(point.M != M or point.k_tiq != k_tiq for point, _ in points):
        raise ValueError("the points of one pass must share M and k_tiq")
    labels = [label for _, jobs in points for label in jobs]
    # the point and the job of each label, in that order
    where = [(k, job) for k, (_, jobs) in enumerate(points) for job in jobs.values()]
    layout = sorted(range(len(labels)), key=lambda j: where[j][1].N)
    slots = [layout.index(j) for j in range(len(labels))]  # each label's place in it
    lanes = _native.lanes()
    widths = Counter(job.N for _, job in where).values()
    group = math.lcm(*(lanes // math.gcd(lanes, count) for count in widths))
    if group * (1 + len(points)) > lanes:
        group = lanes // math.gcd(lanes, len(labels))
    groups = iter_trials(config, [point for point, _ in points], n, clock, group)
    for first, made in zip(itertools.count(0, group), groups):
        jobs = [job._replace(z=draw.samples, d=ds[k],
                             scale=draw.scale(points[k][0].sigma_x2))
                for k, job in (where[j] for j in layout)
                for draw, ds, _ in made]
        with clock.phase("lms"):
            results = run_jobs(jobs, M, k_tiq, **run_options)
        # trial-major and in label order, as the trials are yielded
        runs = [(label, results[slot * len(made) + i], powers[k])
                for i, (_, _, powers) in enumerate(made)
                for label, (k, _), slot in zip(labels, where, slots)]
        grew = clock.count_lms(runs, lanes)
        for i in range(len(made)):
            trial = slice(i * len(labels), (i + 1) * len(labels))
            yield (first + i, {label: run for label, run, _ in runs[trial]},
                   dict(zip(labels, grew[trial])))


def _step_size(config: ExperimentConfig, bound: float) -> tuple[float, str, float]:
    """The configured step size, ``--mu`` or ``--mu-frac`` (else the
    experiment's default) times ``bound``, with the ``meta.txt`` key and
    value that record it: ``mu_abs`` or ``mu_frac``."""
    if config.mu_abs is not None:
        return config.mu_abs, "mu_abs", config.mu_abs
    frac = config.mu_frac
    if frac is None:
        frac = DEFAULT_MU_FRAC.get(config.experiment, 0.05)
    return frac * bound, "mu_frac", frac


def _resolve_mu(config: ExperimentConfig, bound: float,
                report: ExperimentReport) -> float:
    """``_step_size``'s step size, recorded in ``report.meta``."""
    mu, key, value = _step_size(config, bound)
    report.meta[key] = str(value)
    return mu


# ---------------------------------------------------------------------------
# power budget (component-power comparison)
# ---------------------------------------------------------------------------

def run_power_budget(config: ExperimentConfig, report: ExperimentReport, out: Path):
    """Each grid point's closed-form component powers
    (``OperatingPoint.component_powers``, over the point's own M and N
    taps) vs one rendered observation per point: trial 0 of the configured
    source, drawn once for the whole grid."""
    tx_axis = list(config.tx_grid_dbm)
    # each component's power in dBm at each grid point
    analytic = {key: [] for key in COMPONENTS}
    measured = {key: [] for key in COMPONENTS}
    n = 100_000
    _, render = _trial(config, 0, n, report.clock)
    # a point at a time, into one set of rows: the seven components of every
    # point at once would hold 11 MB a point
    d, parts = np.empty(n, dtype=complex), np.empty((len(COMPONENTS), n), dtype=complex)
    for tx in tx_axis:
        point = _point(config, config.profile.with_tx_power(tx))
        render([point], [d], [parts])
        with np.errstate(divide="ignore"):  # no power is -inf dBm
            for (key, power), row in zip(point.component_powers.items(), parts):
                analytic[key].append(mw_to_dbm(power))
                measured[key].append(mw_to_dbm(np.mean(np.abs(row) ** 2)))

    # each component's analytic column, then each measured one
    curves = {f"{key}_dbm": vals for key, vals in analytic.items()}
    report.add_csv(out / "power-budget.csv", "tx_power_dbm", tx_axis,
                   curves | {f"{key}_measured_dbm": vals for key, vals in measured.items()})
    report.add_svg(
        line_plot, out / "power-budget.svg", tx_axis,
        {k: np.array(v) for k, v in curves.items()},
        "Component powers at the digital canceller input",
        "transmit power (dBm)", "power (dBm)")

    if config.check:
        # a component is compared where its analytic power is finite; where
        # it is -inf dBm (the image branches at irr = inf) it must render
        # exactly zero power
        worst, stray = 0.0, []
        for key in COMPONENTS:
            want, got = np.array(analytic[key]), np.array(measured[key])
            ok = np.isfinite(want)
            if ok.any():
                worst = max(worst, float(np.max(np.abs(want[ok] - got[ok]))))
            if np.any(got[~ok] != -np.inf):
                stray.append(key)
        detail = f"worst gap {worst:.3f} dB"
        if stray:
            detail += f"; power where none is due in {', '.join(stray)}"
        report.add_check("analytic_vs_rendered_0.5dB", worst <= 0.5 and not stray, detail)
        # the quantization noise, fixed by the ADC, overtakes the thermal
        # noise, which falls with the receiver gain, where the point's own
        # closed forms cross: the rendered noises must be in their order
        ahead = {name: " ".join(f"{tx:g}" for tx, t, q in zip(
                     tx_axis, powers["thermal"], powers["quantization"]) if t > q) or "none"
                 for name, powers in (("analytic", analytic), ("rendered", measured))}
        report.add_check(
            "thermal_quant_crossover", ahead["analytic"] == ahead["rendered"],
            "thermal above quantization at tx (dBm) "
            + "; ".join(f"{name} {txs}" for name, txs in ahead.items()))


# ---------------------------------------------------------------------------
# bias (weight-error evolution and steady bias)
# ---------------------------------------------------------------------------

def run_bias(config: ExperimentConfig, report: ExperimentReport, out: Path):
    """Trial-averaged error-coefficient trajectories and steady bias table."""
    point = _point(config, config.profile)
    channels = point.channels
    report.meta["tx_power_dbm"] = _fmt(config.profile.tx_power_dbm)
    with report.clock.phase("theory"):
        bound = alms_ms_bound(point.sigma_x2, config.M)
    n_iters = config.iterations

    stride = max(1, n_iters // 2000)
    # the plotted steps of the n_iters + 1, as the kernel keeps them
    iters_axis = np.arange(0, n_iters + 1, stride)
    traces: dict[str, np.ndarray] = {}
    bias_table = None
    base_mu = _resolve_mu(config, bound, report)
    # each column is labelled with its step size as a fraction of the bound
    base_tag = f"mu{base_mu / bound:g}"

    # per job, by label: taps 1 and 2 at the plotted steps, (steps, 2), summed
    # by the kernel in trial order (run_trials' job-major lanes) into one row
    # that starts at -0.0, as a -0.0 + x is x bit for bit
    jobs = {f"{label}_mu{mu / bound:g}": Job(mu, n_imd,
                                             int(0.9 * n_iters) if label == "alms" else None,
                                             taps=np.full((len(iters_axis), 2), -0.0j))
            for mu in (base_mu, 2 * base_mu)
            for label, n_imd in (("alms", 0), ("anclms", config.N))}
    w_opts = {"alms": channels.stacked_linear(), "anclms": channels.stacked_nonlinear()}
    # and the error of the window-mean weights, summed in trial order as the
    # trials come, from -0.0 too
    err_sums = {label: np.full(len(w_opts[label.partition("_")[0]]), -0.0j)
                for label in jobs}
    for _, runs, _ in run_trials(config, [(point, jobs)], n_iters + config.M,
                                 report.clock, track_taps=(0, 1), tap_stride=stride):
        # a diverged trial's inf or nan weights may overflow the sums
        with np.errstate(over="ignore", invalid="ignore"):
            for label, run in runs.items():
                err_sums[label] += run.mean_weights - w_opts[label.partition("_")[0]]

    # the bias does not depend on the step size
    with report.clock.phase("theory"):
        bias = alms_bias(point)
    for mu in (base_mu, 2 * base_mu):
        tag = f"mu{mu / bound:g}"
        for label, w_opt in w_opts.items():
            # a complex quotient of inf or nan parts warns
            with np.errstate(over="ignore", invalid="ignore"):
                tap_mean = jobs[f"{label}_{tag}"].taps / config.trials
                mean_err = err_sums[f"{label}_{tag}"] / config.trials
            for tap in (0, 1):
                err = np.abs(tap_mean[:, tap] - w_opt[tap]) / abs(w_opt[tap])
                traces[f"{label}_{tag}_tap{tap + 1}"] = err
            if label == "alms" and mu == base_mu:
                idx = np.concatenate([np.arange(config.N),
                                      config.M + np.arange(config.N)])
                theory_abs = np.abs(bias[idx])
                # a tap with no theoretical bias (image taps at irr = inf)
                # is held relative to the largest bias of the table
                scale = np.where(theory_abs > 0, theory_abs, theory_abs.max())
                bias_table = {
                    "tap": idx + 1,
                    "theory_abs": theory_abs,
                    "measured_abs": np.abs(mean_err[idx]),
                    "rel_error": np.abs(mean_err[idx] - bias[idx]) / scale,
                }
            if label == "anclms" and mu == base_mu:
                report.meta["anclms_weight_error_norm_frac"] = _fmt(
                    np.linalg.norm(mean_err) / np.linalg.norm(w_opt))
        for tap in (0, 1):
            level = abs(bias[tap]) / abs(w_opts["alms"][tap])
            traces[f"theory_bias_{tag}_tap{tap + 1}"] = np.full(
                len(traces[f"alms_{tag}_tap{tap + 1}"]), level)

    report.add_csv(out / "bias.csv", "iteration", iters_axis, traces)
    report.add_csv(out / "bias_taps.csv", "tap", bias_table["tap"],
                   {k: v for k, v in bias_table.items() if k != "tap"})
    with np.errstate(divide="ignore"):
        db_traces = {k: 20.0 * np.log10(np.maximum(v, 1e-300)) for k, v in traces.items()}
    report.add_svg(
        line_plot, out / "bias.svg", iters_axis, db_traces,
        "Normalized error-coefficient magnitude (dB)", "iteration",
        "20 log10 |w_err / w_opt|")
    report.tables["bias_taps"] = bias_table
    report.tables["traces"] = traces

    if config.check:
        rel = bias_table["rel_error"]
        report.add_check("alms_bias_10pct", bool(np.all(rel <= 0.10)),
                         f"worst per-tap rel error {rel.max():.3g}")
        for tap in (1, 2):
            final = traces[f"anclms_{base_tag}_tap{tap}"][-5:].mean()
            report.add_check(f"anclms_bias_removed_tap{tap}", final < 1e-2,
                             f"final normalized error {final:.2e} (< -40 dB)")
        anorm = float(report.meta["anclms_weight_error_norm_frac"])
        report.add_check("anclms_error_norm_5pct", anorm < 0.05,
                         f"weight error norm {anorm:.4f} of ||w_opt||")


# ---------------------------------------------------------------------------
# SINR sweep (SINR and digital-attenuation views)
# ---------------------------------------------------------------------------

def run_sinr_sweep(config: ExperimentConfig, report: ExperimentReport, out: Path):
    """Steady-state SINR and digital attenuation vs transmit power.

    The grid is walked in passes of two points: trial t of every point draws
    the same source row (seed ``config.seed + t``), so a pass draws it once,
    renders one observation per point and runs the cancellers of both
    points in one kernel call, four jobs a trial (with those of the next
    trial on 8 lanes)."""
    grid = list(config.tx_grid_dbm)
    points = []  # (point, mu, its two jobs by label), in grid order
    for tx in grid:
        point = _point(config, config.profile.with_tx_power(tx))
        # one shared step size for both cancellers at this grid point; ANCLMS
        # starts at the exact Wiener solution of the rendered model, ALMS at zero
        with report.clock.phase("theory"):
            bound = alms_ms_bound(point.sigma_x2, config.M)
        mu = _resolve_mu(config, bound, report)
        points.append((point, mu, {
            f"alms@{tx:g}dBm": Job(mu),
            f"anclms@{tx:g}dBm": Job(mu, config.N, w0=point.channels.stacked_nonlinear())}))

    trial_mse = {label: np.empty(config.trials) for *_, jobs in points for label in jobs}
    for first in range(0, len(points), 2):
        pair = [(point, jobs) for point, _, jobs in points[first:first + 2]]
        for t, runs, _ in run_trials(config, pair, config.iterations + config.M,
                                     report.clock):
            for label, run in runs.items():
                trial_mse[label][t] = run.steady_state_mse

    cols = {k: [] for k in (
        "alms_sinr_sim_db", "alms_sinr_theory_db", "anclms_sinr_sim_db",
        "anclms_sinr_theory_db", "alms_att_sim_db", "alms_att_theory_db",
        "anclms_att_sim_db", "anclms_att_theory_db")}
    for point, mu, jobs in points:
        # the mean |d|^2 of the observation the cancellers run on: every
        # component but the SOI
        d_power = sum(power for key, power in point.component_powers.items() if key != "soi")
        with report.clock.phase("theory"):
            theory = (alms_steady_mse(point, mu, alms_regime(point)),
                      anclms_steady_mse(point, mu))
        for name, label, j_theory in zip(("alms", "anclms"), jobs, theory):
            mse = float(np.sum(trial_mse[label])) / config.trials
            # a diverged job's infinite MSE reads -inf dB, named in meta.txt
            with np.errstate(divide="ignore"):
                cols[f"{name}_sinr_sim_db"].append(lin_to_db(point.p_x_soi / mse))
                cols[f"{name}_sinr_theory_db"].append(lin_to_db(point.p_x_soi / j_theory))
                cols[f"{name}_att_sim_db"].append(lin_to_db(d_power / mse))
                cols[f"{name}_att_theory_db"].append(lin_to_db(d_power / j_theory))

    report.add_csv(out / "sinr-sweep.csv", "tx_power_dbm", grid, cols)
    # two views of the one run: SINR, and digital attenuation (the power
    # before cancellation over the residual)
    for svg, view, title in (("sinr-sweep.svg", "_sinr_", "Achievable steady-state SINR"),
                             ("attenuation.svg", "_att_", "Digital attenuation")):
        report.add_svg(
            line_plot, out / svg, grid, {k: np.array(v) for k, v in cols.items() if view in k},
            title, "transmit power (dBm)", "dB")
    report.tables["columns"] = cols
    report.meta["anclms_iterations"] = ";".join(f"{tx:g}:{config.iterations}"
                                                for tx in grid)
    report.meta["anclms_start"] = "wiener"

    if config.check:
        gaps = []
        for label in ("alms", "anclms"):
            sim = np.array(cols[f"{label}_sinr_sim_db"])
            th = np.array(cols[f"{label}_sinr_theory_db"])
            gaps.append(np.max(np.abs(sim - th)))
        report.add_check("sinr_theory_gap_0.5dB", max(gaps) <= 0.5,
                         f"worst |sim-theory| {max(gaps):.3f} dB")
        a = np.array(cols["alms_sinr_sim_db"])
        b = np.array(cols["anclms_sinr_sim_db"])
        report.add_check("anclms_dominates", bool(np.all(b >= a - 0.2)),
                         "nonlinear canceller at least matches the linear one")
        gap25 = b[np.argmax(grid)] - a[np.argmax(grid)]
        report.add_check("gap_at_top_power_3dB", gap25 > 3.0,
                         f"gap at {max(grid):g} dBm is {gap25:.2f} dB")


# ---------------------------------------------------------------------------
# convergence (condition-number landscape and whitening speed-up)
# ---------------------------------------------------------------------------

def _median(values) -> float:
    """The median of a non-empty sequence of numbers, with ``np.median``'s
    bits: the middle value of an odd count, the two middle values'
    (a + b) / 2 of an even count (as ``np.mean`` rounds it), and NaN if any
    value is NaN. ``np.median`` would import ``numpy.ma`` on its first call."""
    ordered = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    mid = len(ordered) // 2
    if np.isnan(ordered[-1]):  # NaN sorts last
        return ordered[-1]
    if len(ordered) % 2:
        return ordered[mid]
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2


def _iterations_to_within(sinr_db: np.ndarray, target_db: float, block: int) -> int:
    """First iteration index whose smoothed SINR stays within 1 dB of target."""
    ok = sinr_db >= target_db - 1.0
    idx = len(ok)
    for i in range(len(ok) - 1, -1, -1):
        if not ok[i]:
            break
        idx = i
    return idx * block


def run_convergence(config: ExperimentConfig, report: ExperimentReport, out: Path):
    """Condition-number heatmap plus whitened-vs-raw SINR evolution."""
    prof = config.profile.with_tx_power(15.0)
    report.meta["tx_power_dbm"] = _fmt(prof.tx_power_dbm)
    k = prof.k_tiq

    sigma_grid_dbm = np.arange(-30.0, 0.5, 1.0)
    k_grid_db = np.arange(0.0, 12.5, 0.5)
    z = np.empty((len(sigma_grid_dbm), len(k_grid_db)))
    with report.clock.phase("theory"):
        for j, sdbm in enumerate(sigma_grid_dbm):
            for i, kdb in enumerate(k_grid_db):
                z[j, i] = condition_number(10 ** (sdbm / 10.0), 10 ** (kdb / 10.0))
    report.add_csv(
        out / "convergence_heatmap.csv", "sigma_x2_dbm", sigma_grid_dbm,
        {f"k_tiq_{kdb:g}dB": z[:, i] for i, kdb in enumerate(k_grid_db)})
    report.add_svg(
        heatmap, out / "convergence_heatmap.svg", k_grid_db, sigma_grid_dbm, np.log10(z),
        "log10 condition number of the nonlinear regressor covariance",
        "k_tiq (dB)", "reference power (dBm)", "log10 C")
    heatmap_min = float(np.nanmin(z))

    s_sub = 10 ** (-10.0 / 10.0)
    n_iters = max(config.iterations, 20_000)
    report.meta["iterations_run"] = str(n_iters)
    block = 100
    # raw runs: CONVERGENCE_MU_FRAC x the mean-convergence bound of their
    # input covariance R. The whitened run is the LMS-Newton step with the
    # exact R^-1 at the optimal power, on the optimal run's own trials; it
    # keeps the raw run's theoretical steady-state excess
    # (mu_w = mu_raw Tr(R)/dim, equal misadjustment), so the comparison
    # isolates convergence speed at a common steady SINR.
    with report.clock.phase("theory"):
        s_opt = optimal_sigma_x2(k)
        r_opt = rb_matrix(s_opt, k, config.M, config.N)
        mu_opt = CONVERGENCE_MU_FRAC * anclms_mean_bound(s_opt, k, config.M, config.N)
        mu_white = mu_opt * np.trace(r_opt) / len(r_opt)
        mu_sub = CONVERGENCE_MU_FRAC * anclms_mean_bound(s_sub, k, config.M, config.N)
        newton = newton_preconditioner(r_opt, config.M, config.N)
    opt = _point(config, prof, s_opt)
    noise = opt.sigma_v2 + opt.sigma_q2

    report.meta["mu_frac"] = f"{CONVERGENCE_MU_FRAC:g}"
    report.meta["mu_bound"] = "anclms_mean_bound"

    def job(mu, preconditioner=None):
        """A job at ``mu`` with a residual row, into which the kernel adds its
        trials' residual powers in trial order (run_trials' job-major lanes),
        from -0.0, as -0.0 + x is x bit for bit."""
        return Job(mu, config.N, preconditioner=preconditioner,
                   residuals=np.full(n_steps, -0.0))

    # the SINR curve of each run, in the column order of convergence.csv,
    # each of n_points block means
    curves = dict.fromkeys(("anclms_optimal", "anclms_suboptimal", "anclms_whitened"))
    n_steps = n_iters + 1
    n_points = n_steps // block
    # one pass of both reference powers, as the sweep's pairs of points: each
    # trial draws its source row once, renders it at each power and runs all
    # three jobs in one kernel call
    points = [(opt, {"anclms_optimal": job(mu_opt), "anclms_whitened": job(mu_white, newton)}),
              (_point(config, prof, s_sub), {"anclms_suboptimal": job(mu_sub)})]
    for _ in run_trials(config, points, n_iters + config.M, report.clock):
        pass
    # a diverged trial's huge or non-finite residuals may have overflowed a sum;
    # a quotient by the trial count never overflows
    for label, ran in (points[0][1] | points[1][1]).items():
        mean = ran.residuals / config.trials
        smooth = mean[: n_points * block].reshape(-1, block).mean(axis=1)
        curves[label] = lin_to_db(opt.p_x_soi / smooth)

    # small-step theory overlay for the raw run at the optimal power
    try:
        with report.clock.phase("theory"):
            ana = anclms_ms_analysis(s_opt, k, config.M, config.N)
            grid_pts = np.arange(block // 2, n_points * block, block)
            j_pred = anclms_transient(ana, noise, mu_opt,
                                      -opt.channels.stacked_nonlinear(), grid_pts)
        curves["anclms_optimal_theory"] = lin_to_db(
            opt.p_x_soi / np.maximum(j_pred, 1e-300))
    except (ValueError, np.linalg.LinAlgError) as exc:  # recorded, not fatal
        report.meta["transient_overlay_error"] = repr(exc)

    iters_axis = (np.arange(n_points) + 0.5) * block
    report.add_csv(out / "convergence.csv", "iteration", iters_axis, curves)
    report.add_svg(line_plot, out / "convergence.svg", iters_axis, curves,
                   "SINR evolution at 15 dBm transmit power", "iteration", "SINR (dB)")

    reach = {}
    for label in ("anclms_optimal", "anclms_suboptimal", "anclms_whitened"):
        steady = _median(curves[label][-max(n_points // 10, 1):])
        reach[label] = _iterations_to_within(curves[label], steady, block)
        report.meta[f"iters_to_1db_{label}"] = str(reach[label])
    report.tables["reach"] = reach

    if config.check:
        report.add_check("heatmap_min_4p64", abs(heatmap_min - 4.6417) < 0.1,
                         f"min condition number {heatmap_min:.4f}")
        ratio = reach["anclms_optimal"] / max(reach["anclms_whitened"], 1)
        report.add_check("whitening_speedup",
                         reach["anclms_whitened"] < reach["anclms_optimal"]
                         and ratio >= 1.8,
                         f"{reach['anclms_whitened']} vs {reach['anclms_optimal']} iterations "
                         f"(ratio {ratio:.2f})")
        report.add_check("suboptimal_slower",
                         reach["anclms_optimal"] <= reach["anclms_suboptimal"],
                         "optimal reference power converges no slower than -10 dBm")
    report.meta["whitening"] = "exact rb_matrix inverse"


# ---------------------------------------------------------------------------
# bounds probe (empirical step-size dichotomy)
# ---------------------------------------------------------------------------

def run_bounds_probe(config: ExperimentConfig, report: ExperimentReport, out: Path):
    """Converged/diverged verdicts at fractions of the step-size bounds."""
    prof = config.profile.with_tx_power(config.tx_grid_dbm[0])
    point = _point(config, prof)
    s2, k_tiq = point.sigma_x2, point.k_tiq
    report.meta["tx_power_dbm"] = _fmt(prof.tx_power_dbm)
    noise = point.sigma_v2 + point.sigma_q2

    with report.clock.phase("theory"):
        ana = anclms_ms_analysis(s2, k_tiq, config.M, config.N)
        bounds = {"alms": alms_ms_bound(s2, config.M), "anclms": ana.bound}
        mean_bound = anclms_mean_bound(s2, k_tiq, config.M, config.N)
    report.meta["alms_ms_bound"] = _fmt(bounds["alms"])
    report.meta["anclms_ms_bound"] = _fmt(bounds["anclms"])
    report.meta["anclms_mean_bound"] = _fmt(mean_bound)
    fracs = PROBE_MU_FRACS
    report.meta["mu_frac"] = ",".join(f"{f:g}" for f in fracs)
    report.meta["mu_bound"] = "alms_ms_bound,anclms_ms_bound"
    jobs = {f"{label}_mu{frac:g}": Job(frac * bounds[label], n_imd)
            for label, n_imd in (("alms", 0), ("anclms", config.N))
            for frac in fracs}
    # per trial: (steady-state MSE, first nonfinite step, whether it diverged)
    trial_runs = {key: [] for key in jobs}
    for _, runs, diverged in run_trials(config, [(point, jobs)],
                                        config.iterations + config.M, report.clock):
        for key, run in runs.items():
            trial_runs[key].append((run.steady_state_mse, run.diverged_at, diverged[key]))

    rows = []
    for label, frac in itertools.product(bounds, fracs):
        key = f"{label}_mu{frac:g}"
        job = jobs[key]
        steady_mse, diverged_at, grew = map(np.array, zip(*trial_runs[key]))
        n_div = int(grew.sum())
        report.meta[f"first_divergence[{key}]"] = _divergence_note(diverged_at)
        j_theory = math.inf
        if frac < 1.0:
            with report.clock.phase("theory"):
                if label == "alms":
                    j_theory = alms_steady_mse(point, job.mu, alms_regime(point))
                else:
                    j_theory = anclms_exact_steady_mse(ana, noise, job.mu)
        conv = steady_mse[~grew]
        rows.append({
            "variant": label,
            "mu_frac": frac,
            "mu": job.mu,
            "n_diverged": n_div,
            "verdict": "diverged" if n_div > config.trials // 2 else "converged",
            "theory_mse": j_theory,
            "mean_mse": float(conv.mean()) if conv.size else math.inf,
            "median_mse": float(_median(steady_mse)),
        })

    axis = np.arange(len(rows))
    report.add_csv(
        out / "bounds-probe.csv", "row", axis,
        {key: [r[key] if key != "variant" else ("0" if r[key] == "alms" else "1")
               for r in rows]
         for key in ("variant", "mu_frac", "mu", "n_diverged", "theory_mse",
                     "mean_mse", "median_mse")})
    report.add_svg(
        line_plot, out / "bounds-probe.svg", [r["mu_frac"] for r in rows[:len(fracs)]],
        {"alms_diverged": np.array([r["n_diverged"] for r in rows[:len(fracs)]]),
         "anclms_diverged": np.array([r["n_diverged"] for r in rows[len(fracs):]])},
        "Diverged trials vs step-size fraction", "mu / bound", "diverged trials")
    report.tables["rows"] = rows

    if config.check:
        by = {(r["variant"], r["mu_frac"]): r for r in rows}
        report.add_check("alms_0.9_converged",
                         by[("alms", 0.9)]["verdict"] == "converged",
                         f"{by[('alms', 0.9)]['n_diverged']} diverged")
        report.add_check("alms_1.5_diverged",
                         by[("alms", 1.5)]["n_diverged"] >= 0.9 * config.trials,
                         f"{by[('alms', 1.5)]['n_diverged']} diverged")
        edge_ok = (by[("anclms", 0.9)]["verdict"] == "converged"
                   and by[("anclms", 1.5)]["verdict"] == "diverged")
        report.add_check("anclms_edge_bracketed", edge_ok,
                         "empirical edge between the mean-square and mean bounds")


def _divergence_note(diverged_at: np.ndarray) -> str:
    """Count, earliest and median first nonfinite step of the diverged trials."""
    steps = diverged_at[diverged_at >= 0]
    if steps.size == 0:
        return "none"
    return f"n={steps.size} earliest={steps.min()} median={_median(steps):g}"


_RUNNERS = {
    "power-budget": run_power_budget,
    "bias": run_bias,
    "sinr-sweep": run_sinr_sweep,
    "convergence": run_convergence,
    "bounds-probe": run_bounds_probe,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run ``config``'s experiment into its output directory (made if
    missing; the working directory if none is set) and write ``meta.txt``.

    The compiled kernels are loaded first, built if their cached library is
    missing, so that a build is timed in no phase of the run (it would
    otherwise land in the generate phase of the first draw).

    ``meta.txt`` records ``peak_rss_rise_mb``, the rise of the process's
    peak resident set (``ru_maxrss``) over the run, in MB: it reads the
    run's own memory, whatever the process held before it, but reads 0
    when an earlier run in the same process peaked higher. Beside it come
    the process's user and system CPU seconds (``cpu_user_s``,
    ``cpu_sys_s``, every thread's) and minor page faults
    (``minor_faults``) over the run, each the difference of two
    ``getrusage`` reads like the RSS rise, and ``blas_threads``, the thread
    count numpy's OpenBLAS ran with outside fdsic's one-thread LAPACK calls
    (``none`` where numpy bundles no OpenBLAS). A run on any source but the
    Gaussian one records ``theory_input``: every closed form it checks
    against assumes white proper Gaussian input."""
    started = time.time()
    before = getrusage(RUSAGE_SELF)
    _native.library()
    out = Path(config.output_dir) if config.output_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport()
    if config.signal_source != "gaussian":
        # the run still checks its closed forms, on input they do not describe
        report.meta["theory_input"] = (f"white proper Gaussian, which the "
                                       f"{config.signal_source} source is not")
    _RUNNERS[config.experiment](config, report, out)
    after = getrusage(RUSAGE_SELF)
    report.meta["peak_rss_rise_mb"] = _fmt((after.ru_maxrss - before.ru_maxrss) / 1024)
    report.meta["cpu_user_s"] = _fmt(after.ru_utime - before.ru_utime)
    report.meta["cpu_sys_s"] = _fmt(after.ru_stime - before.ru_stime)
    report.meta["minor_faults"] = _fmt(after.ru_minflt - before.ru_minflt)
    blas = _native._openblas()
    report.meta["blas_threads"] = (str(blas.scipy_openblas_get_num_threads64_())
                                   if blas else "none")
    _write_meta(report, config, out, started)
    return report


def resolve_profile(path_or_name: str | None) -> TransceiverProfile:
    """Load a profile file, or a builtin preset by name ('type1'/'type2')."""
    if path_or_name is None:
        return builtin_profile("type2")
    if path_or_name in ("type1", "type2"):
        return builtin_profile(path_or_name)
    p = Path(path_or_name)
    if not p.exists():
        raise FileNotFoundError(f"profile file not found: {p}")
    return load_profile(p)
