"""Experiment runner: sweeps, Monte Carlo trials, CSV/SVG reports.

Every experiment is deterministic for a fixed (config, seed): ``_trial``
applies the seed rule, ``iter_trials`` makes the trials a group at a time
on one producer thread, and ``run_trials`` runs every canceller job
(``cancellers.Job``) of a pass of grid points on them, a group a kernel
call. A grid point is a ``transceiver.OperatingPoint``, made by ``_point``:
the one record of it that the render and the closed forms read, so a
runner hands the point it simulates to the theory with each step size.

A runner builds its jobs and reduces their runs across trials once,
straight into the CSV columns, ``meta.txt`` lines and checks it writes:
bias and convergence read the rows into which the kernel sums each job's
trials in trial order (tap trajectories, residual powers), and bias sums
its base step's window-mean weight errors in trial order too; the sweep
sums each job's steady-state MSEs, and bounds-probe reads each run's MSE
and divergence verdict. The sweep walks its grid in passes of two points,
convergence runs its two reference powers as one pass, and every other
canceller runner one point a pass. ``power-budget`` runs no canceller: it
renders trial 0 at every grid point, a point at a time, from one draw, by
``_trial`` alone. Each plotted curve is backed by a CSV column.
``run_experiment`` is every run's skeleton: it makes the output directory
and the report, times the run and writes ``meta.txt``, with the phase
times of ``PhaseClock``. Every run makes its checks; what a failed one
means is its caller's choice (the command line's ``--check`` turns it into
exit status 3).

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
from .cancellers import (MIN_STEADY_WINDOW, Job, JobRun, check_nonsingular,
                         newton_preconditioner, regressor_matrix, run_batch, run_jobs)
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
CONVERGENCE_TX_DBM = 15.0          # convergence's one transmit power
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
        # the noise budget at each transmit power the run renders at raises
        # outside the floating-point range
        runs_at = {"bias": [self.profile.tx_power_dbm], "convergence": [CONVERGENCE_TX_DBM],
                   "bounds-probe": self.tx_grid_dbm[:1]}
        for tx in runs_at.get(self.experiment, self.tx_grid_dbm):
            compute_noise_budget(self.profile.with_tx_power(tx))
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
        if self.experiment == "bounds-probe":
            # its steps are fractions of the ANCLMS mean-square bound, which a
            # singular regressor covariance leaves undefined: a
            # DegenerateInputError, a ValueError
            prof = self.profile.with_tx_power(self.tx_grid_dbm[0])
            check_nonsingular(rb_matrix(prof.natural_sigma_x2, prof.k_tiq, self.M, self.N))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _diverged(run: JobRun) -> bool:
    """Whether ``run`` diverged: it went non-finite, or its peak residual
    exceeds 1e3 times the mean |d|^2 of the observation it ran on
    (``JobRun.d_power``, measured by the kernel)."""
    return bool(run.diverged or run.peak_residual > 1e3 * run.d_power)


class PhaseClock:
    """Wall and thread CPU seconds of a run's generate, render and LMS
    phases, of the LMS loop's waits for its next trial, of its closed-form
    theory (bounds, analyses, transients and the condition landscape) and
    of writing its CSVs and SVGs (output, ``ExperimentReport.add_csv`` and
    ``add_svg``), the samples drawn and rendered, and the LMS calls: the
    trial-steps they took, their number, the lane count (jobs per vector)
    of the build that ran them, the (trial, job) pairs they ran and the
    lanes they offered, and, by job label, the trials that diverged and the
    first non-finite step of each trial that went non-finite.

    The producer thread of ``iter_trials`` updates only the generate and
    render times and the sample counts, the caller's thread only the rest,
    so no key has two writers.
    """

    # the trial loop's phases, then the run's theory and the writing of its
    # files, whose keys their first use adds
    PHASES = ("generate", "render", "lms", "wait", "theory", "output")

    def __init__(self):
        self.seconds = dict.fromkeys(self.PHASES[:4], 0.0)
        self.cpu_seconds = dict.fromkeys(self.PHASES[:4], 0.0)
        self.samples = 0
        self.samples_rendered = 0
        self.trial_steps = 0
        self.lms_calls = 0
        self.lms_lanes = 1
        self.lms_jobs = 0
        self.lms_lanes_offered = 0
        self.diverged: dict[str, int] = {}  # diverged trials by job label
        self.first_nonfinite: dict[str, list[int]] = {}  # by label, in trial order

    def count_lms(self, runs: list[tuple[str, JobRun]], lanes: int):
        """Count one LMS call that ran, in ``lanes`` lanes per vector, the
        ``runs``, a ``(label, run)`` each; count the runs that diverged
        (``_diverged``) by label and keep the first non-finite step of each
        that went non-finite."""
        self.lms_calls += 1
        self.lms_lanes = lanes
        self.lms_jobs += len(runs)
        self.lms_lanes_offered += -(-len(runs) // lanes) * lanes
        for label, run in runs:
            self.trial_steps += run.n_steps
            if _diverged(run):
                self.diverged[label] = self.diverged.get(label, 0) + 1
            if run.diverged:
                self.first_nonfinite.setdefault(label, []).append(run.diverged_at)

    @contextmanager
    def phase(self, name: str):
        started, cpu = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - started)
            self.cpu_seconds[name] = (self.cpu_seconds.get(name, 0.0)
                                      + time.thread_time() - cpu)

    def meta_lines(self) -> list[str]:
        lines = [f"phase{kind}.{name}_s = {seconds.get(name, 0.0):.4g}"
                 for kind, seconds in (("", self.seconds), ("_cpu", self.cpu_seconds))
                 for name in self.PHASES]
        if self.samples:
            lines += [f"samples = {self.samples}",
                      f"samples_rendered = {self.samples_rendered}"]
            lines += [f"ns_per_sample.{name} = {1e9 * self.seconds[name] / count:.4g}"
                      for name, count in (("generate", self.samples),
                                          ("render", self.samples_rendered))]
        if self.trial_steps:
            ns, ns_cpu = (1e9 * seconds["lms"] / self.trial_steps
                          for seconds in (self.seconds, self.cpu_seconds))
            first = min(map(min, self.first_nonfinite.values()), default="none")
            lines += [f"trial_steps = {self.trial_steps}",
                      f"ns_per_trial_step = {ns:.4g}",
                      f"ns_per_trial_step_cpu = {ns_cpu:.4g}",
                      f"lms_lanes = {self.lms_lanes}",
                      f"lms_calls = {self.lms_calls}",
                      f"lms_lane_fill = {self.lms_jobs / self.lms_lanes_offered:.4g}",
                      f"diverged_trials = {sum(self.diverged.values())}",
                      f"first_nonfinite_step = {first}"]
            lines += [f"diverged_trials[{label}] = {count}"
                      for label, count in self.diverged.items()]
            lines += [f"first_nonfinite_step[{label}] = {min(steps)}"
                      for label, steps in self.first_nonfinite.items()]
        return lines


@dataclass
class ExperimentReport:
    csv_paths: list[Path] = field(default_factory=list)
    svg_paths: list[Path] = field(default_factory=list)
    meta_path: Path | None = None
    checks: list[CheckResult] = field(default_factory=list)
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


def _fmt(v) -> str:
    """One value as ``_column`` formats it."""
    fmt, (value,) = _column([v])
    return fmt % value


def write_csv(path: Path, x_name: str, x_values, curves: dict) -> Path:
    """First column ``x_name``, one column per curve, each in ``_column``'s
    format: one row per x value, and a ``ValueError`` for
    a curve of any other length."""
    fmts, columns = zip(_column(x_values), *map(_column, curves.values()))
    row = ",".join(fmts)
    lines = [",".join([x_name, *curves.keys()]),
             *(row % values for values in zip(*columns, strict=True))]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_meta(report: ExperimentReport, config: ExperimentConfig,
                out: Path, started: float):
    """Write ``meta.txt``: the configuration, the duration since the
    ``time.perf_counter()`` reading ``started``, ``report.meta`` (a runner's
    step size among it), the phase clock and the checks."""
    lines = [
        f"experiment = {config.experiment}",
        f"version = {__version__}",
        f"seed = {config.seed}",
        f"trials = {config.trials}",
        f"iterations = {config.iterations}",
        f"signal_source = {config.signal_source}",
        f"M = {config.M}",
        f"N = {config.N}",
        f"tx_grid_dbm = {','.join(map(_fmt, config.tx_grid_dbm))}",
        f"duration_s = {time.perf_counter() - started:.4g}",
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


@contextmanager
def iter_trials(config: ExperimentConfig, points: list[OperatingPoint], n: int,
                clock: PhaseClock, group: int = 1):
    """A context manager, ``with iter_trials(...) as groups``, whose
    ``groups`` yields the trials t = 0 ... config.trials - 1 in groups of
    ``group`` consecutive trials (the last may be shorter), each group a list
    of ``(draw, ds)``, one per trial, made by ``_trial``: the draw of ``n``
    samples and the observation row d of each point. ``clock`` also times
    the waits for each group.

    One producer thread, ``fdsic-trials``, started once for the whole loop,
    generates and renders the groups in order into two sets of rows, one
    source row and one observation row per point for each trial of a
    group, group g + 1 while the caller runs group g: two semaphores hand
    each group over and let the producer start the next, so a group's rows
    are overwritten once the caller asks for the group after it: a consumer
    copies whatever it keeps. Only the ``config.trials`` trials asked for
    are made (a caller that wants fewer passes a config with fewer). An
    error in the producer is raised from ``groups`` with its own type.
    Leaving the block, by an error in the caller or before the last group,
    lets the producer finish the group in hand and joins its thread; a
    producer error that no group handed over becomes the ``__context__`` at
    the end of the caller's error's context chain, so that its traceback
    names both.
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
            made.append((draw, ds))
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

    def groups():
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

    # a daemon, so that a context entered and never left cannot hold up the
    # interpreter's exit with its producer waiting for a request
    producer = threading.Thread(target=produce, name="fdsic-trials", daemon=True)
    producer.start()
    failed = None  # the caller's error that ends the block
    try:
        yield groups()
    except BaseException as exc:
        failed = exc
        raise
    finally:
        stopping = True
        asked.release()
        producer.join()
        if failed is not None and slot and isinstance(slot[0], BaseException):
            while failed.__context__ is not None:
                failed = failed.__context__
            failed.__context__ = slot[0]


def run_trials(config: ExperimentConfig, points: list[tuple[OperatingPoint, dict[str, Job]]],
               n: int, clock: PhaseClock, keep=None, **run_options) -> dict[str, list]:
    """Run every trial of ``iter_trials`` over the ``points`` of a pass and
    return ``keep(run)`` of each job's ``JobRun`` of each trial, in trial
    order, by label in the order of ``points``: a runner keeps only what it
    reads of the runs, so its results grow by that much a trial. With no
    ``keep`` the lists stay empty, for a runner that reads only the rows
    its jobs fill.

    ``points`` holds one ``(point, jobs)`` pair per point, ``jobs`` the
    point's ``Job`` records by label; each job runs on the trial's source
    row and its observation at the job's point, with the point's reference
    scale (``z``, ``d`` and ``scale`` are filled in here). The points of a
    pass share M and k_tiq (a ``ValueError`` otherwise), and each
    ``run_jobs`` call runs with them, so a job adapts with the k_tiq its
    observation was rendered with. One ``run_jobs`` call with
    ``run_options`` runs the jobs of every point for a group of consecutive
    trials, width-major, then job-major: the jobs of each canceller width N
    in turn (ALMS first), in label order, each job's lanes over the group's
    trials side by side. A group is the fewest trials whose jobs of each
    width fill whole vectors of ``lanes`` (``_native.lanes()``) if its rows
    (1 + points a trial) number at most ``lanes``, else
    lanes / gcd(lanes, jobs), whose jobs fill them together. So a vector
    holds one width, or one job, where the group allows, and only a
    preconditioned job's vector pays the LMS-Newton operations. Every trial
    of a job shares its ``residuals`` and ``taps`` rows, if it has any, and
    its trials of a call are consecutive lanes in trial order, so the
    kernel adds their records into those rows in trial order. The call is
    timed as the LMS phase and counted, with its divergence verdicts, by
    ``PhaseClock.count_lms``.
    """
    M, k_tiq = points[0][0].M, points[0][0].k_tiq
    if any(point.M != M or point.k_tiq != k_tiq for point, _ in points):
        raise ValueError("the points of one pass must share M and k_tiq")
    # the call's layout: (label, index of its point, job), width-major
    calls = sorted(((label, k, job) for k, (_, jobs) in enumerate(points)
                    for label, job in jobs.items()), key=lambda call: call[2].N)
    lanes = _native.lanes()
    widths = Counter(job.N for *_, job in calls).values()
    group = math.lcm(*(lanes // math.gcd(lanes, count) for count in widths))
    if group * (1 + len(points)) > lanes:
        group = lanes // math.gcd(lanes, len(calls))
    runs = {label: [] for _, jobs in points for label in jobs}
    with iter_trials(config, [point for point, _ in points], n, clock, group) as groups:
        for made in groups:
            jobs = [job._replace(z=draw.samples, d=ds[k], scale=draw.scale(points[k][0].sigma_x2))
                    for _, k, job in calls for draw, ds in made]
            with clock.phase("lms"):
                results = iter(run_jobs(jobs, M, k_tiq, **run_options))
            ran = [(label, run) for label, *_ in calls
                   for run in itertools.islice(results, len(made))]
            clock.count_lms(ran, lanes)
            for label, run in ran if keep else ():
                runs[label].append(keep(run))
    return runs


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
    report.meta["tx_power_dbm"] = _fmt(config.profile.tx_power_dbm)
    with report.clock.phase("theory"):
        bound = alms_ms_bound(point.sigma_x2, config.M)
    n_iters = config.iterations
    stride = max(1, n_iters // 2000)
    # the plotted steps of the n_iters + 1, as the kernel keeps them
    iters_axis = np.arange(0, n_iters + 1, stride)
    base_mu = _resolve_mu(config, bound, report)
    # each column is labelled with its step size as a fraction of the bound
    tags = [f"mu{mu / bound:g}" for mu in (base_mu, 2 * base_mu)]
    w_opts = {"alms": point.channels.stacked_linear(),
              "anclms": point.channels.stacked_nonlinear()}

    # per job, by label: taps 1 and 2 at the plotted steps, (steps, 2), summed
    # by the kernel in trial order (run_trials' job-major lanes) into one row
    # that starts at -0.0, as a -0.0 + x is x bit for bit
    jobs = {f"{label}_{tag}": Job(mu, n_imd, int(0.9 * n_iters) if label == "alms" else None,
                                  taps=np.full((len(iters_axis), 2), -0.0j))
            for mu, tag in zip((base_mu, 2 * base_mu), tags)
            for label, n_imd in (("alms", 0), ("anclms", config.N))}
    mean_weights = run_trials(config, [(point, jobs)], n_iters + config.M, report.clock,
                              keep=lambda run: run.mean_weights,
                              track_taps=(0, 1), tap_stride=stride)
    # the bias does not depend on the step size
    with report.clock.phase("theory"):
        bias = alms_bias(point)

    # a diverged trial's inf or nan weights may overflow the sums and the
    # norm's squares, and a complex quotient of inf or nan parts warns
    traces = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for tag in tags:
            for label, w_opt in w_opts.items():
                tap_mean = jobs[f"{label}_{tag}"].taps / config.trials
                for tap in (0, 1):
                    traces[f"{label}_{tag}_tap{tap + 1}"] = (
                        np.abs(tap_mean[:, tap] - w_opt[tap]) / abs(w_opt[tap]))
            for tap in (0, 1):
                traces[f"theory_bias_{tag}_tap{tap + 1}"] = np.full(
                    len(iters_axis), abs(bias[tap]) / abs(w_opts["alms"][tap]))
        # the error of the base step's window-mean weights, summed in trial
        # order from -0.0 too
        mean_err = {label: sum((w - w_opt for w in mean_weights[f"{label}_{tags[0]}"]),
                               np.full(len(w_opt), -0.0j)) / config.trials
                    for label, w_opt in w_opts.items()}
        anorm = np.linalg.norm(mean_err["anclms"]) / np.linalg.norm(w_opts["anclms"])
    report.meta["anclms_weight_error_norm_frac"] = _fmt(anorm)

    idx = np.concatenate([np.arange(config.N), config.M + np.arange(config.N)])
    theory_abs = np.abs(bias[idx])
    # a tap with no theoretical bias (image taps at irr = inf) is held
    # relative to the largest bias of the table
    scale = np.where(theory_abs > 0, theory_abs, theory_abs.max())
    rel = np.abs(mean_err["alms"][idx] - bias[idx]) / scale
    report.add_csv(out / "bias.csv", "iteration", iters_axis, traces)
    report.add_csv(out / "bias_taps.csv", "tap", idx + 1,
                   {"theory_abs": theory_abs, "measured_abs": np.abs(mean_err["alms"][idx]),
                    "rel_error": rel})
    report.add_svg(
        line_plot, out / "bias.svg", iters_axis,
        {k: 20.0 * np.log10(np.maximum(v, 1e-300)) for k, v in traces.items()},
        "Normalized error-coefficient magnitude (dB)", "iteration",
        "20 log10 |w_err / w_opt|")

    report.add_check("alms_bias_10pct", bool(np.all(rel <= 0.10)),
                     f"worst per-tap rel error {rel.max():.3g}")
    for tap in (1, 2):
        final = traces[f"anclms_{tags[0]}_tap{tap}"][-5:].mean()
        report.add_check(f"anclms_bias_removed_tap{tap}", final < 1e-2,
                         f"final normalized error {final:.2e} (< -40 dB)")
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

    trial_mse = {}
    for first in range(0, len(points), 2):
        pair = [(point, jobs) for point, _, jobs in points[first:first + 2]]
        trial_mse |= run_trials(config, pair, config.iterations + config.M, report.clock,
                                keep=lambda run: run.steady_state_mse)

    cols = {k: [] for k in (
        "alms_sinr_sim_db", "alms_sinr_theory_db", "anclms_sinr_sim_db",
        "anclms_sinr_theory_db", "alms_att_sim_db", "alms_att_theory_db",
        "anclms_att_sim_db", "anclms_att_theory_db")}
    for point, mu, jobs in points:
        with report.clock.phase("theory"):
            theory = (alms_steady_mse(point, mu, alms_regime(point)),
                      anclms_steady_mse(point, mu))
        for name, label, j_theory in zip(("alms", "anclms"), jobs, theory):
            mse = float(np.sum(trial_mse[label])) / config.trials
            # a diverged job's infinite MSE reads -inf dB, named in meta.txt
            with np.errstate(divide="ignore"):
                cols[f"{name}_sinr_sim_db"].append(lin_to_db(point.p_x_soi / mse))
                cols[f"{name}_sinr_theory_db"].append(lin_to_db(point.p_x_soi / j_theory))
                cols[f"{name}_att_sim_db"].append(lin_to_db(point.d_power / mse))
                cols[f"{name}_att_theory_db"].append(lin_to_db(point.d_power / j_theory))

    report.add_csv(out / "sinr-sweep.csv", "tx_power_dbm", grid, cols)
    # two views of the one run: SINR, and digital attenuation (the power
    # before cancellation over the residual)
    for svg, view, title in (("sinr-sweep.svg", "_sinr_", "Achievable steady-state SINR"),
                             ("attenuation.svg", "_att_", "Digital attenuation")):
        report.add_svg(
            line_plot, out / svg, grid, {k: np.array(v) for k, v in cols.items() if view in k},
            title, "transmit power (dBm)", "dB")
    report.meta["anclms_iterations"] = ";".join(f"{tx:g}:{config.iterations}"
                                                for tx in grid)
    report.meta["anclms_start"] = "wiener"

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


def _iterations_to_within(curve: np.ndarray, block: int) -> int:
    """The iterations until ``curve``, an SINR in dB per ``block``
    iterations, stays within 1 dB below its steady state, the median of its
    last tenth of blocks (at least one): ``block`` times the blocks up to
    and including the last one further below (or NaN)."""
    steady = _median(curve[-max(len(curve) // 10, 1):])
    short = np.flatnonzero(~(curve >= steady - 1.0))
    return int(short[-1] + 1 if short.size else 0) * block


def run_convergence(config: ExperimentConfig, report: ExperimentReport, out: Path):
    """Condition-number heatmap plus whitened-vs-raw SINR evolution."""
    prof = config.profile.with_tx_power(CONVERGENCE_TX_DBM)
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

    n_steps = n_iters + 1
    n_points = n_steps // block
    # the runs in the column order of convergence.csv, each with a residual
    # row, into which the kernel adds its trials' residual powers in trial
    # order (run_trials' job-major lanes), from -0.0, as -0.0 + x is x bit
    # for bit
    jobs = {label: Job(mu, config.N, preconditioner=pre, residuals=np.full(n_steps, -0.0))
            for label, mu, pre in (("anclms_optimal", mu_opt, None),
                                   ("anclms_suboptimal", mu_sub, None),
                                   ("anclms_whitened", mu_white, newton))}
    # one pass of both reference powers, as the sweep's pairs of points: each
    # trial draws its source row once, renders it at each power and runs all
    # three jobs in one kernel call
    points = [(opt, {label: jobs[label] for label in ("anclms_optimal", "anclms_whitened")}),
              (_point(config, prof, s_sub), {"anclms_suboptimal": jobs["anclms_suboptimal"]})]
    run_trials(config, points, n_iters + config.M, report.clock)
    # each run's SINR curve of n_points block means: a diverged trial's huge
    # or non-finite residuals may have overflowed a sum; a quotient by the
    # trial count never overflows
    curves = {}
    for label, job in jobs.items():
        mean = job.residuals / config.trials
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
                   f"SINR evolution at {CONVERGENCE_TX_DBM:g} dBm transmit power", "iteration",
                   "SINR (dB)")

    reach = {label: _iterations_to_within(curves[label], block) for label in jobs}
    for label, iters in reach.items():
        report.meta[f"iters_to_1db_{label}"] = str(iters)

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
    # per trial: (steady-state MSE, whether it diverged)
    trial_runs = run_trials(config, [(point, jobs)], config.iterations + config.M,
                            report.clock, keep=lambda run: (run.steady_state_mse, _diverged(run)))

    rows = []
    for label, frac in itertools.product(bounds, fracs):
        key = f"{label}_mu{frac:g}"
        mu = jobs[key].mu
        steady_mse, grew = map(np.array, zip(*trial_runs[key]))
        report.meta[f"first_divergence[{key}]"] = _divergence_note(
            report.clock.first_nonfinite.get(key, []))
        j_theory = math.inf
        if frac < 1.0:
            with report.clock.phase("theory"):
                j_theory = (alms_steady_mse(point, mu, alms_regime(point)) if label == "alms"
                            else anclms_exact_steady_mse(ana, noise, mu))
        conv = steady_mse[~grew]
        # variant 0 is ALMS, 1 ANCLMS
        rows.append((label == "anclms", frac, mu, int(grew.sum()), j_theory,
                     conv.mean() if conv.size else math.inf, _median(steady_mse)))
    cols = dict(zip(("variant", "mu_frac", "mu", "n_diverged", "theory_mse", "mean_mse",
                     "median_mse"), zip(*rows), strict=True))

    report.add_csv(out / "bounds-probe.csv", "row", np.arange(len(jobs)), cols)
    n_div = cols["n_diverged"]
    report.add_svg(
        line_plot, out / "bounds-probe.svg", fracs,
        {"alms_diverged": n_div[:len(fracs)], "anclms_diverged": n_div[len(fracs):]},
        "Diverged trials vs step-size fraction", "mu / bound", "diverged trials")

    # a probe's verdict is diverged if more than half its trials diverged
    diverged, half = dict(zip(jobs, n_div)), config.trials // 2
    report.add_check("alms_0.9_converged", diverged["alms_mu0.9"] <= half,
                     f"{diverged['alms_mu0.9']} diverged")
    report.add_check("alms_1.5_diverged", diverged["alms_mu1.5"] >= 0.9 * config.trials,
                     f"{diverged['alms_mu1.5']} diverged")
    report.add_check("anclms_edge_bracketed",
                     diverged["anclms_mu0.9"] <= half < diverged["anclms_mu1.5"],
                     "empirical edge between the mean-square and mean bounds")


def _divergence_note(steps: list[int]) -> str:
    """Count, earliest and median of the first non-finite steps ``steps``."""
    if not steps:
        return "none"
    return f"n={len(steps)} earliest={min(steps)} median={_median(steps):g}"


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
    started = time.perf_counter()
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
