"""The adaptive self-interference canceller: one widely nonlinear LMS.

The canceller runs w <- w + mu * e * conj(reg) on the augmented regressor
[x; x_imd; x*; x_imd*] of length 2(M + N), with
x_imd(n) = k_tiq^{3/2} |x(n)|^2 x(n) over the N newest delays, and so
cancels the linear and the cubic interference jointly (ANCLMS). The
conventional widely linear canceller (ALMS) is the N = 0 case: its
regressor is [x; x*] and it has no IMD taps.

A job may carry a real preconditioner P and then runs the LMS-Newton step
w <- w + mu * e * P conj(reg). With P = R^-1 of a real regressor covariance
R = U Lambda U^T this is the pre-whitened (transform-domain) LMS in original
coordinates: whitening the regressor by Phi = Lambda^{-1/2} U^T and mapping
the whitened weights v back as w = Phi^T v gives P = Phi^T Phi, from the
same zero start. ``newton_preconditioner`` builds P from R; the covariance
of proper Gaussian input couples each regressor entry at most with its
layout partner (x(n-d) with x_imd(n-d), d < N, in each half), so P couples
only those pairs and the step costs O(dim). A covariance or a
preconditioner that couples any other two entries is a ``ValueError``.

``run_jobs`` runs several canceller jobs (``Job``: each one trial's run,
with its own step size, N, steady window, source row z, observation row d,
reference scale, start weights and preconditioner) in one call, each job
on its own reference x = scale z, so that the jobs of several transmit
powers, and of several trials, share one call; M and k_tiq, which shape
every regressor of a call, are the call's arguments. ``run_batch`` runs a
template job once per trial on x itself. Each job returns its trial's
``JobRun`` record: its weights, steady-state MSE, peak residual and first
nonfinite step. A job may also bring a residual row and a tap row, owned by the caller, into
which the kernel adds its per-step records; ``_native.row_address``, the
one check of every caller's row that C writes, refuses a row the kernel
cannot write, before any job runs. The jobs of several trials that share
a row add theirs in their order in the call, so a runner's trial sums are
made in the kernel, with no per-trial row. The LMS steps
run in a small C kernel
(``_lms.c``, built and loaded by ``_native`` on the first call), one call
per set of jobs. Its arithmetic rounds exactly as the numpy expressions
e = d - reg^T w (einsum), w += mu e conj(reg) (or mu e (p_kk conj(reg_k) +
p_kj conj(reg_j)), j the partner of k, entry by entry) and |e|^2 do, so
results are bit-identical to a numpy loop over the steps. The kernel moves
each job's regressor on by one sample of its z per step, forming
x = scale z (each part of z times the scale, as ``signals.Draw.reference``
does) and x_imd from it; the jobs run as the lanes of vectors, eight jobs
per vector on a build with AVX-512F and AVX-512DQ, four on one with AVX2
and FMA and one on any other (``_native.lanes()``), each lane on its own
regressor, and return the bits each job returns alone. A kernel that
cannot allocate its lanes' state raises ``MemoryError``.
``regressor_matrix`` builds the same regressors as rows, for the tests'
numpy loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _native

MIN_STEADY_WINDOW = 2000  # the shortest default steady-state window, in steps


class DegenerateInputError(ValueError):
    """Raised when a regressor covariance is singular."""


@_native.one_blas_thread()
def check_nonsingular(cov) -> None:
    """Raise ``DegenerateInputError`` if an eigenvalue of the symmetric
    covariance ``cov`` is at or below 1e-12 of its largest (on one BLAS
    thread, ``_native.one_blas_thread``)."""
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 1e-12 * abs(eigvals[-1]):
        raise DegenerateInputError("singular regressor covariance")


def newton_preconditioner(cov, M: int, N: int) -> np.ndarray:
    """P = R^-1 of the real symmetric covariance ``cov`` of the M, N
    regressor, inverted block by block in closed form, so that its zeros and
    symmetry are exact.

    R may couple an entry only with its layout partner (``_partner_pairs``).
    Raises ``DegenerateInputError`` if R is singular (``check_nonsingular``;
    k_tiq = 0 makes the nonlinear entries vanish), and ``ValueError`` if R
    is not real symmetric or couples any other two entries.
    """
    r = np.asarray(cov)
    partner, diag, off = _partner_pairs(r, M, N, "covariance")
    if not np.array_equal(r, r.T):
        raise ValueError("the covariance must be symmetric")
    check_nonsingular(r)
    k = np.arange(len(r))
    paired = partner != k
    det = diag * diag[partner] - off * off[partner]
    inv = np.zeros(r.shape)
    inv[k, k] = np.where(paired, diag[partner] / det, 1.0 / diag)
    inv[k[paired], partner[paired]] = -off[paired] / det[paired]
    return inv


def default_steady_window(n_steps: int) -> int:
    """Final 20% of iterations, at least MIN_STEADY_WINDOW, capped at the run."""
    return min(n_steps, max(int(0.2 * n_steps), MIN_STEADY_WINDOW))


def regressor_matrix(x, M: int, N: int = 0, k_tiq: float = 1.0) -> np.ndarray:
    """All augmented regressors [x; x_imd; x*; x_imd*] of a sequence, as rows.

    ``x`` has shape (..., n) and the result (..., n-M+1, 2(M+N)). Row t
    belongs to time index M-1+t, the first index with a full window, and
    starts [x(n), x(n-1), ..., x(n-M+1)]; x_imd covers the N newest delays.
    N = 0 gives the widely linear regressor [x; x*].
    """
    if not 0 <= N < M:
        raise ValueError("need 0 <= N < M")
    xs = np.asarray(x, dtype=np.complex128)
    if xs.shape[-1] < M:
        raise ValueError("sequence shorter than the window")
    def newest_first(v):
        return np.lib.stride_tricks.sliding_window_view(v, M, axis=-1)[..., ::-1]

    half = M + N
    win = newest_first(xs)
    rows = np.empty((*win.shape[:-1], 2 * half), dtype=np.complex128)
    rows[..., :M] = win
    if N:
        # the third-order PA product k_tiq^{3/2} |x|^2 x
        rows[..., M:half] = newest_first(k_tiq ** 1.5 * np.abs(xs) ** 2 * xs)[..., :N]
    np.conjugate(rows[..., :half], out=rows[..., half:])
    return rows


@dataclass
class JobRun:
    """One trial's run of a canceller job."""

    final_weights: np.ndarray         # (dim,)
    mean_weights: np.ndarray          # (dim,), window-averaged
    steady_state_mse: float
    peak_residual: float              # max |e|^2 over the run
    d_power: float                    # mean |d|^2 of the samples its steps observed
    diverged_at: int                  # first nonfinite step, -1 if none
    n_steps: int

    @property
    def diverged(self) -> bool:
        """Whether the trajectory went nonfinite."""
        return self.diverged_at >= 0


class Job(NamedTuple):
    """A canceller job of ``run_jobs``, one trial's run: its step size
    ``mu`` (0 freezes the filter), its IMD taps per branch ``N`` (0 is the
    widely linear ALMS), its ``steady_window`` in steps (None for
    ``default_steady_window``), its source row ``z`` and observation row
    ``d`` (1-D, of one length), the ``scale`` of its reference x = scale z,
    its start weights ``w0`` (a vector of its 2(M + N) weights, None for
    zero), a real preconditioner P (a 2(M + N) square matrix that couples
    an entry only with its layout partner, as ``newton_preconditioner``
    gives; None for the plain LMS), and the rows ``residuals`` (float64, one
    per step) and ``taps`` (complex128, one row of the tracked weights per
    kept step) to which the run adds its records (None keeps none). M and
    k_tiq belong to the call (``run_jobs``)."""

    mu: float
    N: int = 0
    steady_window: int | None = None
    z: np.ndarray | None = None
    d: np.ndarray | None = None
    scale: float = 1.0
    w0: np.ndarray | None = None
    preconditioner: np.ndarray | None = None
    residuals: np.ndarray | None = None
    taps: np.ndarray | None = None


def _partner_pairs(matrix, M: int, N: int, name: str):
    """``(partner, diagonal, coupling)`` of the real 2(M + N) square
    ``matrix``: entry k's layout partner, x(n-d) for x_imd(n-d) and back,
    for d < N, in each half (k itself for an entry without one), the
    diagonal, and matrix[k, partner[k]] (0 for an entry without one).
    Raises ``ValueError``, naming the matrix ``name``, if it has another
    shape or couples any other two entries."""
    dim = 2 * (M + N)
    p = np.asarray(matrix)
    if p.shape != (dim, dim) or np.iscomplexobj(p):
        raise ValueError(f"the {name} must be a real {dim} x {dim} matrix")
    p = p.astype(np.float64)
    e = np.arange(M + N)
    half = np.where(e < N, e + M, np.where(e >= M, e - M, e))
    partner = np.concatenate([half, half + M + N])
    k = np.arange(dim)
    outside = p.copy()
    outside[k, k] = outside[k, partner] = 0.0
    if outside.any():
        raise ValueError(f"the {name} may couple an entry only with its "
                         "layout partner, x(n-d) with x_imd(n-d) for d < N")
    return partner, np.diag(p), np.where(partner != k, p[k, partner], 0.0)


def run_jobs(jobs: list[Job], M: int, k_tiq: float, track_taps: tuple[int, ...] = (),
             tap_stride: int = 1) -> list[JobRun]:
    """Run every ``Job``, each one trial's run, in one kernel call with M
    delays of the reference and the Tx I/Q gain ``k_tiq``; return one
    ``JobRun`` per job.

    A job runs on the reference x = ``job.scale`` z of its source row
    ``job.z`` and on its observation row ``job.d``: every job's z and d are
    1-D rows of one length (a ``ValueError`` otherwise). Each part of x is
    the part of z times the scale, as ``signals.Draw.reference`` forms it
    (so a scale of 1 runs on z itself). The jobs may differ in every field,
    their rows included, so the jobs of one call may be those of several
    trials; a job with mu < 0 or N outside 0 <= N < M is a ``ValueError``. Each job returns exactly what it returns alone; a
    kernel that cannot allocate its lanes' state is a ``MemoryError``. A
    job's ``residuals`` row, of one value per step, has |e|^2 of each step
    added to it; its ``taps`` row, (ceil(steps / tap_stride),
    len(track_taps)), has the weights listed in ``track_taps`` (indices
    into each job's own weight vector) after steps 0, tap_stride,
    2 tap_stride, ... added to it. Jobs may share a row: each step's
    records are added in the jobs' order in ``jobs``, so a row that starts
    at -0.0 (-0.0 + x is x, bit for bit) ends with one job's records, or
    the in-order sum of several jobs'. A row of another shape or dtype, not
    C-contiguous or read-only is a ``ValueError``.
    """
    if not jobs:
        raise ValueError("run_jobs needs at least one job")
    if not all(isinstance(job, Job) for job in jobs):
        raise TypeError("run_jobs takes a list of Job records")
    rows = [tuple(np.ascontiguousarray(row, dtype=np.complex128) for row in (job.z, job.d))
            for job in jobs]
    shape = rows[0][0].shape
    if any(z.ndim != 1 or not z.shape == d.shape == shape for z, d in rows):
        raise ValueError("every job's z and d must be 1-D rows of one length")
    if tap_stride < 1:
        raise ValueError("tap_stride must be a positive step count")
    n_steps = shape[0] - M + 1
    kept = -(-n_steps // tap_stride)
    # each preconditioner P as the kernel reads it, row k holding P[k, k] and
    # P[k, partner(k)], formed once for the jobs of the call that share it
    forms = {}
    runs, outputs = [], []
    for job, (z, d) in zip(jobs, rows):
        if job.mu < 0:
            raise ValueError("mu must be nonnegative (0 freezes the filter)")
        if not 0 <= job.N < M:
            raise ValueError("need 0 <= N < M")
        dim = 2 * (M + job.N)
        window = job.steady_window or default_steady_window(n_steps)
        if n_steps <= 0 or window > n_steps:
            raise ValueError("sequences too short for the requested run")
        if job.w0 is not None and np.shape(job.w0) != (dim,):
            raise ValueError(f"w0 must be a vector of {dim} weights")
        key = (id(job.preconditioner), job.N)
        if job.preconditioner is not None and key not in forms:
            forms[key] = np.stack(_partner_pairs(job.preconditioner, M, job.N,
                                                 "preconditioner")[1:], axis=1)
        # IndexError if out of range. Built from a Python range: np.arange
        # lets go of the interpreter lock to fill its array, and getting it
        # back can wait for the trial loop's producer thread (100-400 us a
        # job in a run, against 1-2 us alone)
        tap_idx = np.array([range(dim)[k] for k in track_taps], dtype=np.int64)
        w = np.array(np.zeros(dim) if job.w0 is None else job.w0, dtype=np.complex128)
        w_accum = np.empty_like(w)
        runs.append(_native.Run(
            n_steps, dim, n_steps - window, job.mu, job.scale,
            *(a.ctypes.data for a in (z, d, w, w_accum)),
            _native.row_address(job.residuals, np.float64, (n_steps,),
                                "a job's residuals"),
            len(tap_idx), tap_idx.ctypes.data, tap_stride,
            _native.row_address(job.taps, np.complex128, (kept, len(tap_idx)),
                                "a job's taps"),
            forms[key].ctypes.data if key in forms else None))
        # the arrays the kernel writes (and tap_idx, which it reads: rows,
        # forms and the jobs hold the rest) kept alive until it has run
        outputs.append((window, w, w_accum, tap_idx))
    # the array holds copies of the structs: the kernel's outputs are read
    # back from it
    runs = (_native.Run * len(runs))(*runs)
    if not _native.library().lms_raw(M, k_tiq ** 1.5, len(runs), runs):
        raise MemoryError("the LMS kernel cannot allocate the state of its lanes")
    # a diverged run carries inf/nan weights and window sums; the kernel
    # flags it (diverged_at)
    with np.errstate(over="ignore", invalid="ignore"):
        return [JobRun(w, w_accum / window, run.steady_mse, run.peak, run.d_power,
                       run.diverged_at, n_steps)
                for run, (window, w, w_accum, _) in zip(runs, outputs)]


def run_batch(xs: np.ndarray, ds: np.ndarray, job: Job, M: int, k_tiq: float,
              keep_residuals: bool = True, track_taps: tuple[int, ...] = (),
              tap_stride: int = 1) -> list[tuple]:
    """Run each trial, a row of ``xs`` and ``ds``, as the template ``job``:
    ``run_jobs`` with M and ``k_tiq`` over ``job`` on each row pair (x, d)
    at scale 1, each with rows of its own; return each trial's
    ``(run, residuals, taps)`` in trial order: its ``JobRun`` and its
    residual and tap rows (None where not kept).

    The template's step size, N, steady window, start weights and
    preconditioner run every trial; its rows are not used. Step t adapts on
    the regressor of sample M-1+t, so a row of n samples runs n-M+1 steps.
    Trials are independent: each record depends on its own input rows
    alone. A 1-D ``xs`` and ``ds`` are one trial. ``keep_residuals`` keeps
    |e|^2 per step; ``track_taps`` keeps the listed weights after every
    ``tap_stride``-th step from step 0.
    """
    n_steps = max(np.shape(xs)[-1] - M + 1, 0)
    kept = -(-n_steps // max(tap_stride, 1))  # run_jobs refuses a stride below 1
    # -0.0 rows, which the kernel's first record leaves bit for bit
    jobs = [job._replace(z=x, d=d, scale=1.0,
                         residuals=np.full(n_steps, -0.0) if keep_residuals else None,
                         taps=np.full((kept, len(track_taps)), -0.0j) if track_taps else None)
            for x, d in zip(np.atleast_2d(xs), np.atleast_2d(ds), strict=True)]
    runs = run_jobs(jobs, M, k_tiq, track_taps, tap_stride)
    return [(run, job.residuals, job.taps) for run, job in zip(runs, jobs)]
