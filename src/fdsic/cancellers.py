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

``run_jobs`` runs several canceller jobs (``Job``: each its own step size,
N, steady window, observation rows d, reference scale, start weights and
preconditioner) on one set of source rows z, each job on its own
reference x = scale z, so that the jobs of several transmit powers share
one call; ``run_batch`` runs one job on x itself. Each trial runs on its
own and returns per-trial rows, and averaging across trials is the
caller's. The LMS steps run in a small C kernel (``_lms.c``, built and
loaded by ``_native`` on the first call), one call per set of jobs. Its
arithmetic rounds exactly as the numpy expressions e = d - reg^T w
(einsum), w += mu e conj(reg) (or mu e (p_kk conj(reg_k) + p_kj
conj(reg_j)), j the partner of k, entry by entry) and |e|^2 do, so
results are bit-identical to a numpy loop over the steps. The kernel moves
each job's regressor on by one sample of z per step, forming x = scale z
(each part of z times the scale, as ``signals.Draw.reference`` does) and
x_imd from it; the jobs run as the lanes of vectors, four jobs per vector
on a build with AVX2 and FMA and one on any other, each lane on its own
regressor, and return the bits each job returns alone. Each ``BatchRun``
records the lanes per vector its call ran (``lanes``), and a kernel that
cannot allocate its lanes' state raises ``MemoryError``.
``regressor_matrix`` builds the same regressors as rows, for the tests'
numpy loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _native
from .transceiver import imd_sequence

MIN_STEADY_WINDOW = 2000  # the shortest default steady-state window, in steps


class DegenerateInputError(ValueError):
    """Raised when a regressor covariance is singular."""


def check_nonsingular(cov) -> None:
    """Raise ``DegenerateInputError`` if an eigenvalue of the symmetric
    covariance ``cov`` is at or below 1e-12 of its largest."""
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


@dataclass(frozen=True)
class CancellerConfig:
    mu: float
    M: int
    N: int = 0           # IMD taps per branch; 0 is the widely linear ALMS
    k_tiq: float = 1.0
    steady_window: int | None = None

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative (0 freezes the filter)")
        if not 0 <= self.N < self.M:
            raise ValueError("need 0 <= N < M")


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
        rows[..., M:half] = newest_first(imd_sequence(xs, k_tiq))[..., :N]
    np.conjugate(rows[..., :half], out=rows[..., half:])
    return rows


@dataclass
class BatchRun:
    """Per-trial results of a run (row t belongs to trial t)."""

    final_weights: np.ndarray         # (trials, dim)
    mean_weights: np.ndarray          # (trials, dim), window-averaged
    steady_state_mse: np.ndarray      # (trials,)
    peak_residual: np.ndarray         # (trials,) max |e|^2 over the run
    diverged: np.ndarray              # (trials,) bool (nonfinite trajectory)
    diverged_at: np.ndarray           # (trials,) first nonfinite step, -1 if none
    n_steps: int
    lanes: int                        # jobs per vector of its call: 4 (AVX2) or 1
    residual_power: np.ndarray | None = None    # (trials, n_steps)
    taps: np.ndarray | None = None              # (trials, kept steps, len(track_taps))


def _address(array: np.ndarray | None):
    return None if array is None else array.ctypes.data


class Job(NamedTuple):
    """A canceller job of ``run_jobs``: its config, its observation rows
    ``d`` (one per trial, or one row for one trial), the ``scale`` of its
    reference x = scale z, the start weights ``w0`` of every trial (a vector
    of its 2(M + N) weights, None for zero) and a real preconditioner P (a
    2(M + N) square matrix that couples an entry only with its layout
    partner, as ``newton_preconditioner`` gives; None for the plain LMS)."""

    config: CancellerConfig
    d: np.ndarray
    scale: float = 1.0
    w0: np.ndarray | None = None
    preconditioner: np.ndarray | None = None


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


class _Job:
    """One canceller job of a kernel call: its observation rows ``ds``, its
    state and output arrays, and the ``_native.Run`` that points the kernel
    at them and carries the job's reference ``scale``."""

    def __init__(self, job: Job, ds: np.ndarray, n_steps: int,
                 keep_residuals: bool, track_taps: tuple[int, ...], tap_stride: int):
        config = job.config
        dim = 2 * (config.M + config.N)
        self.window = config.steady_window or default_steady_window(n_steps)
        if n_steps <= 0 or self.window > n_steps:
            raise ValueError("sequences too short for the requested run")
        if job.w0 is not None and np.shape(job.w0) != (dim,):
            raise ValueError(f"w0 must be a vector of {dim} weights")
        if tap_stride < 1:
            raise ValueError("tap_stride must be a positive step count")
        # IndexError if out of range
        self.tap_idx = np.arange(dim, dtype=np.int64)[list(track_taps)]
        # P as the kernel reads it: row k holds P[k, k] and P[k, partner(k)]
        self.pre = (None if job.preconditioner is None else np.stack(
            _partner_pairs(job.preconditioner, config.M, config.N, "preconditioner")[1:],
            axis=1))
        self.n_steps = n_steps
        self.ds = ds
        trials = len(ds)
        self.w = np.zeros((trials, dim), dtype=np.complex128)
        if job.w0 is not None:
            self.w[:] = job.w0
        self.w_accum = np.zeros_like(self.w)
        self.residuals = np.empty((trials, n_steps)) if keep_residuals else None
        kept = -(-n_steps // tap_stride)
        self.taps = (np.empty((trials, kept, len(self.tap_idx)), dtype=np.complex128)
                     if track_taps else None)
        self.peak, self.steady_sum, self.steady_count = np.zeros((3, trials))
        self.diverged_at = np.full(trials, -1, dtype=np.int64)
        self.run = _native.Run(
            n_steps, dim, n_steps - self.window, config.mu, job.scale,
            *(_address(a) for a in (ds, self.w, self.w_accum, self.residuals, self.peak,
                                    self.steady_sum, self.steady_count,
                                    self.diverged_at)),
            len(self.tap_idx), _address(self.tap_idx), tap_stride,
            _address(self.taps), _address(self.pre))

    def result(self, lanes: int) -> BatchRun:
        # diverged trials carry inf/nan weights and sums; they are flagged below
        with np.errstate(over="ignore", invalid="ignore"):
            mean_w = self.w_accum / self.window
            steady_mse = np.where(self.steady_count > 0,
                                  self.steady_sum / np.maximum(self.steady_count, 1),
                                  np.inf)
        diverged = self.diverged_at >= 0
        return BatchRun(
            final_weights=self.w,
            mean_weights=mean_w,
            steady_state_mse=np.where(diverged, np.inf, steady_mse),
            peak_residual=self.peak,
            diverged=diverged,
            diverged_at=self.diverged_at,
            n_steps=self.n_steps,
            lanes=lanes,
            residual_power=self.residuals,
            taps=self.taps,
        )


def _rows(a) -> np.ndarray:
    """``a`` as C-contiguous complex rows, one per trial (1-D: one trial)."""
    return np.atleast_2d(np.ascontiguousarray(a, dtype=np.complex128))


def run_jobs(zs: np.ndarray, jobs: list[Job], keep_residuals: bool = True,
             track_taps: tuple[int, ...] = (), tap_stride: int = 1) -> list[BatchRun]:
    """Run every ``Job`` on the trials in the rows of ``zs``, in one kernel
    call; return one ``BatchRun`` per job.

    A job runs on the reference x = ``job.scale`` zs and its observation
    rows ``job.d``, which have the shape of ``zs``. Each part of x is the
    part of ``zs`` times the scale, as ``signals.Draw.reference`` forms it
    (so a scale of 1 runs on ``zs`` itself). The jobs share M and k_tiq (a
    ``ValueError`` otherwise) and may differ in everything else. Each job
    returns exactly what it returns alone in ``run_batch`` on its own x and
    d, and every run records the lanes per vector the call ran (``lanes``);
    a kernel that cannot allocate its lanes' state is a ``MemoryError``.
    ``keep_residuals`` stores |e|^2 per step; ``track_taps`` stores the
    listed weights (indices into each job's own weight vector) after steps
    0, tap_stride, 2 tap_stride, ...
    """
    if not jobs:
        raise ValueError("run_jobs needs at least one job")
    if not all(isinstance(job, Job) for job in jobs):
        raise TypeError("run_jobs takes a list of Job records")
    zs = _rows(zs)
    ds = [_rows(job.d) for job in jobs]
    if any(d.shape != zs.shape for d in ds):
        raise ValueError("z and d must have identical shapes")
    M, k_tiq = jobs[0].config.M, jobs[0].config.k_tiq
    if any(job.config.M != M or job.config.k_tiq != k_tiq for job in jobs):
        raise ValueError("the jobs of one call must share M and k_tiq")
    trials, n = zs.shape
    state = [_Job(job, d, n - M + 1, keep_residuals, track_taps, tap_stride)
             for job, d in zip(jobs, ds)]
    runs = (_native.Run * len(state))(*(job.run for job in state))
    lanes = _native.library().lms_raw(trials, n, M, k_tiq ** 1.5, zs, len(state), runs)
    if not lanes:
        raise MemoryError("the LMS kernel cannot allocate the state of its lanes")
    return [job.result(lanes) for job in state]


def run_batch(xs: np.ndarray, ds: np.ndarray, config: CancellerConfig,
              keep_residuals: bool = True, track_taps: tuple[int, ...] = (),
              w0: np.ndarray | None = None, tap_stride: int = 1,
              preconditioner: np.ndarray | None = None) -> BatchRun:
    """Run each trial, a row of ``xs`` and ``ds``, from the weights ``w0``:
    ``run_jobs`` with the one job ``Job(config, ds, 1.0, w0, preconditioner)``.

    ``w0``, a vector of the 2(M + N) regressor weights, starts every trial;
    None starts them at zero. Step t adapts on the regressor of sample
    M-1+t, so a row of n samples runs n-M+1 steps. Trials are independent:
    the kernel runs one to its end before it starts the next, and every
    output row depends on its own input row alone, so a batch returns
    exactly the rows its trials return one at a time. A 1-D ``xs`` and
    ``ds`` are one trial. ``keep_residuals`` stores |e|^2 per step;
    ``track_taps`` stores the listed weights after every ``tap_stride``-th
    step from step 0. With ``preconditioner`` P the job runs the LMS-Newton
    step w += mu e P conj(reg).
    """
    return run_jobs(xs, [Job(config, ds, 1.0, w0, preconditioner)], keep_residuals,
                    track_taps, tap_stride)[0]
