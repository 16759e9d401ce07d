"""The adaptive self-interference canceller: one widely nonlinear LMS.

The canceller runs w <- w + mu * e * conj(reg) on the augmented regressor
[x; x_imd; x*; x_imd*] of length 2(M + N), with
x_imd(n) = k_tiq^{3/2} |x(n)|^2 x(n) over the N newest delays, and so
cancels the linear and the cubic interference jointly (ANCLMS). The
conventional widely linear canceller (ALMS) is the N = 0 case: its
regressor is [x; x*] and it has no IMD taps.

A pre-whitening transform Phi = Lambda^{-1/2} U^H, fitted on a held-out
preamble of ``WHITEN_PREAMBLE_PER_TAP`` regressors per regressor entry, can
be applied to the regressor to equalize the LMS convergence modes.

``run_jobs`` runs several canceller jobs (each its own step size, N,
steady window and start weights) on one set of trials, and ``run_batch``
one job; each trial runs on its own and returns per-trial rows, and
averaging across trials is the caller's. The LMS steps run in a small C
kernel (``_lms.c``, built and loaded by ``_native`` on the first call): one
call per raw set of jobs, and one per chunk of ``_WHITEN_ROWS`` steps on
the whitened path. Its arithmetic rounds exactly as the numpy expressions
e = d - reg^T w (einsum), w += mu e conj(reg) and |e|^2 do, so results are
bit-identical to a numpy loop over the steps. On the raw path the kernel
reads each regressor in place from x and forms x_imd as it goes, keeping
only the N newest values, once per step for all jobs of the call; two or
more jobs run as the lanes of AVX2 vectors, four jobs per vector, and
return the bits each job returns alone. ``regressor_matrix`` builds rows
only for the whitened path, the whitening fit and the tests.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from . import _native
from .transceiver import imd_sequence

WHITEN_PREAMBLE_PER_TAP = 50  # regressors that fit Phi, per regressor entry
MIN_STEADY_WINDOW = 2000  # the shortest default steady-state window, in steps
_WHITEN_ROWS = 4096  # whitened steps per kernel call, at most
_PRODUCT_ROWS = 128  # rows per BLAS product in WhiteningTransform


class DegenerateInputError(ValueError):
    """Raised when the regressor sample covariance is singular."""


@dataclass(frozen=True)
class WhiteningTransform:
    """Phi = Lambda^{-1/2} U^H from the sample covariance eigendecomposition."""

    matrix: np.ndarray

    def apply(self, regressors: np.ndarray) -> np.ndarray:
        """Whiten row-stacked regressors (..., dim)."""
        return _rows_times(regressors, self.matrix.T)

    def weights_to_original(self, weights: np.ndarray) -> np.ndarray:
        """Map whitened-domain weights back to original coordinates.

        reg^T w is preserved: x^T (Phi^T w) = (Phi x)^T w.
        """
        return _rows_times(weights, self.matrix)


def _rows_times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` for rows stacked on the last axis, as BLAS products
    of ``_PRODUCT_ROWS`` rows (the last padded with zeros).

    Every row then rounds as it does in one many-row product, whatever the
    number of rows (a one-row product goes through another BLAS routine and
    rounds differently), so a trial's whitened regressors do not depend on
    the batch it runs in. A product this small also runs on the calling
    thread, so no BLAS thread spins between the products of a trial loop.
    """
    (k, m), n = matrix.shape, rows.size // rows.shape[-1]
    flat = rows.reshape(n, k)
    out = np.empty((n, m), dtype=np.result_type(rows, matrix))
    full = n - n % _PRODUCT_ROWS
    np.matmul(flat[:full].reshape(-1, _PRODUCT_ROWS, k), matrix,
              out=out[:full].reshape(-1, _PRODUCT_ROWS, m))
    if full < n:
        tail = np.zeros((_PRODUCT_ROWS, k), dtype=out.dtype)
        tail[:n - full] = flat[full:]
        out[full:] = (tail @ matrix)[:n - full]
    return out.reshape(*rows.shape[:-1], m)


def prewhiten_fit(sample_regressors) -> WhiteningTransform:
    """Fit the whitening transform on a (samples, dim) array of regressors.

    Raises ``DegenerateInputError`` if any covariance eigenvalue is at or
    below 1e-12 (e.g. k_tiq = 0 makes the nonlinear entries vanish).
    """
    x = np.asarray(sample_regressors, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("expected a (samples, dim) array of regressors")
    dim = x.shape[1]
    if x.shape[0] < 10 * dim:
        raise ValueError(f"need at least {10 * dim} sample regressors")
    cov = (x.T @ np.conj(x)) / x.shape[0]
    eigvals, basis = np.linalg.eigh(cov)
    if np.any(eigvals <= 1e-12):
        raise DegenerateInputError("singular regressor covariance")
    matrix = (basis / np.sqrt(eigvals)).conj().T
    return WhiteningTransform(matrix)


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

    final_weights: np.ndarray         # (trials, dim), original coordinates
    mean_weights: np.ndarray          # window-averaged, original coordinates
    steady_state_mse: np.ndarray      # (trials,)
    steady_state_window: tuple[int, int]
    peak_residual: np.ndarray         # (trials,) max |e|^2 over the run
    diverged: np.ndarray              # (trials,) bool (nonfinite trajectory)
    diverged_at: np.ndarray           # (trials,) first nonfinite step, -1 if none
    n_steps: int
    residual_power: np.ndarray | None = None    # (trials, n_steps)
    taps: np.ndarray | None = None              # (trials, kept steps, len(track_taps))


def _address(array: np.ndarray | None):
    return None if array is None else array.ctypes.data


class _Job:
    """One canceller job of a kernel call: its state and output arrays, and
    the ``_native.Run`` that points the kernel at them."""

    def __init__(self, config: CancellerConfig, trials: int, n_steps: int,
                 w0: np.ndarray | None, keep_residuals: bool,
                 track_taps: tuple[int, ...], tap_stride: int):
        dim = 2 * (config.M + config.N)
        self.window = config.steady_window or default_steady_window(n_steps)
        if n_steps <= 0 or self.window > n_steps:
            raise ValueError("sequences too short for the requested run")
        if w0 is not None and np.shape(w0) != (dim,):
            raise ValueError(f"w0 must be a vector of {dim} weights")
        if tap_stride < 1:
            raise ValueError("tap_stride must be a positive step count")
        # IndexError if out of range
        self.tap_idx = np.arange(dim, dtype=np.int64)[list(track_taps)]
        self.n_steps = n_steps
        self.w = np.zeros((trials, dim), dtype=np.complex128)
        if w0 is not None:
            self.w[:] = w0
        self.w_accum = np.zeros_like(self.w)
        self.residuals = np.empty((trials, n_steps)) if keep_residuals else None
        kept = -(-n_steps // tap_stride)
        self.taps = (np.empty((trials, kept, len(self.tap_idx)), dtype=np.complex128)
                     if track_taps else None)
        self.peak, self.steady_sum, self.steady_count = np.zeros((3, trials))
        self.diverged_at = np.full(trials, -1, dtype=np.int64)
        self.run = _native.Run(
            n_steps, dim, n_steps - self.window, config.mu,
            *(_address(a) for a in (self.w, self.w_accum, self.residuals, self.peak,
                                    self.steady_sum, self.steady_count,
                                    self.diverged_at)),
            len(self.tap_idx), _address(self.tap_idx), tap_stride,
            _address(self.taps))

    def result(self, whitener: WhiteningTransform | None = None) -> BatchRun:
        w = self.w
        # diverged trials carry inf/nan weights and sums; they are flagged below
        with np.errstate(over="ignore", invalid="ignore"):
            mean_w = self.w_accum / self.window
            if whitener is not None:
                w = whitener.weights_to_original(w)
                mean_w = whitener.weights_to_original(mean_w)
            steady_mse = np.where(self.steady_count > 0,
                                  self.steady_sum / np.maximum(self.steady_count, 1),
                                  np.inf)
        diverged = self.diverged_at >= 0
        return BatchRun(
            final_weights=w,
            mean_weights=mean_w,
            steady_state_mse=np.where(diverged, np.inf, steady_mse),
            steady_state_window=(self.run.win_start, self.n_steps),
            peak_residual=self.peak,
            diverged=diverged,
            diverged_at=self.diverged_at,
            n_steps=self.n_steps,
            residual_power=self.residuals,
            taps=self.taps,
        )


def _trial_rows(xs, ds) -> tuple[np.ndarray, np.ndarray]:
    """``xs`` and ``ds`` as C-contiguous complex (trials, n) rows."""
    xs = np.atleast_2d(np.ascontiguousarray(xs, dtype=np.complex128))
    ds = np.atleast_2d(np.ascontiguousarray(ds, dtype=np.complex128))
    if xs.shape != ds.shape:
        raise ValueError("x and d must have identical shapes")
    return xs, ds


def run_jobs(xs: np.ndarray, ds: np.ndarray,
             jobs: list[tuple[CancellerConfig, np.ndarray | None]],
             keep_residuals: bool = True, track_taps: tuple[int, ...] = (),
             tap_stride: int = 1) -> list[BatchRun]:
    """Run every job, a ``(config, w0)`` pair, on the trials in the rows of
    ``xs`` and ``ds``, in one kernel call; return one ``BatchRun`` per job.

    The jobs share M and k_tiq (a ``ValueError`` otherwise) and may differ
    in mu, N, steady window and start weights ``w0`` (a vector of the job's
    2(M + N) weights, or None for zero). Each job returns exactly what it
    returns alone in ``run_batch``. ``keep_residuals`` stores |e|^2 per step;
    ``track_taps`` stores the listed weights (indices into each job's own
    weight vector) after steps 0, tap_stride, 2 tap_stride, ...
    """
    if not jobs:
        raise ValueError("run_jobs needs at least one job")
    xs, ds = _trial_rows(xs, ds)
    M, k_tiq = jobs[0][0].M, jobs[0][0].k_tiq
    if any(config.M != M or config.k_tiq != k_tiq for config, _ in jobs):
        raise ValueError("the jobs of one call must share M and k_tiq")
    trials, n = xs.shape
    state = [_Job(config, trials, n - M + 1, w0, keep_residuals, track_taps,
                  tap_stride) for config, w0 in jobs]
    runs = (_native.Run * len(state))(*(job.run for job in state))
    _native.library().lms_raw(trials, n, M, k_tiq ** 1.5, xs, ds, len(state), runs)
    return [job.result() for job in state]


def run_batch(xs: np.ndarray, ds: np.ndarray, config: CancellerConfig,
              keep_residuals: bool = True, track_taps: tuple[int, ...] = (),
              whitener: WhiteningTransform | None = None,
              w0: np.ndarray | None = None, tap_stride: int = 1) -> BatchRun:
    """Run each trial, a row of ``xs`` and ``ds``, from the weights ``w0``.

    ``w0``, a vector of the 2(M + N) regressor weights, starts every trial;
    None starts them at zero. Step t adapts on the regressor of sample
    M-1+t, so a row of n samples runs n-M+1 steps. Trials are independent:
    the kernel runs one to its end before it starts the next, and every
    output row depends on its own input row alone, so a batch returns
    exactly the rows its trials return one at a time. A 1-D ``xs`` and
    ``ds`` are one trial. ``keep_residuals`` stores |e|^2 per step;
    ``track_taps`` stores the listed weights after every ``tap_stride``-th
    step from step 0. With ``whitener`` the LMS runs on whitened regressors;
    the final and window weights are mapped back to original coordinates,
    and neither tap tracking nor ``w0`` (whose whitened coordinates would
    differ) is available. Without it this is ``run_jobs`` with one job.
    """
    if whitener is None:
        return run_jobs(xs, ds, [(config, w0)], keep_residuals, track_taps,
                        tap_stride)[0]
    if track_taps:
        raise ValueError("tap tracking is not supported for whitened runs")
    if w0 is not None:
        raise ValueError("start weights are not supported for whitened runs")
    xs, ds = _trial_rows(xs, ds)
    trials, n = xs.shape
    M = config.M
    job = _Job(config, trials, n - M + 1, None, keep_residuals, (), 1)
    lib = _native.library()
    # whitened regressors are formed and run in chunks that stay in cache
    for a in range(0, job.n_steps, _WHITEN_ROWS):
        b = min(a + _WHITEN_ROWS, job.n_steps)
        regs = whitener.apply(regressor_matrix(xs[:, a:b + M - 1], M, config.N,
                                               config.k_tiq))
        lib.lms_whitened(trials, M - 1, a, b, regs, ds, ctypes.byref(job.run))
    return job.result(whitener)
