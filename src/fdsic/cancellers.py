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

``run_batch`` runs each trial on its own and returns per-trial rows;
averaging across trials is the caller's. The LMS steps run in a small C
kernel (``_lms.c``, built and loaded by ``_native`` on the first
``run_batch`` call): one call per raw run, and one per chunk of
``_WHITEN_ROWS`` steps on the whitened path. Its arithmetic rounds exactly
as the numpy expressions e = d - reg^T w (einsum), w += mu e conj(reg) and
|e|^2 do, so results are bit-identical to a numpy loop over the steps. On
the raw path the kernel reads each regressor in place from x and forms
x_imd as it goes, keeping only the N newest values, so ``regressor_matrix``
builds rows only for the whitened path, the whitening fit and the tests.
"""

from __future__ import annotations

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
    taps: np.ndarray | None = None              # (trials, n_steps, len(track_taps))


def _address(array: np.ndarray | None):
    return None if array is None else array.ctypes.data


def run_batch(xs: np.ndarray, ds: np.ndarray, config: CancellerConfig,
              keep_residuals: bool = True, track_taps: tuple[int, ...] = (),
              whitener: WhiteningTransform | None = None,
              w0: np.ndarray | None = None) -> BatchRun:
    """Run each trial, a row of ``xs`` and ``ds``, from the weights ``w0``.

    ``w0``, a vector of the 2(M + N) regressor weights, starts every trial;
    None starts them at zero. Step t adapts on the regressor of sample
    M-1+t, so a row of n samples runs n-M+1 steps. Trials are independent:
    the kernel runs one to its end before it starts the next, and every
    output row depends on its own input row alone, so a batch returns
    exactly the rows its trials return one at a time. A 1-D ``xs`` and
    ``ds`` are one trial. ``keep_residuals`` stores |e|^2 per step;
    ``track_taps`` stores the listed weights per step. With ``whitener`` the
    LMS runs on whitened regressors; the final and window weights are mapped
    back to original coordinates, and neither tap tracking nor ``w0`` (whose
    whitened coordinates would differ) is available.
    """
    xs = np.atleast_2d(np.ascontiguousarray(xs, dtype=np.complex128))
    ds = np.atleast_2d(np.ascontiguousarray(ds, dtype=np.complex128))
    if xs.shape != ds.shape:
        raise ValueError("x and d must have identical shapes")
    if whitener is not None and track_taps:
        raise ValueError("tap tracking is not supported for whitened runs")
    if whitener is not None and w0 is not None:
        raise ValueError("start weights are not supported for whitened runs")
    trials, n = xs.shape
    M, N = config.M, config.N
    dim = 2 * (M + N)
    n_steps = n - M + 1
    window = config.steady_window or default_steady_window(n_steps)
    if n_steps <= 0 or window > n_steps:
        raise ValueError("sequences too short for the requested run")
    if w0 is not None and np.shape(w0) != (dim,):
        raise ValueError(f"w0 must be a vector of {dim} weights")

    w = np.zeros((trials, dim), dtype=np.complex128)
    if w0 is not None:
        w[:] = w0
    w_accum = np.zeros_like(w)
    res = np.empty((trials, n_steps)) if keep_residuals else None
    tap_idx = np.arange(dim, dtype=np.int64)[list(track_taps)]  # IndexError if out of range
    taps = (np.empty((trials, n_steps, len(tap_idx)), dtype=np.complex128)
            if track_taps else None)
    steady_sum = np.zeros(trials)
    steady_count = np.zeros(trials)
    peak = np.zeros(trials)
    diverged_at = np.full(trials, -1, dtype=np.int64)
    win_start = n_steps - window
    state = (w, w_accum, _address(res), peak, steady_sum, steady_count,
             diverged_at, len(tap_idx), tap_idx, _address(taps))
    lib = _native.library()
    if whitener is None:
        lib.lms_raw(trials, n, M, N, win_start, config.mu, config.k_tiq ** 1.5,
                    xs, ds, *state)
    else:
        # whitened regressors are formed and run in chunks that stay in cache
        for a in range(0, n_steps, _WHITEN_ROWS):
            b = min(a + _WHITEN_ROWS, n_steps)
            regs = whitener.apply(regressor_matrix(xs[:, a:b + M - 1], M, N,
                                                   config.k_tiq))
            lib.lms_whitened(trials, n_steps, dim, M - 1, a, b, win_start,
                             config.mu, regs, ds, *state)

    # diverged trials carry inf/nan weights and sums; they are flagged below
    with np.errstate(over="ignore", invalid="ignore"):
        mean_w = w_accum / window
        if whitener is not None:
            w = whitener.weights_to_original(w)
            mean_w = whitener.weights_to_original(mean_w)
        steady_mse = np.where(steady_count > 0, steady_sum / np.maximum(steady_count, 1), np.inf)
    diverged = diverged_at >= 0
    steady_mse = np.where(diverged, np.inf, steady_mse)

    return BatchRun(
        final_weights=w,
        mean_weights=mean_w,
        steady_state_mse=steady_mse,
        steady_state_window=(win_start, n_steps),
        peak_residual=peak,
        diverged=diverged,
        diverged_at=diverged_at,
        n_steps=n_steps,
        residual_power=res,
        taps=taps,
    )
