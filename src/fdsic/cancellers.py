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

The LMS steps run in a small C kernel (``_lms.c``, built and loaded by
``_native`` on the first ``run_batch`` call). Its arithmetic rounds exactly
as the numpy expressions e = d - reg^T w (einsum), w += mu e conj(reg) and
|e|^2 do, so results are bit-identical to a numpy loop over the steps. On
the raw path the kernel reads each regressor in place from the block's
window of x and x_imd, so ``regressor_matrix`` builds rows only for the
whitened path, the whitening fit and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .transceiver import imd_sequence

_BLOCK = 256  # time steps that run_batch hands the kernel at once
WHITEN_PREAMBLE_PER_TAP = 50  # regressors that fit Phi, per regressor entry


class DegenerateInputError(ValueError):
    """Raised when the regressor sample covariance is singular."""


@dataclass(frozen=True)
class WhiteningTransform:
    """Phi = Lambda^{-1/2} U^H from the sample covariance eigendecomposition."""

    matrix: np.ndarray

    def apply(self, regressors: np.ndarray) -> np.ndarray:
        """Whiten row-stacked regressors (..., dim)."""
        rows = regressors.reshape(-1, regressors.shape[-1])
        return (rows @ self.matrix.T).reshape(regressors.shape)

    def weights_to_original(self, weights: np.ndarray) -> np.ndarray:
        """Map whitened-domain weights back to original coordinates.

        reg^T w is preserved: x^T (Phi^T w) = (Phi x)^T w.
        """
        return weights @ self.matrix


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
    whiten: bool = False
    steady_window: int | None = None

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative (0 freezes the filter)")
        if not 0 <= self.N < self.M:
            raise ValueError("need 0 <= N < M")


def default_steady_window(n_steps: int) -> int:
    """Final 20% of iterations, at least 2000 samples, capped at the run."""
    return min(n_steps, max(int(0.2 * n_steps), 2000))


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
    win = np.lib.stride_tricks.sliding_window_view(xs, M, axis=-1)[..., ::-1]
    imd = imd_sequence(win[..., :N], k_tiq)
    return np.concatenate([win, imd, np.conj(win), np.conj(imd)], axis=-1)


@dataclass
class BatchRun:
    """Vectorized multi-trial run (one weight vector per trial)."""

    final_weights: np.ndarray         # (trials, dim), original coordinates
    mean_weights: np.ndarray          # window-averaged, original coordinates
    steady_state_mse: np.ndarray      # (trials,)
    steady_state_window: tuple[int, int]
    start_index: int                  # first sample index processed
    peak_residual: np.ndarray         # (trials,) max |e|^2 over the run
    diverged: np.ndarray              # (trials,) bool (nonfinite trajectory)
    diverged_at: np.ndarray           # (trials,) first nonfinite step, -1 if none
    n_steps: int
    residual_power: np.ndarray | None = None    # (trials, n_steps)
    error_power_mean: np.ndarray | None = None  # (n_steps,) mean across trials
    tap_mean: np.ndarray | None = None          # (n_steps, len(track_taps))


def run_batch(xs: np.ndarray, ds: np.ndarray, config: CancellerConfig,
              keep_residuals: bool = True, track_error_mean: bool = False,
              track_taps: tuple[int, ...] = ()) -> BatchRun:
    """Run independent trials in lockstep (trials stacked on axis 0).

    ``track_error_mean`` records the across-trial mean residual power per
    iteration; ``track_taps`` records the across-trial mean weight of the
    listed taps per iteration (original coordinates are restored afterwards
    only for the final/window weights, so tap tracking is unavailable for
    whitened runs).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.complex128))
    ds = np.atleast_2d(np.asarray(ds, dtype=np.complex128))
    if xs.shape != ds.shape:
        raise ValueError("x and d must have identical shapes")
    trials, n = xs.shape
    M, N = config.M, config.N
    dim = 2 * (M + N)
    start = M - 1

    whitener = None
    if config.whiten:
        if track_taps:
            raise ValueError("tap tracking is not supported for whitened runs")
        preamble = WHITEN_PREAMBLE_PER_TAP * dim
        if n < M + preamble + 1:
            raise ValueError("sequence too short for the whitening preamble")
        whitener = prewhiten_fit(
            regressor_matrix(xs[0, :M - 1 + preamble], M, N, config.k_tiq))
        start = M - 1 + preamble

    n_steps = n - start
    window = config.steady_window or default_steady_window(n_steps)
    if n_steps <= 0 or window > n_steps:
        raise ValueError("sequences too short for the requested run")

    w = np.zeros((trials, dim), dtype=np.complex128)
    w_accum = np.zeros_like(w)
    res = np.empty((trials, n_steps)) if keep_residuals else None
    err_mean = np.empty(n_steps) if track_error_mean else None
    taps = np.empty((n_steps, len(track_taps)), dtype=np.complex128) if track_taps else None
    tap_idx = np.arange(dim, dtype=np.int64)[list(track_taps)]  # IndexError if out of range
    steady_sum = np.zeros(trials)
    steady_count = np.zeros(trials)
    peak = np.zeros(trials)
    diverged_at = np.full(trials, -1, dtype=np.int64)
    win_start = n_steps - window
    lib = _native.library()

    for b0 in range(0, n_steps, _BLOCK):
        steps = min(_BLOCK, n_steps - b0)
        # column j + M - 1 of the window is the newest sample of step j
        x_win = xs[:, start + b0 - M + 1: start + b0 + steps]
        d = np.ascontiguousarray(ds[:, start + b0: start + b0 + steps])
        e2 = np.empty((steps, trials))
        tb = np.empty((steps, len(tap_idx), trials), dtype=np.complex128)
        state = (w, w_accum, e2, peak, steady_sum, steady_count, diverged_at,
                 len(tap_idx), tap_idx, tb)
        if whitener is None:
            x_win = np.ascontiguousarray(x_win)
            x_imd = imd_sequence(x_win, config.k_tiq) if N else x_win
            lib.lms_block_raw(trials, steps, M, N, b0, win_start, config.mu,
                              x_win, x_imd, d, *state)
        else:
            regs = whitener.apply(regressor_matrix(x_win, M, N, config.k_tiq))
            lib.lms_block(trials, steps, dim, b0, win_start, config.mu, regs,
                          d, *state)
        if keep_residuals:
            res[:, b0: b0 + steps] = e2.T
        with np.errstate(over="ignore", invalid="ignore"):
            if track_error_mean:
                err_mean[b0: b0 + steps] = e2.mean(axis=1)
            if taps is not None:
                taps[b0: b0 + steps] = tb.mean(axis=2)

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
        start_index=start,
        peak_residual=peak,
        diverged=diverged,
        diverged_at=diverged_at,
        n_steps=n_steps,
        residual_power=res,
        error_power_mean=err_mean,
        tap_mean=taps,
    )
