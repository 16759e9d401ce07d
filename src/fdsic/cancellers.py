"""The adaptive self-interference canceller: one widely nonlinear LMS.

The canceller runs w <- w + mu * e * conj(reg) on the augmented regressor
[x; x_imd; x*; x_imd*] of length 2(M + N), with
x_imd(n) = k_tiq^{3/2} |x(n)|^2 x(n) over the N newest delays, and so
cancels the linear and the cubic interference jointly (ANCLMS). The
conventional widely linear canceller (ALMS) is the N = 0 case: its
regressor is [x; x*] and it has no IMD taps.

A pre-whitening transform Phi = Lambda^{-1/2} U^H, fitted on a held-out
preamble of regressors, can be applied to the regressor to equalize the
LMS convergence modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transceiver import imd_sequence

_BLOCK = 256  # time steps whose regressors run_batch builds at once


class DegenerateInputError(ValueError):
    """Raised when the regressor sample covariance is singular."""


@dataclass(frozen=True)
class WhiteningTransform:
    """Phi = Lambda^{-1/2} U^H from the sample covariance eigendecomposition."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray

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
    return WhiteningTransform(matrix=matrix, eigenvalues=eigvals, basis=basis)


@dataclass(frozen=True)
class CancellerConfig:
    mu: float
    M: int
    N: int = 0           # IMD taps per branch; 0 is the widely linear ALMS
    k_tiq: float = 1.0
    whiten: bool = False
    steady_window: int | None = None
    whiten_preamble: int | None = None  # regressors used to fit Phi

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
        preamble = config.whiten_preamble or 50 * dim
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
    res = np.empty((trials, n_steps)) if keep_residuals else None
    err_mean = np.empty(n_steps) if track_error_mean else None
    taps = np.empty((n_steps, len(track_taps)), dtype=np.complex128) if track_taps else None
    tap_idx = list(track_taps)
    w_accum = np.zeros_like(w)
    steady_sum = np.zeros(trials)
    steady_count = np.zeros(trials)
    peak = np.zeros(trials)
    finite = np.ones(trials, dtype=bool)
    win_start = n_steps - window
    mu = config.mu

    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, n_steps, _BLOCK):
            # row j of the block is the regressor at sample start + b0 + j
            regs = regressor_matrix(
                xs[:, start + b0 - M + 1: start + min(b0 + _BLOCK, n_steps)],
                M, N, config.k_tiq)
            if whitener is not None:
                regs = whitener.apply(regs)
            for j in range(regs.shape[1]):
                t = b0 + j
                reg = regs[:, j]
                e = ds[:, start + t] - np.einsum("ij,ij->i", reg, w)
                w += mu * e[:, None] * np.conj(reg)
                e2 = np.abs(e) ** 2
                ok = np.isfinite(e2)
                finite &= ok
                np.maximum(peak, np.where(ok, e2, np.inf), out=peak)
                if keep_residuals:
                    res[:, t] = e2
                if track_error_mean:
                    err_mean[t] = e2.mean()
                if taps is not None:
                    taps[t] = w[:, tap_idx].mean(axis=0)
                if t >= win_start:
                    w_accum += w
                    steady_sum += np.where(ok, e2, 0.0)
                    steady_count += ok

    mean_w = w_accum / window
    if whitener is not None:
        w = whitener.weights_to_original(w)
        mean_w = whitener.weights_to_original(mean_w)

    with np.errstate(invalid="ignore"):
        steady_mse = np.where(steady_count > 0, steady_sum / np.maximum(steady_count, 1), np.inf)
    diverged = ~finite
    steady_mse = np.where(diverged, np.inf, steady_mse)

    return BatchRun(
        final_weights=w,
        mean_weights=mean_w,
        steady_state_mse=steady_mse,
        steady_state_window=(win_start, n_steps),
        start_index=start,
        peak_residual=peak,
        diverged=diverged,
        n_steps=n_steps,
        residual_power=res,
        error_power_mean=err_mean,
        tap_mean=taps,
    )
