"""Closed-form engine: bounds, biases, steady-state MSE, transients.

All formulas assume the reference waveform x(n) is zero-mean proper white
complex Gaussian with power sigma_x2, so E|x|^4 = 2 sigma_x2^2 and
E|x|^6 = 6 sigma_x2^3. Powers are linear mW throughout; dB only on output.
The closed forms of the bias and the steady state read the operating point
as the harness simulates it, a ``transceiver.OperatingPoint``, and take the
step size mu as an argument of its own: one point serves every step size
run at it.

The mean-square analysis of the nonlinear canceller is exact too: its
fourth-moment matrix T follows from the moments
E[x^p x*^q] = [p = q] p! sigma_x2^p, so the step-size bound is a function of
the operating point (sigma_x2, k_tiq, M, N) alone. ``estimate_fourth_moment``
is the sample-average estimate of the same matrix. Everything here is numpy
alone: the symmetric-definite pencil (T, S) of the bound is reduced to a
standard eigenproblem through the Cholesky factor of S.

The analysis runs on the exact block structure of S = I kron R + R kron I
and T. Give regressor entry i the charge c_i e(d_i), a vector over the
delays: c = +1 for x and x_imd, -1 for their conjugates, at the entry's
delay d. Vec index i dim + j then has the charge Q_ij = c_i e(d_i) -
c_j e(d_j), and both S and T vanish between indices of different charge, as
a proper Gaussian moment vanishes unless its powers of x and x* match at
every delay. So S, T and the transition matrix F = I - mu S + mu^2 T are
block diagonal, one block per charge class; the classes are exactly the
connected components of S + T. At the default M = 5, N = 4 the 324 vec
indices fall into 51 blocks: one of 34, 24 of 8, 24 of 4 and 2 of 1
(3,078 entries of the 104,976 of a dense S); at M = 8, N = 6 the 784 fall
into 129. ``anclms_ms_analysis`` builds each block directly, never a dense
(dim^2, dim^2) matrix or a dim^4 array. The bound reads every block;
vec(R), and with it the drive of the recursion and the MSE it reads, lies
in the Q = 0 block, of 2M + 6N indices, so ``anclms_transient`` and
``anclms_exact_steady_mse`` solve that block alone. The dense engine they
replace is the oracle of the tests (``tests/conftest.py``).

These LAPACK calls are small, and numpy's bundled OpenBLAS runs small calls
slowly on more than one thread: on a 2-vCPU Xeon (numpy 2.4), the
``np.linalg.eigh`` of the 34 x 34 F_0 of ``anclms_transient`` takes about
16 ms on two OpenBLAS threads, against 0.1-0.35 ms on one. So every
function here that calls LAPACK (``AnclmsMsAnalysis.bound``,
``anclms_exact_steady_mse``, ``anclms_transient``, and
``cancellers.check_nonsingular`` through ``anclms_ms_analysis``) runs under
``_native.one_blas_thread``, which sets one OpenBLAS thread for the call
and restores the count after: the command line, the tests and a library
caller all pay the fast figure, whatever thread count the process has.

Two condition-number figures coexist deliberately:

* ``rb_eigenvalues`` gives the exact eigenvalues of the nonlinear-regressor
  covariance (they match the sample covariance of simulated regressors);
* ``condition_number`` is the closed-form landscape C(eps) that the
  convergence-speed analysis standardizes on; its discriminant
  sqrt(1 - 2 eps + 36 eps^2) differs from the exact eigenvalue ratio.
  Both are minimized at exactly eps = k_tiq^3 sigma_x2^2 = 1/6; only the
  minimum value differs (4.6417 closed form vs 9.8990 exact).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .cancellers import check_nonsingular
from .transceiver import OperatingPoint

MIN_CONDITION_EPSILON = 1.0 / 6.0
MIN_CONDITION_VALUE = (17.0 + 4.0 * math.sqrt(15.0)) / 7.0
# alms_regime's 'low' regime: quantization + IMD power within this fraction
# of the thermal noise power
ALMS_LOW_REGIME_FRACTION = 0.05


# --------------------------------------------------------------------------
# widely linear canceller (ALMS)
# --------------------------------------------------------------------------

def alms_mean_bound(sigma_x2: float) -> float:
    """Mean-convergence step-size bound 2 / sigma_x2."""
    if sigma_x2 <= 0:
        raise ValueError("sigma_x2 must be positive")
    return 2.0 / sigma_x2


def alms_ms_bound(sigma_x2: float, M: int) -> float:
    """Mean-square step-size bound 1 / ((M+1) sigma_x2)."""
    if sigma_x2 <= 0 or M < 1:
        raise ValueError("need sigma_x2 > 0 and M >= 1")
    return 1.0 / ((M + 1) * sigma_x2)


def alms_bias(point: OperatingPoint) -> np.ndarray:
    """Steady-state mean weight error 2 k^{3/2} s2 [h_imd; 0; g_imd; 0].

    Nonzero only on the 2N taps aligned with the unmodeled IMD channels;
    vanishes when k_tiq = 0 or the IMD channels are zero.
    """
    c = point.channels
    scale = 2.0 * point.k_tiq ** 1.5 * point.sigma_x2
    pad = np.zeros(point.M - point.N, dtype=complex)
    return scale * np.concatenate([c.h_imd, pad, c.g_imd, pad])


def _check_mu(point: OperatingPoint, mu: float):
    bound = alms_ms_bound(point.sigma_x2, point.M)
    if not 0 < mu < bound:
        raise ValueError(f"mu must lie in (0, {bound:.6g}) for a steady state")


def alms_steady_mse(point: OperatingPoint, mu: float, regime: str) -> float:
    """Steady-state residual power of the widely linear canceller at step
    size ``mu``.

    regime 'low' keeps thermal noise only; regime 'high' adds quantization
    noise and the residual third-order interference that the linear model
    cannot represent.
    """
    _check_mu(point, mu)
    s2, M = point.sigma_x2, point.M
    denom = 1.0 - mu * (M + 1) * s2
    if regime == "low":
        return (1.0 - mu * s2) * point.sigma_v2 / denom
    if regime == "high":
        noise = point.sigma_v2 + point.sigma_q2
        imd = point.k_tiq ** 3 * s2 ** 3 * point.imd_norm2
        return noise - 2.0 * imd + (mu * M * noise * s2 + 4.0 * imd) / denom
    raise ValueError(f"unknown regime {regime!r}")


def alms_regime(point: OperatingPoint) -> str:
    """'low' while quantization + IMD interference is negligible vs thermal
    (at most ``ALMS_LOW_REGIME_FRACTION`` of it)."""
    powers = point.component_powers
    interference = powers["quantization"] + powers["imd_si"] + powers["image_imd_si"]
    small = interference <= ALMS_LOW_REGIME_FRACTION * powers["thermal"]
    return "low" if small else "high"


def alms_transition_matrix(sigma_x2: float, mu: float, M: int) -> np.ndarray:
    """Transition matrix of the weight-error-variance recursion.

    F = (1 - 2 mu s2 + 2 mu^2 s2^2) I_2M + mu^2 s2^2 1 1^T, whose
    eigenvalues are 1 - 2 mu s2 + (2M+2) mu^2 s2^2 (once) and
    1 - 2 mu s2 + 2 mu^2 s2^2 (2M-1 times); the spectral radius drops
    below one exactly for mu < 1/((M+1) s2).
    """
    n = 2 * M
    diag = 1.0 - 2.0 * mu * sigma_x2 + 2.0 * (mu * sigma_x2) ** 2
    return diag * np.eye(n) + (mu * sigma_x2) ** 2 * np.ones((n, n))


@dataclass(frozen=True)
class AlmsTransient:
    """Predicted evolution of per-tap weight-error variance and MSE."""

    kappa: np.ndarray        # (n_iters, 2M)
    mse: np.ndarray          # (n_iters,)
    mean_error: np.ndarray   # (n_iters, 2M)
    diverged: bool


def alms_transient(point: OperatingPoint, mu: float, n_iters: int,
                   regime: str = "high", w0: np.ndarray | None = None) -> AlmsTransient:
    """Iterate the mean and variance recursions of the linear canceller at
    step size ``mu``.

    Starts from weights ``w0`` (all-zero by default). Divergence (any
    variance above 1e12) is reported through the flag, not raised.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if regime not in ("low", "high"):
        raise ValueError(f"unknown regime {regime!r}")
    s2, M = point.sigma_x2, point.M
    w_opt = point.channels.stacked_linear()
    w0 = np.zeros_like(w_opt) if w0 is None else np.asarray(w0, dtype=complex)
    werr = w0 - w_opt

    imd = point.k_tiq ** 3 * s2 ** 3 * point.imd_norm2
    if regime == "high":
        bias_drive = s2 * alms_bias(point)  # E[u(n) x^a*(n)]
        u_power = point.sigma_v2 + point.sigma_q2 + 6.0 * imd
        noise_drive = mu ** 2 * (point.sigma_v2 + point.sigma_q2) * s2
    else:
        bias_drive = np.zeros(2 * M, dtype=complex)
        u_power = point.sigma_v2
        noise_drive = mu ** 2 * point.sigma_v2 * s2

    f_mat = alms_transition_matrix(s2, mu, M)
    kappa = np.abs(werr) ** 2
    mean_pole = 1.0 - mu * s2

    kappas = np.empty((n_iters, 2 * M))
    mses = np.empty(n_iters)
    means = np.empty((n_iters, 2 * M), dtype=complex)
    diverged = False
    for t in range(n_iters):
        kappas[t] = kappa
        means[t] = werr
        mses[t] = s2 * np.sum(kappa) + u_power - 2.0 * np.real(
            np.vdot(bias_drive, werr))
        if np.any(kappa > 1e12):
            diverged = True
            kappas[t + 1:] = kappa
            means[t + 1:] = werr
            mses[t + 1:] = mses[t]
            break
        kappa = f_mat @ kappa + 2.0 * mu * np.real(bias_drive * np.conj(werr)) \
            + noise_drive
        werr = mean_pole * werr + mu * bias_drive
    return AlmsTransient(kappas, mses, means, diverged)


# --------------------------------------------------------------------------
# widely nonlinear canceller (ANCLMS)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RbSpectrum:
    lam1: float
    lam2: float
    lam3: float
    multiplicities: tuple[int, int, int]


def rb_eigenvalues(sigma_x2: float, k_tiq: float, M: int, N: int) -> RbSpectrum:
    """Exact eigenvalues of the nonlinear-regressor covariance.

    Each of the N (x, x_imd) delay pairs contributes the 2x2 block
    [[s2, 2 k^{3/2} s2^2], [2 k^{3/2} s2^2, 6 k^3 s2^3]]; the remaining
    M - N delays contribute s2. With eps = k^3 s2^2:

        lam1 = s2                                   (multiplicity 2M - 2N)
        lam2,3 = s2 (1 + 6 eps +- sqrt(1 + 4 eps + 36 eps^2)) / 2    (2N each)
    """
    if sigma_x2 <= 0 or k_tiq < 0:
        raise ValueError("need sigma_x2 > 0 and k_tiq >= 0")
    if not 1 <= N < M:
        raise ValueError("need 1 <= N < M")
    eps = k_tiq ** 3 * sigma_x2 ** 2
    root = math.sqrt(1.0 + 4.0 * eps + 36.0 * eps ** 2)
    lam2 = sigma_x2 * (1.0 + 6.0 * eps + root) / 2.0
    # lam2 lam3 = 2 eps s2^2: the product form avoids cancellation at tiny eps
    lam3 = 2.0 * eps * sigma_x2 ** 2 / lam2
    return RbSpectrum(sigma_x2, lam2, lam3, (2 * (M - N), 2 * N, 2 * N))


def rb_matrix(sigma_x2: float, k_tiq: float, M: int, N: int) -> np.ndarray:
    """Analytic covariance of [x; x_imd; x*; x_imd*] (real symmetric).

    N = 0 degenerates to the widely linear regressor covariance s2 I_2M.
    """
    if not 0 <= N < M:
        raise ValueError("need 0 <= N < M")
    half = M + N
    r0 = np.zeros((half, half))
    r0[np.arange(M), np.arange(M)] = sigma_x2
    r0[np.arange(M, half), np.arange(M, half)] = 6.0 * k_tiq ** 3 * sigma_x2 ** 3
    cross = 2.0 * k_tiq ** 1.5 * sigma_x2 ** 2
    r0[np.arange(N), np.arange(M, half)] = cross
    r0[np.arange(M, half), np.arange(N)] = cross
    r_mat = np.zeros((2 * half, 2 * half))
    r_mat[:half, :half] = r_mat[half:, half:] = r0
    return r_mat


def anclms_mean_bound(sigma_x2: float, k_tiq: float, M: int, N: int) -> float:
    """Mean-convergence bound 2 / lam_max of the regressor covariance."""
    return 2.0 / rb_eigenvalues(sigma_x2, k_tiq, M, N).lam2


def estimate_fourth_moment(sample_regressors: np.ndarray,
                           chunk: int = 20000) -> np.ndarray:
    """Estimate T = E[(x x^H) kron (x* x^T)] by sample averaging.

    Uses (x x^H) kron (x* x^T) = y y^H with y = x kron x*, accumulated in
    chunks to bound memory.
    """
    x = np.asarray(sample_regressors, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("expected (samples, dim) regressors")
    n, dim = x.shape
    t_mat = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for lo in range(0, n, chunk):
        block = x[lo: lo + chunk]
        y = np.einsum("ni,nj->nij", block, np.conj(block)).reshape(len(block), -1)
        t_mat += y.T @ np.conj(y)
    return t_mat / n


def _mean_square_blocks(sigma_x2: float, k_tiq: float, M: int, N: int,
                        r_mat: np.ndarray) -> tuple:
    """The diagonal blocks of S = I kron R + R kron I and of the exact
    fourth-moment matrix T, one ``(index, S_b, T_b)`` per block size, of
    shapes (blocks, n), (blocks, n, n) and (blocks, n, n).

    Entry ((i, j), (k, l)) of T, at vec indices i dim + j and k dim + l, is
    E[r_i r_j* r_k* r_l], the convention of ``estimate_fourth_moment``. Each
    regressor entry is a scaled monomial c x(n-d)^p conj(x(n-d))^q, so the
    entry factorises over the delays into proper Gaussian moments
    E[x^p x*^q] = [p = q] p! s2^p (Isserlis), multiplied in one delay at a
    time, left to right, and then by the four scales. Both S and T vanish
    between vec indices of different charge Q_ij = (p - q)_i - (p - q)_j, a
    vector over the delays, so each charge class is one block. A row of
    ``index`` lists one class's vec indices in ascending order, so each block
    is the sub-block of the dense matrix at those indices, bit for bit.
    """
    sizes = [M, N, M, N]
    # per entry: its delay, the powers of x and of x*, and its scale
    delay = np.concatenate([np.arange(n) for n in sizes])
    at_delay = delay[:, None] == np.arange(M)  # (dim, M)
    p = np.repeat([1, 2, 0, 1], sizes)[:, None] * at_delay
    q = np.repeat([0, 1, 1, 2], sizes)[:, None] * at_delay
    coef = np.repeat([1.0, k_tiq ** 1.5, 1.0, k_tiq ** 1.5], sizes)
    charge = (p - q)[:, None] - (p - q)[None, :]  # Q_ij, (dim, dim, M)
    _, cls = np.unique(charge.reshape(-1, M), axis=0, return_inverse=True)
    cls = cls.reshape(-1)  # flat on every numpy: 2.0.0's may carry an extra axis
    size = np.bincount(cls)[cls]
    order = np.lexsort((cls, size))  # stable: ascending vec index in a class
    powers = np.arange(9)  # each factor brings at most 2 powers of x
    moment = np.array([math.factorial(i) for i in powers]) * sigma_x2 ** powers
    blocks = []
    for n in np.flatnonzero(np.bincount(size)):  # np.unique would import numpy.ma
        index = order[size[order] == n].reshape(-1, n)
        i, j = np.divmod(index, len(p))
        i, j, k, l = i[:, :, None], j[:, :, None], i[:, None, :], j[:, None, :]
        s_b = (i == k) * r_mat[j, l] + r_mat[i, k] * (j == l)
        # conjugating r_j and r_k swaps their powers of x and x*
        t_b = np.ones(s_b.shape)
        for pd, qd in zip(p.T, q.T):
            p_tot, q_tot = pd[i] + qd[j] + qd[k] + pd[l], qd[i] + pd[j] + pd[k] + qd[l]
            t_b *= np.where(p_tot == q_tot, moment[p_tot], 0.0)
        t_b *= coef[i] * coef[j] * coef[k] * coef[l]
        blocks.append((index, s_b, t_b))
    return tuple(blocks)


def _reduced_pencil(s_b: np.ndarray, t_b: np.ndarray) -> np.ndarray:
    """L^-1 T L^-T with S = L L^T, for each block of the stacks: its
    eigenvalues are those of S^-1 T."""
    chol = np.linalg.cholesky(s_b)
    half = np.linalg.solve(chol, t_b)
    return np.linalg.solve(chol, np.swapaxes(half, -1, -2))


@dataclass(frozen=True)
class AnclmsMsAnalysis:
    """Fourth-moment analysis of the nonlinear canceller at one operating
    point: the regressor covariance R and the diagonal blocks of
    S = I kron R + R kron I and of the fourth-moment matrix T, all exactly
    symmetric.

    ``blocks`` holds one ``(index, S_b, T_b)`` per block size: ``index``
    (blocks, n) lists each block's vec indices, and S_b and T_b (blocks,
    n, n) are the dense matrices' sub-blocks at them. At M = 5, N = 4 the
    324 vec indices fall into 51 blocks: one of 34, 24 of 8, 24 of 4 and 2
    of 1. ``zero_block`` is the charge-0 block, of size 2M + 6N, which
    holds vec(R).

    ``bound``, the mean-square step-size bound, is computed on first read
    and kept: a run that only needs the transient never pays for it.
    """

    r_mat: np.ndarray
    blocks: tuple

    @property
    def zero_block(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(index, vec(R), S_0, T_0)`` of the charge-0 block, vec(R) on
        its indices alone. The block holds the pairs of entries
        of equal charge, the only ones where R may be nonzero, so vec(R)
        lies in it. Each charge +-e(d) is carried by 2 entries at a delay
        d < N and by 1 beyond, so the block has 2M + 6N vec indices, more
        than any other block: 2 n_a n_b or n_a^2 with n_a, n_b at most 2,
        and 1 at every delay if N = 0. So it is the one block of the last
        size."""
        index, s_b, t_b = self.blocks[-1]
        return index[0], self.r_mat.reshape(-1)[index[0]], s_b[0], t_b[0]

    @functools.cached_property
    @_native.one_blas_thread()
    def bound(self) -> float:
        """The mean-square step-size bound 1/lam_max[S^-1 T] (inf if
        lam_max <= 0). S and T are block diagonal alike, so lam_max[S^-1 T]
        is the largest over the blocks of the largest eigenvalue of
        L_b^-1 T_b L_b^-T with S_b = L_b L_b^T, batched per block size."""
        lam_vec = max(float(np.linalg.eigvalsh(_reduced_pencil(s_b, t_b)).max())
                      for _, s_b, t_b in self.blocks)
        return 1.0 / lam_vec if lam_vec > 0 else math.inf


def anclms_ms_analysis(sigma_x2: float, k_tiq: float, M: int,
                       N: int) -> AnclmsMsAnalysis:
    """Assemble R and the blocks of S and T of the mean-square analysis,
    whose ``bound`` is 1/lam_max[S^-1 T].

    S = I kron R + R kron I uses the analytic covariance R and T is the exact
    fourth-moment matrix, so the analysis depends on the operating point
    alone. No (dim^2, dim^2) matrix is built: only the blocks of
    ``_mean_square_blocks``. N = 0 gives the widely linear bound
    1/((M+1) s2). The bound of the companion matrix
    Gamma = [[S/2, -T/2], [I, 0]], 1/lam_max[Gamma] over its real positive
    eigenvalues, was never the tighter one at the operating points checked,
    so it is not computed here; a test keeps that cross-check.

    Raises ``DegenerateInputError`` if R is singular (``check_nonsingular``),
    here rather than at the first read of ``bound``: the eigenvalues of S
    are the pairwise sums of R's, so S is singular by the same relative rule
    exactly when R is.
    """
    if sigma_x2 <= 0 or k_tiq < 0:
        raise ValueError("need sigma_x2 > 0 and k_tiq >= 0")
    r_mat = rb_matrix(sigma_x2, k_tiq, M, N)
    check_nonsingular(r_mat)
    return AnclmsMsAnalysis(r_mat, _mean_square_blocks(sigma_x2, k_tiq, M, N, r_mat))


def anclms_steady_mse(point: OperatingPoint, mu: float) -> float:
    """Small-step steady-state MSE of the nonlinear canceller at step size
    ``mu``.

    (sigma_v2 + sigma_q2) [mu (M s2 + 6 N k^3 s2^3) + 1]; independent of the
    IMD channel impulse responses by construction.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    noise = point.sigma_v2 + point.sigma_q2
    trace_half = point.M * point.sigma_x2 \
        + 6.0 * point.N * point.k_tiq ** 3 * point.sigma_x2 ** 3
    return noise * (mu * trace_half + 1.0)


@_native.one_blas_thread()
def anclms_exact_steady_mse(analysis: AnclmsMsAnalysis, sigma_n2: float,
                            mu: float) -> float:
    """Steady MSE from the full vectorized variance recursion.

    J = sigma_n2 (1 + mu^2 Tr[R vec^-1{(mu S - mu^2 T)^-1 vec R}]), valid
    for any step size below the mean-square bound. vec R lies in the
    charge-0 block and mu S - mu^2 T is block diagonal, so the solve runs on
    that block alone.
    """
    _, vec_r, s_mat, t_mat = analysis.zero_block
    y = np.linalg.solve(mu * s_mat - mu ** 2 * t_mat, vec_r)
    return float(sigma_n2 * (1.0 + mu ** 2 * np.real(vec_r @ y)))


@_native.one_blas_thread()
def anclms_transient(analysis: AnclmsMsAnalysis, sigma_n2: float, mu: float,
                     w0_error: np.ndarray, iters: np.ndarray) -> np.ndarray:
    """Predicted MSE J(n) at the requested iterations.

    The vectorized transition matrix F = I - mu S + mu^2 T is block
    diagonal, and J(n) = sigma_n2 + vec(R)^T k(n) reads only the charge-0
    block of the state k(n), which the drive mu^2 sigma_n2 vec(R) feeds
    alone; so only that block F_0 is solved. F_0 is real and exactly
    symmetric, as S and T are, so its symmetric eigensolve
    F_0 = V diag(lam) V^T gives real eigenvalues and orthonormal
    eigenvectors, and J(n) = J_inf + sum_m c_m lam_m^n with
    c = (vec(R)^T V) * (V^T (k0 - k_inf)), on the block's entries. Only the
    real part of k0 = vec(w0 w0^H) reaches J, since F and vec(R) are real.
    """
    iters = np.asarray(iters)
    index, vec_r, s_mat, t_mat = analysis.zero_block
    eye = np.eye(len(index))
    f_mat = eye - mu * s_mat + mu ** 2 * t_mat
    lam, v_mat = np.linalg.eigh(f_mat)

    k0 = np.outer(w0_error, np.conj(w0_error)).real.reshape(-1)[index]
    drive = mu ** 2 * sigma_n2 * vec_r
    k_inf = np.linalg.solve(eye - f_mat, drive)
    coef = (vec_r @ v_mat) * ((k0 - k_inf) @ v_mat)
    j_inf = sigma_n2 + vec_r @ k_inf
    powers = lam[None, :] ** iters[:, None]
    return j_inf + powers @ coef


# --------------------------------------------------------------------------
# condition number of the nonlinear-regressor covariance
# --------------------------------------------------------------------------

def condition_number(sigma_x2: float, k_tiq: float) -> float:
    """Closed-form condition-number landscape C(eps), eps = k^3 s2^2.

    C = (1 + 6 eps + sqrt(1 - 2 eps + 36 eps^2))
        / (1 + 6 eps - sqrt(1 - 2 eps + 36 eps^2));
    returns +inf at eps = 0 (the covariance is singular there). C depends
    on (sigma_x2, k_tiq) only through eps.
    """
    if sigma_x2 <= 0 or k_tiq < 0:
        raise ValueError("need sigma_x2 > 0 and k_tiq >= 0")
    eps = k_tiq ** 3 * sigma_x2 ** 2
    return condition_number_from_eps(eps)


def condition_number_from_eps(eps: float) -> float:
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return math.inf
    root = math.sqrt(1.0 - 2.0 * eps + 36.0 * eps ** 2)
    return (1.0 + 6.0 * eps + root) / (1.0 + 6.0 * eps - root)


def min_condition_number() -> tuple[float, float]:
    """Analytic minimizer of C(eps): (1/6, (17 + 4 sqrt(15)) / 7)."""
    return MIN_CONDITION_EPSILON, MIN_CONDITION_VALUE


def optimal_sigma_x2(k_tiq: float) -> float:
    """Reference-signal power that minimizes C: k^3 s2^2 = 1/6."""
    if k_tiq <= 0:
        raise ValueError("k_tiq must be positive")
    return math.sqrt(MIN_CONDITION_EPSILON / k_tiq ** 3)
