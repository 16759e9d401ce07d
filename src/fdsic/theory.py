"""Closed-form engine: bounds, biases, steady-state MSE, transients.

All formulas assume the reference waveform x(n) is zero-mean proper white
complex Gaussian with power sigma_x2, so E|x|^4 = 2 sigma_x2^2 and
E|x|^6 = 6 sigma_x2^3. Powers are linear mW throughout; dB only on output.

The mean-square analysis of the nonlinear canceller is exact too: its
fourth-moment matrix T (``fourth_moment``) follows from the moments
E[x^p x*^q] = [p = q] p! sigma_x2^p, so the step-size bound is a function of
the operating point (sigma_x2, k_tiq, M, N) alone. ``estimate_fourth_moment``
is the sample-average estimate of the same matrix. Everything here is numpy
alone: the symmetric-definite pencil (T, S) of the bound is reduced to a
standard eigenproblem through the Cholesky factor of S.

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

import math
from dataclasses import dataclass

import numpy as np

from .cancellers import DegenerateInputError
from .transceiver import ChannelSet, NoiseBudget, TransceiverProfile

MIN_CONDITION_EPSILON = 1.0 / 6.0
MIN_CONDITION_VALUE = (17.0 + 4.0 * math.sqrt(15.0)) / 7.0


@dataclass(frozen=True)
class TheoryInputs:
    """Everything the closed forms need for one operating point."""

    sigma_x2: float
    sigma_v2: float
    sigma_q2: float
    p_x_soi: float
    k_tiq: float
    M: int
    N: int
    mu: float
    channels: ChannelSet

    def __post_init__(self):
        if not 1 <= self.N < self.M:
            raise ValueError("need 1 <= N < M")
        if min(self.sigma_v2, self.sigma_q2) < 0 or self.sigma_x2 <= 0:
            raise ValueError("variances must be nonnegative, sigma_x2 positive")

    @classmethod
    def from_profile(cls, profile: TransceiverProfile, channels: ChannelSet,
                     budget: NoiseBudget, mu: float) -> "TheoryInputs":
        return cls(
            sigma_x2=profile.natural_sigma_x2,
            sigma_v2=budget.sigma_v2,
            sigma_q2=budget.sigma_q2,
            p_x_soi=budget.p_x_soi,
            k_tiq=profile.k_tiq,
            M=channels.m,
            N=channels.n,
            mu=mu,
            channels=channels,
        )

    @property
    def imd_norm2(self) -> float:
        c = self.channels
        return float(np.sum(np.abs(c.h_imd) ** 2) + np.sum(np.abs(c.g_imd) ** 2))


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


def alms_bias(inputs: TheoryInputs) -> np.ndarray:
    """Steady-state mean weight error 2 k^{3/2} s2 [h_imd; 0; g_imd; 0].

    Nonzero only on the 2N taps aligned with the unmodeled IMD channels;
    vanishes when k_tiq = 0 or the IMD channels are zero.
    """
    c = inputs.channels
    scale = 2.0 * inputs.k_tiq ** 1.5 * inputs.sigma_x2
    pad = np.zeros(inputs.M - inputs.N, dtype=complex)
    return scale * np.concatenate([c.h_imd, pad, c.g_imd, pad])


def _check_mu(inputs: TheoryInputs):
    bound = alms_ms_bound(inputs.sigma_x2, inputs.M)
    if not 0 < inputs.mu < bound:
        raise ValueError(f"mu must lie in (0, {bound:.6g}) for a steady state")


def alms_steady_mse(inputs: TheoryInputs, regime: str) -> float:
    """Steady-state residual power of the widely linear canceller.

    regime 'low' keeps thermal noise only; regime 'high' adds quantization
    noise and the residual third-order interference that the linear model
    cannot represent.
    """
    _check_mu(inputs)
    mu, s2, M = inputs.mu, inputs.sigma_x2, inputs.M
    denom = 1.0 - mu * (M + 1) * s2
    if regime == "low":
        return (1.0 - mu * s2) * inputs.sigma_v2 / denom
    if regime == "high":
        noise = inputs.sigma_v2 + inputs.sigma_q2
        imd = inputs.k_tiq ** 3 * s2 ** 3 * inputs.imd_norm2
        return noise - 2.0 * imd + (mu * M * noise * s2 + 4.0 * imd) / denom
    raise ValueError(f"unknown regime {regime!r}")


def alms_regime(inputs: TheoryInputs, threshold: float = 0.05) -> str:
    """'low' while quantization + IMD interference is negligible vs thermal."""
    imd_power = 6.0 * inputs.k_tiq ** 3 * inputs.sigma_x2 ** 3 * inputs.imd_norm2
    small = inputs.sigma_q2 + imd_power <= threshold * inputs.sigma_v2
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


def alms_transient(inputs: TheoryInputs, n_iters: int, regime: str = "high",
                   w0: np.ndarray | None = None) -> AlmsTransient:
    """Iterate the mean and variance recursions of the linear canceller.

    Starts from weights ``w0`` (all-zero by default). Divergence (any
    variance above 1e12) is reported through the flag, not raised.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if regime not in ("low", "high"):
        raise ValueError(f"unknown regime {regime!r}")
    mu, s2, M = inputs.mu, inputs.sigma_x2, inputs.M
    w_opt = inputs.channels.stacked_linear()
    w0 = np.zeros_like(w_opt) if w0 is None else np.asarray(w0, dtype=complex)
    werr = w0 - w_opt

    imd = inputs.k_tiq ** 3 * s2 ** 3 * inputs.imd_norm2
    if regime == "high":
        bias_drive = s2 * alms_bias(inputs)  # E[u(n) x^a*(n)]
        u_power = inputs.sigma_v2 + inputs.sigma_q2 + 6.0 * imd
        noise_drive = mu ** 2 * (inputs.sigma_v2 + inputs.sigma_q2) * s2
    else:
        bias_drive = np.zeros(2 * M, dtype=complex)
        u_power = inputs.sigma_v2
        noise_drive = mu ** 2 * inputs.sigma_v2 * s2

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

    def as_vector(self) -> np.ndarray:
        return np.repeat([self.lam2, self.lam1, self.lam3],
                         [self.multiplicities[1], self.multiplicities[0],
                          self.multiplicities[2]])


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


def fourth_moment(sigma_x2: float, k_tiq: float, M: int, N: int) -> np.ndarray:
    """Exact fourth-moment matrix T = E[(x x^H) kron (x* x^T)] of the regressor.

    Entry ((i, j), (k, l)) is E[r_i r_j* r_k* r_l], the convention of
    ``estimate_fourth_moment``. Each regressor entry is a scaled monomial
    c x(n-d)^p conj(x(n-d))^q, so every entry of T factorises over the
    delays into proper Gaussian moments E[x^p x*^q] = [p = q] p! s2^p
    (Isserlis). T is real and symmetric.
    """
    if sigma_x2 <= 0 or k_tiq < 0:
        raise ValueError("need sigma_x2 > 0 and k_tiq >= 0")
    if not 0 <= N < M:
        raise ValueError("need 0 <= N < M")
    sizes = [M, N, M, N]
    # per entry: its delay, the powers of x and of x*, and its scale
    delay = np.concatenate([np.arange(n) for n in sizes])
    at_delay = delay[:, None] == np.arange(M)  # (dim, M)
    p = np.repeat([1, 2, 0, 1], sizes)[:, None] * at_delay
    q = np.repeat([0, 1, 1, 2], sizes)[:, None] * at_delay
    coef = np.repeat([1.0, k_tiq ** 1.5, 1.0, k_tiq ** 1.5], sizes)

    def outer4(a, b, c, d):  # a_i + b_j + c_k + d_l, per delay
        return (a[:, None, None, None] + b[None, :, None, None]
                + c[None, None, :, None] + d[None, None, None, :])

    # conjugating r_j and r_k swaps their powers of x and x*
    p_tot = outer4(p, q, q, p)
    q_tot = outer4(q, p, p, q)
    powers = np.arange(9)  # each factor brings at most 2 powers of x
    moment = np.array([math.factorial(i) for i in powers]) * sigma_x2 ** powers
    per_delay = np.where(p_tot == q_tot, moment[p_tot], 0.0)
    t_mat = per_delay.prod(axis=-1) * np.einsum("i,j,k,l->ijkl", coef, coef, coef, coef)
    dim = len(delay)
    return t_mat.reshape(dim * dim, dim * dim)


@dataclass(frozen=True)
class AnclmsMsAnalysis:
    """Fourth-moment analysis backing the mean-square step-size bound."""

    bound: float
    s_mat: np.ndarray
    t_mat: np.ndarray
    r_mat: np.ndarray


def anclms_ms_analysis(sigma_x2: float, k_tiq: float, M: int,
                       N: int) -> AnclmsMsAnalysis:
    """Assemble S, T and the mean-square step-size bound 1/lam_max[S^-1 T].

    S = I kron R + R kron I uses the analytic covariance R and T is the exact
    fourth-moment matrix (``fourth_moment``), so the analysis depends on the
    operating point alone. lam_max[S^-1 T] is the largest eigenvalue of
    L^-1 T L^-T with S = L L^T. N = 0 gives the widely linear bound
    1/((M+1) s2). The bound of the companion matrix
    Gamma = [[S/2, -T/2], [I, 0]], 1/lam_max[Gamma] over its real positive
    eigenvalues, was never the tighter one at the operating points checked,
    so it is not computed here; a test keeps that cross-check.
    """
    dim = 2 * (M + N)
    r_mat = rb_matrix(sigma_x2, k_tiq, M, N)
    eye = np.eye(dim)
    s_mat = np.kron(eye, r_mat) + np.kron(r_mat, eye)
    t_mat = fourth_moment(sigma_x2, k_tiq, M, N)

    s_eigs = np.linalg.eigvalsh(s_mat)
    if s_eigs.min() <= 1e-12:
        raise DegenerateInputError("singular S matrix (degenerate covariance)")

    # the pencil (T, S) through S = L L^T: eig(T, S) = eig(L^-1 T L^-T)
    chol = np.linalg.cholesky(s_mat)
    half = np.linalg.solve(chol, t_mat)
    lam_vec = float(np.linalg.eigvalsh(np.linalg.solve(chol, half.T)).max())

    return AnclmsMsAnalysis(
        bound=1.0 / lam_vec if lam_vec > 0 else math.inf,
        s_mat=s_mat,
        t_mat=t_mat,
        r_mat=r_mat,
    )


def anclms_steady_mse(inputs: TheoryInputs) -> float:
    """Small-step steady-state MSE of the nonlinear canceller.

    (sigma_v2 + sigma_q2) [mu (M s2 + 6 N k^3 s2^3) + 1]; independent of the
    IMD channel impulse responses by construction.
    """
    if inputs.mu <= 0:
        raise ValueError("mu must be positive")
    noise = inputs.sigma_v2 + inputs.sigma_q2
    trace_half = inputs.M * inputs.sigma_x2 \
        + 6.0 * inputs.N * inputs.k_tiq ** 3 * inputs.sigma_x2 ** 3
    return noise * (inputs.mu * trace_half + 1.0)


def anclms_exact_steady_mse(analysis: AnclmsMsAnalysis, sigma_n2: float,
                            mu: float) -> float:
    """Steady MSE from the full vectorized variance recursion.

    J = sigma_n2 (1 + mu^2 Tr[R vec^-1{(mu S - mu^2 T)^-1 vec R}]), valid
    for any step size below the mean-square bound.
    """
    a_mat = mu * analysis.s_mat - mu ** 2 * analysis.t_mat
    vec_r = analysis.r_mat.reshape(-1)
    y = np.linalg.solve(a_mat, vec_r)
    return float(sigma_n2 * (1.0 + mu ** 2 * np.real(vec_r @ y)))


def anclms_transient(analysis: AnclmsMsAnalysis, sigma_n2: float, mu: float,
                     w0_error: np.ndarray, iters: np.ndarray) -> np.ndarray:
    """Predicted MSE J(n) at the requested iterations.

    Diagonalizes the vectorized transition matrix F = I - mu S + mu^2 T once
    and evaluates J(n) = J_inf + sum_m c_m lam_m^n.
    """
    iters = np.asarray(iters)
    dim2 = analysis.s_mat.shape[0]
    f_mat = np.eye(dim2) - mu * analysis.s_mat + mu ** 2 * analysis.t_mat
    lam, v_mat = np.linalg.eig(f_mat)
    vec_r = analysis.r_mat.reshape(-1)

    k0 = np.outer(w0_error, np.conj(w0_error)).reshape(-1)
    drive = mu ** 2 * sigma_n2 * vec_r
    k_inf = np.linalg.solve(np.eye(dim2) - f_mat, drive)
    coef = (vec_r @ v_mat) * np.linalg.solve(v_mat, k0 - k_inf)
    j_inf = sigma_n2 + np.real(vec_r @ k_inf)
    powers = lam[None, :] ** iters[:, None]
    return j_inf + np.real(powers @ coef)


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
