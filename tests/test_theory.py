import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from fdsic import theory
from fdsic.cancellers import DegenerateInputError, regressor_matrix
from fdsic.signals import gen_proper_gaussian
from fdsic.theory import (TheoryInputs, alms_bias, alms_mean_bound,
                          alms_ms_bound, alms_regime, alms_steady_mse,
                          alms_transient, alms_transition_matrix,
                          anclms_exact_steady_mse, anclms_mean_bound,
                          anclms_steady_mse,
                          anclms_transient, condition_number,
                          condition_number_from_eps, min_condition_number,
                          optimal_sigma_x2,
                          rb_eigenvalues, rb_matrix)
from fdsic.transceiver import (ChannelSet, compute_noise_budget,
                               render_observation, synthesize_channels)
from fdsic.units import lin_to_db

from conftest import M, N, SEED


def numeric_min_condition_number(lo: float = 1e-4, hi: float = 1e2) -> tuple[float, float]:
    """Numeric cross-check of the minimizer of C(eps) by bounded 1-D search."""
    res = minimize_scalar(condition_number_from_eps, bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-8})
    return float(res.x), float(res.fun)


def _toy_channels(h_imd=None, g_imd=None):
    h = np.zeros(M, dtype=complex)
    h[0] = 1.0
    return ChannelSet(
        h=h, g=np.zeros(M),
        h_imd=np.zeros(N) if h_imd is None else np.asarray(h_imd, dtype=complex),
        g_imd=np.zeros(N) if g_imd is None else np.asarray(g_imd, dtype=complex))


def _inputs(sigma_x2=0.1, sigma_v2=1e-5, sigma_q2=1e-6, k_tiq=1.0, mu=0.1,
            channels=None, p_x_soi=None):
    if channels is None:
        channels = _toy_channels()
    if p_x_soi is None:
        p_x_soi = sigma_v2 * 10 ** 1.5  # SNR_req = 15 dB
    return TheoryInputs(sigma_x2=sigma_x2, sigma_v2=sigma_v2, sigma_q2=sigma_q2,
                        p_x_soi=p_x_soi, k_tiq=k_tiq, M=M, N=N, mu=mu,
                        channels=channels)


# -- step-size bounds -------------------------------------------------------

def test_alms_mean_bound_values():
    assert alms_mean_bound(1.0) == 2.0
    assert alms_mean_bound(0.5) == 4.0
    assert alms_mean_bound(10.0) < alms_mean_bound(1.0)


def test_alms_ms_bound_values():
    assert alms_ms_bound(0.01, 5) == pytest.approx(16.6667, abs=1e-3)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-6, 1e3), st.integers(1, 30))
def test_ms_bound_tighter_than_mean(sigma, m):
    assert alms_ms_bound(sigma, m) < alms_mean_bound(sigma)


# -- bias -------------------------------------------------------------------

def test_alms_bias_zero_cases():
    assert np.all(alms_bias(_inputs(k_tiq=0.0)) == 0)
    assert np.all(alms_bias(_inputs(channels=_toy_channels())) == 0)


def test_alms_bias_direct_substitution():
    inputs = _inputs(sigma_x2=0.1, k_tiq=1.0,
                     channels=_toy_channels(h_imd=[1, 0, 0, 0]))
    bias = alms_bias(inputs)
    assert bias[0] == pytest.approx(2 * 1.0 * 0.1)  # 2 k^{3/2} s2 h_imd,1
    assert np.all(bias[1:] == 0)
    assert bias.shape == (2 * M,)


# -- steady-state MSE / SINR ------------------------------------------------

def test_alms_mse_low_small_mu_limit():
    inputs = _inputs(mu=1e-9)
    assert alms_steady_mse(inputs, "low") == pytest.approx(inputs.sigma_v2, rel=1e-6)


def test_alms_mse_high_reduces_to_low():
    # no IMD channels and no quantization noise: the high-power expression
    # collapses exactly onto the low-power formula
    inputs = _inputs(sigma_q2=0.0, mu=0.5)
    assert alms_steady_mse(inputs, "high") == pytest.approx(
        alms_steady_mse(inputs, "low"), rel=1e-12)


def test_alms_mse_bounds_and_errors():
    inputs = _inputs(mu=0.5)
    assert alms_steady_mse(inputs, "low") >= inputs.sigma_v2
    with pytest.raises(ValueError):
        alms_steady_mse(_inputs(mu=alms_ms_bound(0.1, M) * 1.01), "low")
    with pytest.raises(ValueError):
        alms_steady_mse(inputs, "mid")


def test_alms_sinr_small_mu_is_snr_req():
    inputs = _inputs(mu=1e-9)
    sinr = lin_to_db(inputs.p_x_soi / alms_steady_mse(inputs, "low"))
    assert sinr == pytest.approx(15.0, abs=1e-3)


def test_alms_sinr_monotone():
    base = dict(sigma_x2=0.1, sigma_v2=1e-5, sigma_q2=1e-6, k_tiq=1.0,
                p_x_soi=10 ** 1.5 * 1e-5)
    ch = _toy_channels(h_imd=[0.01, 0, 0, 0])
    p_soi = base["p_x_soi"]
    for regime in ("low", "high"):
        sinrs = [lin_to_db(p_soi / alms_steady_mse(
            TheoryInputs(mu=mu, M=M, N=N, channels=ch, **base), regime))
                 for mu in (0.01, 0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(sinrs, sinrs[1:]))
    sinr_m = [lin_to_db(p_soi / alms_steady_mse(TheoryInputs(
        mu=0.1, M=m, N=N, channels=ChannelSet(
            h=np.eye(m)[0], g=np.zeros(m), h_imd=np.zeros(N), g_imd=np.zeros(N)),
        **base), "low")) for m in (5, 8, 12)]
    assert all(a > b for a, b in zip(sinr_m, sinr_m[1:]))
    sinr_s = [lin_to_db(p_soi / alms_steady_mse(TheoryInputs(
        mu=0.1, M=M, N=N, channels=ch, **{**base, "sigma_x2": s}), "low"))
              for s in (0.05, 0.1, 0.5)]
    assert all(a > b for a, b in zip(sinr_s, sinr_s[1:]))


def test_regime_continuity_at_low_power(lowpower_setup):
    prof, channels, budget = lowpower_setup
    mu = 0.05 * alms_ms_bound(prof.natural_sigma_x2, M)
    inputs = TheoryInputs.from_profile(prof, channels, budget, mu)
    assert alms_regime(inputs) == "low"
    gap = abs(lin_to_db(inputs.p_x_soi / alms_steady_mse(inputs, "high"))
              - lin_to_db(inputs.p_x_soi / alms_steady_mse(inputs, "low")))
    assert gap < 0.1


# -- transient recursion ----------------------------------------------------

def test_transition_matrix_eigenvalues():
    sigma, mu, m = 0.3, 0.2, 4
    f_mat = alms_transition_matrix(sigma, mu, m)
    eig = np.sort(np.linalg.eigvalsh(f_mat))
    small = 1 - 2 * mu * sigma + 2 * (mu * sigma) ** 2
    large = 1 - 2 * mu * sigma + (2 * m + 2) * (mu * sigma) ** 2
    np.testing.assert_allclose(eig[:-1], small, rtol=1e-12)
    assert eig[-1] == pytest.approx(large, rel=1e-12)
    # spectral radius crosses 1 exactly at the mean-square bound
    at_bound = alms_transition_matrix(sigma, alms_ms_bound(sigma, m), m)
    assert np.max(np.abs(np.linalg.eigvalsh(at_bound))) == pytest.approx(1.0, rel=1e-12)


def test_transient_initial_value_low_power():
    inputs = _inputs(mu=0.05)
    out = alms_transient(inputs, 10, regime="low",
                         w0=inputs.channels.stacked_linear())
    assert out.mse[0] == pytest.approx(inputs.sigma_v2, rel=1e-12)
    assert np.all(out.kappa[0] == 0)


def test_transient_fixed_point_matches_steady_mse():
    ch = _toy_channels(h_imd=[0.05, 0.02, 0, 0], g_imd=[0.005, 0, 0, 0])
    for regime in ("low", "high"):
        inputs = _inputs(mu=0.1 * alms_ms_bound(0.1, M), channels=ch)
        out = alms_transient(inputs, 8000, regime=regime)
        assert not out.diverged
        assert out.mse[-1] == pytest.approx(alms_steady_mse(inputs, regime),
                                            rel=1e-3)


def test_transient_divergence_reported_not_raised():
    inputs = _inputs(mu=1.3 * alms_ms_bound(0.1, M))
    out = alms_transient(inputs, 50_000, regime="low")
    assert out.diverged


# -- nonlinear covariance spectrum -----------------------------------------

def test_rb_eigenvalues_degenerate():
    spec = rb_eigenvalues(0.7, 0.0, M, N)
    assert spec.lam1 == pytest.approx(0.7)
    assert spec.lam2 == pytest.approx(0.7)
    assert spec.lam3 == pytest.approx(0.0, abs=1e-15)


def test_rb_eigenvalues_unit_case():
    # verified against the sample covariance of 1e6 simulated regressors
    # (see the acceptance suite): (7 +- sqrt(41)) / 2
    spec = rb_eigenvalues(1.0, 1.0, M, N)
    assert spec.lam2 == pytest.approx((7 + math.sqrt(41)) / 2, rel=1e-12)
    assert spec.lam3 == pytest.approx((7 - math.sqrt(41)) / 2, rel=1e-12)
    assert spec.multiplicities == (2 * (M - N), 2 * N, 2 * N)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-4, 10.0), st.floats(1e-3, 16.0))
def test_rb_eigenvalues_positive_and_ordered(sigma, k):
    spec = rb_eigenvalues(sigma, k, M, N)
    assert spec.lam2 >= spec.lam1 >= spec.lam3 > 0


def test_rb_matrix_matches_eigenvalues():
    mat = rb_matrix(0.4, 2.0, M, N)
    spec = rb_eigenvalues(0.4, 2.0, M, N)
    eig = np.sort(np.linalg.eigvalsh(mat))
    expected = np.sort(spec.as_vector())
    np.testing.assert_allclose(eig, expected, rtol=1e-9)


def test_anclms_mean_bound_identity():
    for sigma, k in ((1.0, 1.0), (0.3, 2.0), (0.05, 4.0)):
        spec = rb_eigenvalues(sigma, k, M, N)
        assert anclms_mean_bound(sigma, k, M, N) * spec.lam2 == pytest.approx(2.0, rel=1e-12)
    assert anclms_mean_bound(0.5, 0.0, M, N) == pytest.approx(alms_mean_bound(0.5))


def test_anclms_ms_bound_below_mean_bound(lowpower_setup, lowpower_ms_analysis):
    prof, _, _ = lowpower_setup
    s2 = prof.natural_sigma_x2
    assert lowpower_ms_analysis.bound < anclms_mean_bound(s2, prof.k_tiq, M, N)


def test_companion_bound_does_not_bind(lowpower_ms_analysis):
    """The bound of the companion matrix Gamma = [[S/2, -T/2], [I, 0]],
    1/lam_max over its real positive eigenvalues, is no tighter than the
    analysis' bound 1/lam_max[S^-1 T], so the analysis leaves Gamma out."""
    s_mat, t_mat = lowpower_ms_analysis.s_mat, lowpower_ms_analysis.t_mat
    big = len(s_mat)
    gamma = np.block([[s_mat / 2.0, -t_mat / 2.0],
                      [np.eye(big), np.zeros((big, big))]])
    eigs = np.linalg.eigvals(gamma)
    real_pos = eigs.real[(np.abs(eigs.imag) <= 1e-9 * np.abs(eigs).clip(min=1e-30))
                         & (eigs.real > 0)]
    assert real_pos.size
    assert lowpower_ms_analysis.bound <= 1.0 / real_pos.max()


def test_anclms_ms_bound_gaussian_oracle():
    # the widely linear regressor (N = 0) has the closed-form bound 1/((M+1) s2)
    for sigma, m in [(1.0, 1), (0.05, 2), (0.3, 5), (4.0, 3)]:
        ana = theory.anclms_ms_analysis(sigma, 2.0, m, 0)
        assert ana.bound == pytest.approx(alms_ms_bound(sigma, m), rel=1e-12)


def test_anclms_ms_analysis_degenerate():
    # k_tiq = 0: the IMD entries of R vanish, so R and S = I kron R + R kron I
    # are singular
    with pytest.raises(DegenerateInputError):
        theory.anclms_ms_analysis(1.0, 0.0, M, N)


@pytest.mark.parametrize("sigma, k", [(0.3, 2.0), (1.0, 0.5)])
def test_fourth_moment_matches_sample_estimate(sigma, k):
    """Every entry of the exact T lies within 5 standard errors of the
    sample estimate; the standard errors come from 20 block means."""
    m, n = 2, 1
    x = gen_proper_gaussian(200_000 + m - 1, seed=41).reference(sigma)
    blocks = np.array_split(regressor_matrix(x, m, n, k), 20)
    block_means = np.stack([theory.estimate_fourth_moment(b) for b in blocks])
    stderr = block_means.std(axis=0, ddof=1) / np.sqrt(len(blocks))
    exact = theory.fourth_moment(sigma, k, m, n)
    assert exact.shape == (36, 36)
    assert np.all(np.abs(block_means.mean(axis=0) - exact) <= 5.0 * stderr)


def test_fourth_moment_real_symmetric():
    t_mat = theory.fourth_moment(0.2, 3.0, M, N)
    assert t_mat.shape == ((2 * (M + N)) ** 2,) * 2
    assert np.isrealobj(t_mat)
    assert np.array_equal(t_mat, t_mat.T)


def _fourth_moment_whole_array(sigma_x2, k_tiq, m, n):
    """``theory.fourth_moment`` with every delay's factor held at once, as
    (dim, dim, dim, dim, m) arrays, and their product taken along the
    delays."""
    sizes = [m, n, m, n]
    delay = np.concatenate([np.arange(size) for size in sizes])
    at_delay = delay[:, None] == np.arange(m)
    p = np.repeat([1, 2, 0, 1], sizes)[:, None] * at_delay
    q = np.repeat([0, 1, 1, 2], sizes)[:, None] * at_delay
    coef = np.repeat([1.0, k_tiq ** 1.5, 1.0, k_tiq ** 1.5], sizes)

    def outer4(a, b, c, d):
        return (a[:, None, None, None] + b[None, :, None, None]
                + c[None, None, :, None] + d[None, None, None, :])

    p_tot, q_tot = outer4(p, q, q, p), outer4(q, p, p, q)
    powers = np.arange(9)
    moment = np.array([math.factorial(i) for i in powers]) * sigma_x2 ** powers
    per_delay = np.where(p_tot == q_tot, moment[p_tot], 0.0)
    t_mat = per_delay.prod(axis=-1) * np.einsum("i,j,k,l->ijkl", coef, coef, coef, coef)
    return t_mat.reshape(len(delay) ** 2, len(delay) ** 2)


@pytest.mark.parametrize("sigma, k, m, n", [
    (0.2, 3.0, M, N), (1e-3, 10.0, M, N), (2.5, 0.0, M, N), (0.37, 1.0, M, 0),
    (0.7, 0.5, 2, 1), (1.0, 1.0, 1, 0), (0.05, 3.7, 6, 2)])
def test_fourth_moment_keeps_the_whole_array_bits(sigma, k, m, n):
    """Multiplying the delays' factors in one at a time gives the bits of
    the product of all of them held at once."""
    got = theory.fourth_moment(sigma, k, m, n)
    assert got.tobytes() == _fourth_moment_whole_array(sigma, k, m, n).tobytes()


def test_anclms_steady_mse_small_mu():
    inputs = _inputs(mu=1e-12)
    assert anclms_steady_mse(inputs) == pytest.approx(
        inputs.sigma_v2 + inputs.sigma_q2, rel=1e-9)


def test_anclms_steady_mse_channel_independent():
    a = _inputs(mu=0.1, channels=_toy_channels(h_imd=[1, 1, 1, 1]))
    b = _inputs(mu=0.1, channels=_toy_channels())
    assert anclms_steady_mse(a) == anclms_steady_mse(b)


def test_anclms_sinr_small_mu_limit(type2):
    prof = type2
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof)
    inputs = TheoryInputs.from_profile(prof, channels, budget, mu=1e-12)
    got = lin_to_db(inputs.p_x_soi / anclms_steady_mse(inputs))
    # limit: 1 / (1/SNR_req + sigma_q2 / (k_bb k_lna k_tiq p_sen)) in dB;
    # k_tiq == k_riq for the shipped presets so this equals p_soi/(sv+sq)
    denom = 1.0 / prof.snr_req + budget.sigma_q2 / (
        budget.k_bb * prof.k_lna * prof.k_tiq * prof.p_sen_mw)
    assert got == pytest.approx(10 * np.log10(1.0 / denom), abs=1e-6)


def test_anclms_sinr_monotone():
    ch = _toy_channels(h_imd=[0.01, 0, 0, 0])
    base = dict(sigma_v2=1e-5, sigma_q2=1e-6, p_x_soi=10 ** 1.5 * 1e-5, channels=ch)
    for key, values in (("mu", (0.01, 0.1, 1.0)), ("sigma_x2", (0.05, 0.1, 0.4)),
                        ("k_tiq", (0.5, 1.0, 4.0))):
        sinrs = []
        for v in values:
            kw = dict(sigma_x2=0.1, k_tiq=1.0, mu=0.1, M=M, N=N, **base)
            kw[key] = v
            inputs = TheoryInputs(**kw)
            sinrs.append(lin_to_db(inputs.p_x_soi / anclms_steady_mse(inputs)))
        assert all(a > b for a, b in zip(sinrs, sinrs[1:])), key
    s_m = [lin_to_db(base["p_x_soi"] / anclms_steady_mse(TheoryInputs(
        sigma_x2=0.1, sigma_v2=1e-5, sigma_q2=1e-6, p_x_soi=10 ** 1.5 * 1e-5,
        k_tiq=1.0, M=m, N=N, mu=0.1, channels=ChannelSet(
            h=np.eye(m)[0], g=np.zeros(m), h_imd=np.zeros(N), g_imd=np.zeros(N)))))
           for m in (5, 9)]
    assert s_m[0] > s_m[1]


def test_anclms_beats_alms_at_high_power(type2):
    channels = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    mu = 0.05 * alms_ms_bound(type2.natural_sigma_x2, M)
    inputs = TheoryInputs.from_profile(type2, channels, budget, mu)
    anclms_db = lin_to_db(inputs.p_x_soi / anclms_steady_mse(inputs))
    alms_db = lin_to_db(inputs.p_x_soi / alms_steady_mse(inputs, "high"))
    assert anclms_db > alms_db + 3.0


# -- Q3 diagonal ------------------------------------------------------------

def _q3_diag(inputs):
    """Steady-state diagonal of the noise/weight-error coupling, s2 |bias|^2."""
    return inputs.sigma_x2 * np.abs(alms_bias(inputs)) ** 2


def test_q3_diag_zero_and_trace():
    assert np.all(_q3_diag(_inputs()) == 0)
    ch = _toy_channels(h_imd=[0.3, 0.1, 0, 0], g_imd=[0.02, 0, 0, 0])
    inputs = _inputs(channels=ch, k_tiq=2.0, sigma_x2=0.2)
    diag = _q3_diag(inputs)
    trace = 4 * 2.0 ** 3 * 0.2 ** 3 * (ch.norm2_h_imd + ch.norm2_g_imd)
    assert diag.sum() == pytest.approx(trace, rel=1e-12)
    assert diag.shape == (2 * M,)


def test_q3_diag_monte_carlo(type2):
    """diag Q3 = Re{E[u x^a*] . conj(bias)} estimated from rendered parts.

    The strongest taps are held to 10%; entries whose scale sits below the
    estimator noise (the image-IMD tail, ~1e-8 mW here) are held to three
    block-bootstrap standard errors instead.
    """
    prof = type2
    s2 = prof.natural_sigma_x2
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof)
    inputs = TheoryInputs.from_profile(prof, channels, budget, mu=0.01)
    n = 1_000_000
    x = gen_proper_gaussian(n, seed=77).reference(s2)
    _, parts = render_observation(x, channels, budget, prof, seed=78, components=True)
    u = parts["imd_si"] + parts["image_imd_si"] + parts["thermal"] + parts["quantization"]
    regs = regressor_matrix(x, M)
    prod = u[M - 1:, None] * np.conj(regs)
    b_hat = prod.mean(axis=0)
    blocks = np.array_split(prod, 20, axis=0)
    block_means = np.stack([b.mean(axis=0) for b in blocks])
    stderr_b = block_means.std(axis=0, ddof=1) / np.sqrt(len(blocks))

    bias = alms_bias(inputs)
    diag_hat = np.real(b_hat * np.conj(bias))
    stderr = stderr_b * np.abs(bias)
    expected = _q3_diag(inputs)
    nz = expected > 0
    err = np.abs(diag_hat[nz] - expected[nz])
    allowed = np.maximum(0.10 * expected[nz], 3.0 * stderr[nz])
    assert np.all(err <= allowed)
    strong = expected >= 0.25 * expected.max()
    np.testing.assert_allclose(diag_hat[strong], expected[strong], rtol=0.10)


# -- condition number -------------------------------------------------------

def test_condition_number_minimum_value():
    eps_star, c_star = min_condition_number()
    assert eps_star == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert c_star == pytest.approx(4.641704769261381, abs=1e-9)
    assert condition_number_from_eps(1.0 / 6.0) == pytest.approx(c_star, rel=1e-12)


def test_condition_number_numeric_minimizer():
    eps_hat, c_hat = numeric_min_condition_number()
    assert abs(eps_hat - 1.0 / 6.0) < 1e-4
    assert c_hat == pytest.approx(min_condition_number()[1], rel=1e-6)


def test_condition_number_derivative_sign():
    grid_lo = np.linspace(0.01, 1 / 6 - 0.01, 30)
    grid_hi = np.linspace(1 / 6 + 0.01, 5.0, 30)
    c_lo = [condition_number_from_eps(e) for e in grid_lo]
    c_hi = [condition_number_from_eps(e) for e in grid_hi]
    assert all(a > b for a, b in zip(c_lo, c_lo[1:]))   # decreasing below 1/6
    assert all(a < b for a, b in zip(c_hi, c_hi[1:]))   # increasing above 1/6


def test_condition_number_singular_sentinel():
    assert condition_number(1.0, 0.0) == math.inf


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0), st.floats(0.2, 5.0))
def test_condition_number_depends_only_on_eps(sigma, k, scale):
    # (s2 -> s2/c, k -> k c^{2/3}) keeps eps = k^3 s2^2 fixed
    c1 = condition_number(sigma, k)
    c2 = condition_number(sigma / scale, k * scale ** (2.0 / 3.0))
    assert c1 == pytest.approx(c2, rel=1e-9)


def test_optimal_sigma_x2():
    k = 10 ** 0.6
    s = optimal_sigma_x2(k)
    assert k ** 3 * s ** 2 == pytest.approx(1.0 / 6.0, rel=1e-12)


# -- exact steady state and transient for the nonlinear canceller -----------

def test_anclms_exact_vs_transient(lowpower_setup, lowpower_ms_analysis):
    prof, channels, budget = lowpower_setup
    noise = budget.sigma_v2 + budget.sigma_q2
    mu = 0.1 * lowpower_ms_analysis.bound
    j_exact = anclms_exact_steady_mse(lowpower_ms_analysis, noise, mu)
    j_traj = anclms_transient(lowpower_ms_analysis, noise, mu,
                              -channels.stacked_nonlinear(),
                              np.array([5_000_000]))
    assert j_traj[0] == pytest.approx(j_exact, rel=1e-3)
    # and the approximate closed form sits within a few percent at this mu
    inputs = TheoryInputs.from_profile(prof, channels, budget, mu)
    assert anclms_steady_mse(inputs) == pytest.approx(j_exact, rel=0.05)
