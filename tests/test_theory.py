import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.sparse.csgraph import connected_components

from fdsic import theory
from fdsic.cancellers import DegenerateInputError, regressor_matrix
from fdsic.signals import gen_proper_gaussian
from fdsic.theory import (alms_bias, alms_mean_bound,
                          alms_ms_bound, alms_regime, alms_steady_mse,
                          alms_transient, alms_transition_matrix,
                          anclms_exact_steady_mse, anclms_mean_bound,
                          anclms_steady_mse,
                          anclms_transient, condition_number,
                          condition_number_from_eps, min_condition_number,
                          optimal_sigma_x2,
                          rb_eigenvalues, rb_matrix)
from fdsic.transceiver import (ChannelSet, OperatingPoint, compute_noise_budget,
                               render_observation, synthesize_channels)
from fdsic.units import lin_to_db

from conftest import (M, N, SEED, dense_bound, dense_exact_steady_mse,
                      dense_ms_matrices, dense_transient, fourth_moment,
                      operating_point)


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


def _point(sigma_x2=0.1, sigma_v2=1e-5, sigma_q2=1e-6, k_tiq=1.0, channels=None):
    if channels is None:
        channels = _toy_channels()
    return OperatingPoint(sigma_x2=sigma_x2, k_tiq=k_tiq, channels=channels,
                          sigma_v2=sigma_v2, sigma_q2=sigma_q2, p_x_soi=0.0)


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
    assert np.all(alms_bias(_point(k_tiq=0.0)) == 0)
    assert np.all(alms_bias(_point(channels=_toy_channels())) == 0)


def test_alms_bias_direct_substitution():
    point = _point(sigma_x2=0.1, k_tiq=1.0, channels=_toy_channels(h_imd=[1, 0, 0, 0]))
    bias = alms_bias(point)
    assert bias[0] == pytest.approx(2 * 1.0 * 0.1)  # 2 k^{3/2} s2 h_imd,1
    assert np.all(bias[1:] == 0)
    assert bias.shape == (2 * M,)


# -- steady-state MSE / SINR ------------------------------------------------

def test_alms_mse_low_small_mu_limit():
    point = _point()
    assert alms_steady_mse(point, 1e-9, "low") == pytest.approx(point.sigma_v2, rel=1e-6)


def test_alms_mse_high_reduces_to_low():
    # no IMD channels and no quantization noise: the high-power expression
    # collapses exactly onto the low-power formula
    point = _point(sigma_q2=0.0)
    assert alms_steady_mse(point, 0.5, "high") == pytest.approx(
        alms_steady_mse(point, 0.5, "low"), rel=1e-12)


def test_alms_mse_bounds_and_errors():
    point = _point()
    assert alms_steady_mse(point, 0.5, "low") >= point.sigma_v2
    with pytest.raises(ValueError):
        alms_steady_mse(point, alms_ms_bound(0.1, M) * 1.01, "low")
    with pytest.raises(ValueError):
        alms_steady_mse(point, 0.5, "mid")


def test_alms_sinr_small_mu_is_snr_req():
    point = _point()
    p_soi = point.sigma_v2 * 10 ** 1.5  # SNR_req = 15 dB
    sinr = lin_to_db(p_soi / alms_steady_mse(point, 1e-9, "low"))
    assert sinr == pytest.approx(15.0, abs=1e-3)


def test_alms_sinr_monotone():
    base = dict(sigma_x2=0.1, sigma_v2=1e-5, sigma_q2=1e-6, k_tiq=1.0)
    ch = _toy_channels(h_imd=[0.01, 0, 0, 0])
    p_soi = 10 ** 1.5 * 1e-5
    for regime in ("low", "high"):
        sinrs = [lin_to_db(p_soi / alms_steady_mse(_point(channels=ch, **base), mu, regime))
                 for mu in (0.01, 0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(sinrs, sinrs[1:]))
    sinr_m = [lin_to_db(p_soi / alms_steady_mse(_point(
        channels=ChannelSet(
            h=np.eye(m)[0], g=np.zeros(m), h_imd=np.zeros(N), g_imd=np.zeros(N)),
        **base), 0.1, "low")) for m in (5, 8, 12)]
    assert all(a > b for a, b in zip(sinr_m, sinr_m[1:]))
    sinr_s = [lin_to_db(p_soi / alms_steady_mse(_point(
        channels=ch, **{**base, "sigma_x2": s}), 0.1, "low"))
              for s in (0.05, 0.1, 0.5)]
    assert all(a > b for a, b in zip(sinr_s, sinr_s[1:]))


def test_regime_continuity_at_low_power(lowpower_setup):
    prof, channels, budget = lowpower_setup
    mu = 0.05 * alms_ms_bound(prof.natural_sigma_x2, M)
    point = operating_point(prof, channels, budget)
    assert alms_regime(point) == "low"
    gap = abs(lin_to_db(budget.p_x_soi / alms_steady_mse(point, mu, "high"))
              - lin_to_db(budget.p_x_soi / alms_steady_mse(point, mu, "low")))
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
    point = _point()
    out = alms_transient(point, 0.05, 10, regime="low", w0=point.channels.stacked_linear())
    assert out.mse[0] == pytest.approx(point.sigma_v2, rel=1e-12)
    assert np.all(out.kappa[0] == 0)


def test_transient_fixed_point_matches_steady_mse():
    ch = _toy_channels(h_imd=[0.05, 0.02, 0, 0], g_imd=[0.005, 0, 0, 0])
    for regime in ("low", "high"):
        point, mu = _point(channels=ch), 0.1 * alms_ms_bound(0.1, M)
        out = alms_transient(point, mu, 8000, regime=regime)
        assert not out.diverged
        assert out.mse[-1] == pytest.approx(alms_steady_mse(point, mu, regime),
                                            rel=1e-3)


def test_transient_divergence_reported_not_raised():
    out = alms_transient(_point(), 1.3 * alms_ms_bound(0.1, M), 50_000, regime="low")
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
    expected = np.sort(np.repeat([spec.lam1, spec.lam2, spec.lam3], spec.multiplicities))
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
    analysis' bound 1/lam_max[S^-1 T], so the analysis leaves Gamma out.
    Gamma is block diagonal by the same charge classes as S and T, so its
    eigenvalues are those of every block's [[S_b/2, -T_b/2], [I, 0]]."""
    eigs = []
    for index, s_b, t_b in lowpower_ms_analysis.blocks:
        eye = np.broadcast_to(np.eye(index.shape[1]), s_b.shape)
        gamma = np.block([[s_b / 2.0, -t_b / 2.0], [eye, np.zeros_like(eye)]])
        eigs.append(np.linalg.eigvals(gamma).reshape(-1))
    eigs = np.concatenate(eigs)
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
    """Every entry of the exact T, the oracle's and each block of the
    engine's, lies within 5 standard errors of the sample estimate; the
    standard errors come from 20 block means."""
    m, n = 2, 1
    x = gen_proper_gaussian(200_000 + m - 1, seed=41).reference(sigma)
    blocks = np.array_split(regressor_matrix(x, m, n, k), 20)
    block_means = np.stack([theory.estimate_fourth_moment(b) for b in blocks])
    estimate = block_means.mean(axis=0)
    stderr = block_means.std(axis=0, ddof=1) / np.sqrt(len(blocks))
    exact = fourth_moment(sigma, k, m, n)
    assert exact.shape == (36, 36)
    assert np.all(np.abs(estimate - exact) <= 5.0 * stderr)
    for index, _, t_b in theory.anclms_ms_analysis(sigma, k, m, n).blocks:
        for row, t_one in zip(index, t_b):
            at = np.ix_(row, row)
            assert np.all(np.abs(estimate[at] - t_one) <= 5.0 * stderr[at])


def test_fourth_moment_real_symmetric():
    t_mat = fourth_moment(0.2, 3.0, M, N)
    assert t_mat.shape == ((2 * (M + N)) ** 2,) * 2
    assert np.isrealobj(t_mat)
    assert np.array_equal(t_mat, t_mat.T)


def _fourth_moment_whole_array(sigma_x2, k_tiq, m, n):
    """The oracle's ``fourth_moment`` with every delay's factor held at once, as
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
    got = fourth_moment(sigma, k, m, n)
    assert got.tobytes() == _fourth_moment_whole_array(sigma, k, m, n).tobytes()


def test_anclms_steady_mse_small_mu():
    point = _point()
    assert anclms_steady_mse(point, 1e-12) == pytest.approx(
        point.sigma_v2 + point.sigma_q2, rel=1e-9)


def test_anclms_steady_mse_channel_independent():
    a = _point(channels=_toy_channels(h_imd=[1, 1, 1, 1]))
    b = _point(channels=_toy_channels())
    assert anclms_steady_mse(a, 0.1) == anclms_steady_mse(b, 0.1)


def test_anclms_sinr_small_mu_limit(type2):
    prof = type2
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof)
    point = operating_point(prof, channels, budget)
    got = lin_to_db(budget.p_x_soi / anclms_steady_mse(point, 1e-12))
    # limit: 1 / (1/SNR_req + sigma_q2 / (k_bb k_lna k_tiq p_sen)) in dB;
    # k_tiq == k_riq for the shipped presets so this equals p_soi/(sv+sq)
    denom = 1.0 / prof.snr_req + budget.sigma_q2 / (
        budget.k_bb * prof.k_lna * prof.k_tiq * prof.p_sen_mw)
    assert got == pytest.approx(10 * np.log10(1.0 / denom), abs=1e-6)


def test_anclms_sinr_monotone():
    ch = _toy_channels(h_imd=[0.01, 0, 0, 0])
    p_soi = 10 ** 1.5 * 1e-5
    base = dict(sigma_v2=1e-5, sigma_q2=1e-6, channels=ch)
    for key, values in (("mu", (0.01, 0.1, 1.0)), ("sigma_x2", (0.05, 0.1, 0.4)),
                        ("k_tiq", (0.5, 1.0, 4.0))):
        sinrs = []
        for v in values:
            kw = dict(sigma_x2=0.1, k_tiq=1.0, mu=0.1, **base)
            kw[key] = v
            mu = kw.pop("mu")
            sinrs.append(lin_to_db(p_soi / anclms_steady_mse(_point(**kw), mu)))
        assert all(a > b for a, b in zip(sinrs, sinrs[1:])), key
    s_m = [lin_to_db(p_soi / anclms_steady_mse(_point(
        sigma_x2=0.1, sigma_v2=1e-5, sigma_q2=1e-6, k_tiq=1.0, channels=ChannelSet(
            h=np.eye(m)[0], g=np.zeros(m), h_imd=np.zeros(N), g_imd=np.zeros(N))), 0.1))
           for m in (5, 9)]
    assert s_m[0] > s_m[1]


def test_anclms_beats_alms_at_high_power(type2):
    channels = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    mu = 0.05 * alms_ms_bound(type2.natural_sigma_x2, M)
    point = operating_point(type2, channels, budget)
    anclms_db = lin_to_db(budget.p_x_soi / anclms_steady_mse(point, mu))
    alms_db = lin_to_db(budget.p_x_soi / alms_steady_mse(point, mu, "high"))
    assert anclms_db > alms_db + 3.0


# -- Q3 diagonal ------------------------------------------------------------

def _q3_diag(point):
    """Steady-state diagonal of the noise/weight-error coupling, s2 |bias|^2."""
    return point.sigma_x2 * np.abs(alms_bias(point)) ** 2


def test_q3_diag_zero_and_trace():
    assert np.all(_q3_diag(_point()) == 0)
    ch = _toy_channels(h_imd=[0.3, 0.1, 0, 0], g_imd=[0.02, 0, 0, 0])
    diag = _q3_diag(_point(channels=ch, k_tiq=2.0, sigma_x2=0.2))
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
    point = operating_point(prof, channels, budget)
    n = 1_000_000
    x = gen_proper_gaussian(n, seed=77).reference(s2)
    _, parts = render_observation(x, point, seed=78, components=True)
    u = parts["imd_si"] + parts["image_imd_si"] + parts["thermal"] + parts["quantization"]
    regs = regressor_matrix(x, M)
    prod = u[M - 1:, None] * np.conj(regs)
    b_hat = prod.mean(axis=0)
    blocks = np.array_split(prod, 20, axis=0)
    block_means = np.stack([b.mean(axis=0) for b in blocks])
    stderr_b = block_means.std(axis=0, ddof=1) / np.sqrt(len(blocks))

    bias = alms_bias(point)
    diag_hat = np.real(b_hat * np.conj(bias))
    stderr = stderr_b * np.abs(bias)
    expected = _q3_diag(point)
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
    assert anclms_steady_mse(operating_point(prof, channels, budget), mu) == pytest.approx(
        j_exact, rel=0.05)


@pytest.mark.parametrize("m, n", [(5, 4), (4, 2), (3, 0)])
@pytest.mark.parametrize("profile", ["type1", "type2"])
def test_mean_square_matrices_are_exactly_symmetric(profile, m, n, request):
    """R and every block S_b and T_b, and every block's transition matrix
    F_b = I - mu S_b + mu^2 T_b, are symmetric bit for bit, at the
    profile's own power and at the power that minimizes the condition
    number, so a symmetric eigensolve of F_0 is exact."""
    prof = request.getfixturevalue(profile)
    for sigma_x2 in (prof.natural_sigma_x2, optimal_sigma_x2(prof.k_tiq)):
        ana = theory.anclms_ms_analysis(sigma_x2, prof.k_tiq, m, n)
        mu = 0.1 * alms_ms_bound(sigma_x2, m)
        assert np.array_equal(ana.r_mat, ana.r_mat.T)
        for index, s_b, t_b in ana.blocks:
            f_b = np.eye(index.shape[1]) - mu * s_b + mu ** 2 * t_b
            for mat in (s_b, t_b, f_b):
                assert np.array_equal(mat, np.swapaxes(mat, -1, -2))


def _transient_by_eig(s_mat, t_mat, r_mat, sigma_n2, mu, w0_error, iters):
    """The transient of the whole S and T by a general eigensolve of F and a
    complex solve against its eigenvectors."""
    iters = np.asarray(iters)
    dim2 = s_mat.shape[0]
    f_mat = np.eye(dim2) - mu * s_mat + mu ** 2 * t_mat
    lam, v_mat = np.linalg.eig(f_mat)
    vec_r = r_mat.reshape(-1)
    k0 = np.outer(w0_error, np.conj(w0_error)).reshape(-1)
    k_inf = np.linalg.solve(np.eye(dim2) - f_mat, mu ** 2 * sigma_n2 * vec_r)
    coef = (vec_r @ v_mat) * np.linalg.solve(v_mat, k0 - k_inf)
    j_inf = sigma_n2 + np.real(vec_r @ k_inf)
    return j_inf + np.real((lam[None, :] ** iters[:, None]) @ coef)


def test_anclms_transient_matches_the_eig_formula(type2, lowpower_setup,
                                                  lowpower_ms_analysis):
    """The symmetric eigensolve of the charge-0 block gives the transient of
    the general eigensolve of the whole F (the dense oracle's) to 1e-9: at
    convergence's point (15 dBm, the optimal reference power, mu 0.005 of
    the mean bound, a cold start) and at -5 dBm near a tenth of the
    mean-square bound from the Wiener solution's negative."""
    prof = type2.with_tx_power(15.0)
    k = prof.k_tiq
    s_opt = optimal_sigma_x2(k)
    channels = synthesize_channels(prof, M, N, seed=SEED, sigma_x2=s_opt)
    budget = compute_noise_budget(prof)
    low, low_channels, low_budget = lowpower_setup
    cases = [((s_opt, k), budget, 0.005 * anclms_mean_bound(s_opt, k, M, N), channels),
             ((low.natural_sigma_x2, low.k_tiq), low_budget,
              0.1 * lowpower_ms_analysis.bound, low_channels)]
    iters = np.concatenate([np.arange(50, 20_000, 100), [0, 1, 10 ** 6]])
    for (sigma_x2, k_tiq), noise, mu, ch in cases:
        args = (noise.sigma_v2 + noise.sigma_q2, mu, -ch.stacked_nonlinear(), iters)
        want = _transient_by_eig(*dense_ms_matrices(sigma_x2, k_tiq, M, N), *args)
        ana = theory.anclms_ms_analysis(sigma_x2, k_tiq, M, N)
        np.testing.assert_allclose(anclms_transient(ana, *args), want, rtol=1e-9, atol=0)


def test_bound_is_computed_on_first_read_with_its_eager_bits():
    """``bound`` is not computed by the analysis; its first read computes
    it with the bits of the eager Cholesky-reduced eigensolve of every
    block, batched per block size, and keeps it."""
    ana = theory.anclms_ms_analysis(0.3, 2.0, M, N)
    assert "bound" not in vars(ana)
    lam_max = -math.inf
    for _, s_b, t_b in ana.blocks:
        chol = np.linalg.cholesky(s_b)
        half = np.linalg.solve(chol, t_b)
        reduced = np.linalg.solve(chol, np.swapaxes(half, -1, -2))
        lam_max = max(lam_max, float(np.linalg.eigvalsh(reduced).max()))
    assert np.float64(ana.bound).tobytes() == np.float64(1.0 / lam_max).tobytes()
    assert vars(ana)["bound"] is ana.bound


# -- the block engine against the dense oracle --------------------------------

# the (M, N) of the engine tests: the default, the largest edge case, and
# smaller ones down to the widely linear regressor
ENGINE_SHAPES = [(5, 4), (8, 6), (4, 2), (3, 1), (2, 1), (3, 0)]


def _convergence_point(type2, m, n):
    """convergence's operating point at (m, n): 15 dBm at the optimal
    reference power, mu 0.005 of the mean bound 2 / lam_max[R]; returns
    ``(sigma_x2, k_tiq, noise, mu, w0_error)``, a cold start."""
    prof = type2.with_tx_power(15.0)
    s_opt = optimal_sigma_x2(prof.k_tiq)
    budget = compute_noise_budget(prof)
    lam_max = np.linalg.eigvalsh(rb_matrix(s_opt, prof.k_tiq, m, n)).max()
    return (s_opt, prof.k_tiq, budget.sigma_v2 + budget.sigma_q2, 0.005 * 2.0 / lam_max,
            _cold_start_error(prof, m, n, s_opt))


def _cold_start_error(prof, m, n, sigma_x2):
    """The weight error of all-zero weights at (m, n): minus the Wiener
    solution (the widely linear one at N = 0)."""
    channels = synthesize_channels(prof, m, max(n, 1), seed=SEED, sigma_x2=sigma_x2)
    return -(channels.stacked_nonlinear() if n else channels.stacked_linear())


@pytest.mark.parametrize("m, n", ENGINE_SHAPES)
def test_blocks_are_the_components_of_the_dense_pattern(m, n, type2):
    """The charge classes, the rows of the blocks' indices, are exactly the
    connected components of the nonzero pattern of the dense S + T, at
    convergence's point, and cover every vec index once."""
    sigma_x2, k_tiq = _convergence_point(type2, m, n)[:2]
    ana = theory.anclms_ms_analysis(sigma_x2, k_tiq, m, n)
    s_mat, t_mat, _ = dense_ms_matrices(sigma_x2, k_tiq, m, n)
    count, label = connected_components((s_mat + t_mat != 0).astype(float),
                                        directed=False)
    components = sorted(tuple(np.flatnonzero(label == c)) for c in range(count))
    classes = sorted(tuple(row) for index, _, _ in ana.blocks for row in index.tolist())
    assert classes == components


@pytest.mark.parametrize("m, n", ENGINE_SHAPES)
def test_blocks_are_the_dense_sub_blocks_bit_for_bit(m, n, type2):
    """Every block S_b and T_b is the sub-block of the dense S and T at its
    vec indices, bit for bit, at convergence's point and at -5 dBm."""
    low = type2.with_tx_power(-5.0)
    for sigma_x2, k_tiq in (_convergence_point(type2, m, n)[:2],
                            (low.natural_sigma_x2, low.k_tiq)):
        s_mat, t_mat, _ = dense_ms_matrices(sigma_x2, k_tiq, m, n)
        for index, s_b, t_b in theory.anclms_ms_analysis(sigma_x2, k_tiq, m, n).blocks:
            for row, s_one, t_one in zip(index, s_b, t_b):
                assert s_mat[np.ix_(row, row)].tobytes() == s_one.tobytes()
                assert t_mat[np.ix_(row, row)].tobytes() == t_one.tobytes()


@pytest.mark.parametrize("m, n", ENGINE_SHAPES)
def test_vec_r_lies_in_the_zero_block(m, n):
    """R vanishes off the charge-0 block, the largest, of 2M + 6N vec
    indices; ``zero_block`` gives vec(R) on its indices."""
    ana = theory.anclms_ms_analysis(0.3, 2.0, m, n)
    index, vec_r, _, _ = ana.zero_block
    assert len(index) == 2 * m + 6 * n
    assert max(idx.shape[1] for idx, _, _ in ana.blocks[:-1]) < len(index)
    full = ana.r_mat.reshape(-1)
    assert np.array_equal(vec_r, full[index])
    assert not np.delete(full, index).any()


@pytest.mark.parametrize("m, n", ENGINE_SHAPES)
def test_block_engine_matches_the_dense_oracle(m, n, type2):
    """The bound and the exact steady MSE match the dense engine to 1e-12,
    and the transient to 1e-9, at convergence's point and at bounds-probe's
    (-5 dBm, at 0.5 and 0.9 of the bound, from all-zero weights)."""
    low = type2.with_tx_power(-5.0)
    low_budget = compute_noise_budget(low)
    s_conv, k_conv, noise, mu, w0_error = _convergence_point(type2, m, n)
    probe = (low.natural_sigma_x2, low.k_tiq, low_budget.sigma_v2 + low_budget.sigma_q2)
    iters = np.concatenate([np.arange(50, 20_000, 500), [0, 1, 10 ** 6]])
    for sigma_x2, k_tiq, sigma_n2, fracs in ((s_conv, k_conv, noise, ()),
                                             (*probe, (0.5, 0.9))):
        ana = theory.anclms_ms_analysis(sigma_x2, k_tiq, m, n)
        dense = dense_ms_matrices(sigma_x2, k_tiq, m, n)
        assert ana.bound == pytest.approx(dense_bound(*dense[:2]), rel=1e-12, abs=0)
        mus = [mu] if not fracs else [frac * ana.bound for frac in fracs]
        start = w0_error if not fracs else _cold_start_error(low, m, n, sigma_x2)
        for step in mus:
            assert anclms_exact_steady_mse(ana, sigma_n2, step) == pytest.approx(
                dense_exact_steady_mse(*dense, sigma_n2, step), rel=1e-12, abs=0)
            np.testing.assert_allclose(
                anclms_transient(ana, sigma_n2, step, start, iters),
                dense_transient(*dense, sigma_n2, step, start, iters), rtol=1e-9, atol=0)
