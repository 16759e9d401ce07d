import contextlib
import ctypes
import dataclasses
import functools
import math
import re
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsic import _native, cancellers, harness
from fdsic.cancellers import (DegenerateInputError, Job, check_nonsingular,
                              default_steady_window, newton_preconditioner,
                              regressor_matrix, run_batch, run_jobs)
from fdsic.harness import ExperimentConfig
from fdsic.signals import Draw, gen_proper_gaussian
from fdsic.theory import (alms_ms_bound, anclms_mean_bound, anclms_ms_analysis,
                          optimal_sigma_x2, rb_matrix)
from fdsic.transceiver import (compute_noise_budget, render_observation,
                               synthesize_channels)
from conftest import (M, N, SEED, WARNING_FLAGS, assert_refuses, operating_point,
                      reference, stack_trials)

complex_st = st.complex_numbers(min_magnitude=0, max_magnitude=10,
                                allow_nan=False, allow_infinity=False)


def _row(window, N=0, k_tiq=1.0):
    """The augmented regressor of one newest-first window."""
    return regressor_matrix(np.asarray(window)[::-1], len(window), N, k_tiq)[0]


def test_regressor_matrix_example():
    assert np.array_equal(_row([1 + 1j, 2]), [1 + 1j, 2, 1 - 1j, 2])


def test_regressor_matrix_real_window():
    reg = _row([3.0, -1.0, 0.5])
    assert np.array_equal(reg[:3], reg[3:])


@settings(max_examples=50, deadline=None)
@given(st.lists(complex_st, min_size=1, max_size=8))
def test_augmented_conjugate_symmetry(window):
    reg = _row(window)
    m = len(window)
    assert np.array_equal(reg[m:], np.conj(reg[:m]))


def test_build_nonlinear_examples():
    assert np.array_equal(_row([1.0, 0.0, 0.0], N=1), [1, 0, 0, 1, 1, 0, 0, 1])
    assert _row([2j, 0.0], N=1)[2] == pytest.approx(8j)
    assert _row([1.0, 0.0], N=1, k_tiq=4.0)[2] == pytest.approx(8.0)  # 4^{3/2}


@settings(max_examples=50, deadline=None)
@given(st.lists(complex_st, min_size=2, max_size=8), st.floats(0.0, 16.0))
def test_nonlinear_regressor_structure(window, k_tiq):
    m = len(window)
    n = m - 1
    vals = _row(window, N=n, k_tiq=k_tiq)
    assert len(vals) == 2 * (m + n)
    np.testing.assert_allclose(
        vals[m: m + n], k_tiq ** 1.5 * np.abs(vals[:n]) ** 2 * vals[:n],
        atol=1e-9)
    np.testing.assert_allclose(vals[m + n:], np.conj(vals[: m + n]), atol=0)


def test_build_nonlinear_bad_n():
    with pytest.raises(ValueError):
        regressor_matrix([1.0, 2.0], 2, 2)
    x = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="0 <= N < M"):
        run_jobs([Job(0.1, 2, z=x, d=x)], 2, 1.0)
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        run_jobs([Job(-0.1, z=x, d=x)], 2, 1.0)


def _one_step(window, d, mu):
    """A one-step run from w = 0 on a newest-first window and observation d:
    its ``JobRun`` and residual row."""
    x = np.asarray(window, dtype=complex)[::-1]
    d_seq = np.zeros(len(x), dtype=complex)
    d_seq[-1] = d
    [(run, residuals, _)] = run_batch(x[None, :], d_seq[None, :], Job(mu), len(x), 1.0)
    return run, residuals


def test_frozen_filter_step():
    run, residuals = _one_step([1.0 + 1j, 2.0], 5.0, mu=0.0)
    assert residuals[0] == pytest.approx(25.0)
    assert np.array_equal(run.final_weights, np.zeros(4))
    assert run.n_steps == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(complex_st, min_size=2, max_size=6), st.floats(0.01, 1.99),
       st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_one_step_contraction(window, mu_rel, d):
    reg = _row(window)
    norm2 = float(np.sum(np.abs(reg) ** 2))
    if norm2 < 1e-12:
        return
    run, residuals = _one_step(window, d, mu=mu_rel / norm2)
    e_after = d - reg @ run.final_weights
    assert abs(e_after) ** 2 <= residuals[0] * (1 + 1e-9)


def test_alms_noiseless_convergence_to_ls_oracle():
    rng = np.random.default_rng(5)
    w_opt = rng.standard_normal(2 * M) + 1j * rng.standard_normal(2 * M)
    x = reference(gen_proper_gaussian(10_000 + M, seed=6), 1.0)
    regs = regressor_matrix(x, M)
    d_tail = regs @ w_opt
    ls = np.linalg.lstsq(regs, d_tail, rcond=None)[0]
    np.testing.assert_allclose(ls, w_opt, atol=1e-8)  # identifiable

    d = np.concatenate([np.zeros(M - 1), d_tail])
    mu = 0.5 * alms_ms_bound(1.0, M)
    [(run, _, _)] = run_batch(x[None, :], d[None, :], Job(mu), M, 1.0)
    err = np.sum(np.abs(run.final_weights - w_opt) ** 2)
    assert err / np.sum(np.abs(w_opt) ** 2) < 1e-6  # below -60 dB


def test_anclms_noiseless_residual_floor():
    rng = np.random.default_rng(8)
    dim = 2 * (M + N)
    w_opt = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x = reference(gen_proper_gaussian(20_000, seed=9), 0.3)
    regs = regressor_matrix(x, M, N, 1.0)
    d_tail = regs @ w_opt
    d = np.concatenate([np.zeros(M - 1), d_tail])
    mu = 0.02 * anclms_mean_bound(0.3, 1.0, M, N)
    [(_, res, _)] = run_batch(x[None, :], d[None, :], Job(mu, N), M, 1.0,
                              keep_residuals=True)
    assert res[-100:].mean() < 1e-6 * res[:100].mean()


def test_anclms_matches_widely_nonlinear_ls():
    """Converged weights vs the closed-form least-squares fit, M=2, N=1."""
    m, n = 2, 1
    rng = np.random.default_rng(12)
    w_opt = rng.standard_normal(2 * (m + n)) + 1j * rng.standard_normal(2 * (m + n))
    x = reference(gen_proper_gaussian(60_000, seed=13), 0.3)
    regs = regressor_matrix(x, m, n, 1.5)
    d_tail = regs @ w_opt
    ls = np.linalg.lstsq(regs, d_tail, rcond=None)[0]
    d = np.concatenate([np.zeros(m - 1), d_tail])
    mu = 0.02 * anclms_mean_bound(0.3, 1.5, m, n)
    [(run, _, _)] = run_batch(x[None, :], d[None, :], Job(mu, n), m, 1.5)
    got = run.final_weights
    np.testing.assert_allclose(got, ls, rtol=5e-5, atol=5e-5 * np.abs(ls).max())


def _exact_whitening(s2, k_tiq):
    """Phi = Lambda^{-1/2} U^T of the exact covariance R = U Lambda U^T."""
    lam, basis = np.linalg.eigh(rb_matrix(s2, k_tiq, M, N))
    return (basis / np.sqrt(lam)).T


def test_prewhitening_whitens(type2):
    """Phi of the exact covariance whitens simulated regressors, and
    Phi^T Phi is the Newton preconditioner R^-1, exactly pairwise."""
    s2 = optimal_sigma_x2(type2.k_tiq)
    phi = _exact_whitening(s2, type2.k_tiq)
    regs = regressor_matrix(reference(gen_proper_gaussian(50_000, seed=20), s2),
                            M, N, type2.k_tiq)

    def spread(rows):
        eig = np.linalg.eigvalsh(rows.T @ np.conj(rows) / len(rows))
        return eig.max() / eig.min()

    assert spread(regs) > 9.0
    assert spread(regs @ phi.T) < 1.3
    p = newton_preconditioner(rb_matrix(s2, type2.k_tiq, M, N), M, N)
    np.testing.assert_allclose(phi.T @ phi, p, rtol=1e-9, atol=1e-9 * np.abs(p).max())
    assert np.array_equal(p, p.T)
    assert np.array_equal(p != 0, rb_matrix(s2, type2.k_tiq, M, N) != 0)
    assert np.all(np.count_nonzero(p, axis=1) <= 2)


def test_prewhitening_degenerate():
    # k_tiq = 0: the IMD entries vanish and R is singular
    with pytest.raises(DegenerateInputError):
        newton_preconditioner(rb_matrix(1.0, 0.0, M, N), M, N)
    r = rb_matrix(1.0, 1.0, 3, 1)  # x(n) couples with its partner x_imd(n)
    assert r[0, 3] != 0
    lopsided = r.copy()
    lopsided[0, 3] *= 2.0
    for bad in (r[:-1], r * 1j, lopsided, rb_matrix(1.0, 1.0, M, N)):
        with pytest.raises(ValueError):
            newton_preconditioner(bad, 3, 1)
    # nonsingular, but coupling x(n) with x*(n), or x(n) with x_imd(n) and
    # x(n-1): a P of such an R is one the kernel refuses
    improper, triple = r.copy(), r.copy()
    improper[0, 4] = improper[4, 0] = 0.3
    triple[0, 1] = triple[1, 0] = 0.1
    for bad in (improper, triple):
        check_nonsingular(bad)
        with pytest.raises(ValueError, match="layout partner"):
            newton_preconditioner(bad, 3, 1)


def test_whitened_weights_map_back(type2):
    """The whitened LMS, run in numpy on Phi-whitened regressors and mapped
    back by w = Phi^T v, is the Newton job: the same weights to rounding."""
    s2 = optimal_sigma_x2(type2.k_tiq)
    x = reference(gen_proper_gaussian(3000, seed=22), s2)
    rng = np.random.default_rng(23)
    d = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
    mu = 0.01
    phi = _exact_whitening(s2, type2.k_tiq)
    v = np.zeros(2 * (M + N), dtype=complex)
    for t, u in enumerate(regressor_matrix(x, M, N, type2.k_tiq) @ phi.T):
        v += mu * (d[M - 1 + t] - u @ v) * np.conj(u)
    newton = Job(mu, N, preconditioner=newton_preconditioner(
        rb_matrix(s2, type2.k_tiq, M, N), M, N))
    [(run, _, _)] = run_batch(x, d, newton, M, type2.k_tiq)
    want = phi.T @ v
    np.testing.assert_allclose(run.final_weights, want, rtol=0,
                               atol=1e-9 * np.abs(want).max())


def test_run_batch_zero_observation():
    x = reference(gen_proper_gaussian(4000, seed=30), 1.0)
    d = np.zeros(4000, dtype=complex)
    [(run, residuals, _)] = run_batch(x[None, :], d[None, :], Job(0.05), M, 1.0)
    assert np.all(residuals == 0.0)
    assert np.all(run.final_weights == 0.0)
    assert run.steady_state_mse == 0.0


def test_run_batch_low_power_mse(lowpower_setup):
    prof, channels, budget = lowpower_setup
    s2 = prof.natural_sigma_x2
    mu = 0.1 * alms_ms_bound(s2, M)
    config = ExperimentConfig(experiment="bias", profile=prof, trials=1,
                              seed=SEED)
    xs, ds = stack_trials(config, operating_point(prof, channels, budget), 30_000 + M)
    [(run, residuals, _)] = run_batch(xs, ds, Job(mu), M, prof.k_tiq)
    j_low = ((1 - mu * s2) * budget.sigma_v2 / (1 - mu * (M + 1) * s2)
             + budget.sigma_q2)
    assert run.steady_state_mse == pytest.approx(j_low, rel=0.05)
    assert residuals.shape == (run.n_steps,)


def test_anclms_diverges_above_ms_bound(lowpower_setup, lowpower_ms_analysis):
    prof, channels, budget = lowpower_setup
    config = ExperimentConfig(experiment="bias", profile=prof, trials=4,
                              seed=SEED)
    xs, ds = stack_trials(config, operating_point(prof, channels, budget), 8000 + M)
    mu = 1.5 * lowpower_ms_analysis.bound
    runs = run_batch(xs, ds, Job(mu, N), M, prof.k_tiq, keep_residuals=False)
    assert all(harness._diverged(run) for run, _, _ in runs)


def test_mu_zero_flat_residual(lowpower_setup):
    prof, channels, budget = lowpower_setup
    config = ExperimentConfig(experiment="bias", profile=prof, trials=2,
                              seed=SEED)
    xs, ds = stack_trials(config, operating_point(prof, channels, budget), 5000 + M)
    runs = run_batch(xs, ds, Job(0.0), M, prof.k_tiq, keep_residuals=True)
    np.testing.assert_allclose([residuals for _, residuals, _ in runs],
                               np.abs(ds[:, M - 1:]) ** 2, rtol=1e-12)


def test_default_steady_window():
    assert default_steady_window(30_000) == 6000
    assert default_steady_window(5000) == 2000
    assert default_steady_window(900) == 900


def test_regressor_matrix_row_indexing():
    """Row t is the regressor at sample M-1+t, for one trial and for a batch."""
    x = reference(gen_proper_gaussian(50, seed=40), 1.0)
    regs = regressor_matrix(x, 4, 2, 3.0)
    window = x[10:6:-1]  # newest first for row index 10 - (4-1) = 7
    imd = 3.0 ** 1.5 * np.abs(window[:2]) ** 2 * window[:2]
    expected = np.concatenate([window, imd, np.conj(window), np.conj(imd)])
    np.testing.assert_allclose(regs[7], expected, rtol=1e-12)
    batch = regressor_matrix(np.stack([x, 2 * x]), 4, 2, 3.0)
    assert batch.shape == (2, 47, 12)
    assert np.array_equal(batch[0], regs)


def _reference_run_batch(xs, ds, job, M, k_tiq, keep_residuals=True, track_taps=(),
                         tap_stride=1):
    """run_batch as a per-step numpy loop: the oracle for the C kernel.

    With the job's ``preconditioner`` P the step moves along P conj(reg), formed entry
    by entry as the diagonal term plus the term of the row's one
    off-diagonal nonzero (column k with weight 0 if it has none).
    Returns each trial's ``(fields, residuals, taps)`` in trial order: its
    JobRun fields as a dict (``diverged_at`` excluded) and its rows, as
    ``run_batch`` returns them.
    """
    trials, n = xs.shape
    N, preconditioner = job.N, job.preconditioner
    dim = 2 * (M + N)
    n_steps = n - M + 1
    window = job.steady_window or default_steady_window(n_steps)
    w = np.zeros((trials, dim), dtype=np.complex128)
    if job.w0 is not None:
        w[:] = job.w0
    res = np.empty((trials, n_steps)) if keep_residuals else None
    taps = (np.empty((trials, n_steps, len(track_taps)), dtype=np.complex128)
            if track_taps else None)
    tap_idx = list(track_taps)
    w_accum = np.zeros_like(w)
    steady_sum = np.zeros(trials)
    steady_count = np.zeros(trials)
    peak = np.zeros(trials)
    finite = np.ones(trials, dtype=bool)
    win_start = n_steps - window
    mu = job.mu
    if preconditioner is not None:
        p = np.asarray(preconditioner, dtype=float)
        off = p - np.diag(np.diag(p))
        pair = np.where(off.any(axis=1), np.argmax(off != 0, axis=1), np.arange(dim))
        diag, coef = np.diag(p), off[np.arange(dim), pair]
    with np.errstate(over="ignore", invalid="ignore"):
        regs = regressor_matrix(xs, M, N, k_tiq)
        for t in range(n_steps):
            reg = regs[:, t]
            e = ds[:, M - 1 + t] - np.einsum("ij,ij->i", reg, w)
            direction = np.conj(reg)
            if preconditioner is not None:
                direction = diag * direction + coef * np.conj(reg[:, pair])
            w += mu * e[:, None] * direction
            e2 = np.abs(e) ** 2
            ok = np.isfinite(e2)
            finite &= ok
            np.maximum(peak, np.where(ok, e2, np.inf), out=peak)
            if keep_residuals:
                res[:, t] = e2
            if taps is not None:
                taps[:, t] = w[:, tap_idx]
            if t >= win_start:
                w_accum += w
                steady_sum += np.where(ok, e2, 0.0)
                steady_count += ok
        mean_w = w_accum / window
        steady_mse = np.where(steady_count > 0,
                              steady_sum / np.maximum(steady_count, 1), np.inf)
    steady_mse = np.where(~finite, np.inf, steady_mse)
    stacked = dict(final_weights=w, mean_weights=mean_w, steady_state_mse=steady_mse,
                   peak_residual=peak, diverged=~finite)
    if taps is not None:
        taps = taps[:, ::tap_stride]
    return [({"n_steps": n_steps, **{name: value[t] for name, value in stacked.items()}},
             None if res is None else res[t], None if taps is None else taps[t])
            for t in range(trials)]


def _bits(value):
    """A value's 8-byte items as uint64 words (so that NaN payloads and the
    sign of zero count); other values (the bool flags) as arrays."""
    a = np.asarray(value)
    return a.view(np.uint64) if a.dtype.itemsize % 8 == 0 else a


def _assert_same_bits(got, want):
    """The ``(run, residuals, taps)`` record ``got`` equals the record or
    oracle triple ``want`` bit for bit, every JobRun field and row, in
    shape and dtype too (the oracle's fields are a dict without
    ``diverged_at``)."""
    (run, *rows), (fields, *want_rows) = got, want
    if not isinstance(fields, dict):
        fields = {f.name: getattr(fields, f.name) for f in dataclasses.fields(fields)}
    pairs = [(name, getattr(run, name), value) for name, value in fields.items()]
    for name, actual, value in pairs + list(zip(("residuals", "taps"), rows, want_rows)):
        if value is None:
            assert actual is None, name
        else:
            np.testing.assert_array_equal(_bits(actual), _bits(value), err_msg=name,
                                          strict=True)


def _assert_same_runs(got: list, want: list):
    """``_assert_same_bits`` of each trial's run in ``got`` and ``want``."""
    assert len(got) == len(want)
    for run, row in zip(got, want):
        _assert_same_bits(run, row)


# kind, mu as a multiple of the kind's bound, run_batch options. The kind is
# 0 (ALMS) or N (ANCLMS), with their mean-square bounds, or "newton": ANCLMS
# preconditioned by the exact R^-1 of the trials' power, whose mean bound is
# 2 (P R = I, so every mode contracts by 1 - mu). 2x is where ALMS
# overflows within the 3000 steps of the batch (1.5x needs ~4500).
# w0="wiener" starts at the channels' exact Wiener solution, as the SINR
# sweep does.
_KERNEL_MODES = {
    "alms_taps": (0, 0.5, dict(keep_residuals=False, track_taps=(0, 1))),
    "anclms_taps": (N, 0.5, dict(keep_residuals=False, track_taps=(0, 1, 5))),
    "anclms_warm": (N, 0.5, dict(track_taps=(0, 1, 5), w0="wiener")),
    "anclms_strided_taps": (N, 0.5, dict(keep_residuals=False, track_taps=(0, 5),
                                         tap_stride=15)),
    "anclms_residuals": (N, 0.3, {}),
    "whitened_anclms": ("newton", 0.005, {}),
    "whitened_warm_taps": ("newton", 0.005, dict(track_taps=(0, 5, 9, 14),
                                                 tap_stride=7, w0="wiener")),
    "alms_diverging": (0, 2.0, dict(track_taps=(0,))),
    "anclms_diverging": (N, 3.0, {}),
    "whitened_diverging": ("newton", 1.5, dict(track_taps=(0,))),
}


@pytest.fixture(scope="module")
def kernel_setup(type2):
    """4 trials x 3000 steps at 15 dBm, and the bounds of each kind of
    _KERNEL_MODES there."""
    prof = type2.with_tx_power(15.0)
    s2 = prof.natural_sigma_x2
    channels = synthesize_channels(prof, M, N, seed=SEED)
    budget = compute_noise_budget(prof)
    config = ExperimentConfig(experiment="bias", profile=prof, trials=4,
                              seed=SEED)
    xs, ds = stack_trials(config, operating_point(prof, channels, budget), 3000 + M - 1)
    ana = anclms_ms_analysis(s2, prof.k_tiq, M, N)
    return prof, xs, ds, {0: alms_ms_bound(s2, M), N: ana.bound, "newton": 2.0}


@pytest.fixture(scope="module")
def wiener(type2):
    """The exact Wiener solution of the kernel_setup trials."""
    return synthesize_channels(type2.with_tx_power(15.0), M, N,
                               seed=SEED).stacked_nonlinear()


def _kernel_job(kernel_setup, kind, scale, **fields):
    """The ``Job`` of a kind of _KERNEL_MODES at ``scale`` times its bound,
    with the other ``fields`` given."""
    bounds = kernel_setup[3]
    return Job(scale * bounds[kind], 0 if kind == 0 else N, **fields)


def _exact_inverse(kernel_setup):
    """The Newton preconditioner R^-1 at the kernel_setup trials' power."""
    prof = kernel_setup[0]
    return newton_preconditioner(rb_matrix(prof.natural_sigma_x2, prof.k_tiq, M, N),
                                 M, N)


def _kernel_inputs(kernel_setup, wiener, mode):
    """(xs, ds, job, run_batch options) of a mode of _KERNEL_MODES, the
    options with the call's M and k_tiq."""
    prof, xs, ds, _ = kernel_setup
    kind, scale, options = _KERNEL_MODES[mode]
    options = dict(options, M=M, k_tiq=prof.k_tiq)
    job = _kernel_job(kernel_setup, kind, scale,
                      w0=wiener if options.pop("w0", None) == "wiener" else None,
                      preconditioner=_exact_inverse(kernel_setup) if kind == "newton" else None)
    return xs, ds, job, options


@pytest.mark.parametrize("mode", _KERNEL_MODES)
def test_kernel_matches_numpy_loop(mode, kernel_setup, wiener):
    xs, ds, job, options = _kernel_inputs(kernel_setup, wiener, mode)
    scale = _KERNEL_MODES[mode][1]
    got = run_batch(xs, ds, job, **options)
    want = _reference_run_batch(xs, ds, job, **options)
    assert [run.diverged for run, _, _ in got] == [scale > 1] * len(xs)
    _assert_same_runs(got, want)


@pytest.mark.parametrize("mode", ["alms_diverging", "anclms_taps", "whitened_anclms"])
def test_batch_equals_single_trial_runs(mode, kernel_setup, wiener):
    """A 3-trial batch returns exactly the runs of three 1-trial runs."""
    xs, ds, job, options = _kernel_inputs(kernel_setup, wiener, mode)
    xs, ds = xs[:3], ds[:3]
    _assert_same_runs(run_batch(xs, ds, job, **options),
                      [run for x, d in zip(xs, ds) for run in run_batch(x, d, job, **options)])


def test_zero_start_weights_are_the_default(kernel_setup):
    """w0 = 0 returns every field bit for bit as the default start does."""
    prof, xs, ds, _ = kernel_setup
    job = _kernel_job(kernel_setup, N, 0.5)
    options = dict(track_taps=(0, 1, 5))
    cold = run_batch(xs, ds, job, M, prof.k_tiq, **options)
    zero = run_batch(xs, ds, job._replace(w0=np.zeros(2 * (M + N))), M, prof.k_tiq,
                     **options)
    _assert_same_runs(zero, cold)


# The jobs of one call, (kind of _KERNEL_MODES or N = 2, mu as a multiple of
# the kind's bound (for N = 2, of the bound of N = 4), steady window, start):
# ALMS and ANCLMS, a Newton job next to plain ones, ALMS diverging at 2x its
# bound next to converging lanes, default and explicit windows, zero and
# Wiener starts, and an ANCLMS job with fewer IMD taps than the call's
# largest N. A call runs them trial-major (``_grouped``), so that a vector
# holds jobs of several kinds side by side.
_GROUP_JOBS = (
    (0, 0.5, 2500, None),
    ("newton", 0.005, None, "wiener"),
    (N, 0.5, None, "wiener"),
    (0, 2.0, None, None),
    (2, 0.3, 2000, None),
)
# the records (_own_rows options) of a call of that many jobs; tap 5 is the
# first conjugate entry of ALMS and the first IMD entry of ANCLMS (N = 4)
_GROUP_OPTIONS = {
    2: dict(keep_residuals=False),
    3: dict(track_taps=(0, 1, 5)),
    4: dict(keep_residuals=False, track_taps=(0, 5), tap_stride=7),
    5: dict(track_taps=(5,), tap_stride=15),
}


# the point of each job of _GROUP_JOBS in point_rows: 15 dBm (0) or 13 dBm
# (1), so that the jobs of every call differ in scale and observation and
# the ALMS job at 2x its 15 dBm bound still diverges
_GROUP_POINTS = (0, 1, 1, 0, 1)


@pytest.fixture(scope="module")
def point_rows(type2):
    """The source rows z of the kernel_setup trials, shared by two transmit
    powers, and each power's reference power and observation rows rendered
    from its own reference x = scale z."""
    n = 3000 + M - 1
    zs = np.stack([gen_proper_gaussian(n, seed=SEED + t).samples for t in range(4)])
    points = []
    for tx in (15.0, 13.0):
        prof = type2.with_tx_power(tx)
        s2 = prof.natural_sigma_x2
        channels = synthesize_channels(prof, M, N, seed=SEED)
        budget = compute_noise_budget(prof)
        scale = Draw(zs, 2.0).scale(s2)
        point = operating_point(prof, channels, budget)
        ds = np.stack([render_observation(z, point, seed=100 + t, scale=scale)
                       for t, z in enumerate(zs)])
        points.append((s2, ds))
    return zs, points


def _group_jobs(kernel_setup, wiener, point_rows, count):
    """The first ``count`` jobs of _GROUP_JOBS at their _GROUP_POINTS, as
    ``Job`` records whose d holds one row per row z of point_rows (for
    ``_grouped``), and each job's own (x, d) rows as numpy forms x."""
    prof, _, _, bounds = kernel_setup
    zs, points = point_rows
    draw = Draw(zs, 2.0)
    jobs, own = [], []
    for (kind, scale, window, start), point in zip(_GROUP_JOBS[:count], _GROUP_POINTS):
        s2, ds = points[point]
        jobs.append(Job(scale * bounds[kind if kind != 2 else N],
                        N if kind == "newton" else kind, window, None, ds, draw.scale(s2),
                        wiener if start == "wiener" else None,
                        _exact_inverse(kernel_setup) if kind == "newton" else None))
        own.append((reference(draw, s2), ds))
    return jobs, own


def _own_rows(jobs, k_tiq, keep_residuals=True, track_taps=(), tap_stride=1) -> list:
    """Run ``jobs`` in one call of M and ``k_tiq``, each with residual and
    tap rows of its own that start at -0.0 (none where not kept), as
    ``run_batch`` gives its trials; return each job's
    ``(run, residuals, taps)``."""
    n_steps = len(jobs[0].z) - M + 1
    jobs = [job._replace(
        residuals=np.full(n_steps, -0.0) if keep_residuals else None,
        taps=(np.full((-(-n_steps // tap_stride), len(track_taps)), -0.0j)
              if track_taps else None)) for job in jobs]
    runs = run_jobs(jobs, M, k_tiq, track_taps, tap_stride)
    return [(run, job.residuals, job.taps) for run, job in zip(runs, jobs)]


def _grouped(jobs, zs, k_tiq, **options) -> list[list]:
    """Run every job of ``jobs`` on every trial, the trial's source row of
    ``zs`` and its row of the job's d, in one call of M and ``k_tiq``,
    trial-major, so that each vector holds several jobs, each with rows of
    its own (``_own_rows``); return each job's records in trial order."""
    runs = _own_rows([job._replace(z=z, d=job.d[t]) for t, z in enumerate(zs)
                      for job in jobs], k_tiq, **options)
    return [runs[k::len(jobs)] for k in range(len(jobs))]


@functools.cache
def _build_lanes(*extra: str) -> int:
    """The lanes per vector of every call on the build with the ``extra``
    flags (the default build without): 8 if its flags give the kernel
    AVX-512F and AVX-512DQ, else 4 if AVX2 and FMA, else 1."""
    macros = set(subprocess.run(
        [_native._COMPILER, *_native._CFLAGS, *extra, "-dM", "-E", "-x", "c", "/dev/null"],
        capture_output=True, text=True, check=True).stdout.split())
    if {"__AVX512F__", "__AVX512DQ__"} <= macros:
        return 8
    return 4 if {"__AVX2__", "__FMA__"} <= macros else 1


@pytest.mark.parametrize("count", sorted(_GROUP_OPTIONS))
def test_grouped_jobs_equal_single_jobs(count, kernel_setup, wiener, point_rows):
    """Every job of a multi-job call (vector lanes where the build has them),
    each on its own reference x = scale z of its trial's row z and its own
    observation, returns each JobRun field bit for bit as it returns alone
    on that x and d, and as the numpy loop does."""
    zs, _ = point_rows
    k_tiq = kernel_setup[0].k_tiq
    jobs, own = _group_jobs(kernel_setup, wiener, point_rows, count)
    options = _GROUP_OPTIONS[count]
    assert _native.lanes() == _build_lanes()
    runs = _grouped(jobs, zs, k_tiq, **options)
    assert len(runs) == count
    assert all(run.diverged for run, _, _ in runs[3 % count]) == (count > 3)
    assert not any(run.diverged for run, _, _ in runs[0] + runs[1])
    # one job alone runs as the lanes too, forming its x from z
    [alone] = _own_rows([jobs[0]._replace(z=zs[0], d=jobs[0].d[0])], k_tiq, **options)
    _assert_same_bits(alone, runs[0][0])
    for job, (xs, d), job_runs in zip(jobs, own, runs):
        for oracle in (run_batch, _reference_run_batch):
            _assert_same_runs(job_runs, oracle(xs, d, job, M, k_tiq, **options))


def test_newton_jobs_of_one_call(kernel_setup, wiener, monkeypatch):
    """Two Newton jobs of one call, one diverging, with taps and residuals,
    each return their one-job bits, and the plain job beside them its own;
    the preconditioner they share is checked and laid out for the kernel
    once."""
    prof, xs, ds, _ = kernel_setup
    p = _exact_inverse(kernel_setup)
    formed = []
    real = cancellers._partner_pairs
    monkeypatch.setattr(cancellers, "_partner_pairs",
                        lambda *args: formed.append(args[0]) or real(*args))
    jobs = [_kernel_job(kernel_setup, "newton", 1.5, d=ds, preconditioner=p),
            _kernel_job(kernel_setup, N, 0.3, d=ds, w0=wiener),
            _kernel_job(kernel_setup, "newton", 0.01, d=ds, w0=wiener, preconditioner=p)]
    options = dict(track_taps=(0, 9, 17), tap_stride=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _grouped(jobs, xs, prof.k_tiq, **options)
    assert len(formed) == 1 and formed[0] is p
    assert [[run.diverged for run, _, _ in job_runs] for job_runs in runs] == [
        [True] * len(xs), [False] * len(xs), [False] * len(xs)]
    for job, job_runs in zip(jobs, runs):
        _assert_same_runs(job_runs, run_batch(xs, ds, job, M, prof.k_tiq, **options))
        _assert_same_runs(job_runs, _reference_run_batch(xs, ds, job, M, prof.k_tiq,
                                                         **options))


def test_newton_jobs_pairing_differently(kernel_setup, wiener):
    """Newton jobs of different N share a group of lanes: N = 4 couples
    x(n-2) with x_imd(n-2), N = 2 has no partner for x(n-2), and its lane
    weighs the shared layout's partner slot by 0. The call runs as lanes
    where the build has them, and every job returns its one-job bits."""
    prof, xs, ds, _ = kernel_setup
    s2 = prof.natural_sigma_x2
    jobs = [_kernel_job(kernel_setup, "newton", 0.01, d=ds, w0=wiener,
                        preconditioner=_exact_inverse(kernel_setup)),
            Job(0.01, 2, d=ds,
                preconditioner=newton_preconditioner(rb_matrix(s2, prof.k_tiq, M, 2),
                                                     M, 2)),
            _kernel_job(kernel_setup, N, 0.3, d=ds, w0=wiener)]
    options = dict(track_taps=(0, 5), tap_stride=5)
    runs = _grouped(jobs, xs, prof.k_tiq, **options)
    for job, job_runs in zip(jobs, runs):
        _assert_same_runs(job_runs, run_batch(xs, ds, job, M, prof.k_tiq, **options))


def test_grouped_jobs_zero_observation():
    """A zero residual is |e|^2 = 0 in every lane (numpy's |0| is 0, where
    the lanes' max * sqrt(1 + (min/max)^2) would be 0/0)."""
    x = reference(gen_proper_gaussian(4000, seed=30), 1.0)
    d = np.zeros(4000, dtype=complex)
    jobs = [Job(0.05, n_imd, z=x, d=d) for n_imd in (0, N, 1)]
    for run, residuals, _ in _own_rows(jobs, 1.0):
        assert np.all(residuals == 0.0)
        assert np.all(run.final_weights == 0.0)
        assert run.steady_state_mse == 0.0 and not run.diverged


def test_record_rows_contract(kernel_setup):
    """A job's residual and tap rows are arrays the kernel adds to: run_jobs
    refuses a row of another shape or dtype, one that is not C-contiguous,
    one that is read-only and one that is no array, before it runs
    anything; a job without rows returns the run it returns with them."""
    prof, xs, ds, _ = kernel_setup
    job = _kernel_job(kernel_setup, N, 0.5)
    steps = xs.shape[1] - M + 1
    kept = -(-steps // 7)
    options = dict(track_taps=(0, 5), tap_stride=7)
    good = dict(residuals=np.full(steps, -0.0), taps=np.full((kept, 2), -0.0j))
    for name, ok in good.items():
        assert_refuses(lambda row: run_jobs([job._replace(z=xs[0], d=ds[0], **good),
                                             job._replace(z=xs[1], d=ds[1], **{name: row})],
                                            M, prof.k_tiq, **options), ok, name)
    for row in good.values():  # the refused calls ran nothing
        assert np.all(row.view(np.uint64) == np.float64(-0.0).view(np.uint64))
    [bare] = run_jobs([job._replace(z=xs[0], d=ds[0])], M, prof.k_tiq, **options)
    [with_rows] = _own_rows([job._replace(z=xs[0], d=ds[0])], prof.k_tiq, **options)
    _assert_same_bits((bare, None, None), (with_rows[0], None, None))


@pytest.fixture(scope="module")
def ten_trials(type2):
    """10 trials x 3000 steps of kernel_setup's point, as (xs, ds), trial 3's
    observation NaN at sample 500, so that every job diverges on it."""
    prof = type2.with_tx_power(15.0)
    config = ExperimentConfig(experiment="bias", profile=prof, trials=10, seed=SEED)
    point = operating_point(prof, synthesize_channels(prof, M, N, seed=SEED),
                            compute_noise_budget(prof))
    xs, ds = stack_trials(config, point, 3000 + M - 1)
    ds[3, 500] = np.nan
    return xs, ds


# the jobs of a call whose trials share their rows, (kind of _KERNEL_MODES,
# mu as a multiple of the kind's bound) each: three like convergence's
# (optimal, whitened, a smaller step) and bias's four, ALMS and ANCLMS at
# two step sizes, laid out width-major as run_trials lays them
_SHARED_JOBS = {
    "three": ((N, 0.5), ("newton", 0.005), (N, 0.05)),
    "bias": ((0, 0.05), (0, 0.1), (N, 0.05), (N, 0.1)),
}


@pytest.mark.parametrize("build", ["default", "scalar_kernel", "avx2_kernel"])
@pytest.mark.parametrize("case", sorted(_SHARED_JOBS))
def test_shared_rows_sum_in_trial_order(case, build, kernel_setup, ten_trials, request):
    """Jobs whose 10 trials share one residual row and one tap row per job,
    laid out job-major in one call (on 8 and 4 lanes some vectors hold two
    jobs' trials), end with each row the trial-order numpy sum of the rows
    of the one-job runs of the same trials, started at -0.0, bit for bit,
    the NaN of the diverged trial included, and each trial returns its
    one-job run, on the default, the -mno-avx2 and the -mno-avx512f
    builds."""
    xs, ds = ten_trials
    k_tiq = kernel_setup[0].k_tiq
    trials = len(xs)
    steps = xs.shape[1] - M + 1
    kept = -(-steps // 7)
    options = dict(track_taps=(0, 5), tap_stride=7)
    jobs = [_kernel_job(kernel_setup, kind, scale,
                        preconditioner=_exact_inverse(kernel_setup) if kind == "newton" else None,
                        residuals=np.full(steps, -0.0), taps=np.full((kept, 2), -0.0j))
            for kind, scale in _SHARED_JOBS[case]]
    calls = [job._replace(z=x, d=d) for job in jobs for x, d in zip(xs, ds)]
    build = contextlib.nullcontext if build == "default" else request.getfixturevalue(build)
    with build():
        runs = run_jobs(calls, M, k_tiq, **options)
        alone = [record for call in calls for record in _own_rows([call], k_tiq, **options)]
    for k, job in enumerate(jobs):
        sums = dict(residuals=np.full(steps, -0.0), taps=np.full((kept, 2), -0.0j))
        for t in range(trials):
            run, *rows = alone[k * trials + t]
            _assert_same_bits((runs[k * trials + t], None, None), (run, None, None))
            assert run.diverged is (t == 3)
            with np.errstate(over="ignore", invalid="ignore"):
                for total, row in zip(sums.values(), rows):
                    total += row
        for name, total in sums.items():
            np.testing.assert_array_equal(_bits(getattr(job, name)), _bits(total),
                                          err_msg=name, strict=True)


def test_jobs_of_one_call_share_m_and_k_tiq(kernel_setup):
    """A call's jobs share the M and k_tiq the call is given, and each
    brings 1-D rows z and d of the call's one length."""
    _, xs, ds, _ = kernel_setup
    x, d = xs[0], ds[0]
    with pytest.raises(ValueError, match="at least one job"):
        run_jobs([], M, 1.0)
    with pytest.raises(TypeError, match="Job records"):
        run_jobs([(0.01, x, d)], M, 1.0)
    for jobs in ([Job(0.01, z=x, d=d), Job(0.01, z=x[1:], d=d[1:])],  # two lengths
                 [Job(0.01, z=x, d=d[1:])],                           # z and d unequal
                 [Job(0.01, z=xs, d=ds)],                             # 2-D rows
                 [Job(0.01, z=x, d=d), Job(0.01, z=x, d=ds)]):
        with pytest.raises(ValueError, match="1-D rows of one length"):
            run_jobs(jobs, M, 1.0)
    with pytest.raises(ValueError, match="tap_stride"):
        run_batch(xs, ds, Job(0.01), M, 1.0, track_taps=(0,), tap_stride=0)


def test_unallocated_lanes_raise_memory_error(kernel_setup, monkeypatch):
    """A kernel that returns 0, its lanes' state not allocated and nothing
    run, is a MemoryError, not runs of untouched state."""
    _, xs, ds, _ = kernel_setup

    class Refusing:
        def lms_raw(self, *args):
            return 0

    monkeypatch.setattr(_native, "library", Refusing)
    with pytest.raises(MemoryError, match="cannot allocate"):
        run_batch(xs, ds, _kernel_job(kernel_setup, N, 0.5), M, 1.0)


def _assert_build_matches_the_default(build, flag, kernel_setup, wiener, point_rows):
    """The build loaded by ``build`` runs the 5 mixed jobs over two
    transmit powers of two trials, the 10 (trial, job) pairs of one call,
    each on its own trial's rows, in its own lanes, and returns the bytes
    the default build returns."""
    zs, _ = point_rows
    k_tiq = kernel_setup[0].k_tiq
    jobs, _ = _group_jobs(kernel_setup, wiener, point_rows, 5)
    options = _GROUP_OPTIONS[5]
    default = _grouped(jobs, zs[:2], k_tiq, **options)
    with build():
        assert _native.lanes() == _build_lanes(flag)
        narrow = _grouped(jobs, zs[:2], k_tiq, **options)
    for got, want in zip(narrow, default, strict=True):
        _assert_same_runs(got, want)


def test_scalar_build_matches_the_lanes(kernel_setup, wiener, point_rows,
                                        scalar_kernel):
    """A build without AVX2 runs a mixed 10-job call over two transmit
    powers one lane wide, each job a group of its own, and returns the bytes
    the default build returns (two groups of eight lanes, the second with
    six idle, or three groups of four, the last with two idle)."""
    _assert_build_matches_the_default(scalar_kernel, "-mno-avx2", kernel_setup,
                                      wiener, point_rows)
    assert _build_lanes("-mno-avx2") == 1


def test_avx2_build_matches_the_lanes(kernel_setup, wiener, point_rows, avx2_kernel):
    """A build without AVX-512 runs the same call four lanes wide where the
    CPU has AVX2 and FMA (three groups, the last with two idle lanes), and
    returns the bytes the default build returns."""
    _assert_build_matches_the_default(avx2_kernel, "-mno-avx512f", kernel_setup,
                                      wiener, point_rows)
    assert _build_lanes("-mno-avx512f") in (1, 4)


@pytest.mark.parametrize("build", ["default", "scalar_kernel", "avx2_kernel"],
                         ids=["default", "no-avx2", "no-avx512f"])
def test_kernel_compiles_without_warnings(build, tmp_path, request):
    """The kernel builds warning-free under -Wall -Wextra with the
    production flags, without AVX2 (the vector operations one double wide)
    and without AVX-512 (four wide where the CPU has AVX2 and FMA). The
    session builds without AVX2 and without AVX-512, which the lane and
    digest tests load too, are made with -Werror, so this loads them; the
    production flags get one such build here."""
    if build != "default":
        with request.getfixturevalue(build)():
            assert set(WARNING_FLAGS) <= set(_native._CFLAGS)
            assert _native.library().lms_raw is not None
        return
    command = [_native._COMPILER, *_native._CFLAGS, *WARNING_FLAGS,
               str(_native._KERNEL_SOURCE), "-o", str(tmp_path / "_lms.so"), "-lm"]
    proc = subprocess.run(command, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_start_weights_contract(kernel_setup, wiener):
    prof, xs, ds, _ = kernel_setup
    job = _kernel_job(kernel_setup, N, 0.5)
    with pytest.raises(ValueError, match="w0 must be a vector of 18 weights"):
        run_batch(xs, ds, job._replace(w0=wiener[:-1]), M, prof.k_tiq)
    with pytest.raises(ValueError, match="w0 must be a vector"):
        run_batch(xs, ds, job._replace(w0=np.stack([wiener] * len(xs))), M, prof.k_tiq)


def test_preconditioner_contract(kernel_setup):
    prof, xs, ds, _ = kernel_setup
    p = _exact_inverse(kernel_setup)
    for bad in (p[:-1, :-1], p * 1j):
        with pytest.raises(ValueError, match="must be a real"):
            run_batch(xs, ds, _kernel_job(kernel_setup, "newton", 0.005, preconditioner=bad),
                      M, prof.k_tiq)


# off-diagonal entries of P outside the layout partners (x(n-d), x_imd(n-d))
# of the M = 5, N = 4 regressor: x(n) with x(n-1), x(n) with x_imd(n-1), x(n)
# with x*(n), x(n-4) (no partner) with x_imd(n-3), and x_imd(n) with x*(n),
# its partner's conjugate
@pytest.mark.parametrize("entry", [(0, 1), (0, 6), (0, 9), (4, 8), (5, 9)])
def test_preconditioner_couples_only_layout_partners(entry, kernel_setup):
    """run_batch and run_jobs refuse a P with a nonzero off the diagonal
    and off the partner positions, whatever its other entries."""
    prof, xs, ds, _ = kernel_setup
    job = _kernel_job(kernel_setup, "newton", 0.005, z=xs[0], d=ds[0])
    p = _exact_inverse(kernel_setup)
    assert p[0, M] != 0 and p[M + N, 2 * M + N] != 0  # the partners couple
    p[entry] = 0.25
    with pytest.raises(ValueError, match="layout partner"):
        run_batch(xs, ds, job._replace(preconditioner=p), M, prof.k_tiq)
    with pytest.raises(ValueError, match="layout partner"):
        run_jobs([job, job._replace(preconditioner=p)], M, prof.k_tiq)


def test_diverged_at_is_the_first_nonfinite_step(kernel_setup):
    prof, xs, ds, _ = kernel_setup
    for run, residuals, _ in run_batch(xs, ds, _kernel_job(kernel_setup, 0, 2.0), M,
                                       prof.k_tiq):
        assert type(run.diverged_at) is int and run.diverged_at > 0
        assert run.diverged_at == np.argmax(~np.isfinite(residuals))
    calm = run_batch(xs, ds, _kernel_job(kernel_setup, 0, 0.5), M, prof.k_tiq)
    assert [run.diverged_at for run, _, _ in calm] == [-1] * len(xs)
    assert not any(run.diverged for run, _, _ in calm)


def test_d_power_is_the_mean_power_of_the_observed_samples(kernel_setup):
    """Each job of a call reports the mean |d|^2 of the samples its steps
    observe, its row d from sample M - 1 on, whatever shares its vector:
    jobs of both widths on each trial's own row, a diverging one included."""
    prof, xs, ds, _ = kernel_setup
    jobs = [job._replace(z=x, d=d) for x, d in zip(xs, ds)
            for job in (_kernel_job(kernel_setup, 0, 0.5), _kernel_job(kernel_setup, N, 3.0))]
    runs = run_jobs(jobs, M, prof.k_tiq)
    assert any(run.diverged for run in runs)
    for job, run in zip(jobs, runs):
        assert run.d_power == pytest.approx(np.mean(np.abs(job.d[M - 1:]) ** 2), rel=1e-12)


@pytest.mark.parametrize("whiten", [False, True])
def test_diverging_run_emits_no_warnings(whiten, kernel_setup):
    prof, xs, ds, _ = kernel_setup
    if whiten:  # the Newton step at 1.5x its mean bound
        job = _kernel_job(kernel_setup, "newton", 1.5,
                          preconditioner=_exact_inverse(kernel_setup))
    else:
        job = _kernel_job(kernel_setup, N, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = run_batch(xs, ds, job, M, prof.k_tiq)
    assert all(run.diverged and math.isinf(run.steady_state_mse) for run, _, _ in runs)


def test_tracked_tap_out_of_range(kernel_setup):
    _, xs, ds, _ = kernel_setup
    with pytest.raises(IndexError):
        run_batch(xs, ds, Job(0.01), M, 1.0, track_taps=(2 * M,))


def test_kernel_build_failure_names_the_command(monkeypatch):
    monkeypatch.setattr(_native, "_COMPILER", "no-such-compiler-fdsic")
    with pytest.raises(RuntimeError, match="no-such-compiler-fdsic .*_lms.c"):
        _native._build_kernel()


def test_kernel_build_failure_shows_compiler_stderr(monkeypatch):
    monkeypatch.setattr(_native, "_CFLAGS",
                        (*_native._CFLAGS, "--no-such-flag-fdsic"))
    with pytest.raises(RuntimeError, match="(?s)exited with.*no-such-flag-fdsic"):
        _native._build_kernel()
    assert not list(_native._KERNEL_SOURCE.parent.glob("__pycache__/*.tmp"))


def test_kernel_tag_covers_the_headers(tmp_path):
    """An edited header beside the kernel source changes the library's tag,
    so a stale library is never reused."""
    sources = [_native._KERNEL_SOURCE, *_native._KERNEL_SOURCE.parent.glob("*.h")]
    assert len(sources) > 1
    for path in sources:
        (tmp_path / path.name).write_bytes(path.read_bytes())
    source = tmp_path / _native._KERNEL_SOURCE.name
    tag = _native._kernel_tag(source)
    assert tag == _native._kernel_tag(_native._KERNEL_SOURCE)
    for path in sources[1:]:
        header = tmp_path / path.name
        original = header.read_bytes()
        header.write_bytes(original.replace(b"0x", b"0X", 1))
        assert _native._kernel_tag(source) != tag, path.name
        header.write_bytes(original)


def _declarator(text: str) -> tuple[str, str]:
    """A C parameter or first field declarator split as (type, declarator):
    ``"const double *z"`` gives ``("const double", "*z")``."""
    return re.fullmatch(r"\s*(.*?)\s*(\**\s*\w+)\s*", text).groups()


def _c_kind(base: str, declarator: str) -> str:
    return ("pointer" if "*" in declarator
            else {"int64_t": "int64", "double": "double"}[base.split()[-1]])


def _ctypes_kind(kind) -> str:
    return {ctypes.c_int64: "int64", ctypes.c_double: "double"}.get(kind, "pointer")


def _kernel_code() -> str:
    """The source of ``_lms.c`` with its comments stripped."""
    return re.sub(r"/\*.*?\*/", "", _native._KERNEL_SOURCE.read_text(), flags=re.S)


def test_kernel_writes_the_lms_once():
    """The LMS is written once, over the vector operations v_*: the block
    that defines them 8 wide (AVX-512F and AVX-512DQ), 4 wide (AVX2 and
    FMA) or 1 wide defines nothing else, its three branches define the same
    operations, each once, and every other vector operation is defined once,
    outside the block, for every build; no AVX name appears outside the
    block, and ``lms_raw`` chooses no path by build."""
    source = _kernel_code()
    block = re.search(r"^#if defined\(__AVX512F__\) && defined\(__AVX512DQ__\)\n(.*?)"
                      r"^#elif defined\(__AVX2__\) && defined\(__FMA__\)\n(.*?)"
                      r"^#else\n(.*?)^#endif\n", source, re.S | re.M)
    assert block, "no vector-operation block with an 8-, a 4- and a 1-wide branch"
    *wide, narrow = (re.findall(r"^static inline \w+ (\w+)\(", branch, re.M)
                     for branch in block.groups())
    for names in (*wide, narrow):
        assert all(name.startswith("v_") for name in names), names
        assert len(names) == len(set(names)), names
    for names in wide:
        assert set(names) <= set(narrow)
        assert set(names) == set(narrow), set(names) ^ set(narrow)
    assert re.findall(r"#define LANES (\d+)", block.group(0)) == ["8", "4", "1"]
    outside = source[:block.start()] + source[block.end():]
    shared = re.findall(r"^static inline \w+ (v_\w+)\(", outside, re.M)
    assert len(shared) == len(set(shared)), shared
    assert not set(shared) & set(narrow), set(shared) & set(narrow)
    assert not re.findall(r"immintrin\.h|_mm(256|512)_\w*|__m(256|512)\w*|__mmask\w*",
                          outside)
    [body] = re.findall(r"^int64_t lms_raw\([^)]*\)\n\{(.*?)^\}", source, re.S | re.M)
    assert "#if" not in body


def _c_functions(source: str) -> dict[str, str]:
    """The body of every function defined in the comment-stripped C
    ``source``, by name: a definition's parameter list closes a line, and
    its body opens and closes at the start of lines."""
    return dict(re.findall(r"\b(\w+)\([^;{}()]*\)\n\{(.*?)^\}", source, re.S | re.M))


def test_kernel_forms_the_reference_once():
    """The render and the LMS form x and x_imd by one function, over the
    vector operations: the scalar copies (``fir_at``, ``shift_out``,
    ``x_at``, ``imd_at``, ``np_cabs``) are gone, ``render`` chooses no path
    by build, and one function holds the x_imd expression and is called by
    both ``render`` and ``lanes_push``, neither of which forms |x| itself."""
    source = _kernel_code()
    for name in ("fir_at", "shift_out", "x_at", "imd_at", "np_cabs"):
        assert not re.search(rf"\b{name}\b", source), name
    functions = _c_functions(source)
    assert "#if" not in functions["render"]
    [helper] = [name for name, body in functions.items()
                if re.search(r"v_fmsub\(\s*\w+,\s*xr,\s*v_mul\(zero,\s*xi\)\)", body)]
    for caller in ("render", "lanes_push"):
        body = functions[caller]
        assert re.search(rf"\b{helper}\(", body), caller
        assert "cabs_lanes(" not in body, caller


def test_ctypes_signatures_match_the_kernel_source():
    """Each exported kernel function takes as many parameters, of the same
    kinds (64-bit integer, double or pointer), as its ``argtypes`` declare,
    and ``_native.Run`` and ``_native.Point`` have the fields of ``struct
    run`` and ``struct point`` in order: a call with one argument too many
    or too few corrupts memory without an error."""
    source = _kernel_code()
    lib = _native.library()
    exported = {name: (result, params) for result, name, params in re.findall(
        r"^(void|int64_t) (\w+)\(([^)]*)\)", source, re.M)}
    assert sorted(exported) == ["doubles", "lms_raw", "normals_complex", "render"]
    for name, (result, params) in exported.items():
        want = [_c_kind(*_declarator(param)) for param in params.split(",")]
        fn = getattr(lib, name)
        assert [_ctypes_kind(kind) for kind in fn.argtypes] == want, name
        assert fn.restype == {"void": None, "int64_t": ctypes.c_int64}[result], name
    for struct, mirror in (("run", _native.Run), ("point", _native.Point)):
        [body] = re.findall(rf"^struct {struct} \{{(.*?)\}};", source, re.S | re.M)
        fields = []
        for statement in filter(str.strip, body.split(";")):
            first, *rest = statement.split(",")
            base, declarator = _declarator(first)
            fields += [(d.replace("*", "").strip(), _c_kind(base, d))
                       for d in (declarator, *rest)]
        assert [(name, _ctypes_kind(kind)) for name, kind in mirror._fields_] == fields, struct


def test_kernel_build_deletes_superseded_libraries(tmp_path, monkeypatch, stub_compiler):
    """A build deletes the other ``_lms-*.so`` beside the new library, and
    the new library loads. The compiler is a stub that copies the test
    session's library (``stub_compiler``): the kernel's own compile is
    tested by ``test_kernel_compiles_without_warnings``."""
    for path in (_native._KERNEL_SOURCE, *_native._KERNEL_SOURCE.parent.glob("*.h")):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = cache / "_lms-0000000000000000.so"
    stale.write_bytes(b"not a library")
    other = cache / "_lms.c.txt"
    other.write_text("kept")
    monkeypatch.setattr(_native, "_KERNEL_SOURCE", tmp_path / "_lms.c")
    monkeypatch.setattr(_native, "_COMPILER", stub_compiler())
    lib = _native._build_kernel()
    assert lib.parent == cache and lib.exists()
    assert not stale.exists()
    assert sorted(p.name for p in cache.iterdir()) == sorted([lib.name, other.name])
    assert ctypes.CDLL(str(lib)).render is not None
