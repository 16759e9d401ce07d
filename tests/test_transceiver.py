import contextlib
import dataclasses
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from fdsic import _native, transceiver
from fdsic.signals import gen_proper_gaussian
from fdsic.transceiver import (COMPONENTS, ChannelSet, NoiseBudget, OperatingPoint,
                               compute_noise_budget, load_profile,
                               render_observation, render_observations,
                               synthesize_channels)
from fdsic.units import dbm_to_mw, mw_to_dbm

from conftest import (M, N, SEED, assert_refuses, gain_chain_powers, operating_point,
                      reference)


def test_builtin_profiles(type1, type2):
    for prof in (type1, type2):
        assert prof.p_sen_dbm == -89.0
        assert prof.snr_req_db == 15.0
        assert prof.irr_db == 25.0
        assert prof.adc_bits == 12
    assert type1.rf_separation_db == 40.0 and type1.rf_attenuation_db == 30.0
    assert type2.rf_separation_db == 30.0 and type2.rf_attenuation_db == 20.0


def test_profile_file_errors(tmp_path):
    bad = tmp_path / "bad.profile"
    bad.write_text("nonsense_key = 3 dB\n")
    with pytest.raises(ValueError):
        load_profile(bad)
    with pytest.raises(FileNotFoundError):
        load_profile(tmp_path / "missing.profile")
    # a bit count is an integer: neither truncated nor an OverflowError
    text = (Path(transceiver.__file__).parent / "data" / "type2.profile").read_text()
    for bits in ("inf", "12.7"):
        bad.write_text(text.replace("adc_bits = 12\n", f"adc_bits = {bits}\n"))
        with pytest.raises(ValueError, match="adc_bits must be an integer"):
            load_profile(bad)
    # the thermal noise follows from p_sen and snr_req: no noise floor is read
    bad.write_text(text + "noise_floor = -104 dBm\n")
    with pytest.raises(ValueError, match="unknown profile key: 'noise_floor'"):
        load_profile(bad)


def test_profile_tx_power_range(type2):
    with pytest.raises(ValueError):
        type2.with_tx_power(30.0)


def test_sigma_q2_value(type2):
    budget = compute_noise_budget(type2)
    # beta=12, PAPR=10 dB, p_adc=7 dB: SQNR exponent 6.02*12+4.76-10 = 67 dB
    assert 6.02 * 12 + 4.76 - 10 == pytest.approx(67.0)
    assert budget.sigma_q2 == pytest.approx(10 ** 0.7 / 10 ** 6.7, rel=1e-12)
    assert budget.sigma_q2 == pytest.approx(1e-6, rel=1e-9)


def test_sigma_v2_vanishes_with_snr_req(type2):
    strict = dataclasses.replace(type2, snr_req_db=300.0)
    budget = compute_noise_budget(strict)
    assert budget.sigma_v2 < 1e-30


def test_soi_to_thermal_is_snr_req(type2):
    budget = compute_noise_budget(type2)
    assert budget.p_x_soi / budget.sigma_v2 == pytest.approx(type2.snr_req, rel=1e-12)
    assert budget.p_x_soi == pytest.approx(
        type2.p_sen_mw * type2.k_lna * budget.k_bb * type2.k_riq, rel=1e-12)


def test_sigma_q2_decreasing_in_bits(type2):
    values = []
    for bits in (8, 10, 12, 14):
        prof = dataclasses.replace(type2, adc_bits=bits)
        values.append(compute_noise_budget(prof).sigma_q2)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_channel_image_power_ratio(type2):
    ch = synthesize_channels(type2, M, N, seed=SEED)
    ratio = ch.norm2_g / ch.norm2_h
    assert ratio == pytest.approx(10 ** (-2.5), rel=0.01)
    ratio_imd = ch.norm2_g_imd / ch.norm2_h_imd
    assert ratio_imd == pytest.approx(10 ** (-2.5), rel=0.01)


def test_channel_infinite_irr(type2):
    prof = dataclasses.replace(type2, irr_db=math.inf)
    ch = synthesize_channels(prof, M, N, seed=3)
    assert not np.any(ch.g) and not np.any(ch.g_imd)


def test_channel_determinism(type2):
    a = synthesize_channels(type2, M, N, seed=3)
    b = synthesize_channels(type2, M, N, seed=3)
    for name in ("h", "g", "h_imd", "g_imd"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_channel_bad_lengths(type2):
    with pytest.raises(ValueError):
        synthesize_channels(type2, 4, 4, seed=0)
    with pytest.raises(ValueError):
        ChannelSet(h=np.ones(4), g=np.ones(4), h_imd=np.ones(4), g_imd=np.ones(4))


def test_operating_point_refuses_invalid_fields(type2):
    """An ``OperatingPoint`` refuses channels without IMD taps (N = 0), a
    negative noise power and a reference power at or below zero, and reads
    M, N and the IMD channels' power from its channels."""
    ch = synthesize_channels(type2, M, N, seed=SEED)
    point = operating_point(type2, ch, compute_noise_budget(type2))
    assert (point.M, point.N) == (M, N)
    assert point.imd_norm2 == ch.norm2_h_imd + ch.norm2_g_imd
    no_imd = ChannelSet(h=ch.h, g=ch.g, h_imd=np.zeros(0), g_imd=np.zeros(0))
    with pytest.raises(ValueError, match="1 <= N < M"):
        dataclasses.replace(point, channels=no_imd)
    for power in ("sigma_v2", "sigma_q2", "p_x_soi"):
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(point, **{power: -1e-30})
    for sigma_x2 in (0.0, -1.0):
        with pytest.raises(ValueError, match="sigma_x2 positive"):
            dataclasses.replace(point, sigma_x2=sigma_x2)


def test_sigma_x2_override_preserves_component_powers(type2):
    budget = compute_noise_budget(type2)
    base = operating_point(type2, synthesize_channels(type2, M, N, seed=SEED), budget)
    scaled = operating_point(type2, synthesize_channels(type2, M, N, seed=SEED, sigma_x2=0.5),
                             budget, sigma_x2=0.5)
    for key, power in base.component_powers.items():
        assert scaled.component_powers[key] == pytest.approx(power, rel=1e-9), key


def _zero_budget():
    return NoiseBudget(sigma_v2=0.0, sigma_q2=0.0, k_bb=1.0, p_x_soi=0.0, alpha1=-1.0)


def _imd_free_point(profile, channels, budget):
    """``operating_point(profile, channels, budget)`` for ``channels``
    without IMD taps (N = 0), which an ``OperatingPoint`` refuses: the
    fields the render reads, in a plain namespace. Only such channels reach
    the kernel's M = 1 case, which has no history."""
    return types.SimpleNamespace(sigma_x2=profile.natural_sigma_x2, k_tiq=profile.k_tiq,
                                 channels=channels, sigma_v2=budget.sigma_v2,
                                 sigma_q2=budget.sigma_q2, p_x_soi=budget.p_x_soi)


def test_render_zero_channels(type2):
    ch = ChannelSet(h=np.array([1e-300, 0, 0, 0, 0]), g=np.zeros(5),
                    h_imd=np.zeros(4), g_imd=np.zeros(4))
    x = reference(gen_proper_gaussian(500, seed=1), 1.0)
    d = render_observation(x, operating_point(type2, ch, _zero_budget()), seed=2)
    assert np.allclose(d, 0.0, atol=1e-290)


def test_render_identity_channel(type2):
    ch = ChannelSet(h=np.array([1.0, 0, 0, 0, 0]), g=np.zeros(5),
                    h_imd=np.zeros(4), g_imd=np.zeros(4))
    x = reference(gen_proper_gaussian(500, seed=1), 1.0)
    d = render_observation(x, operating_point(type2, ch, _zero_budget()), seed=2)
    assert np.array_equal(d, x)


def test_render_too_short(type2):
    point = operating_point(type2, synthesize_channels(type2, M, N, seed=SEED),
                            compute_noise_budget(type2))
    with pytest.raises(ValueError):
        render_observation(np.ones(M, dtype=complex), point, seed=0)
    with pytest.raises(ValueError):  # an output row of the wrong length
        render_observation(np.ones(M + 1, dtype=complex), point, seed=0,
                           out=np.empty(M, dtype=complex))


def test_render_refuses_rows_it_cannot_write(type2):
    """The observation and component rows of ``render_observations`` and
    the ``out`` of ``render_observation`` are checked as every row a
    kernel writes is: each bad row is refused with the one ValueError, and
    nothing is rendered, into the other point's good rows either."""
    point = operating_point(type2, synthesize_channels(type2, M, N, seed=SEED),
                            compute_noise_budget(type2))
    z = gen_proper_gaussian(300, seed=1).samples
    d = np.full(len(z), np.nan, dtype=complex)
    parts = np.full((len(COMPONENTS), len(z)), np.nan, dtype=complex)
    points = [(point, 1.0), (point, 0.5)]
    assert_refuses(lambda row: render_observations(z, points, 2, [d, row]), d,
                   "an observation")
    assert_refuses(lambda row: render_observations(z, points, 2, [d, d.copy()],
                                                   [parts, row]), parts,
                   "a point's components")
    assert_refuses(lambda row: render_observation(z, point, 2, out=row), d,
                   "an observation")
    assert np.all(np.isnan(d)) and np.all(np.isnan(parts))


def test_component_sum_identity(type2):
    """d is the in-order sum of every component but the SOI, bit for bit."""
    ch = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    x = reference(gen_proper_gaussian(10_000, seed=5), type2.natural_sigma_x2)
    d, parts = render_observation(x, operating_point(type2, ch, budget), seed=6,
                                  components=True)
    assert np.any(parts["soi"])
    want = sum(parts[key] for key in COMPONENTS if key != "soi")
    assert d.tobytes() == want.tobytes()


def test_imd_moment_law(type2):
    ch = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    x = reference(gen_proper_gaussian(100_000, seed=7), type2.natural_sigma_x2)
    _, parts = render_observation(x, operating_point(type2, ch, budget), seed=8,
                                  components=True)
    measured = np.mean(np.abs(parts["imd_si"]) ** 2)
    expected = (6 * type2.k_tiq ** 3 * type2.natural_sigma_x2 ** 3 * ch.norm2_h_imd)
    assert 0.95 <= measured / expected <= 1.05


GRID = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)


def _grid_points(profile, M=M, N=N) -> dict[float, OperatingPoint]:
    """``profile``'s point at each transmit power of GRID, with channels of
    M and N taps drawn as ``harness._point`` draws them, by transmit
    power."""
    points = {}
    for tx in GRID:
        prof = profile.with_tx_power(tx)
        channels = synthesize_channels(prof, M, N, seed=SEED)
        points[tx] = operating_point(prof, channels, compute_noise_budget(prof))
    return points


def _grid_powers(profile, M=M, N=N) -> dict[float, dict[str, float]]:
    """``component_powers`` of each point of ``_grid_points``."""
    return {tx: point.component_powers for tx, point in _grid_points(profile, M, N).items()}


def test_component_powers_match_the_gain_chain(type1, type2):
    """At M = 8, N = 6 the channels keep the whole 5-tap cascade, so each
    component's closed-form power is the gain chain's, and so is the mean
    |d|^2 of the observation, every component but the SOI (``d_power``);
    ``synthesize_channels``' normalisation is checked against it."""
    for profile in (type1, type2):
        for tx, point in _grid_points(profile, M=8, N=6).items():
            want = gain_chain_powers(profile.with_tx_power(tx))
            powers = point.component_powers
            assert tuple(powers) == COMPONENTS
            for key in COMPONENTS:
                assert powers[key] == pytest.approx(want[key], rel=1e-12), (tx, key)
            d_power = sum(power for key, power in want.items() if key != "soi")
            assert point.d_power == pytest.approx(d_power, rel=1e-12), tx


def test_power_budget_type1_dominance(type1):
    for powers in _grid_powers(type1).values():
        interferers = sorted(COMPONENTS[:6], key=powers.get, reverse=True)
        assert set(interferers[:2]) == {"linear_si", "image_si"}


def test_power_budget_type2_crossover(type2):
    for tx, powers in _grid_powers(type2).items():
        if tx < 15.0:
            assert powers["thermal"] > powers["quantization"]
        if tx > 20.0:
            assert powers["thermal"] < powers["quantization"]


def test_power_budget_imd_slope(type2):
    # At the canceller input the receiver VGA gain k_bb falls 1 dB per dB of
    # transmit power in the SI-limited regime, so the cubic |x|^2 x law shows
    # up as exactly 3 dB/dB once the shared gain is divided out (thermal
    # noise tracks k_bb, making imd - thermal a gain-free probe).
    powers = _grid_powers(type2).values()
    referred = [mw_to_dbm(p["imd_si"] / p["thermal"]) for p in powers]
    slopes = np.diff(referred) / np.diff(GRID)
    assert np.allclose(slopes, 3.0, atol=0.02)
    gap_vs_si = [mw_to_dbm(p["imd_si"] / p["linear_si"]) for p in powers]
    slopes_gap = np.diff(gap_vs_si) / np.diff(GRID)
    assert np.allclose(slopes_gap, 2.0, atol=0.02)


def test_power_budget_zero_channels(type2):
    prof = dataclasses.replace(type2, irr_db=math.inf).with_tx_power(0.0)
    channels = synthesize_channels(prof, M, N, seed=SEED)
    powers = operating_point(prof, channels, compute_noise_budget(prof)).component_powers
    assert powers["image_si"] == powers["image_imd_si"] == 0.0
    assert powers["linear_si"] > 0 and powers["imd_si"] > 0


def test_mw_dbm_roundtrip():
    assert mw_to_dbm(dbm_to_mw(13.0)) == pytest.approx(13.0)


def _kernel_block() -> int:
    """The samples per block of the render, ``RB`` in ``_lms.c``."""
    return int(re.search(r"^#define RB (\d+)$", _native._KERNEL_SOURCE.read_text(),
                         re.M).group(1))


def _assert_fir_matches_convolve(m, type2):
    rng = np.random.default_rng(m)
    rb = _kernel_block()
    # every n mod 4 at the shortest rows, and the block edges
    for n in (m + 1, m + 2, m + 3, m + 4, 64, rb - 1, rb, rb + 1, 2 * rb + 3,
              1000, 10_000):
        h, g = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(2))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        point = _imd_free_point(type2, ChannelSet(h=h, g=g, h_imd=np.zeros(0),
                                                  g_imd=np.zeros(0)), _zero_budget())
        _, parts = render_observation(v, point, seed=0, components=True)
        for got, want in ((parts["linear_si"], np.convolve(h, v)[:n]),
                          (parts["image_si"], np.convolve(g, np.conj(v))[:n])):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
    with pytest.raises(ValueError):
        render_observation(v[:m], point, seed=0)


@pytest.mark.parametrize("m", range(1, 7))
def test_fir_matches_convolve(m, type2):
    """The render's linear and image branches are np.convolve(h, v)[:n] and
    np.convolve(g, conj(v))[:n], bit for bit."""
    _assert_fir_matches_convolve(m, type2)


def test_fir_matches_convolve_one_wide(type2, scalar_kernel):
    """The build without AVX2 renders one sample per vector through the same
    code, and its branches equal np.convolve bit for bit too."""
    with scalar_kernel():
        for m in range(1, 7):
            _assert_fir_matches_convolve(m, type2)


def _numpy_render(xs, point, seed):
    """The observation as numpy formulas, d the sum of every component but
    the SOI: the oracle of the one-pass render."""
    n = len(xs)
    channels = point.channels
    x_imd = point.k_tiq ** 1.5 * np.abs(xs) ** 2 * xs
    rng = np.random.default_rng(seed)

    def noise(power):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.sqrt(power / 2.0) * w

    def fir(h, v):
        return np.convolve(h, v)[:n] if len(h) else np.zeros(n, dtype=complex)

    components = {
        "linear_si": fir(channels.h, xs),
        "image_si": fir(channels.g, np.conj(xs)),
        "imd_si": fir(channels.h_imd, x_imd),
        "image_imd_si": fir(channels.g_imd, np.conj(x_imd)),
        "thermal": noise(point.sigma_v2),
        "quantization": noise(point.sigma_q2),
        "soi": noise(point.p_x_soi),
    }
    return sum(components[key] for key in COMPONENTS if key != "soi"), components


def _assert_render_exact(xs, point, seed, components):
    """The render equals ``_numpy_render`` in every bit, signs of zero too:
    d and all seven components rendered into new rows, and d rendered into
    a caller's row, with the components (whose SOI normals the kernel draws
    after d's) or without them, leaving the caller's other row untouched."""
    want_d, want = _numpy_render(xs, point, seed)
    d, parts = render_observation(xs, point, seed=seed, components=True)
    assert tuple(parts) == COMPONENTS == tuple(want)
    for key in COMPONENTS:
        np.testing.assert_array_equal(parts[key].view(np.uint64),
                                      want[key].view(np.uint64), err_msg=key)
    np.testing.assert_array_equal(d.view(np.uint64), want_d.view(np.uint64))
    rows = np.full((2, len(xs)), np.nan, dtype=complex)
    bare = render_observation(xs, point, seed=seed, components=components, out=rows[1])
    assert np.shares_memory(bare[0] if components else bare, rows[1])
    np.testing.assert_array_equal(rows[1].view(np.uint64), want_d.view(np.uint64))
    assert np.all(np.isnan(rows[0]))


@pytest.mark.parametrize("components", [False, True])
def test_render_matches_numpy(type2, components):
    """d and the seven components equal the numpy formulas bit for bit, and
    so does d rendered into a caller's row alone or with the components."""
    for tx in (-5.0, 15.0, 25.0):
        prof = type2.with_tx_power(tx)
        ch = synthesize_channels(prof, M, N, seed=SEED)
        x = reference(gen_proper_gaussian(3000, seed=4), prof.natural_sigma_x2)
        _assert_render_exact(x, operating_point(prof, ch, compute_noise_budget(prof)), 9,
                             components)


@pytest.mark.parametrize("n_imd", range(1, M))
def test_render_matches_numpy_edges(type2, n_imd):
    """Every IMD length below M, zero image channels (irr = inf) and the
    shortest sequence, M + 1 samples."""
    budget = compute_noise_budget(type2)
    inf_irr = dataclasses.replace(type2, irr_db=math.inf)
    for prof in (type2, inf_irr):
        ch = synthesize_channels(prof, M, n_imd, seed=SEED)
        for n in (M + 1, 500):
            x = reference(gen_proper_gaussian(n, seed=n_imd), prof.natural_sigma_x2)
            _assert_render_exact(x, operating_point(prof, ch, budget), 3,
                                 components=n_imd % 2 == 0)


@pytest.mark.parametrize("components", [False, True])
def test_render_matches_numpy_zero_noise(type2, components):
    """With every noise scale zero the noise components are numpy's signed
    zeros, 0.0 * (re + 1j im), and d still equals the numpy sum bit for bit."""
    ch = synthesize_channels(type2, M, N, seed=SEED)
    x = reference(gen_proper_gaussian(2000, seed=4), type2.natural_sigma_x2)
    _assert_render_exact(x, operating_point(type2, ch, _zero_budget()), 9, components)


def test_render_allocates_no_normals(type2):
    """Rendering into a caller's row draws the noise straight into it: a
    200,000-sample render allocates under 1 MB (a (4, n) array of normals
    would be 6.4 MB)."""
    n = 200_000
    point = operating_point(type2, synthesize_channels(type2, M, N, seed=SEED),
                            compute_noise_budget(type2))
    x = reference(gen_proper_gaussian(n, seed=4), type2.natural_sigma_x2)
    row = np.empty(n, dtype=complex)
    render_observation(x, point, seed=5, out=row)  # builds the kernel
    tracemalloc.start()
    try:
        render_observation(x, point, seed=5, out=row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _block_rows(rng, n):
    """A reference row of n samples with exact zeros: a run of them from
    sample 0, signed zeros in one part, and zero samples scattered."""
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x[:3] = 0.0
    x[5::11] = complex(0.0, -0.0)
    x[7::13] = complex(-0.0, 0.7)
    x[n // 2:n // 2 + 6] = 0.0
    return x


@pytest.mark.parametrize("build", ["default", "no-avx2"])
def test_render_matches_numpy_over_blocks(type2, build, request):
    """d and all seven components equal the numpy formulas bit for bit for
    every length mod 4 (M + 1 .. M + 4), at the edges of the render's
    sample blocks (RB - 1, RB, RB + 1, 2 RB + 3), for M = 1 (no history and
    no IMD taps), and on references with exact zeros, on both builds."""
    loaded = (contextlib.nullcontext if build == "default"
              else request.getfixturevalue("scalar_kernel"))
    rb = _kernel_block()
    rng = np.random.default_rng(21)
    prof = type2.with_tx_power(25.0)
    budget = compute_noise_budget(prof)
    ch = synthesize_channels(prof, M, N, seed=SEED)
    h, g = (rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in range(2))
    single = ChannelSet(h=h, g=g, h_imd=np.zeros(0), g_imd=np.zeros(0))
    with loaded():
        for point in (operating_point(prof, ch, budget),
                      _imd_free_point(prof, single, budget)):
            m = point.channels.m
            for n in (m + 1, m + 2, m + 3, m + 4, rb - 1, rb, rb + 1, 2 * rb + 3):
                x = _block_rows(rng, n) * np.sqrt(prof.natural_sigma_x2)
                _assert_render_exact(x, point, 5, components=n % 2 == 0)


@pytest.mark.parametrize("build", ["default", "no-avx512f", "no-avx2"])
def test_render_observations_equal_one_point_renders(type2, build, request):
    """One render of several points draws the noise once and gives each
    point the bits of its render alone, d and all seven components, with
    the components of every point, of some or of none, on every build:
    points at three transmit powers (each its own noise budget), reference
    scales and channels, one of them with M = 1 and no IMD taps."""
    loaded = {"default": contextlib.nullcontext,
              "no-avx512f": lambda: request.getfixturevalue("avx2_kernel")(),
              "no-avx2": lambda: request.getfixturevalue("scalar_kernel")()}[build]
    rng = np.random.default_rng(8)
    draw = gen_proper_gaussian(2 * _kernel_block() + 7, seed=6)
    points = []
    for tx, n_imd in ((-5.0, N), (15.0, 2), (25.0, N)):
        prof = type2.with_tx_power(tx)
        points.append((operating_point(prof, synthesize_channels(prof, M, n_imd, seed=SEED),
                                       compute_noise_budget(prof)),
                       draw.scale(prof.natural_sigma_x2)))
    h, g = (rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in range(2))
    points.append((_imd_free_point(type2, ChannelSet(h=h, g=g, h_imd=np.zeros(0),
                                                     g_imd=np.zeros(0)),
                                   compute_noise_budget(type2.with_tx_power(-5.0))), 0.5))
    n = len(draw.samples)
    with loaded():
        alone = [render_observation(draw.samples, point, seed=3, components=True,
                                    scale=scale) for point, scale in points]
        for asked in ((True,) * 4, (False, True, False, True), (False,) * 4):
            ds = np.full((len(points), n), np.nan, dtype=complex)
            parts = np.full((len(points), len(COMPONENTS), n), np.nan, dtype=complex)
            render_observations(draw.samples, points, 3, list(ds),
                                [p if a else None for p, a in zip(parts, asked)]
                                if any(asked) else None)
            for (want_d, want), d, got, a in zip(alone, ds, parts, asked):
                assert d.tobytes() == want_d.tobytes()
                if a:
                    for key, row in zip(COMPONENTS, got):
                        assert row.tobytes() == want[key].tobytes(), key
                else:
                    assert np.all(np.isnan(got))
        with pytest.raises(ValueError):
            render_observations(draw.samples, points, 3, list(ds[:2]))


def test_render_raises_memory_error_when_unallocated(type2, monkeypatch):
    """A kernel that returns 0, its block rows not allocated and nothing
    rendered, is a MemoryError, not an observation of untouched memory."""
    ch = synthesize_channels(type2, M, N, seed=SEED)
    x = reference(gen_proper_gaussian(100, seed=1), type2.natural_sigma_x2)

    class Refusing:
        def render(self, *args):
            return 0

    monkeypatch.setattr(_native, "library", Refusing)
    with pytest.raises(MemoryError, match="cannot allocate"):
        render_observation(x, operating_point(type2, ch, compute_noise_budget(type2)),
                           seed=2)


_LONG_CHANNEL_RENDER = """
import sys
import numpy as np
from fdsic.transceiver import ChannelSet, OperatingPoint, render_observation
m, n = 20_000, 20_100
rng = np.random.default_rng(4)
taps = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (m, m, 3, 3)]
z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
point = OperatingPoint(1.0, 0.3 ** (2 / 3), ChannelSet(*taps), 2e-6, 2e-6, 2e-6)
np.save(sys.argv[1], render_observation(z, point, seed=1, scale=0.5))
"""


def test_render_keeps_long_channels_off_the_stack(tmp_path):
    """A channel of M = 20 000 taps renders under a 256 KiB stack, to the
    bits it renders under the default stack: the render's rows of x (a
    320 KB window for this M) are on the heap, not the stack."""
    _native.library()  # built here, so the limited process only loads it
    src = str(Path(_native.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def limit_stack():
        hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
        resource.setrlimit(resource.RLIMIT_STACK, (256 * 1024, hard))

    rows = []
    for limit in (limit_stack, None):
        rows.append(tmp_path / f"d{len(rows)}.npy")
        proc = subprocess.run([sys.executable, "-c", _LONG_CHANNEL_RENDER, str(rows[-1])],
                              env=env, preexec_fn=limit, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    limited, default = (np.load(row) for row in rows)
    np.testing.assert_array_equal(limited.view(np.uint64), default.view(np.uint64))
