import contextlib
import dataclasses
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fdsic import _native, transceiver
from fdsic.signals import gen_proper_gaussian
from fdsic.transceiver import (COMPONENTS, ChannelSet, NoiseBudget,
                               compute_noise_budget, compute_power_budget,
                               load_profile, render_observation,
                               render_observations, synthesize_channels)
from fdsic.units import dbm_to_mw, mw_to_dbm

from conftest import M, N, SEED


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


def test_sigma_x2_override_preserves_component_powers(type2):
    n = 50_000
    base = synthesize_channels(type2, M, N, seed=SEED)
    scaled = synthesize_channels(type2, M, N, seed=SEED, sigma_x2=0.5)
    s_nat = type2.natural_sigma_x2
    assert base.norm2_h * s_nat == pytest.approx(scaled.norm2_h * 0.5, rel=1e-9)
    assert (6 * type2.k_tiq ** 3 * s_nat ** 3 * base.norm2_h_imd
            == pytest.approx(6 * type2.k_tiq ** 3 * 0.5 ** 3 * scaled.norm2_h_imd,
                             rel=1e-9))
    del n


def _zero_budget():
    return NoiseBudget(sigma_v2=0.0, sigma_q2=0.0, k_bb=1.0, p_x_soi=0.0, alpha1=-1.0)


def test_render_zero_channels(type2):
    ch = ChannelSet(h=np.array([1e-300, 0, 0, 0, 0]), g=np.zeros(5),
                    h_imd=np.zeros(4), g_imd=np.zeros(4))
    x = gen_proper_gaussian(500, seed=1).reference(1.0)
    d = render_observation(x, ch, _zero_budget(), type2, seed=2)
    assert np.allclose(d, 0.0, atol=1e-290)


def test_render_identity_channel(type2):
    ch = ChannelSet(h=np.array([1.0, 0, 0, 0, 0]), g=np.zeros(5),
                    h_imd=np.zeros(4), g_imd=np.zeros(4))
    x = gen_proper_gaussian(500, seed=1).reference(1.0)
    d = render_observation(x, ch, _zero_budget(), type2, seed=2)
    assert np.array_equal(d, x)


def test_render_too_short(type2):
    ch = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    with pytest.raises(ValueError):
        render_observation(np.ones(M, dtype=complex), ch, budget, type2, seed=0)
    with pytest.raises(ValueError):  # an output row of the wrong length
        render_observation(np.ones(M + 1, dtype=complex), ch, budget, type2,
                           seed=0, out=np.empty(M, dtype=complex))


def test_component_sum_identity(type2):
    ch = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    x = gen_proper_gaussian(10_000, seed=5).reference(type2.natural_sigma_x2)
    d, parts = render_observation(x, ch, budget, type2, seed=6, include_soi=True,
                                  components=True)
    assert np.max(np.abs(d - sum(parts.values()))) == 0.0


def test_imd_moment_law(type2):
    ch = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    x = gen_proper_gaussian(100_000, seed=7).reference(type2.natural_sigma_x2)
    _, parts = render_observation(x, ch, budget, type2, seed=8, components=True)
    measured = np.mean(np.abs(parts["imd_si"]) ** 2)
    expected = (6 * type2.k_tiq ** 3 * type2.natural_sigma_x2 ** 3 * ch.norm2_h_imd)
    assert 0.95 <= measured / expected <= 1.05


GRID = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)


def test_power_budget_type1_dominance(type1):
    rows = compute_power_budget(type1, GRID)
    for row in rows:
        interferers = sorted(
            [row.linear_si_dbm, row.image_si_dbm, row.imd_si_dbm,
             row.image_imd_si_dbm, row.thermal_dbm, row.quantization_dbm],
            reverse=True)
        assert {row.linear_si_dbm, row.image_si_dbm} == set(interferers[:2])


def test_power_budget_type2_crossover(type2):
    rows = {r.tx_power_dbm: r for r in compute_power_budget(type2, GRID)}
    for tx, row in rows.items():
        if tx < 15.0:
            assert row.thermal_dbm > row.quantization_dbm
        if tx > 20.0:
            assert row.thermal_dbm < row.quantization_dbm


def test_power_budget_imd_slope(type2):
    # At the canceller input the receiver VGA gain k_bb falls 1 dB per dB of
    # transmit power in the SI-limited regime, so the cubic |x|^2 x law shows
    # up as exactly 3 dB/dB once the shared gain is divided out (thermal
    # noise tracks k_bb, making imd - thermal a gain-free probe).
    rows = compute_power_budget(type2, GRID)
    referred = [r.imd_si_dbm - r.thermal_dbm for r in rows]
    slopes = np.diff(referred) / np.diff([r.tx_power_dbm for r in rows])
    assert np.allclose(slopes, 3.0, atol=0.02)
    gap_vs_si = [r.imd_si_dbm - r.linear_si_dbm for r in rows]
    slopes_gap = np.diff(gap_vs_si) / 5.0
    assert np.allclose(slopes_gap, 2.0, atol=0.02)


def test_power_budget_zero_channels(type2):
    prof = dataclasses.replace(type2, irr_db=math.inf)
    rows = compute_power_budget(prof, [0.0])
    assert rows[0].image_si_dbm == -math.inf
    assert rows[0].image_imd_si_dbm == -math.inf


def test_power_budget_rejects_empty(type2):
    with pytest.raises(ValueError):
        compute_power_budget(type2, [])


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
        ch = ChannelSet(h=h, g=g, h_imd=np.zeros(0), g_imd=np.zeros(0))
        _, parts = render_observation(v, ch, _zero_budget(), type2, seed=0,
                                      components=True)
        for got, want in ((parts["linear_si"], np.convolve(h, v)[:n]),
                          (parts["image_si"], np.convolve(g, np.conj(v))[:n])):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
    with pytest.raises(ValueError):
        render_observation(v[:m], ch, _zero_budget(), type2, seed=0)


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


def _numpy_render(xs, channels, budget, profile, seed, include_soi):
    """The observation as numpy formulas: the oracle of the one-pass render."""
    n = len(xs)
    x_imd = profile.k_tiq ** 1.5 * np.abs(xs) ** 2 * xs
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
        "thermal": noise(budget.sigma_v2),
        "quantization": noise(budget.sigma_q2),
        "soi": noise(budget.p_x_soi) if include_soi else np.zeros(n, dtype=complex),
    }
    return sum(components.values()), components


def _assert_render_exact(xs, channels, budget, profile, seed, include_soi):
    """The render equals ``_numpy_render`` in every bit, signs of zero too."""
    want_d, want = _numpy_render(xs, channels, budget, profile, seed, include_soi)
    d, parts = render_observation(xs, channels, budget, profile, seed=seed,
                                  include_soi=include_soi, components=True)
    assert tuple(parts) == COMPONENTS == tuple(want)
    for key in COMPONENTS:
        np.testing.assert_array_equal(parts[key].view(np.uint64),
                                      want[key].view(np.uint64), err_msg=key)
    np.testing.assert_array_equal(d.view(np.uint64), want_d.view(np.uint64))
    rows = np.full((2, len(xs)), np.nan, dtype=complex)
    bare = render_observation(xs, channels, budget, profile, seed=seed,
                              include_soi=include_soi, out=rows[1])
    assert np.shares_memory(bare, rows[1])
    np.testing.assert_array_equal(rows[1].view(np.uint64), want_d.view(np.uint64))
    assert np.all(np.isnan(rows[0]))


@pytest.mark.parametrize("include_soi", [False, True])
def test_render_matches_numpy(type2, include_soi):
    """d and all seven components equal the numpy formulas bit for bit."""
    for tx in (-5.0, 15.0, 25.0):
        prof = type2.with_tx_power(tx)
        ch = synthesize_channels(prof, M, N, seed=SEED)
        x = gen_proper_gaussian(3000, seed=4).reference(prof.natural_sigma_x2)
        _assert_render_exact(x, ch, compute_noise_budget(prof), prof, 9, include_soi)


@pytest.mark.parametrize("n_imd", range(1, M))
def test_render_matches_numpy_edges(type2, n_imd):
    """Every IMD length below M, zero image channels (irr = inf) and the
    shortest sequence, M + 1 samples."""
    budget = compute_noise_budget(type2)
    inf_irr = dataclasses.replace(type2, irr_db=math.inf)
    for prof in (type2, inf_irr):
        ch = synthesize_channels(prof, M, n_imd, seed=SEED)
        for n in (M + 1, 500):
            x = gen_proper_gaussian(n, seed=n_imd).reference(prof.natural_sigma_x2)
            _assert_render_exact(x, ch, budget, prof, 3, include_soi=n_imd % 2 == 0)


@pytest.mark.parametrize("include_soi", [False, True])
def test_render_matches_numpy_zero_noise(type2, include_soi):
    """With every noise scale zero the noise components are numpy's signed
    zeros, 0.0 * (re + 1j im), and d still equals the numpy sum bit for bit."""
    ch = synthesize_channels(type2, M, N, seed=SEED)
    x = gen_proper_gaussian(2000, seed=4).reference(type2.natural_sigma_x2)
    _assert_render_exact(x, ch, _zero_budget(), type2, 9, include_soi)


def test_render_allocates_no_normals(type2):
    """Rendering into a caller's row draws the noise straight into it: a
    200,000-sample render allocates under 1 MB (a (4, n) array of normals
    would be 6.4 MB)."""
    n = 200_000
    ch = synthesize_channels(type2, M, N, seed=SEED)
    budget = compute_noise_budget(type2)
    x = gen_proper_gaussian(n, seed=4).reference(type2.natural_sigma_x2)
    row = np.empty(n, dtype=complex)
    render_observation(x, ch, budget, type2, seed=5, out=row)  # builds the kernel
    tracemalloc.start()
    try:
        render_observation(x, ch, budget, type2, seed=5, out=row)
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
        for channels in (ch, single):
            m = channels.m
            for n in (m + 1, m + 2, m + 3, m + 4, rb - 1, rb, rb + 1, 2 * rb + 3):
                x = _block_rows(rng, n) * np.sqrt(prof.natural_sigma_x2)
                _assert_render_exact(x, channels, budget, prof, 5,
                                     include_soi=n % 2 == 0)


@pytest.mark.parametrize("build", ["default", "no-avx512f", "no-avx2"])
def test_render_observations_equal_one_point_renders(type2, build, request):
    """One render of several points draws the noise once and gives each
    point the bits of its render alone, d and all seven components, with
    and without the SOI, into the caller's rows or its own, on every
    build: points at three transmit powers (each its own noise budget),
    reference scales and channels, one of them with M = 1 and no IMD
    taps."""
    loaded = {"default": contextlib.nullcontext,
              "no-avx512f": lambda: request.getfixturevalue("avx2_kernel")(),
              "no-avx2": lambda: request.getfixturevalue("scalar_kernel")()}[build]
    rng = np.random.default_rng(8)
    draw = gen_proper_gaussian(2 * _kernel_block() + 7, seed=6)
    points = []
    for tx, n_imd in ((-5.0, N), (15.0, 2), (25.0, N)):
        prof = type2.with_tx_power(tx)
        points.append((synthesize_channels(prof, M, n_imd, seed=SEED),
                       compute_noise_budget(prof), prof,
                       draw.scale(prof.natural_sigma_x2)))
    h, g = (rng.standard_normal(1) + 1j * rng.standard_normal(1) for _ in range(2))
    points.append((ChannelSet(h=h, g=g, h_imd=np.zeros(0), g_imd=np.zeros(0)),
                   points[0][1], type2, 0.5))
    with loaded():
        for include_soi in (False, True):
            alone = [render_observation(draw.samples, *point[:3], seed=3,
                                        include_soi=include_soi, components=True,
                                        scale=point[3]) for point in points]
            together = render_observations(draw.samples, points, seed=3,
                                           include_soi=include_soi, components=True)
            rows = np.empty((len(points), len(draw.samples)), dtype=complex)
            bare = render_observations(draw.samples, points, seed=3,
                                       include_soi=include_soi, outs=list(rows))
            for (want_d, want), (got_d, got), row, d in zip(alone, together, rows, bare):
                assert got_d.tobytes() == want_d.tobytes()
                assert row.tobytes() == want_d.tobytes()
                assert np.shares_memory(d, row)
                for key in COMPONENTS:
                    assert got[key].tobytes() == want[key].tobytes(), key
    with pytest.raises(ValueError):
        render_observations(draw.samples, points, seed=3, outs=list(rows[:2]))


def test_render_raises_memory_error_when_unallocated(type2, monkeypatch):
    """A kernel that returns 0, its block rows not allocated and nothing
    rendered, is a MemoryError, not an observation of untouched memory."""
    ch = synthesize_channels(type2, M, N, seed=SEED)
    x = gen_proper_gaussian(100, seed=1).reference(type2.natural_sigma_x2)

    class Refusing:
        def render(self, *args):
            return 0

    monkeypatch.setattr(_native, "library", Refusing)
    with pytest.raises(MemoryError, match="cannot allocate"):
        render_observation(x, ch, compute_noise_budget(type2), type2, seed=2)


_LONG_CHANNEL_RENDER = """
import sys
import numpy as np
from fdsic import _native
m, n = 20_000, 20_100
rng = np.random.default_rng(4)
taps = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (m, m, 3, 3)]
z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
d = np.empty(n, dtype=complex)
_native.render(z, [_native.Target(0.5, tuple(taps), 0.3, np.full(3, 1e-3), d)],
               _native.NormalStream(1), False)
np.save(sys.argv[1], d)
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
