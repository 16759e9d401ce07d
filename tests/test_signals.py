import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsic._native import _PCG64_MULTIPLIER, NormalStream, _pcg64_state
from fdsic.harness import _NOISE_SEED_OFFSET
from fdsic.signals import (ACTIVE_BINS, CYCLIC_PREFIX, OVERSAMPLING,
                           SAMPLES_PER_SYMBOL, SUBCARRIERS, gen_ofdm_waveform,
                           gen_proper_gaussian)

from conftest import assert_refuses

# Even absolute moments of a proper complex Gaussian: |x|^2 is exponential
# with mean s2, so E|x|^(2m) = m! s2^m. Cross-checked by brute force with an
# independent legacy-RNG sampler in test_moment_law_oracle below.
MOMENT4_OVER_VAR2 = 2.0
MOMENT6_OVER_VAR3 = 6.0


class Stats:
    """Sample moments of a complex sequence after mean removal."""

    def __init__(self, x: np.ndarray):
        if x.size < 2:
            raise ValueError("need at least 2 samples")
        xc = x - np.mean(x)
        a2 = np.abs(xc) ** 2
        self.variance = float(np.mean(a2))
        self.pseudo_variance = complex(np.mean(xc ** 2))
        self.abs_moment4 = float(np.mean(a2 ** 2))
        self.abs_moment6 = float(np.mean(a2 ** 3))


def test_moment_law_oracle():
    rng = np.random.RandomState(12345)  # independent of the generator under test
    x = (rng.randn(1_000_000) + 1j * rng.randn(1_000_000)) / np.sqrt(2.0)
    a2 = np.abs(x) ** 2
    assert np.mean(a2 ** 2) == pytest.approx(MOMENT4_OVER_VAR2, rel=0.02)
    assert np.mean(a2 ** 3) == pytest.approx(MOMENT6_OVER_VAR3, rel=0.03)


def test_proper_gaussian_examples():
    stats = Stats(gen_proper_gaussian(10 ** 6, seed=7).reference(1.0))
    assert stats.variance == pytest.approx(1.0, rel=0.005)
    assert abs(stats.pseudo_variance) < 0.01
    assert stats.abs_moment4 == pytest.approx(2.0, rel=0.02)
    assert stats.abs_moment6 == pytest.approx(6.0, rel=0.03)


def test_proper_gaussian_moment_ratios():
    stats = Stats(gen_proper_gaussian(10 ** 6, seed=3).reference(0.37))
    assert abs(stats.pseudo_variance) < 0.01 * stats.variance
    assert 1.96 <= stats.abs_moment4 / stats.variance ** 2 <= 2.04
    assert 5.8 <= stats.abs_moment6 / stats.variance ** 3 <= 6.2


def test_proper_gaussian_args_and_determinism():
    with pytest.raises(ValueError):
        gen_proper_gaussian(0, seed=1)
    for sigma_x2 in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            gen_proper_gaussian(10, seed=1).scale(sigma_x2)
    for out in (np.empty(11, dtype=complex), np.empty(20, dtype=complex)[::2]):
        with pytest.raises(ValueError):
            gen_proper_gaussian(10, seed=1, out=out)
    a = gen_proper_gaussian(1000, seed=9).reference(0.5)
    b = gen_proper_gaussian(1000, seed=9).reference(0.5)
    assert np.array_equal(a, b)


# the trial seeds of seed 17 (waveform and noise), the ends of the 32-bit
# range, one seed past 64 bits and 36 more
STREAM_SEEDS = (0, 17, 17 + 10_000_019, 2 ** 32 - 1, 2 ** 64 + 12_345,
                *range(1000, 1036))
ZIGGURAT_R = 3.6541528853610088  # numpy's ziggurat samples its tail past r


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _draws(stream, n):
    """The next 2n normals of ``stream`` in draw order, through
    ``fill_complex``: the real parts, then the imaginary parts."""
    row = stream.fill_complex(n)
    return np.concatenate([row.real, row.imag])


def test_normal_stream_matches_numpy():
    """The C stream is numpy's ``default_rng(seed).standard_normal`` bit for
    bit, 10^6 draws for each of 41 seeds, tail draws included."""
    n = 10 ** 6 // 2
    tail = 0
    for seed in STREAM_SEEDS:
        want = np.random.default_rng(seed).standard_normal(2 * n)
        got = _draws(NormalStream(seed), n)
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"seed {seed}")
        tail += np.count_nonzero(np.abs(got) > ZIGGURAT_R)
    assert tail > 0


def test_normal_stream_continues_across_calls():
    """Counts 0 and 1 work, and a stream drawn in several calls equals one
    draw."""
    stream = NormalStream(5)
    parts = [_draws(stream, k) for k in (0, 1, 0, 999, 1500)]
    want = np.random.default_rng(5).standard_normal(5000)
    np.testing.assert_array_equal(_bits(np.concatenate(parts)), _bits(want))
    assert np.array_equal(_draws(NormalStream(5), 1), want[:2])
    with pytest.raises(ValueError):
        NormalStream(5).fill_complex(6, np.empty((2, 3), dtype=complex))


def _stream_state(stream):
    """``stream.state`` as numpy's ``bit_generator.state["state"]`` holds it."""
    lo, hi, inc_lo, inc_hi = (int(word) for word in stream.state)
    return {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}


def _first_tail_draw(seed: int) -> int:
    """The index of the first normal of ``default_rng(seed)`` drawn from the
    tail of the ziggurat's layer 0, after at least eight normals that each
    took one output. It is found from numpy alone: the normal takes more
    than one PCG64 output (its state moves more than one step), and its
    first output, a raw output of the same stream, has layer 0 (its low
    byte) and so was not accepted by the fast test."""
    rng = np.random.default_rng(seed)
    state, inc = rng.bit_generator.state["state"].values()
    raw = np.random.default_rng(seed).bit_generator.random_raw(10_000)
    outputs, single = 0, 0  # outputs consumed; single-output normals in a row
    for i in range(5000):
        rng.standard_normal()
        after, steps = rng.bit_generator.state["state"]["state"], 0
        while state != after:
            state = (state * _PCG64_MULTIPLIER + inc) % 2 ** 128
            steps += 1
        if steps > 1 and raw[outputs] & 0xFF == 0 and single >= 8:
            return i
        single = single + 1 if steps == 1 else 0
        outputs += steps
    raise AssertionError(f"no tail draw in the first 5000 normals of seed {seed}")


@pytest.mark.parametrize("build", ["default", "avx2_kernel", "scalar_kernel"],
                         ids=["default", "no-avx512f", "no-avx2"])
def test_normal_stream_state_follows_numpy(build, request):
    """After every call ``NormalStream.state`` is numpy's PCG64 state after
    the same draws, the state after the last output consumed, on every
    build: ``fill_complex``, ``standard_normal`` and ``uniform`` in turn at
    counts 0-17, a count that ends inside a batch of the lanes, and a tail
    draw whose layer-0 rejection falls on each of the first eight lanes of
    a call's first batch (so on the first and the last lane of every
    build's batch)."""
    loaded = (contextlib.nullcontext if build == "default"
              else request.getfixturevalue(build))
    seed = 11
    tail = _first_tail_draw(seed)

    def draw(stream, rng, call, k):
        if call == "fill_complex":
            got, want = _draws(stream, k), rng.standard_normal(2 * k)
        elif call == "standard_normal":
            got, want = stream.standard_normal(k), rng.standard_normal(k)
        else:
            got, want = np.array([stream.uniform(-1.0, 2.0)]), rng.uniform(-1.0, 2.0, 1)
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"{call}({k})")
        assert _stream_state(stream) == rng.bit_generator.state["state"], f"{call}({k})"

    with loaded():
        stream, rng = NormalStream(seed), np.random.default_rng(seed)
        for k in range(18):
            for call in ("fill_complex", "standard_normal", "uniform"):
                draw(stream, rng, call, k)
        draw(stream, rng, "standard_normal", 1003)
        for lane in range(8):
            stream, rng = NormalStream(seed), np.random.default_rng(seed)
            draw(stream, rng, "standard_normal", tail - lane)
            draw(stream, rng, "standard_normal", lane + 1)  # ends with the tail draw
            draw(stream, rng, "fill_complex", 5)


# seeds of one, two and three 32-bit words, and the noise seeds of the
# trials of a 50-trial run at seed 17
STATE_SEEDS = (*range(301), 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
               *(17 + _NOISE_SEED_OFFSET + t for t in range(50)))


def test_pcg64_state_matches_numpy():
    """The Python port of numpy's SeedSequence seeding gives the PCG64 state
    and increment of ``default_rng(seed)``, whose generator the C code
    repeats (a numpy whose ``default_rng`` moved to another generator would
    fail here)."""
    for seed in STATE_SEEDS:
        bit_generator = np.random.default_rng(seed).bit_generator
        assert bit_generator.state["bit_generator"] == "PCG64"
        want = bit_generator.state["state"]
        assert _pcg64_state(seed) == (want["state"], want["inc"]), seed
    for seed in (np.uint32(7), np.int64(2 ** 40)):  # numpy integers too
        want = np.random.default_rng(seed).bit_generator.state["state"]
        assert _pcg64_state(seed) == (want["state"], want["inc"])
    with pytest.raises(ValueError, match="non-negative"):
        NormalStream(-1)
    with pytest.raises(TypeError):
        NormalStream(1.0)


def test_normal_stream_draws_as_numpy_generator():
    """Normals and uniforms drawn in turn, as ``synthesize_channels`` draws
    them, equal the same calls of ``default_rng(seed)`` bit for bit."""
    for seed in (0, 17, 2 ** 40 + 5):
        stream, rng = NormalStream(seed), np.random.default_rng(seed)
        for n, bounds in ((3, (0.2, 0.4)), (0, (0.0, 2 * np.pi)), (2, (-1.0, 1e-300))):
            np.testing.assert_array_equal(_bits(stream.standard_normal(n)),
                                          _bits(rng.standard_normal(n)))
            got, want = stream.uniform(*bounds), rng.uniform(*bounds)
            assert type(got) is float and np.array_equal(_bits([got]), _bits([want]))


@pytest.mark.parametrize("n", [1, 2, 7, 10_000])
def test_proper_gaussian_matches_two_draws(n):
    """One 2n draw, the unit normals in the row (``out`` if given), gives
    the reference of the two-draw numpy formula bit for bit."""
    rng = np.random.default_rng(n)
    re, im = rng.standard_normal(n), rng.standard_normal(n)
    rows = np.full((2, n), np.nan, dtype=complex)
    draw = gen_proper_gaussian(n, seed=n, out=rows[1])
    assert np.shares_memory(draw.samples, rows) and np.all(np.isnan(rows[0]))
    np.testing.assert_array_equal(rows[1].view(np.uint64),
                                  (re + 1j * im).view(np.uint64))
    for sigma_x2 in (1.0, 0.37, 3e-5):
        want = np.sqrt(sigma_x2 / 2.0) * (re + 1j * im)
        got = gen_proper_gaussian(n, seed=n).reference(sigma_x2)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert draw.scale(sigma_x2) == np.sqrt(sigma_x2 / 2.0)


def test_ofdm_symbol_geometry():
    """One symbol: 320 samples whose 64-sample prefix is the symbol's tail,
    whose body carries only the 50 active bins, at exactly ``sigma_x2``."""
    assert SAMPLES_PER_SYMBOL == (64 + 16) * 4
    assert list(ACTIVE_BINS) == [*range(39, 64), *range(1, 26)]
    sigma_x2 = 0.37
    x = gen_ofdm_waveform(SAMPLES_PER_SYMBOL, seed=0).reference(sigma_x2)
    assert x.shape == (SAMPLES_PER_SYMBOL,)
    ncp = CYCLIC_PREFIX * OVERSAMPLING
    np.testing.assert_array_equal(x[:ncp], x[-ncp:])
    spectrum = np.abs(np.fft.fft(x[ncp:]))
    nfft = SUBCARRIERS * OVERSAMPLING
    on_grid = np.where(ACTIVE_BINS < SUBCARRIERS // 2, ACTIVE_BINS,
                       ACTIVE_BINS + nfft - SUBCARRIERS)
    assert set(np.flatnonzero(spectrum > 1e-9 * spectrum.max())) == set(on_grid)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(sigma_x2, rel=1e-12)


def test_ofdm_power_normalization():
    wf = gen_ofdm_waveform(500 * SAMPLES_PER_SYMBOL, seed=4).reference(1.0)
    power_db = 10 * np.log10(np.mean(np.abs(wf) ** 2))
    assert abs(power_db) < 0.1


def test_ofdm_reference_scales_the_whole_waveform():
    """n samples that end mid-symbol are scaled by the power of the whole
    symbols' waveform, each part of that waveform times the scale, bit for
    bit."""
    whole = gen_ofdm_waveform(2 * SAMPLES_PER_SYMBOL, seed=8).samples
    draw = gen_ofdm_waveform(500, seed=8)
    for sigma_x2 in (1.0, 0.37, 3e-5):
        scale = np.sqrt(sigma_x2 / np.mean(np.abs(whole) ** 2))
        want = (whole.view(np.float64) * scale).view(np.complex128)[:500]
        np.testing.assert_array_equal(draw.reference(sigma_x2).view(np.uint64),
                                      want.view(np.uint64))


def test_ofdm_properness():
    wf = gen_ofdm_waveform(500 * SAMPLES_PER_SYMBOL, seed=4).reference(1.0)
    stats = Stats(wf)
    assert abs(stats.pseudo_variance) / stats.variance < 0.02


def test_ofdm_seed_determinism():
    """A seed fixes the waveform; n samples that end mid-symbol are the first
    n of the whole symbol's waveform, written into ``out``; the arguments are
    checked as the Gaussian source checks them."""
    a = gen_ofdm_waveform(3 * SAMPLES_PER_SYMBOL, seed=11).reference(1.0)
    b = gen_ofdm_waveform(3 * SAMPLES_PER_SYMBOL, seed=11).reference(1.0)
    assert np.array_equal(a, b)
    row = np.full(100, np.nan, dtype=complex)
    seq = gen_ofdm_waveform(100, seed=11, out=row)
    assert np.shares_memory(seq.samples, row)
    one = gen_ofdm_waveform(SAMPLES_PER_SYMBOL, seed=11).samples
    np.testing.assert_array_equal(row, one[:100])
    with pytest.raises(ValueError):
        gen_ofdm_waveform(0, seed=1)
    with pytest.raises(ValueError):
        gen_ofdm_waveform(10, seed=1).scale(0.0)
    for out in (np.empty(11, dtype=complex), np.empty(20, dtype=complex)[::2]):
        with pytest.raises(ValueError):
            gen_ofdm_waveform(10, seed=1, out=out)


@pytest.mark.parametrize("source", [gen_proper_gaussian, gen_ofdm_waveform],
                         ids=["gaussian", "ofdm"])
def test_sources_refuse_rows_they_cannot_write(source):
    """A source's ``out`` is checked as every row a kernel writes is: a
    read-only, misshapen, strided or mistyped row, or no array, is refused
    with the one ValueError before a sample is written."""
    assert_refuses(lambda row: source(10, seed=1, out=row),
                   np.full(10, np.nan, dtype=complex), "out")


def test_estimate_stats_degenerate_and_errors():
    stats = Stats(np.ones(100, dtype=complex))
    assert stats.variance == 0.0
    assert stats.pseudo_variance == 0.0
    with pytest.raises(ValueError):
        Stats(np.ones(1, dtype=complex))


def test_estimate_stats_consistency():
    stats = Stats(gen_proper_gaussian(10 ** 6, seed=21).reference(0.25))
    assert stats.variance == pytest.approx(0.25, rel=0.01)
    assert stats.abs_moment4 == pytest.approx(2 * 0.25 ** 2, rel=0.02)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.floats(0.01, 10.0))
def test_cauchy_schwarz_moment_inequality(seed, sigma):
    stats = Stats(gen_proper_gaussian(256, seed=seed).reference(sigma))
    assert stats.abs_moment4 >= stats.variance ** 2 * (1 - 1e-12)
    assert stats.abs_moment6 >= 0

