"""Self-interference waveform sources.

Two sources, each called as ``gen(n, sigma_x2, seed, out=None)``, draw n
samples of power ``sigma_x2`` mW: a proper (second-order circular) white
complex Gaussian generator, which matches the critically-sampled input
assumed by the closed-form analysis, and the oversampled WLAN OFDM waveform
of the paper's simulations (16-QAM on 50 of 64 subcarriers, a 16-sample
cyclic prefix, 4x oversampling: 320 samples per symbol). Both are
deterministic for a fixed seed. The Gaussian source draws its normals in C
(``_native.NormalStream``), bit for bit those of
``np.random.default_rng(seed).standard_normal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native

SUBCARRIERS = 64     # K, the DFT size of the baseband symbol
CYCLIC_PREFIX = 16   # K_cp, prefix samples per symbol before oversampling
OVERSAMPLING = 4     # K_os
SAMPLES_PER_SYMBOL = (SUBCARRIERS + CYCLIC_PREFIX) * OVERSAMPLING
# FFT bins (0..K-1) carrying data, in symbol order: negative frequencies
# -25..-1, then 1..25; DC and the 13 band-edge bins are null
ACTIVE_BINS = np.r_[39:64, 1:26]

_LEVELS = np.arange(-3, 4, 2, dtype=float)
# 16-QAM, I and Q each in {-3, -1, 1, 3}, scaled to unit mean power
_QAM16 = (_LEVELS[:, None] + 1j * _LEVELS[None, :]).ravel() / np.sqrt(10.0)


@dataclass(frozen=True)
class ComplexSequence:
    """A non-empty, finite stream of complex baseband samples."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")

    def __len__(self) -> int:
        return self.samples.size


def _output_row(n: int, sigma_x2: float, out: np.ndarray | None) -> np.ndarray:
    """``out`` (a C-contiguous complex128 array of ``n`` samples), or a new
    row, after checking a source's arguments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_x2 <= 0:
        raise ValueError("sigma_x2 must be positive")
    if out is not None and out.shape != (n,):
        raise ValueError("out must hold n samples")
    return np.empty(n, dtype=np.complex128) if out is None else out


def gen_proper_gaussian(n: int, sigma_x2: float, seed: int,
                        out: np.ndarray | None = None) -> ComplexSequence:
    """I.i.d. zero-mean proper white complex Gaussian samples.

    Real and imaginary parts are independent with variance ``sigma_x2 / 2``
    each, so the total power is ``sigma_x2`` and the pseudo-variance is zero.
    The n real parts are the first n of the 2n standard normals of
    ``np.random.default_rng(seed)``, the imaginary parts the last n, each
    times ``sqrt(sigma_x2 / 2)``; they are drawn in C straight into the
    samples, in ``out`` if given.
    """
    samples = _output_row(n, sigma_x2, out)
    _native.NormalStream(seed).fill_complex(np.sqrt(sigma_x2 / 2.0), samples)
    return ComplexSequence(samples)


def gen_ofdm_waveform(n: int, sigma_x2: float, seed: int,
                      out: np.ndarray | None = None) -> ComplexSequence:
    """The first ``n`` samples of an oversampled cyclic-prefixed OFDM waveform.

    ceil(n / SAMPLES_PER_SYMBOL) symbols of random 16-QAM points, drawn with
    ``np.random.default_rng(seed).choice``, fill ``ACTIVE_BINS``; each symbol
    is zero-padded at the band edges to K*K_os bins, transformed with an
    inverse DFT (spectral interpolation) and prefixed with its last
    K_cp*K_os samples. The whole waveform is scaled to mean power
    ``sigma_x2`` and its first ``n`` samples go into ``out`` if given.
    """
    samples = _output_row(n, sigma_x2, out)
    n_sym = -(-n // SAMPLES_PER_SYMBOL)
    nfft = SUBCARRIERS * OVERSAMPLING
    freq = np.zeros((n_sym, nfft), dtype=np.complex128)
    # negative frequencies wrap to the top of the zero-padded grid
    grid_bins = np.where(ACTIVE_BINS < SUBCARRIERS // 2, ACTIVE_BINS,
                         ACTIVE_BINS + (nfft - SUBCARRIERS))
    rng = np.random.default_rng(seed)
    freq[:, grid_bins] = rng.choice(_QAM16, size=(n_sym, ACTIVE_BINS.size))
    time = np.fft.ifft(freq, axis=1) * nfft / np.sqrt(SUBCARRIERS)
    wave = np.concatenate([time[:, -CYCLIC_PREFIX * OVERSAMPLING:], time], axis=1).ravel()
    samples[:] = (wave * np.sqrt(sigma_x2 / np.mean(np.abs(wave) ** 2)))[:n]
    return ComplexSequence(samples)
