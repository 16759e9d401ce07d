"""Self-interference waveform sources.

Two sources, each called as ``gen(n, seed, out=None)``, draw n samples of
a waveform as a ``Draw``, whose reference of power ``sigma_x2`` mW is
x = scale z, with z the drawn row and the scale ``Draw.scale(sigma_x2)``:
a proper (second-order circular) white complex Gaussian generator, which
matches the critically-sampled input assumed by the closed-form analysis,
and the oversampled WLAN OFDM waveform of the paper's simulations (16-QAM
on 50 of 64 subcarriers, a 16-sample cyclic prefix, 4x oversampling: 320
samples per symbol). Both are deterministic for a fixed seed, and one draw
serves every power: the kernels of ``_native`` form x from z and the scale
sample by sample, each part of z times the scale, as ``Draw.reference``
forms it. A source writes its samples into ``out`` if given, a row the
caller owns, which must be writable, C-contiguous, complex128 and of n
samples: the one check of every row a kernel writes,
``_native.row_address``, refuses any other with a ``ValueError`` before a
sample is drawn. The Gaussian source draws its normals in C
(``_native.NormalStream``), bit for bit those of
``np.random.default_rng(seed).standard_normal``, from numpy's seeding
written out in Python, so a Gaussian run never imports ``numpy.random``;
the OFDM source draws its symbols with ``numpy.random`` itself, which numpy
imports on that first use.
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
class Draw:
    """One draw of a source: the row ``samples`` (z), whose reference of
    power ``sigma_x2`` is x = ``scale(sigma_x2)`` z.

    The scale is sqrt(sigma_x2 / ``power``), and each part of x is the part
    of z times the scale.
    """

    samples: np.ndarray
    power: float

    def scale(self, sigma_x2: float) -> float:
        if not sigma_x2 > 0:
            raise ValueError("sigma_x2 must be positive")
        return np.sqrt(sigma_x2 / self.power)

    def reference(self, sigma_x2: float) -> np.ndarray:
        """The reference x of power ``sigma_x2``, a new row."""
        return (self.samples.view(np.float64) * self.scale(sigma_x2)).view(np.complex128)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def gen_proper_gaussian(n: int, seed: int, out: np.ndarray | None = None) -> Draw:
    """I.i.d. zero-mean proper white complex Gaussian samples.

    The n real parts of z are the first n of the 2n standard normals of
    ``np.random.default_rng(seed)``, the imaginary parts the last n, drawn
    in C straight into the samples, in ``out`` if given. Each part of the
    reference is the part times sqrt(sigma_x2 / 2), so the parts are
    independent with variance ``sigma_x2 / 2`` each, the total power is
    ``sigma_x2`` and the pseudo-variance is zero.
    """
    _check_n(n)
    return Draw(_native.NormalStream(seed).fill_complex(n, out), 2.0)


def gen_ofdm_waveform(n: int, seed: int, out: np.ndarray | None = None) -> Draw:
    """The first ``n`` samples of an oversampled cyclic-prefixed OFDM waveform.

    ceil(n / SAMPLES_PER_SYMBOL) symbols of random 16-QAM points, drawn with
    ``np.random.default_rng(seed).choice``, fill ``ACTIVE_BINS``; each symbol
    is zero-padded at the band edges to K*K_os bins, transformed with an
    inverse DFT (spectral interpolation) and prefixed with its last
    K_cp*K_os samples. The first ``n`` samples go into ``out`` if given; the
    draw's ``power`` is the mean power of the whole waveform, so that the
    whole waveform of the reference has exactly the power ``sigma_x2``.
    """
    _check_n(n)
    _native.row_address(out, np.complex128, (n,), "out")
    samples = np.empty(n, dtype=np.complex128) if out is None else out
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
    samples[:] = wave[:n]
    return Draw(samples, np.mean(np.abs(wave) ** 2))
