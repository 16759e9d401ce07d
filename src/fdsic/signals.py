"""Self-interference waveform sources.

Two sources are provided: a proper (second-order circular) white complex
Gaussian generator, which matches the critically-sampled input assumed by the
closed-form analysis, and an oversampled WLAN-style OFDM generator used for
waveform-level runs. Both are deterministic for a fixed seed. The Gaussian
source draws its normals in C (``_native.NormalStream``), bit for bit those
of ``np.random.default_rng(seed).standard_normal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .units import dbm_to_mw

_CONSTELLATIONS = {
    "QPSK": np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0),
    "16QAM": None,  # built lazily below
    "64QAM": None,
}


def _square_qam(levels: int) -> np.ndarray:
    amp = np.arange(-(levels - 1), levels, 2, dtype=float)
    pts = (amp[:, None] + 1j * amp[None, :]).ravel()
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


_CONSTELLATIONS["16QAM"] = _square_qam(4)
_CONSTELLATIONS["64QAM"] = _square_qam(8)


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


@dataclass(frozen=True)
class WaveformSpec:
    """OFDM waveform parameters (defaults follow 802.11-style numerology)."""

    subcarriers: int = 64
    null_subcarriers: int = 14
    cyclic_prefix: int = 16
    oversampling: int = 4
    constellation: str = "16QAM"
    target_power_dbm: float = 0.0

    def __post_init__(self):
        if self.subcarriers < 1:
            raise ValueError("subcarriers must be positive")
        if not 0 <= self.null_subcarriers < self.subcarriers:
            raise ValueError("null_subcarriers must be in [0, subcarriers)")
        if self.cyclic_prefix < 0:
            raise ValueError("cyclic_prefix must be nonnegative")
        if self.oversampling < 1:
            raise ValueError("oversampling must be positive")
        if self.constellation not in _CONSTELLATIONS:
            raise ValueError(f"unsupported constellation {self.constellation!r}")

    @property
    def samples_per_symbol(self) -> int:
        return (self.subcarriers + self.cyclic_prefix) * self.oversampling


def gen_proper_gaussian(n: int, sigma_x2: float, seed: int,
                        out: np.ndarray | None = None) -> ComplexSequence:
    """I.i.d. zero-mean proper white complex Gaussian samples.

    Real and imaginary parts are independent with variance ``sigma_x2 / 2``
    each, so the total power is ``sigma_x2`` and the pseudo-variance is zero.
    The n real parts are the first n of the 2n standard normals of
    ``np.random.default_rng(seed)``, the imaginary parts the last n, each
    times ``sqrt(sigma_x2 / 2)``; they are drawn in C straight into the
    samples. ``out``, a C-contiguous complex128 array of ``n`` samples,
    receives them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma_x2 <= 0:
        raise ValueError("sigma_x2 must be positive")
    if out is not None and out.shape != (n,):
        raise ValueError("out must hold n samples")
    samples = np.empty(n, dtype=np.complex128) if out is None else out
    _native.NormalStream(seed).fill_complex(np.sqrt(sigma_x2 / 2.0), samples)
    return ComplexSequence(samples)


def active_subcarrier_bins(spec: WaveformSpec) -> np.ndarray:
    """FFT bin indices (0..K-1) carrying data symbols.

    Nulls are placed symmetrically about DC: the DC bin itself plus the
    largest-|frequency| bins at the band edges (Nyquist first, then
    alternating negative/positive edges).
    """
    k = spec.subcarriers
    half = k // 2
    order = [-half] if k % 2 == 0 else []
    for m in range(half - (1 - k % 2), 0, -1):
        order.append(m)
        order.append(-m)
    if spec.null_subcarriers:
        nulls = {0, *order[: spec.null_subcarriers - 1]}
    else:
        nulls = set()
    active = np.array(sorted(m for m in range(-half, half) if m not in nulls))
    return active % k


def gen_ofdm_waveform(spec: WaveformSpec, num_symbols: int, seed: int) -> ComplexSequence:
    """Oversampled cyclic-prefixed OFDM waveform.

    Random constellation points are placed on the active subcarriers, the
    band edges are zero-padded to length K*K_os and transformed with an
    inverse DFT (spectral interpolation), and a cyclic prefix of
    K_cp*K_os samples is prepended per symbol. The whole waveform is then
    scaled so its mean power equals ``target_power_dbm`` exactly.
    """
    if num_symbols < 1:
        raise ValueError("num_symbols must be >= 1")
    points = _CONSTELLATIONS[spec.constellation]
    rng = np.random.default_rng(seed)

    k, kos = spec.subcarriers, spec.oversampling
    nfft = k * kos
    active = active_subcarrier_bins(spec)
    # map baseband bins to the zero-padded grid: negative bins wrap to the top
    grid_bins = np.where(active < k // 2, active, active + (nfft - k))

    syms = rng.choice(points, size=(num_symbols, active.size))
    freq = np.zeros((num_symbols, nfft), dtype=np.complex128)
    freq[:, grid_bins] = syms
    time = np.fft.ifft(freq, axis=1) * nfft / np.sqrt(k)

    ncp = spec.cyclic_prefix * kos
    if ncp:
        time = np.concatenate([time[:, -ncp:], time], axis=1)
    samples = time.ravel()

    target = dbm_to_mw(spec.target_power_dbm)
    samples = samples * np.sqrt(target / np.mean(np.abs(samples) ** 2))
    return ComplexSequence(samples)
