"""Transceiver hardware model: gain chain, channels, noise budget, observation.

The observed pre-cancellation signal is

    d(n) = x^T(n) h + x^H(n) g + x_imd^T(n) h_imd + x_imd^H(n) g_imd
           + v(n) + q(n) [+ x_soi(n)]

where x_imd(n) = k_tiq^{3/2} |x(n)|^2 x(n) is the third-order
intermodulation product of the power amplifier, v(n) thermal noise, q(n)
quantization noise and x_soi(n) the signal of interest, which the render
keeps out of d: no canceller run reads it there, and its power is read
from its own component row. The four end-to-end impulse responses absorb
the Tx chain, the residual analog-cancellation echo and the Rx chain
including the receiver VGA gain k_bb, so all component powers here are
referenced to the digital canceller input.

Conventions: every k_* gain is a power gain; amplitude paths use square
roots. The PA linear gain 'pa_gain_db' is the power gain of the linear path
(amplitude alpha0 = 10^(pa_gain_db/20)); its third-order amplitude
coefficient alpha1 is derived from the two-tone intercept point,
alpha1 = -(4/3) alpha0 / iip3_mw.

``OperatingPoint`` is the one record of an operating point: the reference
power, k_tiq, the channels and the noise powers. The harness simulates at
it, and the closed forms of ``theory`` analyse it; its
``component_powers`` are the expected power of each component at the
canceller input, over the taps the point renders.

``render_observations`` renders one trial at several points, each an
``OperatingPoint`` with a scale, into rows the caller owns: it reads the
reference of each as a source row z and that scale, x = scale z, each part
of z times the scale (see ``signals.Draw``), so that one drawn row serves
every transmit power. It fills one ``_native.Point`` struct per point, as
``cancellers.run_jobs`` fills its ``Run`` structs, checking each caller's
row with ``_native.row_address``, and calls the compiled ``render`` (the C
library that also runs the LMS steps). That forms x, x_imd, the four FIR
branches and their sum, consecutive samples in the lanes of a vector
(eight on AVX-512, four on AVX2) over blocks of a few hundred samples,
writing each d(n) into the caller's row, and then adds the thermal and the
quantization noise to every d(n) as ``_native.NormalStream`` draws it (in
C, bit for bit the stream of ``np.random.default_rng(seed).standard_normal``),
each normal drawn once for all points, so no array of normals is
allocated. d never holds the SOI: its normals are drawn last, and only
into the component rows, which are rendered only where the caller hands
them in. ``render_observation`` is its one-point case, which allocates its
rows. Its roundings equal those of the numpy expressions
``k^{3/2} |x|^2 x``, ``np.convolve(h, x)[:n]``, ``sqrt(p/2) (re + 1j im)``
and the ordered sum of the components, so a rendered observation is
bit-identical to the numpy one.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import _native
from .units import db_to_lin, dbm_to_mw


@dataclass(frozen=True)
class TransceiverProfile:
    """Hardware parameters of a full-duplex direct-conversion transceiver."""

    p_sen_dbm: float
    snr_req_db: float
    rf_separation_db: float
    rf_attenuation_db: float
    irr_db: float
    k_tiq_db: float
    k_riq_db: float
    pa_gain_db: float
    pa_iip3_dbm: float
    k_lna_db: float
    tx_power_dbm: float
    adc_dynamic_range_db: float
    adc_bits: int
    papr_db: float
    k_vga_db: float = 0.0

    def __post_init__(self):
        if self.adc_bits < 1:
            raise ValueError("adc_bits must be >= 1")
        for name in ("p_sen_dbm", "snr_req_db", "rf_separation_db", "rf_attenuation_db",
                     "k_tiq_db", "k_riq_db", "pa_gain_db", "pa_iip3_dbm", "k_lna_db",
                     "tx_power_dbm", "adc_dynamic_range_db", "papr_db", "k_vga_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # irr_db may be +inf (perfectly balanced mixers, no image branch)
        if math.isnan(self.irr_db) or self.irr_db == -math.inf:
            raise ValueError("irr_db must be a real value or +inf")
        if not -5.0 <= self.tx_power_dbm <= 25.0:
            raise ValueError("tx_power_dbm outside the supported -5..25 dBm range")

    # linear-domain views -------------------------------------------------
    @property
    def k_tiq(self) -> float:
        return db_to_lin(self.k_tiq_db)

    @property
    def k_riq(self) -> float:
        return db_to_lin(self.k_riq_db)

    @property
    def k_lna(self) -> float:
        return db_to_lin(self.k_lna_db)

    @property
    def k_vga(self) -> float:
        return db_to_lin(self.k_vga_db)

    @property
    def alpha0_amp(self) -> float:
        """PA linear-path amplitude gain."""
        return 10.0 ** (self.pa_gain_db / 20.0)

    @property
    def iip3_mw(self) -> float:
        return dbm_to_mw(self.pa_iip3_dbm)

    @property
    def p_sen_mw(self) -> float:
        return dbm_to_mw(self.p_sen_dbm)

    @property
    def p_adc_mw(self) -> float:
        return dbm_to_mw(self.adc_dynamic_range_db)

    @property
    def snr_req(self) -> float:
        return db_to_lin(self.snr_req_db)

    @property
    def tx_power_mw(self) -> float:
        return dbm_to_mw(self.tx_power_dbm)

    @property
    def f_rfe_norm2(self) -> float:
        """Power of the residual analog-cancellation echo, relative to Tx."""
        return db_to_lin(-(self.rf_separation_db + self.rf_attenuation_db))

    @property
    def natural_sigma_x2(self) -> float:
        """Baseband reference-signal power implied by the transmit power."""
        return self.tx_power_mw / (self.alpha0_amp ** 2 * self.k_vga * self.k_tiq)

    def with_tx_power(self, tx_power_dbm: float) -> "TransceiverProfile":
        return dataclasses.replace(self, tx_power_dbm=tx_power_dbm)


# a profile file names each field without its unit suffix (_dbm or _db)
_PROFILE_KEY_TO_FIELD = {f.name.removesuffix("_dbm").removesuffix("_db"): f.name
                         for f in dataclasses.fields(TransceiverProfile)}


def read_key_values(path: str | Path, kind: str, keys) -> Iterator[tuple[str, str]]:
    """``(key, value)`` pairs of a flat ``key = value`` file, in file order.

    ``#`` starts a comment and blank lines are skipped. A line without ``=``,
    a key not in ``keys``, or a key given twice (``mu-frac`` and ``mu_frac``
    are one key) raises ``ValueError`` naming the file's ``kind``.
    """
    seen = set()
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed {kind} line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"unknown {kind} key: {key!r}")
        if key.replace("-", "_") in seen:
            raise ValueError(f"repeated {kind} key: {key!r}")
        seen.add(key.replace("-", "_"))
        yield key, value


def load_profile(path: str | Path) -> TransceiverProfile:
    """Parse a flat key-value profile file (``key = value [dB|dBm]``)."""
    fields = {}
    for key, value in read_key_values(path, "profile", _PROFILE_KEY_TO_FIELD):
        tokens = value.split()
        if not tokens:
            raise ValueError(f"missing value for {key!r}")
        field = _PROFILE_KEY_TO_FIELD[key]
        # a bit count is an integer: "12.7" and "inf" are errors, not 12 or a crash
        kind = int if field == "adc_bits" else float
        try:
            fields[field] = kind(tokens[0])
        except ValueError:
            raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                             f"not {tokens[0]!r}") from None
    return TransceiverProfile(**fields)


def builtin_profile(name: str) -> TransceiverProfile:
    """Load one of the shipped presets ('type1' or 'type2')."""
    ref = resources.files("fdsic") / "data" / f"{name}.profile"
    with resources.as_file(ref) as path:
        return load_profile(path)


@dataclass(frozen=True)
class ChannelSet:
    """End-to-end impulse responses for the four interference branches."""

    h: np.ndarray
    g: np.ndarray
    h_imd: np.ndarray
    g_imd: np.ndarray

    def __post_init__(self):
        for name in ("h", "g", "h_imd", "g_imd"):
            v = np.ascontiguousarray(getattr(self, name), dtype=np.complex128)
            object.__setattr__(self, name, v)
            if v.ndim != 1 or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 1-D vector")
        if not len(self.h_imd) < len(self.h):
            raise ValueError("need N < M (IMD channels shorter than linear)")
        if len(self.g) != len(self.h) or len(self.g_imd) != len(self.h_imd):
            raise ValueError("mismatched channel lengths")
        if not np.any(self.h):
            raise ValueError("h must have at least one nonzero tap")

    @property
    def m(self) -> int:
        return len(self.h)

    @property
    def n(self) -> int:
        return len(self.h_imd)

    @property
    def norm2_h(self) -> float:
        return float(np.sum(np.abs(self.h) ** 2))

    @property
    def norm2_g(self) -> float:
        return float(np.sum(np.abs(self.g) ** 2))

    @property
    def norm2_h_imd(self) -> float:
        return float(np.sum(np.abs(self.h_imd) ** 2))

    @property
    def norm2_g_imd(self) -> float:
        return float(np.sum(np.abs(self.g_imd) ** 2))

    def stacked_linear(self) -> np.ndarray:
        """Optimal augmented weights [h; g] of the widely linear model."""
        return np.concatenate([self.h, self.g])

    def stacked_nonlinear(self) -> np.ndarray:
        """Optimal weights [h; h_imd; g; g_imd] of the widely nonlinear model."""
        return np.concatenate([self.h, self.h_imd, self.g, self.g_imd])


@dataclass(frozen=True)
class OperatingPoint:
    """One operating point, as the render and the closed forms read it: the
    reference power ``sigma_x2``, the Tx I/Q gain ``k_tiq``, the four SI
    channels (M and N are theirs) and the thermal, quantization and SOI
    powers at the canceller input."""

    sigma_x2: float
    k_tiq: float
    channels: ChannelSet
    sigma_v2: float
    sigma_q2: float
    p_x_soi: float

    def __post_init__(self):
        if not 1 <= self.N < self.M:
            raise ValueError("need 1 <= N < M")
        if min(self.sigma_v2, self.sigma_q2, self.p_x_soi) < 0 or self.sigma_x2 <= 0:
            raise ValueError("variances must be nonnegative, sigma_x2 positive")

    @property
    def M(self) -> int:
        return self.channels.m

    @property
    def N(self) -> int:
        return self.channels.n

    @property
    def imd_norm2(self) -> float:
        return self.channels.norm2_h_imd + self.channels.norm2_g_imd

    @property
    def component_powers(self) -> dict[str, float]:
        """The mean power (mW) at the canceller input of each component, by
        name in ``COMPONENTS`` order, over the point's own M and N taps:
        s2 ||h||^2 and s2 ||g||^2 of the linear and image SI, the Gaussian
        moment law E|x_imd|^2 = 6 k_tiq^3 s2^3 times ||h_imd||^2 and
        ||g_imd||^2 of the IMD and its image, then the thermal, quantization
        and SOI powers. The one place that computes them."""
        c = self.channels
        imd = 6.0 * self.k_tiq ** 3 * self.sigma_x2 ** 3
        return dict(zip(COMPONENTS, (
            self.sigma_x2 * c.norm2_h, self.sigma_x2 * c.norm2_g, imd * c.norm2_h_imd,
            imd * c.norm2_g_imd, self.sigma_v2, self.sigma_q2, self.p_x_soi), strict=True))

    @property
    def d_power(self) -> float:
        """The closed-form mean |d|^2 of the observation the cancellers run
        on: every component power but the SOI's."""
        return sum(power for key, power in self.component_powers.items() if key != "soi")


@dataclass(frozen=True)
class NoiseBudget:
    """Noise variances and gains at the digital canceller input (linear mW)."""

    sigma_v2: float
    sigma_q2: float
    k_bb: float
    p_x_soi: float
    alpha1: float

    def __post_init__(self):
        if min(self.sigma_v2, self.sigma_q2, self.p_x_soi) < 0 or self.k_bb <= 0:
            raise ValueError("invalid noise budget")


def compute_noise_budget(profile: TransceiverProfile) -> NoiseBudget:
    """Receiver VGA gain, thermal/quantization variances and SOI power.

    k_bb scales the LNA output so the strongest content fits the ADC range:

        k_bb = p_adc / (k_lna k_riq ([a0^2 k_vga k_tiq s2 + a1^2 k_vga^3
                k_tiq^3 s2^3] ||f_rfe||^2 + p_sen))

    with s2 the profile's natural baseband reference power. The
    quantization-noise variance follows the ADC SQNR rule sigma_q2 = p_adc /
    10^((6.02 beta + 4.76 - PAPR_dB)/10); the exponent is a dB quantity
    divided by 10.
    """
    sigma_x2 = profile.natural_sigma_x2
    a0 = profile.alpha0_amp
    alpha1 = -(4.0 / 3.0) * a0 / profile.iip3_mw
    p_lin = a0 ** 2 * profile.k_vga * profile.k_tiq * sigma_x2
    p_imd = alpha1 ** 2 * profile.k_vga ** 3 * profile.k_tiq ** 3 * sigma_x2 ** 3
    denom = (p_lin + p_imd) * profile.f_rfe_norm2 + profile.p_sen_mw
    k_bb = profile.p_adc_mw / (profile.k_lna * profile.k_riq * denom)
    sigma_v2 = k_bb * profile.k_lna * profile.k_riq * profile.p_sen_mw / profile.snr_req
    sqnr_db = 6.02 * profile.adc_bits + 4.76 - profile.papr_db
    sigma_q2 = profile.p_adc_mw / db_to_lin(sqnr_db)
    p_x_soi = profile.p_sen_mw * profile.k_lna * k_bb * profile.k_riq
    return NoiseBudget(sigma_v2, sigma_q2, k_bb, p_x_soi, alpha1)


def _rayleigh_taps(rng: _native.NormalStream, pdp_db, total_power: float) -> np.ndarray:
    pdp = db_to_lin(np.asarray(pdp_db, dtype=float))
    taps = np.sqrt(pdp / 2.0) * (rng.standard_normal(len(pdp))
                                 + 1j * rng.standard_normal(len(pdp)))
    return taps * np.sqrt(total_power / np.sum(np.abs(taps) ** 2))


def _fit_length(v: np.ndarray, n: int) -> np.ndarray:
    if len(v) >= n:
        return v[:n].copy()
    return np.concatenate([v, np.zeros(n - len(v), dtype=v.dtype)])


def _match_image_power(raw: np.ndarray, direct: np.ndarray, irr_db: float) -> np.ndarray:
    if math.isinf(irr_db):
        return np.zeros_like(raw)
    target = db_to_lin(-irr_db) * np.sum(np.abs(direct) ** 2)
    norm = np.sum(np.abs(raw) ** 2)
    if norm == 0:
        return np.zeros_like(raw)
    return raw * np.sqrt(target / norm)


def synthesize_channels(profile: TransceiverProfile, M: int, N: int, seed: int,
                        sigma_x2: float | None = None) -> ChannelSet:
    """Draw the four end-to-end channel impulse responses.

    The direct cascade is (3-tap Rayleigh residual echo, exponential 0/-3/-6
    dB power-delay profile) * (2-tap Tx IQ direct filter) * (2-tap Rx IQ
    direct filter), renormalized so its total power sits exactly
    rf_separation + rf_attenuation below the transmit power. The image
    cascade substitutes the Tx image-branch filter and is scaled so
    ||g||^2/||h||^2 = 10^(-IRR/10) exactly. IMD channels reuse the cascades
    through the PA third-order path, truncated to N taps.

    ``sigma_x2`` rescales the reference-signal normalization without changing
    the physical component powers (the linear channels scale by the inverse
    amplitude ratio, the IMD channels by its cube). The normals and uniforms
    are those of ``np.random.default_rng(seed)``, drawn by
    ``_native.NormalStream`` without importing ``numpy.random``.
    """
    if not 1 <= N < M:
        raise ValueError("need 1 <= N < M")
    rng = _native.NormalStream(seed)

    echo_power = profile.f_rfe_norm2
    f_rfe = _rayleigh_taps(rng, [0.0, -3.0, -6.0], echo_power)

    def iq_direct():
        delta = rng.uniform(0.2, 0.4)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([1.0, delta * np.exp(1j * theta)])

    tx_direct = iq_direct()
    rx_direct = iq_direct()
    tx_image = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0)

    cascade = np.convolve(np.convolve(f_rfe, tx_direct), rx_direct)
    cascade *= np.sqrt(echo_power / np.sum(np.abs(cascade) ** 2))
    cascade_img = np.convolve(np.convolve(f_rfe, tx_image), rx_direct)

    budget = compute_noise_budget(profile)
    rx_amp = np.sqrt(profile.k_lna * profile.k_riq * budget.k_bb)
    lin_amp = np.sqrt(profile.k_vga * profile.k_tiq) * profile.alpha0_amp * rx_amp
    imd_amp = budget.alpha1 * profile.k_vga ** 1.5 * rx_amp

    h = lin_amp * _fit_length(cascade, M)
    g = _match_image_power(_fit_length(cascade_img, M), h, profile.irr_db)
    h_imd = imd_amp * _fit_length(cascade, N)
    g_imd = _match_image_power(_fit_length(cascade_img, N), h_imd, profile.irr_db)

    if sigma_x2 is not None:
        if sigma_x2 <= 0:
            raise ValueError("sigma_x2 must be positive")
        ratio = np.sqrt(sigma_x2 / profile.natural_sigma_x2)
        h, g = h / ratio, g / ratio
        h_imd, g_imd = h_imd / ratio ** 3, g_imd / ratio ** 3

    return ChannelSet(h, g, h_imd, g_imd)


COMPONENTS = ("linear_si", "image_si", "imd_si", "image_imd_si", "thermal",
              "quantization", "soi")


def render_observations(zs: np.ndarray, points, seed: int, ds,
                        components=None) -> None:
    """Render d(n) at each of ``points`` from one source row ``zs`` and one
    noise draw, in one compiled call, into the rows ``ds`` the caller owns.

    Each point is an ``(OperatingPoint, scale)`` pair, its reference
    x = ``scale`` ``zs``: each part of x is the part of ``zs`` times
    ``scale``, as ``signals.Draw.reference`` forms it. Each branch is
    the channel's FIR response to its input, truncated to ``len(zs)``
    samples (zero initial state); each noise is ``sqrt(power / 2) * (re +
    1j * im)``, with the point's power, of the real then imaginary
    standard normals drawn in the order thermal, quantization, SOI from the
    stream of ``np.random.default_rng(seed)`` (by ``_native.NormalStream``).
    Every point adds the same normals: they are drawn once, and each is
    added to every point's row as it is drawn. ``ds`` holds one complex128
    row of ``len(zs)`` samples per point, which receives its ``d``: the sum
    of the components in ``COMPONENTS`` order but the SOI, which d never
    holds. ``components``, None or one ``(len(COMPONENTS), len(zs))``
    complex128 array per point (None for none), receives each component's
    row in ``COMPONENTS`` order, the SOI's included; its normals are drawn
    after the others, only when a point asks for its components, and only
    into them. Each row gets the bits its point renders alone. Every row is
    checked (``_native.row_address``) before anything is rendered. The
    kernel forms x and x_imd a block of samples at a time, behind the M - 1
    samples before the block, and sums consecutive output samples in the
    lanes of a vector, each as one sample alone sums; it allocates those
    block rows on the heap, so any channel length renders, and raises
    ``MemoryError`` if it cannot.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    n = len(zs)
    structs, scales = [], []  # scales: each point's noise scales, alive until C runs
    for (point, scale), d, parts in zip(points, ds, components or [None] * len(points),
                                        strict=True):
        c = point.channels
        if n <= c.m:
            raise ValueError("sequence must be longer than the channel length M")
        scales.append(np.array([np.sqrt(p / 2.0) for p in (point.sigma_v2, point.sigma_q2,
                                                           point.p_x_soi)]))
        structs.append(_native.Point(
            c.m, c.n, scale, point.k_tiq ** 1.5,
            *(row.ctypes.data for row in (c.h, c.g, c.h_imd, c.g_imd, scales[-1])),
            _native.row_address(d, np.complex128, (n,), "an observation"),
            _native.row_address(parts, np.complex128, (len(COMPONENTS), n),
                                "a point's components")))
    structs = (_native.Point * len(structs))(*structs)
    noise = _native.NormalStream(seed)
    if not _native.library().render(n, zs.ctypes.data, noise.state.ctypes.data,
                                    len(structs), structs):
        raise MemoryError("the render kernel cannot allocate its block rows")


def render_observation(zs: np.ndarray, point: OperatingPoint, seed: int,
                       components: bool = False, out: np.ndarray | None = None,
                       scale: float = 1.0):
    """Render d(n) from the reference x = ``scale`` ``zs``: the one-point
    case of ``render_observations``, the pair ``(point, scale)``, into the
    row ``out`` (a new row if None); returns the row ``d``, or, with
    ``components=True``, the pair ``(d, components)``, ``components`` a new
    row of each component by name in ``COMPONENTS`` order.

    The default scale 1 renders ``zs`` itself.
    """
    d = np.empty(len(zs), dtype=np.complex128) if out is None else out
    parts = np.empty((len(COMPONENTS), len(zs)), dtype=np.complex128) if components else None
    render_observations(zs, [(point, scale)], seed, [d], [parts])
    return (d, dict(zip(COMPONENTS, parts))) if components else d
