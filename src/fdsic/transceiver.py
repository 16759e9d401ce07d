"""Transceiver hardware model: gain chain, channels, noise budget, observation.

The observed pre-cancellation signal is

    d(n) = x^T(n) h + x^H(n) g + x_imd^T(n) h_imd + x_imd^H(n) g_imd
           + v(n) + q(n) [+ x_soi(n)]

where x_imd(n) = k_tiq^{3/2} |x(n)|^2 x(n) is the third-order
intermodulation product of the power amplifier, v(n) thermal noise, q(n)
quantization noise. The four end-to-end impulse responses absorb the Tx
chain, the residual analog-cancellation echo and the Rx chain including the
receiver VGA gain k_bb, so all component powers here are referenced to the
digital canceller input.

Conventions: every k_* gain is a power gain; amplitude paths use square
roots. The PA linear gain 'pa_gain_db' is the power gain of the linear path
(amplitude alpha0 = 10^(pa_gain_db/20)); its third-order amplitude
coefficient alpha1 is derived from the two-tone intercept point,
alpha1 = -(4/3) alpha0 / iip3_mw.

``render_observations`` renders one trial at several points: it reads the
reference of each as a source row z and a scale, x = scale z, each part of
z times the scale (see ``signals.Draw``), so that one drawn row serves every
transmit power, and forms x, x_imd, the four FIR branches and their sum in
the compiled ``render`` of ``_native`` (the C library that also runs the
LMS steps), consecutive samples in the lanes of a vector (eight on AVX-512,
four on AVX2) over blocks of a few hundred samples, writing each d(n) into
the caller's row, and then adds each noise part to every d(n) as
``_native.NormalStream`` draws it (in C, bit for bit the stream of
``np.random.default_rng(seed).standard_normal``), each normal drawn once
for all points, so no array of normals is allocated; the components are
stored only on request. ``render_observation`` is its one-point case. Its
roundings equal those of the numpy expressions ``k^{3/2} |x|^2 x``,
``np.convolve(h, x)[:n]``, ``sqrt(p/2) (re + 1j im)`` and the ordered sum
of the components, so a rendered observation is bit-identical to the numpy
one.
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
from .units import db_to_lin, dbm_to_mw, mw_to_dbm


@dataclass(frozen=True)
class TransceiverProfile:
    """Hardware parameters of a full-duplex direct-conversion transceiver."""

    p_sen_dbm: float
    snr_req_db: float
    noise_floor_dbm: float
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
        for name in ("p_sen_dbm", "snr_req_db", "noise_floor_dbm",
                     "rf_separation_db", "rf_attenuation_db", "k_tiq_db",
                     "k_riq_db", "pa_gain_db", "pa_iip3_dbm", "k_lna_db",
                     "tx_power_dbm", "adc_dynamic_range_db", "papr_db",
                     "k_vga_db"):
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


def imd_sequence(x: np.ndarray, k_tiq: float) -> np.ndarray:
    """Third-order PA product k_tiq^{3/2} |x|^2 x of a sample stream."""
    x = np.asarray(x)
    return k_tiq ** 1.5 * np.abs(x) ** 2 * x


COMPONENTS = ("linear_si", "image_si", "imd_si", "image_imd_si", "thermal",
              "quantization", "soi")


def render_observations(zs: np.ndarray, points, seed: int, include_soi: bool = False,
                        components: bool = False, outs=None) -> list:
    """Render d(n) at each of ``points`` from one source row ``zs`` and one
    noise draw, in one compiled call.

    Each point is a ``(channels, budget, profile, scale)`` tuple, its
    reference x = ``scale`` ``zs``: each part of x is the part of ``zs``
    times ``scale``, as ``signals.Draw.reference`` forms it. Each branch is
    the channel's FIR response to its input, truncated to ``len(zs)``
    samples (zero initial state); each noise is ``sqrt(power / 2) * (re +
    1j * im)``, with the point's budget's power, of the real then imaginary
    standard normals drawn in the order thermal, quantization, SOI from the
    stream of ``np.random.default_rng(seed)`` (by ``_native.NormalStream``).
    Every point adds the same normals: they are drawn once, and each is
    added to every point's row as it is drawn. ``d`` is the sum of the
    components in ``COMPONENTS`` order (the SOI is zero unless
    ``include_soi``). ``outs``, one complex128 row of ``len(zs)`` samples
    per point, receives the ``d`` of each. Returns the complex128 row ``d``
    of each point, or, with ``components=True``, a ``(d, components)`` pair
    per point, ``components`` each component's row by name in
    ``COMPONENTS`` order: each the bits its point renders alone. The
    kernel forms x and x_imd a block of samples at a time, behind the M - 1
    samples before the block, and sums consecutive output samples in the
    lanes of a vector, each as one sample alone sums; it allocates those
    block rows on the heap, so any channel length renders, and raises
    ``MemoryError`` if it cannot.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    n = len(zs)
    targets = []
    for (channels, budget, profile, scale), out in zip(points, outs or [None] * len(points),
                                                       strict=True):
        if n <= channels.m:
            raise ValueError("sequence must be longer than the channel length M")
        powers = (budget.sigma_v2, budget.sigma_q2, budget.p_x_soi)
        targets.append(_native.Target(
            scale, (channels.h, channels.g, channels.h_imd, channels.g_imd),
            profile.k_tiq ** 1.5, np.array([np.sqrt(p / 2.0) for p in powers]),
            np.empty(n, dtype=np.complex128) if out is None else out,
            np.empty((len(COMPONENTS), n), dtype=np.complex128) if components else None))
    _native.render(zs, targets, _native.NormalStream(seed), include_soi)
    if components:
        return [(target.d, dict(zip(COMPONENTS, target.components))) for target in targets]
    return [target.d for target in targets]


def render_observation(zs: np.ndarray, channels: ChannelSet,
                       budget: NoiseBudget, profile: TransceiverProfile,
                       seed: int, include_soi: bool = False,
                       components: bool = False,
                       out: np.ndarray | None = None, scale: float = 1.0):
    """Render d(n) from the reference x = ``scale`` ``zs``: the one-point
    case of ``render_observations``, the point ``(channels, budget,
    profile, scale)`` and its row ``out``; returns its row ``d``, or its
    ``(d, components)`` pair with ``components=True``.

    The default scale 1 renders ``zs`` itself; ``out``, a complex128 row of
    ``len(zs)`` samples, receives ``d``.
    """
    [rendered] = render_observations(zs, [(channels, budget, profile, scale)], seed,
                                     include_soi, components,
                                     None if out is None else [out])
    return rendered


@dataclass(frozen=True)
class PowerBudgetRow:
    """Analytic per-component powers (dBm) at the digital canceller input."""

    tx_power_dbm: float
    linear_si_dbm: float
    image_si_dbm: float
    imd_si_dbm: float
    image_imd_si_dbm: float
    thermal_dbm: float
    quantization_dbm: float
    soi_dbm: float


def compute_power_budget(profile: TransceiverProfile, tx_powers_dbm) -> list[PowerBudgetRow]:
    """Expected component powers over a transmit-power grid (no simulation).

    Uses the gain chain and the Gaussian moment laws E|x|^2 = s2,
    E|x_imd|^2 = 6 k_tiq^3 s2^3 for the component expectations.
    """
    tx_powers_dbm = np.atleast_1d(np.asarray(tx_powers_dbm, dtype=float))
    if tx_powers_dbm.size == 0:
        raise ValueError("empty transmit-power grid")
    rows = []
    image_ratio = db_to_lin(-profile.irr_db) if math.isfinite(profile.irr_db) else 0.0
    for tx in tx_powers_dbm:
        prof = profile.with_tx_power(tx)
        s2 = prof.natural_sigma_x2
        budget = compute_noise_budget(prof)
        g_rx = prof.k_lna * prof.k_riq * budget.k_bb
        chain = prof.f_rfe_norm2 * g_rx
        si = prof.tx_power_mw * chain
        imd = 6.0 * prof.k_tiq ** 3 * s2 ** 3 * budget.alpha1 ** 2 * prof.k_vga ** 3 * chain
        rows.append(PowerBudgetRow(
            tx_power_dbm=float(tx),
            linear_si_dbm=mw_to_dbm(si),
            image_si_dbm=mw_to_dbm(si * image_ratio) if image_ratio else -math.inf,
            imd_si_dbm=mw_to_dbm(imd),
            image_imd_si_dbm=mw_to_dbm(imd * image_ratio) if image_ratio else -math.inf,
            thermal_dbm=mw_to_dbm(budget.sigma_v2),
            quantization_dbm=mw_to_dbm(budget.sigma_q2),
            soi_dbm=mw_to_dbm(budget.p_x_soi),
        ))
    return rows
