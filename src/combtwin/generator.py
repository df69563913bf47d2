"""Frequency-comb excitation path.

Per-tone phase accumulator and CORDIC, per-band tone summation, -f_b/5
down-shift, xU polyphase interpolation, band shift via a sine/cosine
lookup table, and band summation into one wideband I/Q stream. The stages
run on raw integer codes (int64 arrays; stream formats are Q1.(w-1)), or,
for the float oracle, through the DoublePrecision arithmetic.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .fxp import (
    ConfigError,
    FxpFormat,
    FxpValue,
    Rounding,
    saturate,
    shift_right,
)


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class ToneConfig:
    """One excitation tone: placement and per-tone amplitude.

    freq_word k puts the tone at k * band_rate / L_acc Hz within its band.
    amplitude_code is a Q2.15 scale in [0, 1]; 1.0 (raw 32768) passes the
    CORDIC output through unchanged.
    """

    band_index: int
    tone_index: int
    freq_word: int
    amplitude_code: FxpValue = field(
        default_factory=lambda: FxpValue(32768, AMPLITUDE_FORMAT)
    )

    def __post_init__(self) -> None:
        if self.band_index < 0:
            raise ConfigError("band_index must be >= 0")
        if self.tone_index < 0:
            raise ConfigError("tone_index must be >= 0")
        if self.freq_word < 0:
            raise ConfigError("freq_word must be >= 0")
        if self.amplitude_code.fmt != AMPLITUDE_FORMAT:
            raise ConfigError(
                "amplitude_code must use AMPLITUDE_FORMAT (Q2.15): a config "
                "stores only its raw code"
            )
        if self.amplitude_code.raw < 0:
            raise ConfigError("amplitude_code must be >= 0")
        if self.amplitude_code.to_float() > 1.0:
            raise ConfigError("amplitude_code must be <= 1.0")


AMPLITUDE_FORMAT = FxpFormat(total_bits=17, frac_bits=15)


def phase_words(modulus: int, increment: int, n: int) -> np.ndarray:
    """Phase accumulator outputs k*increment mod modulus, k < n.

    Bit-identical to stepping a counter n times, reducing by a
    conditional subtraction, which is how a non-power-of-two modulus
    (e.g. 65520) is realized in hardware; for a power of two it is the
    same as masking.
    """
    return (increment * np.arange(n, dtype=np.int64)) % modulus


@dataclass(frozen=True)
class CordicConfig:
    """Rotation-mode CORDIC sizing.

    angle_bits defaults to data_bits - 1, which puts the angle resolution
    at the level where the output quantization dominates; this is what
    produces the iteration-count SFDR plateau. Arctan table entries are
    clamped to >= 1 angle LSB so every iteration rotates by a nonzero
    amount for any iteration count.
    """

    data_bits: int
    iterations: int
    angle_bits: int | None = None
    guard_bits: int = 0

    def __post_init__(self) -> None:
        if not (4 <= self.data_bits <= 24):
            raise ConfigError("data_bits must be in 4..24")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.angle_bits is not None and self.angle_bits < 4:
            raise ConfigError("angle_bits must be >= 4")
        if not (0 <= self.guard_bits <= 8):
            raise ConfigError("guard_bits must be in 0..8")

    @property
    def resolved_angle_bits(self) -> int:
        return self.data_bits - 1 if self.angle_bits is None else self.angle_bits

    def check_int64_headroom(self, L_acc: int) -> None:
        """Raise ConfigError unless the angle arithmetic fits int64: z0's
        numerator rem * 2^(A+1) + L_acc, at the largest folded remainder
        L_acc/4 - 1 (taken as at least 1, so 2^(A+1) itself fits), must stay
        below 2^63. Every later z lies within 2^A of zero."""
        A = self.resolved_angle_bits
        if max(L_acc // 4 - 1, 1) * (1 << (A + 1)) + L_acc >= 1 << 63:
            raise ConfigError(
                f"angle_bits {A} with L_acc {L_acc} can overflow int64 in the "
                "CORDIC angle (rem * 2^(angle_bits+1) + L_acc >= 2^63)"
            )


def cordic_gain(iterations: int) -> float:
    """K(n) = prod cos(arctan 2^-i); lies in (0.607, 1.0] for n >= 1."""
    return float(np.prod(np.cos(np.arctan(2.0 ** -np.arange(iterations)))))


def _arctan_table(iterations: int, angle_bits: int) -> list[int]:
    # angle unit: full circle = 2^angle_bits; entries clamped to >= 1
    scale = (1 << angle_bits) / (2.0 * math.pi)
    return [
        max(1, int(math.floor(math.atan(2.0 ** -i) * scale + 0.5)))
        for i in range(iterations)
    ]


def cordic_sincos_array(
    phases: np.ndarray, L_acc: int, cfg: CordicConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of 2*pi*phase/L_acc for an int64 phase array.

    Quadrant-folds the phase word with output sign fix-up, runs n
    rotation-mode iterations at angle_bits resolution, drops the guard
    bits (round half up) and saturates to data_bits. A folded remainder
    of exactly 0 forces sin to 0 before reconstruction (the true value at
    a quadrant boundary).
    """
    if L_acc % 4 != 0:
        raise ConfigError("L_acc must be a multiple of 4 for quadrant folding")
    cfg.check_int64_headroom(L_acc)
    phases = np.asarray(phases, dtype=np.int64)
    if phases.size and (phases.min() < 0 or phases.max() >= L_acc):
        raise ValueError("phase out of range [0, L_acc)")
    b = cfg.data_bits
    n = cfg.iterations
    A = cfg.resolved_angle_bits
    g = cfg.guard_bits
    tab = _arctan_table(n, A)
    quarter = L_acc // 4
    quad = phases // quarter
    rem = phases - quad * quarter
    # z0: round-half-up of rem * 2^A / L_acc, in exact integers
    z = (rem * (np.int64(1) << np.int64(A + 1)) + L_acc) // (2 * L_acc)
    x0 = int(math.floor((1 << (b - 1 + g)) * cordic_gain(n) + 0.5))
    x = np.full_like(z, x0)
    y = np.zeros_like(z)
    for i in range(n):
        d = np.where(z >= 0, np.int64(1), np.int64(-1))
        x, y = x - d * (y >> np.int64(i)), y + d * (x >> np.int64(i))
        z = z - d * tab[i]
    y = np.where(rem == 0, np.int64(0), y)
    x = saturate(shift_right(x, g, Rounding.ROUND_HALF_UP), b)
    y = saturate(shift_right(y, g, Rounding.ROUND_HALF_UP), b)
    i_out = np.select([quad == 0, quad == 1, quad == 2], [x, -y, -x], default=y)
    q_out = np.select([quad == 0, quad == 1, quad == 2], [y, x, -y], default=-x)
    return i_out, q_out


@functools.lru_cache(maxsize=8)
def _cordic_table(L_acc: int, cfg: CordicConfig) -> tuple[np.ndarray, np.ndarray]:
    """cordic_sincos_array of every phase word, read-only: the tables of the
    8 most recent (L_acc, cfg) are shared by all callers."""
    ci, cq = cordic_sincos_array(np.arange(L_acc, dtype=np.int64), L_acc, cfg)
    ci.flags.writeable = False
    cq.flags.writeable = False
    return ci, cq


def cordic_tone(
    L_acc: int, word: int, n: int, cfg: CordicConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled CORDIC tone, cordic_sincos_array(phase_words(L_acc, word,
    n)): one period of L_acc / gcd(L_acc, word) samples gathered from the
    table of all L_acc phase words, then tiled. CORDIC output depends only
    on the phase word, so the iterations run once per table entry."""
    ph = phase_words(L_acc, word, L_acc // math.gcd(L_acc, word))
    return tuple(periodic_extend(t[ph], n) for t in _cordic_table(L_acc, cfg))


# ---------------------------------------------------------------------------
# filters and lookup tables


@dataclass(frozen=True)
class FilterSpec:
    """Quantized linear-phase FIR: raw integer taps plus their format."""

    taps: tuple[int, ...]
    coeff_format: FxpFormat
    description: str

    def __post_init__(self) -> None:
        if len(self.taps) % 2 != 1:
            raise ConfigError("filter must have odd length")
        if list(self.taps) != list(reversed(self.taps)):
            raise ConfigError("filter must be symmetric (linear phase)")
        fmt = self.coeff_format
        if not all(fmt.min_raw <= t <= fmt.max_raw for t in self.taps):
            raise ConfigError(
                f"filter taps must lie in [{fmt.min_raw}, {fmt.max_raw}], the "
                f"range of the {fmt.total_bits}-bit coefficient format"
            )

    @property
    def shift(self) -> int:
        return self.coeff_format.frac_bits

    def taps_array(self) -> np.ndarray:
        return np.asarray(self.taps, dtype=np.int64)

    def requantize(self, acc: np.ndarray, stream_bits: int) -> np.ndarray:
        """Exact convolution sums back to the stream format: shift out the
        coefficient fraction (truncate toward -inf), then saturate."""
        acc = shift_right(acc, self.shift, Rounding.TRUNCATE_TOWARD_NEG_INF)
        return saturate(acc, stream_bits)

    def check_int64_headroom(self, stream_bits: int, name: str) -> None:
        """Raise ConfigError unless every convolution sum over a
        stream_bits-bit input fits int64: sum|h| * 2^(stream_bits-1) < 2^63."""
        if sum(abs(t) for t in self.taps) << (stream_bits - 1) >= 1 << 63:
            raise ConfigError(
                f"{name} taps on a {stream_bits}-bit stream can overflow int64 "
                "(sum|h| * 2^(stream_bits-1) >= 2^63)"
            )


def windowed_sinc_taps(num_taps: int, cutoff_cycles: float, gain: float = 1.0) -> np.ndarray:
    """Unquantized Hamming windowed-sinc lowpass taps."""
    m = np.arange(num_taps) - (num_taps - 1) / 2
    h = 2.0 * cutoff_cycles * np.sinc(2.0 * cutoff_cycles * m) * np.hamming(num_taps)
    return h * gain


def design_windowed_sinc(
    num_taps: int, cutoff_cycles: float, gain: float = 1.0, coeff_bits: int = 18
) -> FilterSpec:
    """Hamming windowed-sinc lowpass, coefficients quantized to Q2.(coeff_bits-2).

    cutoff_cycles is the -6 dB edge in cycles per sample at the filter's
    running rate. gain scales the passband (an interpolator uses gain = U
    to compensate zero-stuffing).
    """
    return _design_windowed_sinc(num_taps, cutoff_cycles, gain, coeff_bits)


# every config construction resolves (and so designs) its default filters;
# the FilterSpec is immutable, so one design per argument set is shared.
# typed: gain 8 and 8.0 give different descriptions
@functools.lru_cache(maxsize=32, typed=True)
def _design_windowed_sinc(
    num_taps: int, cutoff_cycles: float, gain: float, coeff_bits: int
) -> FilterSpec:
    h = windowed_sinc_taps(num_taps, cutoff_cycles, gain)
    frac = coeff_bits - 2
    raw = np.floor(h * (1 << frac) + 0.5).astype(np.int64)
    fmt = FxpFormat(total_bits=coeff_bits, frac_bits=frac)
    return FilterSpec(
        taps=tuple(int(v) for v in raw),
        coeff_format=fmt,
        description=(
            f"{num_taps}-tap Hamming windowed sinc, cutoff {cutoff_cycles} "
            f"cycles/sample, gain {gain}, {coeff_bits}-bit coefficients"
        ),
    )


def fir_apply(
    i: np.ndarray, q: np.ndarray, spec: FilterSpec, stream_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Causal length-preserving FIR in exact integers, then shift and saturate."""
    h = spec.taps_array()
    return tuple(spec.requantize(np.convolve(s, h)[: len(s)], stream_bits) for s in (i, q))


# Polyphase kernels (Crochiere & Rabiner 1983) return the branch sums before
# any requantization: exact on int64 (the fixed-point chain), complex128 for
# the float oracle.


def polyphase_interpolate(x: np.ndarray, h: np.ndarray, u: int) -> np.ndarray:
    """np.convolve(x zero-stuffed by u, h)[:len(x)*u] without the products
    on zeros: output m*u + r is (x * h[r::u])[m]; a branch without taps
    (fewer taps than u) stays zero."""
    n = len(x)
    y = np.zeros(n * u, dtype=np.result_type(x, h))
    for r in range(min(u, len(h))):
        y[r::u] = np.convolve(x, h[r::u])[:n]
    return y


def polyphase_decimate(x: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """np.convolve(x, h)[:len(x)][::d] computing only the retained outputs:
    output m is sum_r (h[r::d] * x_r)[m] with x_r[m] = x[m*d - r], zero
    before the stream starts."""
    n_out = -(-len(x) // d)
    y = np.zeros(n_out, dtype=np.result_type(x, h))
    for r in range(min(d, len(h))):
        if r == 0:
            xr = x[::d]
        else:
            xr = np.zeros(n_out, dtype=x.dtype)
            xr[1:] = x[d - r :: d][: n_out - 1]
        y += np.convolve(xr, h[r::d])[:n_out]
    return y


def periodic_extend(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """a[k % len(a)] for k < n, into out (length n) if given.

    One copy of a, then each copy doubles the filled prefix: about
    log2(n / len(a)) contiguous copies, and no array beyond the result."""
    a = np.asarray(a)
    if out is None:
        out = np.empty(n, dtype=a.dtype)
    k = min(n, len(a))
    out[:k] = a[:k]
    while k < n:
        j = min(k, n - k)
        out[k : k + j] = out[:j]
        k += j
    return out


def make_lut(
    length: int, cycles: int, width: int, sign: int
) -> tuple[np.ndarray, np.ndarray]:
    """Complex exponential LUT: entry n = quantized e^(sign*j*2pi*cycles*n/length).

    Quantized to (2^(width-1)-1) * cos/sin with round-half-up.
    """
    if sign not in (+1, -1):
        raise ConfigError("sign must be +1 or -1")
    n = np.arange(length)
    ang = sign * 2.0 * np.pi * cycles * n / length
    sc = (1 << (width - 1)) - 1
    li = np.floor(sc * np.cos(ang) + 0.5).astype(np.int64)
    lq = np.floor(sc * np.sin(ang) + 0.5).astype(np.int64)
    return li, lq


def cmul_lut(
    xi: np.ndarray,
    xq: np.ndarray,
    li: np.ndarray,
    lq: np.ndarray,
    lut_width: int,
    out_bits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample-wise complex multiply by LUT values.

    Four exact integer products, right shift by lut_width-1 (truncate
    toward -inf, the stream rounding default), saturate to out_bits.
    """
    pi = xi * li
    pi -= xq * lq
    pq = xi * lq
    pq += xq * li
    sh = np.int64(lut_width - 1)
    pi >>= sh
    pq >>= sh
    return saturate(pi, out_bits), saturate(pq, out_bits)


def lut_mix(
    x: tuple[np.ndarray, np.ndarray],
    length: int,
    cycles: int,
    width: int,
    sign: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply a width-bit stream by the make_lut exponential, sample n
    taking LUT entry n mod length; output stays width bits."""
    xi, xq = x
    li, lq = (periodic_extend(t, len(xi)) for t in make_lut(length, cycles, width, sign))
    return cmul_lut(xi, xq, li, lq, width, width)


# ---------------------------------------------------------------------------
# generator configuration


@dataclass(frozen=True)
class GeneratorConfig:
    """Sizing of the excitation path.

    The frequency plan puts band centers at odd multiples of
    band_rate/5 * 1/2 ... concretely center(b) = (2b+1) * full_rate /
    (5*U*2) * 2 = (2b+1)/(5*U) of the full rate, so each band spans
    2/5 of the band rate and the shifter LUT of length 5*U covers every
    center with an integer number of cycles.
    """

    n_bands: int = 10
    tones_per_band: int = 40
    L_acc: int = 65536
    band_rate_hz: float = 250e6
    upsample_factor: int = 8
    shifter_lut_len: int = 40
    cordic: CordicConfig = field(default_factory=lambda: CordicConfig(10, 10))
    interp_filter: FilterSpec | None = None
    sum_width_bits: int | None = None

    def __post_init__(self) -> None:
        if self.n_bands < 1:
            raise ConfigError("n_bands must be >= 1")
        if self.tones_per_band < 1:
            raise ConfigError("tones_per_band must be >= 1")
        if self.L_acc < 8 or self.L_acc % 4 != 0:
            raise ConfigError("L_acc must be >= 8 and a multiple of 4")
        if self.upsample_factor < 1:
            raise ConfigError("upsample_factor must be >= 1")
        if self.band_rate_hz <= 0:
            raise ConfigError("band_rate_hz must be > 0")
        # band b's shift needs shifter_lut_len * (2b + 1) / (5U) whole cycles,
        # and 2b + 1 is odd: when band 0 holds whole cycles, every band does
        if self.shifter_lut_len % (5 * self.upsample_factor) != 0:
            raise ConfigError(
                f"shifter LUT length {self.shifter_lut_len} does not hold an "
                "integer number of cycles for band 0"
            )
        self.resolved_interp_filter().check_int64_headroom(
            self.resolved_sum_width, "interp_filter"
        )
        self.cordic.check_int64_headroom(self.L_acc)

    @property
    def resolved_sum_width(self) -> int:
        if self.sum_width_bits is not None:
            return self.sum_width_bits
        return self.cordic.data_bits + max(1, math.ceil(math.log2(self.tones_per_band)))

    @property
    def wide_width(self) -> int:
        return self.resolved_sum_width + max(1, math.ceil(math.log2(self.n_bands)))

    def band_center_fraction(self, band_index: int) -> Fraction:
        """Band center as an exact fraction of the full rate."""
        if not (0 <= band_index < self.n_bands):
            raise ConfigError(f"band_index {band_index} out of range")
        return Fraction(2 * band_index + 1, 5 * self.upsample_factor)

    def resolved_interp_filter(self) -> FilterSpec:
        if self.interp_filter is not None:
            return self.interp_filter
        # cutoff band_rate/2 at full rate; gain U compensates zero-stuffing
        return design_windowed_sinc(
            num_taps=63,
            cutoff_cycles=1.0 / (2 * self.upsample_factor),
            gain=float(self.upsample_factor),
            coeff_bits=18,
        )


# ---------------------------------------------------------------------------
# pipeline stages


def tone_generate(
    tone: ToneConfig, cfg: GeneratorConfig, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-scaled CORDIC output at band rate.

    Exactly periodic with period L_acc / gcd(L_acc, freq_word).
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if tone.freq_word >= cfg.L_acc:
        raise ConfigError("freq_word must be < L_acc")
    ci, cq = cordic_tone(cfg.L_acc, tone.freq_word, n_samples, cfg.cordic)
    amp = np.int64(tone.amplitude_code.raw)
    sh = np.int64(tone.amplitude_code.fmt.frac_bits)
    return (ci * amp) >> sh, (cq * amp) >> sh


def band_sum(
    tone_streams: Iterable[tuple[np.ndarray, np.ndarray]], sum_width_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer sum of streams, checked against sum_width_bits.

    Sums the tones of one band (band format) and the shifted bands of the
    comb (wideband format). Streams are consumed one at a time, so a
    generator keeps only the running sum and one stream alive; the first
    is copied, and no input array is modified.
    """
    streams = iter(tone_streams)
    first = next(streams, None)
    if first is None:
        raise ConfigError("band_sum needs at least one stream")
    n = len(first[0])
    # same_kind: a float stream raises, as adding it in place would
    bi, bq = (np.asarray(s).astype(np.int64, casting="same_kind") for s in first)
    del first
    if len(bq) != n:
        raise ConfigError("all streams must have equal length")
    for si, sq in streams:
        if len(si) != n or len(sq) != n:
            raise ConfigError("all streams must have equal length")
        bi += si
        bq += sq
    hi = (1 << (sum_width_bits - 1)) - 1
    if bi.size and (max(bi.max(), bq.max()) > hi or min(bi.min(), bq.min()) < -hi - 1):
        raise ConfigError("band_sum overflowed the configured sum width")
    return bi, bq


def upsample_interp(
    band: tuple[np.ndarray, np.ndarray], cfg: GeneratorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate by U with the configured FIR, as a polyphase filter.

    Bit-identical to zero-stuffing by U and running fir_apply at the full
    rate, but only the U branch filters (len(taps)/U taps each) run.
    Output length is input length * U; for periodic input the steady
    state (past the first taps-1 samples) is periodic with U times the
    input period.
    """
    spec = cfg.resolved_interp_filter()
    h, u, w = spec.taps_array(), cfg.upsample_factor, cfg.resolved_sum_width
    return tuple(spec.requantize(polyphase_interpolate(s, h, u), w) for s in band)


def waveform_period(L_acc: int, U: int, lut_len: int) -> int:
    """Analytic steady-state period of the wideband comb: lcm(L_acc*U, lut_len)."""
    if L_acc < 1 or U < 1 or lut_len < 1:
        raise ConfigError("all arguments must be >= 1")
    return math.lcm(L_acc * U, lut_len)


# ---------------------------------------------------------------------------
# arithmetics: the chain's stages in exact integers or in double precision


def _window_sums(y: np.ndarray, l_avg: int, n_windows: int) -> np.ndarray:
    """Boxcar sums over a stream that is y (p samples) tiled from absolute
    sample 0: window m covers [m*l_avg, (m+1)*l_avg). The stream's prefix
    sum at x is (x // p) * c[p] + c[x % p], c the prefix sums of y; int64
    wraparound in them cancels in the differences (a CIC integrator and
    comb), so every sum that fits int64 is exact. The sums repeat every
    n_pat = p / gcd(l_avg, p) windows: the first are formed, then tiled."""
    p = len(y)
    c = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(y, out=c[1:])
    x = np.arange(min(p // math.gcd(l_avg, p), n_windows) + 1, dtype=np.int64) * l_avg
    return periodic_extend(np.diff((x // p) * c[p] + c[x % p]), n_windows)


@functools.lru_cache(maxsize=8)
def _phasor_table(length: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / length, k < length, with the exact zeros at
    quarter turns that np.cos/np.sin miss by ~1e-16: the square-wave
    demodulator takes the sign of the reference, and sign(0) is +1."""
    k = np.arange(length)
    c, s = np.cos(2.0 * np.pi * k / length), np.sin(2.0 * np.pi * k / length)
    c[4 * k % (2 * length) == length] = 0.0
    s[2 * k % length == 0] = 0.0
    c.flags.writeable = s.flags.writeable = False
    return c, s


class FixedPoint:
    """The chain's int64 arithmetic: quantized CORDIC and LUT tables,
    requantization, saturation and exact window sums. Each operation is
    the stage function itself. Streams are (i, q) pairs in both
    arithmetics, so periodic_extend and ddc_products serve both."""

    def tone(self, tone: ToneConfig, cfg: GeneratorConfig, n: int):
        return tone_generate(tone, cfg, n)

    def reference(self, L_acc: int, word: int, n: int, cordic: CordicConfig):
        return cordic_tone(L_acc, word, n, cordic)

    def sum(self, streams, width: int):
        return band_sum(streams, width)

    def mix(self, x, length: int, cycles: int, width: int, sign: int):
        return lut_mix(x, length, cycles, width, sign)

    def interp(self, band, cfg: GeneratorConfig):
        return upsample_interp(band, cfg)

    def decimate(self, x, spec: FilterSpec, d: int, width: int):
        h = spec.taps_array()
        return tuple(spec.requantize(polyphase_decimate(s, h, d), width) for s in x)

    def window_sums(self, y: np.ndarray, l_avg: int, n_windows: int):
        return _window_sums(y, l_avg, n_windows)


FIXED_POINT = FixedPoint()


class DoublePrecision:
    """The same stages in float64: exact phasor tables indexed modulo their
    periods (so the chain is exactly periodic), the given ideal
    interpolator and channelizer taps, no requantization or saturation,
    and every window summed from its own samples."""

    def __init__(self, h_interp: np.ndarray, h_chan: np.ndarray) -> None:
        self.h_interp, self.h_chan = h_interp, h_chan

    def tone(self, tone: ToneConfig, cfg: GeneratorConfig, n: int):
        amp = tone.amplitude_code.to_float()
        return tuple(amp * s for s in self.reference(cfg.L_acc, tone.freq_word, n, cfg.cordic))

    def reference(self, L_acc: int, word: int, n: int, cordic: CordicConfig):
        # the CORDIC's ideal, at its full scale 2^(data_bits-1) - 1
        amp = float((1 << (cordic.data_bits - 1)) - 1)
        ph = phase_words(L_acc, word, L_acc // math.gcd(L_acc, word))
        return tuple(periodic_extend(amp * t[ph], n) for t in _phasor_table(L_acc))

    def sum(self, streams, width: int):
        streams = iter(streams)
        bi, bq = (s.copy() for s in next(streams))
        for si, sq in streams:
            bi += si
            bq += sq
        return bi, bq

    def mix(self, x, length: int, cycles: int, width: int, sign: int):
        k = phase_words(length, cycles, length)
        c, s = _phasor_table(length)
        li, lq = (periodic_extend(t, len(x[0])) for t in (c[k], sign * s[k]))
        return x[0] * li - x[1] * lq, x[0] * lq + x[1] * li

    def interp(self, band, cfg: GeneratorConfig):
        return tuple(polyphase_interpolate(s, self.h_interp, cfg.upsample_factor) for s in band)

    def decimate(self, x, spec: FilterSpec, d: int, width: int):
        return tuple(polyphase_decimate(s, self.h_chan, d) for s in x)

    def window_sums(self, y: np.ndarray, l_avg: int, n_windows: int):
        rows = min(len(y) // math.gcd(l_avg, len(y)), n_windows)
        sums = periodic_extend(y, rows * l_avg).reshape(rows, l_avg).sum(axis=1)
        return periodic_extend(sums, n_windows)


def generate_comb(
    cfg: GeneratorConfig,
    tones: Sequence[ToneConfig],
    n_band_samples: int,
    threads: int = 1,
    *,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the full excitation pipeline in arith; returns the wideband I/Q
    stream.

    Bands with no configured tones contribute silence. threads > 1 runs
    the bands in a thread pool; the result does not depend on it. Tones
    stream into their band sum and bands into the wideband sum, so one
    band holds its running sum and a single tone stream at a time. A band's
    tone sum is formed over one accumulator period and tiled; the
    full-rate stages run over every sample.
    """
    by_band: dict[int, list[ToneConfig]] = {}
    for t in tones:
        if t.band_index >= cfg.n_bands:
            raise ConfigError(
                f"tone band_index {t.band_index} >= n_bands {cfg.n_bands}"
            )
        by_band.setdefault(t.band_index, []).append(t)
    if not by_band:
        z = np.zeros(n_band_samples * cfg.upsample_factor, dtype=np.int64)
        return z, z.copy()

    def one_band(b: int) -> tuple[np.ndarray, np.ndarray]:
        # each tone repeats every L_acc / gcd(L_acc, word) samples from
        # sample 0, so the band's tone sum repeats every L_acc: sum one
        # accumulator period (the same values, so the same overflow check)
        n_acc = min(cfg.L_acc, n_band_samples)
        w = cfg.resolved_sum_width
        bi, bq = arith.sum((arith.tone(t, cfg, n_acc) for t in by_band[b]), w)
        band = periodic_extend(bi, n_band_samples), periodic_extend(bq, n_band_samples)
        band = arith.mix(band, 5, 1, w, -1)  # down by band_rate/5
        band = arith.interp(band, cfg)
        # up to the band center, an integer number of shifter LUT cycles
        cycles = int(cfg.band_center_fraction(b) * cfg.shifter_lut_len)
        return arith.mix(band, cfg.shifter_lut_len, cycles, w, +1)

    bands = sorted(by_band)
    if threads > 1 and len(bands) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return arith.sum(ex.map(one_band, bands), cfg.wide_width)
    return arith.sum(map(one_band, bands), cfg.wide_width)


def default_freq_words(L_acc: int, tones_per_band: int) -> list[int]:
    """Placement rule: odd words coprime to L_acc, evenly spread over the
    band's usable span (the lower 2/5 of the band rate)."""
    words = []
    for t in range(tones_per_band):
        k = int(0.4 * L_acc * (t + 0.5) / tones_per_band) | 1
        while math.gcd(k, L_acc) != 1:
            k += 2
        words.append(k)
    return words
