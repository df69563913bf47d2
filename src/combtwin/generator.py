"""Frequency-comb excitation path.

Per-tone phase accumulator and CORDIC, per-band tone summation, -f_b/5
down-shift, xU polyphase interpolation, band shift via a sine/cosine
lookup table, and band summation into one wideband I/Q stream. The stages
run on raw integer codes (int32 streams, every one at most 32 bits wide;
stream formats are Q1.(w-1)), or, for the float oracle, through the
DoublePrecision arithmetic. Each stream stage returns fresh arrays in
its stream's dtype.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fxp import (
    ConfigError,
    FxpFormat,
    FxpValue,
    Rounding,
    requantize,
    truncate,
)


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class ToneConfig:
    """One excitation tone: placement and per-tone amplitude.

    freq_word k puts the tone at k * band_rate / L_acc Hz within its band.
    amplitude_raw is the raw code of a Q2.15 (AMPLITUDE_FORMAT) scale in
    [0, 1]; 1.0 (raw 32768) passes the CORDIC output through unchanged.
    """

    band_index: int
    tone_index: int
    freq_word: int
    amplitude_raw: int = 32768

    def __post_init__(self) -> None:
        if self.band_index < 0:
            raise ConfigError("band_index must be >= 0")
        if self.tone_index < 0:
            raise ConfigError("tone_index must be >= 0")
        if self.freq_word < 0:
            raise ConfigError("freq_word must be >= 0")
        if not 0 <= self.amplitude_raw <= 32768:
            raise ConfigError(f"amplitude_raw {self.amplitude_raw} must be in 0..32768")

    @property
    def amplitude_code(self) -> FxpValue:
        return FxpValue(self.amplitude_raw, AMPLITUDE_FORMAT)


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
    x = requantize(x, g, b, Rounding.ROUND_HALF_UP)
    y = requantize(y, g, b, Rounding.ROUND_HALF_UP)
    i_out = np.select([quad == 0, quad == 1, quad == 2], [x, -y, -x], default=y)
    q_out = np.select([quad == 0, quad == 1, quad == 2], [y, x, -y], default=-x)
    return i_out, q_out


# 32 tables hold the sweeps of two moduli (sweep-cordic --bits 8,10,12
# --iters 6,8,10,12 uses 12 configs per modulus) with a run's own beside
# them: two int64 arrays of L_acc entries each, 1 MiB at an L_acc of 65536
@functools.lru_cache(maxsize=32)
def _cordic_table(L_acc: int, cfg: CordicConfig) -> tuple[np.ndarray, np.ndarray]:
    """cordic_sincos_array of every phase word, read-only: the tables of the
    32 most recent (L_acc, cfg) are shared by all callers."""
    ci, cq = cordic_sincos_array(np.arange(L_acc, dtype=np.int64), L_acc, cfg)
    ci.flags.writeable = False
    cq.flags.writeable = False
    return ci, cq


def cordic_tone(L_acc: int, word: int, cfg: CordicConfig) -> tuple[np.ndarray, np.ndarray]:
    """One accumulator period of the unscaled CORDIC tone,
    cordic_sincos_array(phase_words(L_acc, word, L_acc)), gathered from the
    table of all L_acc phase words into fresh arrays. CORDIC output depends
    only on the phase word, so the iterations run once per table entry;
    sample k of a longer run is entry k % L_acc."""
    ph = phase_words(L_acc, word, L_acc)
    return tuple(t[ph] for t in _cordic_table(L_acc, cfg))


# ---------------------------------------------------------------------------
# filters and lookup tables


@dataclass(frozen=True)
class FilterSpec:
    """Quantized linear-phase FIR: raw integer taps plus the widths of
    their format, FxpFormat(total_bits, frac_bits)."""

    taps: tuple[int, ...]
    total_bits: int
    frac_bits: int
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.taps) % 2 != 1:
            raise ConfigError("filter must have odd length")
        if list(self.taps) != list(reversed(self.taps)):
            raise ConfigError("filter must be symmetric (linear phase)")
        fmt = FxpFormat(self.total_bits, self.frac_bits)
        if not all(fmt.min_raw <= t <= fmt.max_raw for t in self.taps):
            raise ConfigError(
                f"filter taps must lie in [{fmt.min_raw}, {fmt.max_raw}], the "
                f"range of the {fmt.total_bits}-bit coefficient format"
            )

    def taps_array(self) -> np.ndarray:
        return self._taps_array

    # every FIR call reads both; the spec is immutable, so each is made once
    @functools.cached_property
    def _taps_array(self) -> np.ndarray:
        h = np.asarray(self.taps, dtype=np.int64)
        h.flags.writeable = False
        return h

    @functools.cached_property
    def _abs_tap_sum(self) -> int:
        return sum(abs(t) for t in self.taps)

    def check_int64_headroom(self, stream_bits: int, name: str) -> None:
        """Raise ConfigError unless every convolution sum over a
        stream_bits-bit input fits int64: sum|h| * 2^(stream_bits-1) < 2^63."""
        if self._abs_tap_sum << (stream_bits - 1) >= 1 << 63:
            raise ConfigError(
                f"{name} taps on a {stream_bits}-bit stream can overflow int64 "
                "(sum|h| * 2^(stream_bits-1) >= 2^63)"
            )

    def exact_in_float64(self, stream_bits: int) -> bool:
        """Whether every partial sum of a convolution over a stream_bits-bit
        input is an integer below 2^53, sum|h| * 2^(stream_bits-1) < 2^53:
        then exact_interpolate and exact_decimate give the int64 sums."""
        return self._abs_tap_sum << (stream_bits - 1) < 1 << 53


def mix_dtype(width: int) -> type:
    """The dtype of a width-bit LUT mix's products, and so of make_lut's
    tables: int32 when width <= 16, int64 past it. The mix's inputs are
    saturated to width bits and its LUT to 2^(width-1) - 1, so each
    two-term sum is at most 2^(2*width-1) - 2^width in magnitude: below
    2^31 at width 16. An int32 stream times an int32 table multiplies in
    int32; an int64 table promotes the products to int64."""
    return np.int32 if width <= 16 else np.int64


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
    return FilterSpec(
        taps=tuple(int(v) for v in raw),
        total_bits=coeff_bits,
        frac_bits=frac,
        description=(
            f"{num_taps}-tap Hamming windowed sinc, cutoff {cutoff_cycles} "
            f"cycles/sample, gain {gain}, {coeff_bits}-bit coefficients"
        ),
    )


# Polyphase kernels (Crochiere & Rabiner 1983) return the branch sums before
# any requantization: exact on int64 (the fixed-point chain past the 2^53
# bound of the exact products below, and their test oracle), float64 for the
# float oracle.


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


def _float_span(x: np.ndarray, a: int, b: int) -> np.ndarray:
    """x[a:b] cast to float64, zero outside the stream (a may be negative)."""
    out = np.zeros(b - a)
    lo, hi = max(a, 0), min(b, len(x))
    out[lo - a : hi - a] = x[lo:hi]
    return out


# Every integer of magnitude up to 2^53 is exact in float64, so a sum of
# integer products whose every partial sum stays below 2^53 is exact under
# any summation order, FMA included: BLAS gives the int64 bits. Taps scaled
# by 2^-shift keep every product and partial sum exact (a power of two only
# moves the exponent), so the sums come out already shifted, and their
# floor is the truncating requantization (fxp.truncate). Each call forms its
# products over the whole stream it is given, one time slice of a run
# (harness._SLICE_SAMPLES), and narrows them into the integer output. The
# matrices are built once per taps, rate and shift.
# FilterSpec.exact_in_float64 states the bound.


@functools.lru_cache(maxsize=32)
def _branch_matrix(taps: bytes, u: int, shift: int) -> np.ndarray:
    """exact_interpolate's (K x u) branch matrix of int64 taps (as bytes)
    times 2^-shift: row j meets x[m - K + 1 + j]. Read-only, shared."""
    h = np.frombuffer(taps, np.int64)
    k = -(-len(h) // u)
    m = np.zeros(k * u)
    m[: len(h)] = h * 2.0**-shift
    m = m.reshape(k, u)[::-1].copy()
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=32)
def _decimation_matrix(taps: bytes, d: int, shift: int) -> np.ndarray:
    """exact_decimate's (K x d) matrix of int64 taps (as bytes) times
    2^-shift: gt[r, t] = h[r*d - t], 0 outside h. Read-only, shared."""
    h = np.frombuffer(taps, np.int64)
    k = (len(h) + d - 2) // d + 1
    m = np.zeros(k * d)
    m[d - 1 : d - 1 + len(h)] = h * 2.0**-shift
    m = m.reshape(k, d)[:, ::-1].copy()
    m.flags.writeable = False
    return m


def exact_interpolate(
    x: np.ndarray, h: np.ndarray, u: int, out: np.ndarray | None = None, *,
    shift: int = 0, width: int = 64,
) -> np.ndarray:
    """polyphase_interpolate(x, h, u) on integer x and int64 taps h within
    the 2^53 bound, as one float64 matrix product, requantized by shift
    bits (truncating) to width bits into out (a fresh int64 array if None;
    the defaults give the sums themselves): the window of the K =
    ceil(len(h)/u) latest inputs x[m-K+1 .. m], zero before the stream
    starts, times the (K x u) branch matrix gives outputs m*u to m*u + u - 1."""
    branches = _branch_matrix(np.asarray(h, np.int64).tobytes(), u, shift)
    k, n = len(branches), len(x)
    if out is None:
        out = np.empty(n * u, np.int64)
    windows = sliding_window_view(_float_span(x, 1 - k, n), k)
    truncate(windows @ branches, width, out.reshape(n, u))
    return out


def exact_decimate(
    x: np.ndarray, h: np.ndarray, d: int, out: np.ndarray | None = None, *,
    shift: int = 0, width: int = 64,
) -> np.ndarray:
    """polyphase_decimate(x, h, d) on integer x and int64 taps h within the
    2^53 bound, as one float64 matrix product, requantized by shift bits
    (truncating) to width bits into out (a fresh int64 array if None; the
    defaults give the sums themselves): input block j, x[j*d .. j*d + d -
    1], meets taps h[r*d - t] for output j + r, r < K = (len(h) + d - 2) //
    d + 1. The transposed product G.T @ blocks.T, over the K - 1 zero
    blocks before the stream and its own, has block j's partial sum for
    output j + r in row r, each row contiguous, and each output adds its K
    partial sums along the diagonal, read as the rows of one strided view."""
    gt = _decimation_matrix(np.asarray(h, np.int64).tobytes(), d, shift)
    k, n_out = len(gt), -(-len(x) // d)
    if out is None:
        out = np.empty(n_out, np.int64)
    # output i's share from row r is column i + k-1-r
    parts = gt @ _float_span(x, (1 - k) * d, n_out * d).reshape(-1, d).T
    s0, s1 = parts.strides
    diagonals = np.ndarray((k, n_out), parts.dtype, parts, (k - 1) * s1, (s0 - s1, s1))
    truncate(diagonals.sum(axis=0), width, out)
    return out


def periodic_extend(
    a: np.ndarray, n: int, out: np.ndarray | None = None, start: int = 0
) -> np.ndarray:
    """a[(start + k) % len(a)] for k < n, into out (length n) if given.

    One copy of a's first min(n, len(a)) entries from start, then each
    copy doubles the filled prefix: about log2(n / len(a)) contiguous
    copies, and no array beyond the result."""
    a = np.asarray(a)
    if out is None:
        out = np.empty(n, dtype=a.dtype)
    k = min(n, len(a))
    j = start % len(a) if len(a) else 0
    head = min(k, len(a) - j)
    out[:head] = a[j : j + head]
    out[head:k] = a[: k - head]
    while k < n:
        j = min(k, n - k)
        out[k : k + j] = out[:j]
        k += j
    return out


@functools.lru_cache(maxsize=64)
def make_lut(
    length: int, cycles: int, width: int, sign: int
) -> tuple[np.ndarray, np.ndarray]:
    """Complex exponential LUT: entry n = quantized e^(sign*j*2pi*cycles*n/length).

    Quantized to (2^(width-1)-1) * cos/sin with round-half-up, in
    mix_dtype(width). The tables are shared (every mix reads one) and so
    read-only.
    """
    if sign not in (+1, -1):
        raise ConfigError("sign must be +1 or -1")
    n = np.arange(length)
    ang = sign * 2.0 * np.pi * cycles * n / length
    sc = (1 << (width - 1)) - 1
    li = np.floor(sc * np.cos(ang) + 0.5).astype(mix_dtype(width))
    lq = np.floor(sc * np.sin(ang) + 0.5).astype(mix_dtype(width))
    li.flags.writeable = lq.flags.writeable = False
    return li, lq


def _block_products(
    x: tuple[np.ndarray, np.ndarray],
    lut: tuple[np.ndarray, np.ndarray],
    start: int = 0,
    conj: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The complex products (x_i + j*x_q) * (l_i + j*l_q), or by the
    conjugate LUT (l_i - j*l_q) if conj, sample k taking LUT entry
    (start + k) % len(l_i), in the dtype numpy gives the stream and the LUT:
    two fresh arrays, formed through one temporary.

    The LUT is tiled to the stream from start (periodic_extend), unless it
    already is the stream's own table: as long as the stream, read from
    entry 0. ConfigError unless the stream's and the LUT's I and Q have
    equal lengths and the LUT is not empty."""
    (xi, xq), (li, lq) = x, lut
    n, length = len(xi), len(li)
    if len(xq) != n or len(lq) != length or length == 0:
        raise ConfigError("block products need I and Q of equal length and a nonempty LUT")
    if length != n or start % length:
        li, lq = periodic_extend(li, n, start=start), periodic_extend(lq, n, start=start)
    first, second = (np.add, np.subtract) if conj else (np.subtract, np.add)
    oi, t = np.multiply(xi, li), np.multiply(xq, lq)
    first(oi, t, out=oi)
    oq = np.multiply(xq, li)
    np.multiply(xi, lq, out=t)
    second(oq, t, out=oq)
    return oi, oq


def cmul_lut(
    xi: np.ndarray,
    xq: np.ndarray,
    li: np.ndarray,
    lq: np.ndarray,
    width: int,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Complex multiply of a width-bit stream by width-bit LUT values,
    sample k taking entry (start + k) % len(li): sample-wise for a LUT as
    long as the stream.

    Four exact integer products (_block_products), requantized by width-1
    bits (truncate toward -inf) to width bits in the stream's dtype: in
    place when the products have it, and into one fresh array per
    component when they are wider (an int32 stream times an int64 table,
    mix_dtype).
    """
    dtype = np.result_type(xi, xq)
    return tuple(
        requantize(
            p, width - 1, width, Rounding.TRUNCATE_TOWARD_NEG_INF,
            None if p.dtype == dtype else np.empty(len(p), dtype),
        )
        for p in _block_products((xi, xq), (li, lq), start)
    )


def lut_mix(
    x: tuple[np.ndarray, np.ndarray],
    length: int,
    cycles: int,
    width: int,
    sign: int,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply a width-bit stream by the make_lut exponential, sample n
    taking LUT entry (start + n) mod length, start the absolute index of
    the stream's first sample; output stays width bits (cmul_lut)."""
    return cmul_lut(*x, *make_lut(length, cycles, width, sign), width, start)


# ---------------------------------------------------------------------------
# generator configuration


@dataclass(frozen=True)
class GeneratorConfig:
    """Sizing of the excitation path.

    The frequency plan puts band b's center at (2b+1)/(5U) of the full
    rate, an odd multiple of band_rate/5, so adjacent centers are 2/5 of
    the band rate apart. The shifter LUT length is a multiple of 5U, so
    every center is a whole number of LUT cycles.
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
        if not (0 < self.band_rate_hz < math.inf):
            raise ConfigError(f"band_rate_hz must be finite and > 0, got {self.band_rate_hz}")
        # band b's shift needs shifter_lut_len * (2b + 1) / (5U) whole cycles,
        # and 2b + 1 is odd: when band 0 holds whole cycles, every band does
        if self.shifter_lut_len < 1 or self.shifter_lut_len % (5 * self.upsample_factor) != 0:
            raise ConfigError(
                f"shifter_lut_len {self.shifter_lut_len} must be >= 1 and hold an "
                "integer number of cycles for band 0"
            )
        # every stream is held in FixedPoint.dtype, int32, so none is wider
        # than 32 bits; mix_dtype gives the dtype of the LUT mixes' products
        if self.resolved_sum_width < 2 or self.wide_width > 32:
            raise ConfigError(
                f"sum_width_bits {self.resolved_sum_width} must be >= 2 and give a "
                f"wideband stream of <= 32 bits, not {self.wide_width}"
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

    def band_shift_cycles(self, band_index: int) -> int:
        """Whole shifter LUT cycles that move band band_index to its center
        (the analyzer's channelizer undoes the same shift)."""
        if not (0 <= band_index < self.n_bands):
            raise ConfigError(f"band_index {band_index} out of range")
        return (2 * band_index + 1) * self.shifter_lut_len // (5 * self.upsample_factor)

    @property
    def interp_design(self) -> tuple[int, float, float]:
        """The default interpolator's (num_taps, cutoff_cycles, gain):
        cutoff band_rate/2 at full rate; gain U compensates zero-stuffing."""
        return 63, 1.0 / (2 * self.upsample_factor), float(self.upsample_factor)

    def resolved_interp_filter(self) -> FilterSpec:
        if self.interp_filter is not None:
            return self.interp_filter
        return design_windowed_sinc(*self.interp_design, coeff_bits=18)


# ---------------------------------------------------------------------------
# pipeline stages


def tone_generate(tone: ToneConfig, cfg: GeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """One accumulator period (L_acc samples) of the amplitude-scaled
    CORDIC output at band rate; the tone repeats every L_acc samples.
    """
    if tone.freq_word >= cfg.L_acc:
        raise ConfigError("freq_word must be < L_acc")
    ci, cq = cordic_tone(cfg.L_acc, tone.freq_word, cfg.cordic)
    amp = np.int64(tone.amplitude_raw)
    sh = np.int64(AMPLITUDE_FORMAT.frac_bits)
    return (ci * amp) >> sh, (cq * amp) >> sh


def _stream_sum(
    streams: Iterable[tuple[np.ndarray, np.ndarray]], dtype: type, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of (i, q) streams in dtype, consumed one at a time: the first is
    copied, each later one is dropped once added, so a generator keeps
    only the running sum and the stream being made alive. No input array
    is modified."""
    streams = iter(streams)
    first = next(streams, None)
    if first is None:
        raise ConfigError(f"{name} needs at least one stream")
    n = len(first[0])
    # same_kind: a float stream into an integer sum raises, as adding it would
    bi, bq = (np.asarray(s).astype(dtype, casting="same_kind") for s in first)
    del first
    if len(bq) != n:
        raise ConfigError("all streams must have equal length")
    for si, sq in streams:
        if len(si) != n or len(sq) != n:
            raise ConfigError("all streams must have equal length")
        bi += si
        bq += sq
        del si, sq
    return bi, bq


def band_sum(
    tone_streams: Iterable[tuple[np.ndarray, np.ndarray]], sum_width_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact integer sum of streams (_stream_sum), checked against
    sum_width_bits: the tones of one band (band format)."""
    bi, bq = _stream_sum(tone_streams, np.int64, "band_sum")
    hi = (1 << (sum_width_bits - 1)) - 1
    if bi.size and (max(bi.max(), bq.max()) > hi or min(bi.min(), bq.min()) < -hi - 1):
        raise ConfigError("band_sum overflowed the configured sum width")
    return bi, bq


def _fir(exact, polyphase, x, spec: FilterSpec, rate: int, width: int, n_out: int):
    """spec's FIR at rate (an interpolator's or a decimator's pair of
    kernels) of each stream of x, requantized by spec.frac_bits (truncate
    toward -inf) to width bits into a fresh array of n_out samples in the
    stream's dtype: the exact float64 products within the 2^53 bound, the
    int64 polyphase sums past it."""
    h, fast = spec.taps_array(), spec.exact_in_float64(width)
    out = tuple(np.empty(n_out, np.asarray(s).dtype) for s in x)
    for s, o in zip(x, out):
        if fast:
            exact(s, h, rate, o, shift=spec.frac_bits, width=width)
        else:
            requantize(polyphase(s, h, rate), spec.frac_bits, width, out=o)
    return out


def upsample_interp(
    band: tuple[np.ndarray, np.ndarray], cfg: GeneratorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate by U with the configured FIR, as a polyphase filter:
    exact_interpolate within the 2^53 bound, polyphase_interpolate past it,
    into fresh arrays of the band's dtype.

    Bit-identical to zero-stuffing by U and running the FIR at the full
    rate, but only the U branch filters (len(taps)/U taps each) run.
    Output length is input length * U; for periodic input the steady
    state (past the first taps-1 samples) is periodic with U times the
    input period.
    """
    u = cfg.upsample_factor
    spec, w = cfg.resolved_interp_filter(), cfg.resolved_sum_width
    return _fir(exact_interpolate, polyphase_interpolate, band, spec, u, w, len(band[0]) * u)


def waveform_period(L_acc: int, U: int, lut_len: int) -> int:
    """Analytic steady-state period of the wideband comb: lcm(L_acc*U, lut_len)."""
    if L_acc < 1 or U < 1 or lut_len < 1:
        raise ConfigError("all arguments must be >= 1")
    return math.lcm(L_acc * U, lut_len)


# ---------------------------------------------------------------------------
# arithmetics: the chain's stages in exact integers or in double precision


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
    """The chain's integer arithmetic: int32 streams (GeneratorConfig caps
    every stream at 32 bits), quantized CORDIC and LUT tables,
    requantization, saturation and an exact int64 boxcar accumulator. Each
    operation is the stage function itself. Streams are (i, q) pairs in
    both arithmetics, so periodic_extend, _block_products, ddc_products and
    ddc_bank serve both."""

    dtype = np.int32

    def tone(self, tone: ToneConfig, cfg: GeneratorConfig):
        return tone_generate(tone, cfg)

    def reference(self, L_acc: int, word: int, cordic: CordicConfig):
        return cordic_tone(L_acc, word, cordic)

    def sum(self, streams, width: int):
        """band_sum's checked int64 sums, narrowed to dtype: a width of at
        most 32 bits fits it."""
        return tuple(s.astype(self.dtype) for s in band_sum(streams, width))

    def mix(self, x, length: int, cycles: int, width: int, sign: int, start: int = 0):
        return lut_mix(x, length, cycles, width, sign, start)

    def interp(self, band, cfg: GeneratorConfig):
        return upsample_interp(band, cfg)

    def decimate(self, x, spec: FilterSpec, d: int, width: int):
        return _fir(exact_decimate, polyphase_decimate, x, spec, d, width, -(-len(x[0]) // d))

    def accumulate(self, blocks: np.ndarray, per_window: int, n_windows: int):
        """The first n_windows sums of per_window consecutive blocks, row by
        row, of the stream that is each row of blocks tiled from its start:
        exact int64 prefix sums over one row, read at window edge x as
        (x // p) * c[p] + c[x % p] and differenced. int64 wraparound in
        them cancels in the differences (a CIC integrator and comb), so
        every sum that fits int64 is exact."""
        p = blocks.shape[1]
        c = np.zeros((len(blocks), p + 1), dtype=np.int64)
        np.cumsum(blocks.astype(np.int64), axis=1, out=c[:, 1:])
        x = np.arange(n_windows + 1, dtype=np.int64) * per_window
        return np.diff((x // p) * c[:, p:] + c[:, x % p], axis=1)


FIXED_POINT = FixedPoint()


class DoublePrecision:
    """The same stages in float64: exact phasor tables indexed modulo their
    periods (so the chain is exactly periodic), the given ideal
    interpolator and channelizer taps, no requantization or saturation,
    and every window summed from its own blocks."""

    dtype = np.float64

    def __init__(self, h_interp: np.ndarray, h_chan: np.ndarray) -> None:
        self.h_interp, self.h_chan = h_interp, h_chan

    def tone(self, tone: ToneConfig, cfg: GeneratorConfig):
        amp = tone.amplitude_raw / (1 << AMPLITUDE_FORMAT.frac_bits)
        return tuple(amp * s for s in self.reference(cfg.L_acc, tone.freq_word, cfg.cordic))

    def reference(self, L_acc: int, word: int, cordic: CordicConfig):
        # the CORDIC's ideal, at its full scale 2^(data_bits-1) - 1
        amp = float((1 << (cordic.data_bits - 1)) - 1)
        ph = phase_words(L_acc, word, L_acc)
        return tuple(amp * t[ph] for t in _phasor_table(L_acc))

    def sum(self, streams, width: int):
        return _stream_sum(streams, np.float64, "the float sum")

    def mix(self, x, length: int, cycles: int, width: int, sign: int, start: int = 0):
        k = phase_words(length, cycles, length)
        c, s = _phasor_table(length)
        return _block_products(x, (c[k], sign * s[k]), start)

    # polyphase_* and not the exact kernels' matrix products: on float taps
    # BLAS rounds a row by where it sits in the product, so a comb from a
    # start off 0 would not equal the run from 0 past the transient (L_acc
    # 36, U 2, one tone of word 0, start 1 differs). An einsum in a fixed
    # order keeps the bits but made desk_direct's float oracle about 30 %
    # slower (2 vCPU)
    def interp(self, band, cfg: GeneratorConfig):
        return tuple(polyphase_interpolate(s, self.h_interp, cfg.upsample_factor) for s in band)

    def decimate(self, x, spec: FilterSpec, d: int, width: int):
        return tuple(polyphase_decimate(s, self.h_chan, d) for s in x)

    def accumulate(self, blocks: np.ndarray, per_window: int, n_windows: int):
        # FixedPoint.accumulate's windows, each summed from its own blocks:
        # float prefix differences would cancel
        idx = np.arange(n_windows * per_window) % blocks.shape[1]
        return blocks[:, idx].reshape(len(blocks), n_windows, per_window).sum(axis=2)


def band_tone_sums(
    cfg: GeneratorConfig,
    tones: Sequence[ToneConfig],
    *,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
    run=map,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Each toned band's tone sum over one accumulator period (L_acc
    samples from sample 0), in arith's dtype: the input generate_comb
    tiles. Each band's sum is one task of run, a map (a thread pool's, or
    the builtin).

    Each tone repeats every L_acc / gcd(L_acc, word) samples, so a band's
    tone sum repeats every L_acc: one period holds every value of any run,
    and the overflow check sees them all. Tones stream into the sum, so a
    band holds its running sum and a single tone stream at a time.
    """
    by_band: dict[int, list[ToneConfig]] = {}
    for t in tones:
        if t.band_index >= cfg.n_bands:
            raise ConfigError(
                f"tone band_index {t.band_index} >= n_bands {cfg.n_bands}"
            )
        by_band.setdefault(t.band_index, []).append(t)
    w = cfg.resolved_sum_width

    def one_band(b: int) -> tuple[np.ndarray, np.ndarray]:
        return arith.sum((arith.tone(t, cfg) for t in by_band[b]), w)

    bands = sorted(by_band)
    return dict(zip(bands, run(one_band, bands)))


def generate_comb(
    cfg: GeneratorConfig,
    tone_sums: Mapping[int, tuple[np.ndarray, np.ndarray]],
    n_band_samples: int,
    start: int = 0,
    *,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> tuple[np.ndarray, np.ndarray]:
    """Band samples [start, start + n_band_samples) of the excitation
    pipeline, run in arith from zero filter state at start; returns the
    wideband I/Q stream (U samples per band sample) in arith's dtype.

    tone_sums are the run's band_tone_sums, one L_acc period each, tiled
    from sample start; at least one band must have tones (ConfigError
    otherwise), and bands without tones contribute silence. Every LUT is
    read at the absolute sample, so past the filter transient the samples
    equal those of a run from 0 for any start. The full-rate stages run
    over every sample.

    Each band's tone sum is tiled into arith's dtype, then down-shifted,
    interpolated and band-shifted, each stage into fresh arrays. The
    wideband sum is the first band's band-shift output, the other bands
    added into it in place. Each band is saturated to the band width and
    there are at most 2^(wide_width - band width) bands, so the wideband
    sum cannot leave its width.
    """
    if n_band_samples < 1:
        raise ConfigError(f"n_band_samples must be >= 1, got {n_band_samples}")
    if any(len(c) != cfg.L_acc for s in tone_sums.values() for c in s):
        raise ConfigError(f"tone sums must be one accumulator period of {cfg.L_acc} samples")
    if not tone_sums:
        raise ConfigError("generate_comb needs at least one stream")
    n, u, w = n_band_samples, cfg.upsample_factor, cfg.resolved_sum_width
    wide = None
    for b, sums in sorted(tone_sums.items()):
        band = tuple(periodic_extend(s, n, np.empty(n, arith.dtype), start) for s in sums)
        up = arith.interp(arith.mix(band, 5, 1, w, -1, start), cfg)  # down by band_rate/5
        # up to the band center, an integer number of shifter LUT cycles
        shifted = arith.mix(up, cfg.shifter_lut_len, cfg.band_shift_cycles(b), w, +1, start * u)
        if wide is None:
            wide = shifted
        else:
            for total, s in zip(wide, shifted):
                total += s
        del band, up, shifted  # no array of this band is held while the next is made
    return wide


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
