"""Loopback analysis path.

Channelizes the wideband stream back into band-rate subbands (mix, FIR,
decimate, re-shift) and demodulates each tone against one accumulator
period of its regenerated reference (full-precision sine DDC or sign-only
square wave), which repeats as the shifter LUTs do. The DDC bank forms the
boxcar sums of L_avg products per output sample for every tone of a band
at once, on both engine plans; ddc_products gives one tone's products
before accumulation. Accumulator outputs are undivided integer sums;
normalization happens in the metrics layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .fxp import ConfigError
from .generator import (
    FIXED_POINT,
    DoublePrecision,
    FilterSpec,
    FixedPoint,
    GeneratorConfig,
    _block_products,
    phase_words,
)


class DemodMode(Enum):
    SINE_DDC = "sine"
    SQUARE_WAVE = "square"


@dataclass(frozen=True)
class AnalyzerConfig:
    """Sizing of the analysis path.

    decim_to_band, n_bands, band_rate_hz, wide_width_bits, reference_bits
    and shifter_lut_len copy generator values: config.ChainConfig checks
    each against the generator, and the chain reads the generator's.
    ChainConfig also designs the default channelizer (a 127-tap windowed
    sinc passing one band width) and checks the widths that need both
    halves.
    """

    decim_to_band: int = 8
    L_avg: int = 65536
    demod_mode: DemodMode = DemodMode.SINE_DDC
    n_bands: int = 10
    band_rate_hz: float = 250e6
    wide_width_bits: int = 20
    reference_bits: int = 10
    shifter_lut_len: int = 40
    channelizer_filter: FilterSpec | None = None
    accumulator_width_bits: int | None = None

    def __post_init__(self) -> None:
        if self.L_avg < 1:
            raise ConfigError("L_avg must be >= 1")

    @property
    def fs_hz(self) -> float:
        return self.band_rate_hz / self.L_avg


@dataclass(frozen=True)
class IqTimeSeries:
    """Accumulated (undivided) I/Q sums for one tone at the output rate fs."""

    band_index: int
    tone_index: int
    freq_word: int
    i: np.ndarray
    q: np.ndarray
    rate_hz: float
    l_avg: int
    demod_mode: DemodMode
    n_discarded: int = 0

    def __post_init__(self) -> None:
        if len(self.i) != len(self.q):
            raise ConfigError("i and q must have equal length")

    def complex_values(self) -> np.ndarray:
        return self.i.astype(np.float64) + 1j * self.q.astype(np.float64)


# ---------------------------------------------------------------------------
# channelizer


def channelize(
    wideband: tuple[np.ndarray, np.ndarray],
    band_index: int,
    g: GeneratorConfig,
    spec: FilterSpec,
    start: int = 0,
    *,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> tuple[np.ndarray, np.ndarray]:
    """Extract one band of g's wideband stream, which starts at band sample
    start (full-rate sample start * U), back onto the exciter's tone grid
    at band rate, in arith's dtype.

    Mix by the conjugate of the generator's band shift, lowpass with spec
    and decimate by U (polyphase), then shift up by band_rate/5 to undo the
    exciter's down-shift, all in arith at g's wideband width, each LUT read
    at the absolute sample, each stage into fresh arrays.
    """
    n = len(wideband[0])
    if n < 1:
        raise ConfigError(f"wideband stream must hold >= 1 sample, got {n}")
    w, lut, u = g.wide_width, g.shifter_lut_len, g.upsample_factor
    cycles = g.band_shift_cycles(band_index)
    band = arith.decimate(arith.mix(wideband, lut, cycles, w, -1, start * u), spec, u, w)
    return arith.mix(band, 5, 1, w, +1, start)


# ---------------------------------------------------------------------------
# demodulation


def _square(c: np.ndarray) -> np.ndarray:
    """The MSB square wave of a reference component: sign(c), sign(0) = +1."""
    return np.where(c >= 0, np.int64(1), np.int64(-1))


def ddc_products(
    subband: tuple[np.ndarray, np.ndarray],
    reference: tuple[np.ndarray, np.ndarray],
    mode: DemodMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample products of the subband with the conjugate reference,
    sample k taking reference entry k % len(ci) (one accumulator period
    serves any stream): _block_products by the conjugate of (ci, cq).

    SINE_DDC: two real multiplies per output component, kept exact (no
    rounding before accumulation). SQUARE_WAVE: the same products with the
    MSB square waves of the reference (sign(0) = +1), add and subtract only.
    """
    ci, cq = reference
    if mode is DemodMode.SQUARE_WAVE:
        ci, cq = _square(ci), _square(cq)
    return _block_products(subband, (ci, cq), conj=True)


# The bank's arrays hold at most about this many entries: a block of
# stacked references, or the block sums of a block of tones and rows.
# One block built and dropped at a time keeps the bank's live memory to
# one block, where all 40 of a full-scale band's references would take
# 40 MiB.
_BANK_BLOCK = 1 << 19


def ddc_bank(
    subband: tuple[np.ndarray, np.ndarray],
    table: tuple[np.ndarray, np.ndarray],
    words: Sequence[int],
    mode: DemodMode,
    l_avg: int,
    n_windows: int,
    dtype,
    *,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> tuple[np.ndarray, np.ndarray]:
    """The first n_windows boxcar sums of L_avg DDC products of the tones
    with the given words over the stream that is the subband tiled from
    absolute sample 0, at reference phase 0: I and Q of shape (tones,
    n_windows), in the subband's dtype. table is the reference of every
    phase word (word 1, L entries): a tone's reference is entry n * word
    mod L of it, or for SQUARE_WAVE of its MSB square waves.

    The span is laid out once in dtype as rows of L samples (the last one
    zero-padded), each cut into K blocks of h = gcd(L_avg, L, span)
    samples: every window edge of the tiled stream is a block edge, and
    block j of every row meets entries j*h .. j*h + h - 1 of each
    reference. One loop runs over blocks of tones, each stacking its own
    references in dtype, at most _BANK_BLOCK entries of references or of
    block sums at once. With a row's blocks X_i, X_q and a tone's C_i,
    C_q, its block sums are I = C_i X_i + C_q X_q and Q = C_i X_q - C_q
    X_i: one batched matrix product per reference component, (K, rows, h)
    @ (K, h, tones), for blocks of rows when one block's sums would pass
    _BANK_BLOCK. arith.accumulate then sums each window's blocks. So the
    work is tones times the span for any L_avg; with h = L (every
    builtin) it is one product of the stacked references and the rows.
    The span's rows are the left operand, (K, 2 rows, h), C-contiguous
    when K = 1 (every builtin), and the references the right one, (K, h,
    tones), the transpose of their contiguous rows: no product takes the
    span as a strided transposed view, which a threaded BLAS can run far
    slower.

    A float64 bank gives the exact integer block sums of an int64 subband
    when every partial sum stays below 2^53 (ChainConfig.ddc_exact_in_float64):
    each block lies in one window, so its partial sums are sums of some of
    one window's products, and float64 holds those integers in any
    summation order. An int64 bank runs the same products in int64."""
    span, length = len(subband[0]), len(table[0])
    h = math.gcd(l_avg, length, span)
    k, rows, full = length // h, -(-span // length), span // length
    x = np.zeros((rows, 2, length), dtype)  # row r's I samples, then its Q samples
    for c, s in enumerate(subband):
        x[:full, c] = s[: full * length].reshape(full, length)
        x[full:, c, : span - full * length] = s[full * length :]
    waves = [(_square(c) if mode is DemodMode.SQUARE_WAVE else c).astype(dtype) for c in table]
    tb, out = max(1, _BANK_BLOCK // max(length, rows * k)), []
    for t0 in range(0, len(words), tb):
        block = words[t0 : t0 + tb]
        refs = np.empty((2, len(block), length), dtype)  # the tones' I rows, then their Q rows
        for j, word in enumerate(block):
            ph = phase_words(length, word, length)
            for wave, c in zip(waves, refs):
                np.take(wave, ph, out=c[j], mode="clip")  # unbuffered; ph < length
        # (K, h, tones): block j of each reference as a column (no copy)
        ci, cq = (c.reshape(-1, k, h).transpose(1, 2, 0) for c in refs)
        sums = np.empty((2, len(block), rows, k), dtype)
        step = max(1, _BANK_BLOCK // (len(block) * k))
        for r0 in range(0, rows, step):
            xs = x[r0 : r0 + step].reshape(-1, k, h).transpose(1, 0, 2)  # (K, 2 rows, h)
            a, b = xs @ ci, xs @ cq  # rows: a row's I blocks, then its Q blocks
            sums[0, :, r0 : r0 + step] = (a[:, 0::2] + b[:, 1::2]).transpose(2, 1, 0)
            sums[1, :, r0 : r0 + step] = (a[:, 1::2] - b[:, 0::2]).transpose(2, 1, 0)
        out.append([arith.accumulate(c[:, : span // h], l_avg // h, n_windows)
                    for c in sums.reshape(2, len(block), -1)])
        del refs, c, ci, cq, a, b, sums  # no name holds this block while the next is built
    return tuple(np.concatenate(c) for c in zip(*out))
