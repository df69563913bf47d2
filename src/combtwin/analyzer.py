"""Loopback analysis path.

Channelizes the wideband stream back into band-rate subbands (mix, FIR,
decimate, re-shift) and forms each tone's block products with one
accumulator period of its regenerated reference (full-precision sine DDC
or sign-only square wave), which repeats as the shifter LUTs do. The boxcar
that accumulates L_avg products per output sample is the arithmetic's
window_sums, which harness._tone_series applies on both engine plans.
Accumulator outputs are undivided integer sums; normalization happens in
the metrics layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fxp import ConfigError
from .generator import (
    FIXED_POINT,
    DoublePrecision,
    FilterSpec,
    FixedPoint,
    GeneratorConfig,
    _block_products,
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

    def __len__(self) -> int:
        return len(self.i)

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
    at band rate.

    Mix by the conjugate of the generator's band shift, lowpass with spec
    and decimate by U (polyphase), then shift up by band_rate/5 to undo the
    exciter's down-shift, all in arith at g's wideband width, each LUT read
    at the absolute sample.
    """
    w, lut, u = g.wide_width, g.shifter_lut_len, g.upsample_factor
    mixed = arith.mix(wideband, lut, g.band_shift_cycles(band_index), w, -1, start * u)
    return arith.mix(arith.decimate(mixed, spec, u, w), 5, 1, w, +1, start)


# ---------------------------------------------------------------------------
# demodulation


def ddc_products(
    subband: tuple[np.ndarray, np.ndarray],
    reference: tuple[np.ndarray, np.ndarray],
    mode: DemodMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample products of the subband with the conjugate reference,
    sample k taking reference entry k % len(ci) (one accumulator period
    serves any stream): _block_products with the table (ci, -cq).

    SINE_DDC: two real multiplies per output component, kept exact (no
    rounding before accumulation). SQUARE_WAVE: the same products with the
    MSB square waves of the reference (sign(0) = +1), add and subtract only.
    """
    ci, cq = reference
    if mode is DemodMode.SQUARE_WAVE:
        ci, cq = (np.where(c >= 0, np.int64(1), np.int64(-1)) for c in (ci, cq))
    return _block_products(subband, (ci, -cq))
