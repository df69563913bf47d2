"""Loopback analysis path.

Channelizes the wideband stream back into band-rate subbands (mix, FIR,
decimate, re-shift) and forms each tone's products with its regenerated
reference (full-precision sine DDC or sign-only square wave). The boxcar
that accumulates L_avg products per output sample is the arithmetic's
window_sums, which harness._tone_series applies on both engine plans.
Accumulator outputs are undivided integer sums; normalization happens in
the metrics layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fxp import ConfigError
from .generator import (
    FIXED_POINT,
    DoublePrecision,
    FilterSpec,
    FixedPoint,
    design_windowed_sinc,
    fir_apply,
)


class DemodMode(Enum):
    SINE_DDC = "sine"
    SQUARE_WAVE = "square"


@dataclass(frozen=True)
class AnalyzerConfig:
    """Sizing of the analysis path.

    decim_to_band must equal the exciter's upsample factor; wide_width_bits
    must match the wideband stream format it produces. The default
    channelizer is a 127-tap windowed sinc passing one band width.
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
        if self.decim_to_band < 1:
            raise ConfigError("decim_to_band must be >= 1")
        if self.L_avg < 1:
            raise ConfigError("L_avg must be >= 1")
        if self.n_bands < 1:
            raise ConfigError("n_bands must be >= 1")
        if not (0 < self.band_rate_hz < math.inf):
            raise ConfigError(f"band_rate_hz must be finite and > 0, got {self.band_rate_hz}")
        if not (2 <= self.wide_width_bits <= 32):
            raise ConfigError("wide_width_bits must be in 2..32")
        if self.shifter_lut_len % (5 * self.decim_to_band) != 0:
            raise ConfigError(
                "shifter_lut_len must be a multiple of 5*decim_to_band so every "
                "band center is an integer number of LUT cycles"
            )
        acc = self.resolved_accumulator_width
        need = self.ddc_product_bits + max(1, math.ceil(math.log2(self.L_avg)))
        if acc < need:
            raise ConfigError(
                f"accumulator_width_bits {acc} < {need} required for "
                f"overflow-free accumulation over L_avg={self.L_avg}"
            )
        if acc > 63:
            raise ConfigError("accumulator_width_bits must be <= 63 (int64 exactness)")
        self.resolved_channelizer_filter().check_int64_headroom(
            self.wide_width_bits, "channelizer_filter"
        )

    @property
    def ddc_product_bits(self) -> int:
        # subband * reference product plus one carry bit for the two-term sum
        return self.wide_width_bits + self.reference_bits + 1

    @property
    def resolved_accumulator_width(self) -> int:
        if self.accumulator_width_bits is not None:
            return self.accumulator_width_bits
        return self.ddc_product_bits + max(1, math.ceil(math.log2(self.L_avg)))

    @property
    def fs_hz(self) -> float:
        return self.band_rate_hz / self.L_avg

    def resolved_channelizer_filter(self) -> FilterSpec:
        if self.channelizer_filter is not None:
            return self.channelizer_filter
        # passband edge = one band half-width (band_rate/5) at the full rate
        return design_windowed_sinc(
            num_taps=127,
            cutoff_cycles=1.0 / (5 * self.decim_to_band),
            gain=1.0,
            coeff_bits=18,
        )


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
    cfg: AnalyzerConfig,
    method: str = "polyphase",
    *,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> tuple[np.ndarray, np.ndarray]:
    """Extract one band back onto the exciter's tone grid at band rate.

    Mix by the conjugate band-center exponential, lowpass, decimate by D,
    then shift up by band_rate/5 to undo the exciter's down-shift, all in
    arith. The polyphase method is the default and is bit-identical to
    "direct", a fixed-point reference.
    """
    if not (0 <= band_index < cfg.n_bands):
        raise ConfigError(f"band_index {band_index} out of range 0..{cfg.n_bands - 1}")
    if method not in ("polyphase", "direct"):
        raise ConfigError("method must be 'polyphase' or 'direct'")
    w = cfg.wide_width_bits
    d = cfg.decim_to_band
    cycles = cfg.shifter_lut_len * (2 * band_index + 1) // (5 * d)
    mi, mq = arith.mix(wideband, cfg.shifter_lut_len, cycles, w, -1)
    spec = cfg.resolved_channelizer_filter()
    if method == "direct":
        bi, bq = fir_apply(mi, mq, spec, w)
        bi, bq = bi[::d], bq[::d]
    else:
        bi, bq = arith.decimate((mi, mq), spec, d, w)
    return arith.mix((bi, bq), 5, 1, w, +1)


# ---------------------------------------------------------------------------
# demodulation


def ddc_products(
    subband: tuple[np.ndarray, np.ndarray],
    reference: tuple[np.ndarray, np.ndarray],
    mode: DemodMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample products of the subband with the conjugate reference.

    SINE_DDC: two real multiplies per output component, kept exact (no
    rounding before accumulation). SQUARE_WAVE: multiply by the MSB square
    waves of the reference (sign(0) = +1), add and subtract only.
    """
    fi, fq = subband
    ci, cq = reference
    if len(fi) != len(ci) or len(fq) != len(cq):
        raise ConfigError("subband and reference must have equal length")
    if mode is DemodMode.SINE_DDC:
        return fi * ci + fq * cq, fq * ci - fi * cq
    sc = np.where(ci >= 0, np.int64(1), np.int64(-1))
    ss = np.where(cq >= 0, np.int64(1), np.int64(-1))
    return sc * fi + ss * fq, sc * fq - ss * fi


def boxcar_response(L: int, f_norm: float) -> float:
    """|sum_{n<L} e^(j 2 pi f n)| / L, the averaging filter's magnitude.

    Closed form sin(pi L f) / (L sin(pi f)); exact 1 at f = 0 and exact 0
    at nonzero multiples of 1/L.
    """
    if L < 1:
        raise ConfigError("L must be >= 1")
    if not (0.0 <= f_norm < 1.0):
        raise ConfigError("f_norm must be in [0, 1)")
    if f_norm == 0.0:
        return 1.0
    ratio = L * f_norm
    # exact zero at the boxcar nulls despite floating-point sin
    if abs(ratio - round(ratio)) < 1e-9 and round(ratio) % L != 0:
        return 0.0
    return abs(math.sin(math.pi * ratio) / (L * math.sin(math.pi * f_norm)))
