"""The runnable scenario: a generator, an analyzer, a tone plan and a
capture length, with the checks that need both halves of the chain.

formats reads and writes it and harness runs it; this module imports
neither, so the import graph has no cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from . import generator
from .analyzer import AnalyzerConfig
from .fxp import ConfigError
from .generator import FilterSpec, GeneratorConfig, ToneConfig

# The analyzer fields that copy a generator value, each with the generator
# attribute it copies: make_chain_config fills them, ChainConfig checks them,
# and the chain reads the generator's.
_MIRRORED = (
    ("decim_to_band", "upsample_factor"),
    ("n_bands", "n_bands"),
    ("wide_width_bits", "wide_width"),
    ("reference_bits", "cordic.data_bits"),
    ("band_rate_hz", "band_rate_hz"),
    ("shifter_lut_len", "shifter_lut_len"),
)


@dataclass(frozen=True)
class ChainConfig:
    """One runnable scenario: exciter, analyzer, tone plan, and capture length.

    acquisition_len is the number of retained output samples per tone; the
    run generates (acquisition_len + warmup_windows) * L_avg band samples
    and discards the first warmup_windows accumulator outputs, which
    absorb the filter transients. The checks that need both halves of the
    chain (the channelizer and accumulator widths) are made here.
    """

    generator: GeneratorConfig
    analyzer: AnalyzerConfig
    tones: tuple[ToneConfig, ...]
    acquisition_len: int
    scenario_name: str = "custom"
    seed: int = 0
    warmup_windows: int = 1

    def __post_init__(self) -> None:
        if self.acquisition_len < 2:
            raise ConfigError(
                f"acquisition_len {self.acquisition_len} is too short to measure: "
                "the spectra need at least 2 retained windows"
            )
        if self.warmup_windows < 0:
            raise ConfigError("warmup_windows must be >= 0")
        if not self.tones:
            raise ConfigError("at least one tone must be configured")
        g, a = self.generator, self.analyzer
        for a_name, g_name in _MIRRORED:
            a_val, g_val = getattr(a, a_name), attrgetter(g_name)(g)
            if a_val != g_val:
                raise ConfigError(
                    f"analyzer.{a_name} {a_val} must equal generator.{g_name} {g_val}"
                )
        acc = self.resolved_accumulator_width
        need = self.ddc_product_bits + max(1, math.ceil(math.log2(a.L_avg)))
        if acc < need:
            raise ConfigError(
                f"accumulator_width_bits {acc} < {need} required for "
                f"overflow-free accumulation over L_avg={a.L_avg}"
            )
        if acc > 63:
            raise ConfigError("accumulator_width_bits must be <= 63 (int64 exactness)")
        self.resolved_channelizer_filter().check_int64_headroom(
            g.wide_width, "channelizer_filter"
        )
        seen = set()
        for t in self.tones:
            if t.band_index >= g.n_bands:
                raise ConfigError(f"tone band_index {t.band_index} >= n_bands")
            if t.freq_word >= g.L_acc:
                raise ConfigError(f"tone freq_word {t.freq_word} >= L_acc")
            key = (t.band_index, t.tone_index)
            if key in seen:
                raise ConfigError(f"duplicate tone id {key}")
            seen.add(key)

    @property
    def ddc_product_bits(self) -> int:
        # subband * reference product plus one carry bit for the two-term sum
        return self.generator.wide_width + self.generator.cordic.data_bits + 1

    @property
    def resolved_accumulator_width(self) -> int:
        if self.analyzer.accumulator_width_bits is not None:
            return self.analyzer.accumulator_width_bits
        return self.ddc_product_bits + max(1, math.ceil(math.log2(self.analyzer.L_avg)))

    def resolved_channelizer_filter(self) -> FilterSpec:
        if self.analyzer.channelizer_filter is not None:
            return self.analyzer.channelizer_filter
        # passband edge = one band half-width (band_rate/5) at the full rate;
        # looked up on the module at each call, so a wrapper installed on
        # generator.design_windowed_sinc (perfbench's tracer) sees it
        return generator.design_windowed_sinc(
            num_taps=127,
            cutoff_cycles=1.0 / (5 * self.generator.upsample_factor),
            gain=1.0,
            coeff_bits=18,
        )
