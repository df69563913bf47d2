"""Bit-exact digital twin of a frequency-comb readout chain.

Integer-exact comb generation (phase accumulators, CORDIC, band stacking),
loopback channelization and demodulation, spectral metrics, and experiment
scenarios that reproduce the chain's spur arithmetic, reduced-precision
CORDIC behavior, and square-wave demodulation trade-offs at desk scale.
"""

__version__ = "0.1.0"

from .fxp import ConfigError, FxpFormat, FxpValue, Rounding
from .generator import (
    CordicConfig,
    FilterSpec,
    GeneratorConfig,
    ToneConfig,
    band_sum,
    band_tone_sums,
    default_freq_words,
    design_windowed_sinc,
    generate_comb,
    tone_generate,
    upsample_interp,
    waveform_period,
)
from .analyzer import (
    AnalyzerConfig,
    DemodMode,
    IqTimeSeries,
    boxcar_response,
    channelize,
    ddc_products,
)
from .metrics import (
    PsdMethod,
    Spectrum,
    SpectrumUnits,
    SpectrumWindow,
    SpurLine,
    SpurReport,
    amp_phase,
    dbc_per_hz,
    deglitch,
    detect_spurs,
    fft,
    ifft,
    predict_spurs,
    psd,
    sinad_sfdr,
)
from .harness import (
    ChainConfig,
    DemodComparison,
    RunResult,
    SweepRow,
    builtin_scenarios,
    config_hash,
    float_oracle,
    make_chain_config,
    persist,
    run_cordic_sweep,
    run_demod_compare,
    run_loopback,
)
