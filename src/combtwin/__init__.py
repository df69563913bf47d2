"""Bit-exact digital twin of a frequency-comb readout chain.

Integer-exact comb generation (phase accumulators, CORDIC, band stacking),
loopback channelization and demodulation, spectral metrics, and experiment
scenarios that reproduce the chain's spur arithmetic, reduced-precision
CORDIC behavior, and square-wave demodulation trade-offs at desk scale.
"""

from ._version import __version__
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
    channelize,
    ddc_products,
)
from .metrics import (
    PsdMethod,
    Spectrum,
    SpectrumWindow,
    SpurLine,
    SpurReport,
    deglitch,
    detect_spurs,
    predict_spurs,
    psd,
    sinad_sfdr,
)
from .config import ChainConfig
from .formats import config_hash
from .harness import (
    DemodComparison,
    RunResult,
    SweepRow,
    builtin_scenarios,
    float_oracle,
    make_chain_config,
    persist,
    run_cordic_sweep,
    run_demod_compare,
    run_loopback,
)
