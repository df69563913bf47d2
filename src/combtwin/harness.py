"""Experiment scenarios over the generator + analyzer chain.

Digital loopback (generator output fed straight into the analyzer),
CORDIC bit/iteration sweeps, sine-vs-square demodulator comparison, and a
double-precision oracle sharing the chain topology. Includes the named
desk- and full-scale configurations and deterministic persistence.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analyzer import (
    AnalyzerConfig,
    DemodMode,
    IqTimeSeries,
    channelize,
    ddc,
    ddc_products,
)
from .fxp import ConfigError, FxpValue
from .generator import (
    AMPLITUDE_FORMAT,
    CordicConfig,
    GeneratorConfig,
    ToneConfig,
    cordic_sincos_array,
    cordic_tone,
    default_freq_words,
    generate_comb,
    phase_words,
    polyphase_decimate,
    polyphase_interpolate,
    waveform_period,
)
from .metrics import (
    PsdMethod,
    Spectrum,
    SpectrumUnits,
    SpectrumWindow,
    SpurReport,
    amp_phase,
    detect_spurs,
    predict_spurs,
    psd,
)

SPUR_FLOOR_GUARD_REL = 1e-24  # floor_min = max(PSD) * this, guards zero floors


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ChainConfig:
    """One runnable scenario: exciter, analyzer, tone plan, and capture length.

    acquisition_len is the number of retained output samples per tone; the
    run generates (acquisition_len + warmup_windows) * L_avg band samples
    and discards the first warmup_windows accumulator outputs, which
    absorb the filter transients.
    """

    generator: GeneratorConfig
    analyzer: AnalyzerConfig
    tones: tuple[ToneConfig, ...]
    acquisition_len: int
    scenario_name: str = "custom"
    seed: int = 0
    warmup_windows: int = 1

    def __post_init__(self) -> None:
        if self.acquisition_len < 1:
            raise ConfigError("acquisition_len must be >= 1")
        if self.warmup_windows < 0:
            raise ConfigError("warmup_windows must be >= 0")
        if not self.tones:
            raise ConfigError("at least one tone must be configured")
        g, a = self.generator, self.analyzer
        if a.decim_to_band != g.upsample_factor:
            raise ConfigError("analyzer.decim_to_band must equal generator.upsample_factor")
        if a.n_bands != g.n_bands:
            raise ConfigError("analyzer.n_bands must equal generator.n_bands")
        if a.wide_width_bits != g.wide_width:
            raise ConfigError(
                f"analyzer.wide_width_bits {a.wide_width_bits} must equal the "
                f"generator wideband width {g.wide_width}"
            )
        if a.reference_bits != g.cordic.data_bits:
            raise ConfigError("analyzer.reference_bits must equal cordic data_bits")
        if a.band_rate_hz != g.band_rate_hz:
            raise ConfigError("analyzer and generator band rates must match")
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


def make_chain_config(
    scenario_name: str,
    L_acc: int,
    L_avg: int,
    n_bands: int,
    tones_per_band: int,
    acquisition_len: int,
    *,
    upsample_factor: int = 8,
    shifter_lut_len: int | None = None,
    cordic: CordicConfig | None = None,
    demod_mode: DemodMode = DemodMode.SINE_DDC,
    band_rate_hz: float = 250e6,
    freq_words: Sequence[int] | None = None,
    seed: int = 1234,
) -> ChainConfig:
    """Build a consistent ChainConfig: analyzer derived from the generator,
    default tone placement per band."""
    lut = shifter_lut_len if shifter_lut_len is not None else 5 * upsample_factor
    gen = GeneratorConfig(
        n_bands=n_bands,
        tones_per_band=tones_per_band,
        L_acc=L_acc,
        band_rate_hz=band_rate_hz,
        upsample_factor=upsample_factor,
        shifter_lut_len=lut,
        cordic=cordic if cordic is not None else CordicConfig(10, 10),
    )
    ana = AnalyzerConfig(
        decim_to_band=upsample_factor,
        L_avg=L_avg,
        demod_mode=demod_mode,
        n_bands=n_bands,
        band_rate_hz=band_rate_hz,
        wide_width_bits=gen.wide_width,
        reference_bits=gen.cordic.data_bits,
        shifter_lut_len=lut,
    )
    words = (
        list(freq_words)
        if freq_words is not None
        else default_freq_words(L_acc, tones_per_band)
    )
    amp_raw = int(math.floor((1 << AMPLITUDE_FORMAT.frac_bits) / tones_per_band + 0.5))
    tones = tuple(
        ToneConfig(
            band_index=b,
            tone_index=t,
            freq_word=words[t],
            amplitude_code=FxpValue(amp_raw, AMPLITUDE_FORMAT),
        )
        for b in range(n_bands)
        for t in range(len(words))
    )
    return ChainConfig(
        generator=gen,
        analyzer=ana,
        tones=tones,
        acquisition_len=acquisition_len,
        scenario_name=scenario_name,
        seed=seed,
    )


def builtin_scenarios() -> dict[str, ChainConfig]:
    """Named configurations. desk_a/desk_b carry the acceptance runs;
    full_a/full_b are the full-scale variants gated behind --long-run."""
    return {
        "desk_a": make_chain_config("desk_a", 1024, 1024, 2, 4, 2560),
        "desk_b": make_chain_config("desk_b", 1020, 1020, 2, 4, 2560),
        "full_a": make_chain_config("full_a", 65536, 65536, 10, 40, 655360),
        "full_b": make_chain_config("full_b", 65520, 65520, 10, 40, 655360),
        "demod_single": make_chain_config("demod_single", 1024, 1024, 1, 1, 160),
        "demod_two_tone": make_chain_config(
            "demod_two_tone", 1020, 1020, 1, 2, 160
        ),
    }


LONG_RUN_SCENARIOS = ("full_a", "full_b")


# ---------------------------------------------------------------------------
# config hashing


def config_hash(cfg: ChainConfig) -> str:
    from .formats import config_to_dict

    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ToneResult:
    series: IqTimeSeries
    amp_spectrum: Spectrum
    phase_spectrum: Spectrum
    amp_spurs: SpurReport
    phase_spurs: SpurReport
    carrier_power: float


@dataclass(frozen=True)
class RunResult:
    scenario_name: str
    config_hash: str
    config: "ChainConfig"
    tones: tuple[ToneResult, ...]  # band-major, tone-minor
    wall_time_s: float
    throughput_sps: float  # simulated (effective) full-rate complex samples per second
    computed_sps: float  # full-rate complex samples actually computed per second
    engine: str

    def tone(self, band_index: int, tone_index: int) -> ToneResult:
        for t in self.tones:
            s = t.series
            if s.band_index == band_index and s.tone_index == tone_index:
                return t
        raise KeyError((band_index, tone_index))


# ---------------------------------------------------------------------------
# loopback engines


def _band_transient_len(cfg: ChainConfig) -> int:
    """Upper bound, in band samples, on the chain's settling time."""
    u = cfg.generator.upsample_factor
    n_interp = len(cfg.generator.resolved_interp_filter().taps)
    n_chan = len(cfg.analyzer.resolved_channelizer_filter().taps)
    return (n_interp + n_chan) // u + 2


def _channelize_bands(
    cfg: ChainConfig,
    wideband: tuple[np.ndarray, np.ndarray],
    band_indices: Sequence[int],
    threads: int,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    def one(b: int):
        return b, channelize(wideband, b, cfg.analyzer)

    if threads > 1 and len(band_indices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return dict(ex.map(one, band_indices))
    return dict(one(b) for b in band_indices)


def _periodic_window_sums(
    y: np.ndarray, p_band: int, l_avg: int, n_windows: int
) -> np.ndarray:
    """Boxcar sums over a stream that is y (one exact period) tiled from
    absolute sample 0: window m covers [m*l_avg, (m+1)*l_avg)."""
    period_sum = int(y.sum())
    c = np.concatenate(([0], np.cumsum(np.concatenate((y, y)))))
    full, rem = divmod(l_avg, p_band)
    n_pat = p_band // math.gcd(l_avg, p_band)
    offsets = (np.arange(n_pat, dtype=np.int64) * l_avg) % p_band
    pattern = full * period_sum + (c[offsets + rem] - c[offsets])
    idx = np.arange(n_windows, dtype=np.int64) % n_pat
    return pattern[idx]


def run_loopback(
    cfg: ChainConfig, engine: str = "auto", threads: int = 1
) -> RunResult:
    """Generate the comb, loop it straight into the analyzer, demodulate
    every tone, and compute amplitude/phase PSDs and spur reports.

    engine: "direct" streams every sample; "periodic" computes k =
    ceil(transient/period) + 1 exact waveform periods and assembles
    accumulator outputs by tiling the last one, which the filter transient
    has passed (bit-identical to direct for all retained windows); "auto"
    picks periodic when it is both applicable and cheaper.
    """
    if engine not in ("auto", "periodic", "direct"):
        raise ConfigError("engine must be 'auto', 'periodic', or 'direct'")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    g, a = cfg.generator, cfg.analyzer
    t0 = time.perf_counter()
    n_windows = cfg.acquisition_len + cfg.warmup_windows
    n_band_total = n_windows * a.L_avg
    p_band = waveform_period(g.L_acc, g.upsample_factor, g.shifter_lut_len) // g.upsample_factor
    transient = _band_transient_len(cfg)
    n_periods = -(-transient // p_band) + 1

    transient_ok = cfg.warmup_windows * a.L_avg >= transient
    if engine == "periodic" and not transient_ok:
        raise ConfigError(
            "periodic engine needs warmup_windows*L_avg to cover the filter "
            f"transient ({transient} band samples)"
        )
    use_periodic = engine == "periodic" or (
        engine == "auto"
        and transient_ok
        and n_periods * p_band < n_band_total
        and p_band * g.upsample_factor <= 1 << 23
    )
    n_gen = n_periods * p_band if use_periodic else n_band_total

    wideband = generate_comb(g, cfg.tones, n_gen, threads)
    band_indices = sorted({t.band_index for t in cfg.tones})
    subbands = _channelize_bands(cfg, wideband, band_indices, threads)
    w = cfg.warmup_windows

    def one_tone(tone: ToneConfig) -> tuple[tuple[int, int], IqTimeSeries]:
        ref = cordic_tone(g.L_acc, tone.freq_word, n_gen, g.cordic)
        sub = subbands[tone.band_index]
        key = (tone.band_index, tone.tone_index)
        if not use_periodic:
            s = ddc(
                sub,
                ref,
                a.L_avg,
                a.demod_mode,
                band_index=tone.band_index,
                tone_index=tone.tone_index,
                freq_word=tone.freq_word,
                band_rate_hz=a.band_rate_hz,
            )
            return key, replace(s, i=s.i[w:], q=s.q[w:])
        yi, yq = ddc_products(sub, ref, a.demod_mode)
        return key, IqTimeSeries(
            band_index=tone.band_index,
            tone_index=tone.tone_index,
            freq_word=tone.freq_word,
            i=_periodic_window_sums(yi[-p_band:], p_band, a.L_avg, n_windows)[w:],
            q=_periodic_window_sums(yq[-p_band:], p_band, a.L_avg, n_windows)[w:],
            rate_hz=a.fs_hz,
            l_avg=a.L_avg,
            demod_mode=a.demod_mode,
        )

    ordered_tones = sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index))
    if threads > 1 and len(ordered_tones) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            series_map = dict(ex.map(one_tone, ordered_tones))
    else:
        series_map = dict(one_tone(t) for t in ordered_tones)

    predicted = tuple(
        (f, "period-extension alias")
        for f, _ in predict_spurs(
            g.L_acc, g.upsample_factor, g.shifter_lut_len, a.L_avg, a.band_rate_hz
        )
    )
    tone_results = tuple(
        _tone_metrics(series_map[(t.band_index, t.tone_index)], predicted)
        for t in ordered_tones
    )
    wall = time.perf_counter() - t0
    return RunResult(
        scenario_name=cfg.scenario_name,
        config_hash=config_hash(cfg),
        config=cfg,
        tones=tone_results,
        wall_time_s=wall,
        throughput_sps=cfg.acquisition_len * a.L_avg * g.upsample_factor / wall,
        computed_sps=n_gen * g.upsample_factor / wall,
        engine="periodic" if use_periodic else "direct",
    )


def _zero_spectrum(n: int, fs: float) -> Spectrum:
    return Spectrum(
        n_points=n,
        bin_hz=fs / n,
        values=np.zeros(n // 2 + 1),
        units=SpectrumUnits.LINEAR_PER_HZ,
        window=SpectrumWindow.RECT,
        method=PsdMethod.PERIODOGRAM,
    )


def _tone_metrics(
    series: IqTimeSeries, predicted: tuple[tuple[float, str], ...]
) -> ToneResult:
    n = len(series)
    fs = series.rate_hz
    all_zero = not (np.any(series.i) or np.any(series.q))
    if all_zero:
        zs = _zero_spectrum(n, fs)
        empty = SpurReport(lines=(), floor=0.0, predicted=predicted)
        return ToneResult(
            series=series,
            amp_spectrum=zs,
            phase_spectrum=zs,
            amp_spurs=empty,
            phase_spurs=empty,
            carrier_power=0.0,
        )
    ap = amp_phase(series)
    amp_spec = psd(ap.delta_amp, fs)
    phase_spec = psd(ap.delta_phase, fs)
    amp_rep = detect_spurs(
        amp_spec,
        threshold_db=10.0,
        floor_min=float(np.max(amp_spec.values)) * SPUR_FLOOR_GUARD_REL,
    )
    phase_rep = detect_spurs(
        phase_spec,
        threshold_db=10.0,
        floor_min=float(np.max(phase_spec.values)) * SPUR_FLOOR_GUARD_REL,
    )
    carrier = float(np.mean(ap.amp)) ** 2
    return ToneResult(
        series=series,
        amp_spectrum=amp_spec,
        phase_spectrum=phase_spec,
        amp_spurs=SpurReport(amp_rep.lines, amp_rep.floor, predicted),
        phase_spurs=SpurReport(phase_rep.lines, phase_rep.floor, predicted),
        carrier_power=carrier,
    )


# ---------------------------------------------------------------------------
# CORDIC sweep


@dataclass(frozen=True)
class SweepRow:
    data_bits: int
    iterations: int
    sinad_db: float
    sfdr_db: float


def default_sweep_config() -> ChainConfig:
    """Single coherent tone at full accumulator length for tone metrics."""
    return make_chain_config(
        "cordic_sweep", 65536, 65536, 1, 1, 1, freq_words=[997]
    )


def run_cordic_sweep(
    bits: Sequence[int], iters: Sequence[int], base: ChainConfig | None = None
) -> list[SweepRow]:
    """Tone quality versus CORDIC sizing.

    For each (data_bits, iterations) pair, generates one coherent
    full-scale tone capture (L_acc samples, so the tone word is the
    fundamental bin) and measures SINAD and SFDR on the in-phase wave.
    """
    from .metrics import sinad_sfdr

    cfg = base if base is not None else default_sweep_config()
    g = cfg.generator
    word = cfg.tones[0].freq_word
    n = g.L_acc
    rows = []
    for b in bits:
        for it in iters:
            cordic = CordicConfig(
                data_bits=b,
                iterations=it,
                angle_bits=None,
                guard_bits=g.cordic.guard_bits,
            )
            ph = phase_words(g.L_acc, word, n)
            ci, _ = cordic_sincos_array(ph, g.L_acc, cordic)
            fund = word if word <= n // 2 else n - word
            sinad, sfdr = sinad_sfdr(ci.astype(np.float64), fund)
            rows.append(SweepRow(b, it, sinad, sfdr))
    return rows


# ---------------------------------------------------------------------------
# demodulator comparison


@dataclass(frozen=True)
class DemodToneComparison:
    band_index: int
    tone_index: int
    freq_word: int
    mag_ratio: float  # |square| * ref_amp / |sine|, nominally 4/pi
    ratio_error: float  # mag_ratio / (4/pi) - 1
    phase_diff_rad: float
    pre_lines_sine: int
    pre_lines_square: int
    post_residual_db_sine: float  # max non-DC bin over median floor
    post_residual_db_square: float


@dataclass(frozen=True)
class DemodComparison:
    scenario_name: str
    config_hash: str
    tones: tuple[DemodToneComparison, ...]
    wall_time_s: float


PRE_ACCUM_LINE_THRESHOLD_DB = -40.0


def _spectral_line_count(z: np.ndarray, threshold_db: float) -> int:
    p = np.abs(np.fft.fft(z)) ** 2
    pmax = p.max()
    if pmax == 0.0:
        return 0
    return int(np.count_nonzero(p >= pmax * 10.0 ** (threshold_db / 10.0)))


def _post_accum_residual_db(series: IqTimeSeries) -> float:
    z = series.complex_values()
    z = z - z.mean()
    p = np.abs(np.fft.fft(z)) ** 2
    p = p[1:]  # DC carries the (removed) carrier remnant
    floor = float(np.median(p))
    peak = float(p.max())
    if peak == 0.0:
        return 0.0
    if floor == 0.0:
        return math.inf
    return 10.0 * math.log10(peak / floor)


def run_demod_compare(cfg: ChainConfig, threads: int = 1) -> DemodComparison:
    """Sine-DDC versus square-wave demodulation on identical input bits.

    Reports the per-tone magnitude ratio (normalized by the reference
    amplitude, nominally 4/pi), phase difference, pre-accumulation
    spectral line counts, and post-accumulation residual above the floor.
    """
    t0 = time.perf_counter()
    g, a = cfg.generator, cfg.analyzer
    cfg_sine = replace(
        cfg, analyzer=replace(a, demod_mode=DemodMode.SINE_DDC)
    )
    cfg_square = replace(
        cfg, analyzer=replace(a, demod_mode=DemodMode.SQUARE_WAVE)
    )
    res_sine = run_loopback(cfg_sine, threads=threads)
    res_square = run_loopback(cfg_square, threads=threads)

    # short direct re-run for the pre-accumulation product spectra
    n_pre = max(4096, 4 * _band_transient_len(cfg))
    wideband = generate_comb(g, cfg.tones, n_pre, threads)
    band_indices = sorted({t.band_index for t in cfg.tones})
    subbands = _channelize_bands(cfg, wideband, band_indices, threads)
    skip = _band_transient_len(cfg)
    ref_amp = float((1 << (g.cordic.data_bits - 1)) - 1)

    rows = []
    for tone in sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index)):
        ref = cordic_tone(g.L_acc, tone.freq_word, n_pre, g.cordic)
        sub = subbands[tone.band_index]
        pi_s, pq_s = ddc_products(sub, ref, DemodMode.SINE_DDC)
        pi_q, pq_q = ddc_products(sub, ref, DemodMode.SQUARE_WAVE)
        zs = (pi_s + 1j * pq_s)[skip:]
        zq = (pi_q + 1j * pq_q)[skip:]
        lines_sine = _spectral_line_count(zs, PRE_ACCUM_LINE_THRESHOLD_DB)
        lines_square = _spectral_line_count(zq, PRE_ACCUM_LINE_THRESHOLD_DB)

        key = (tone.band_index, tone.tone_index)
        s_sine = res_sine.tone(*key).series
        s_square = res_square.tone(*key).series
        m_sine = complex(np.mean(s_sine.complex_values()))
        m_square = complex(np.mean(s_square.complex_values()))
        mag_ratio = abs(m_square) * ref_amp / abs(m_sine) if m_sine != 0 else math.inf
        dphi = math.remainder(
            math.atan2(m_square.imag, m_square.real)
            - math.atan2(m_sine.imag, m_sine.real),
            2.0 * math.pi,
        )
        rows.append(
            DemodToneComparison(
                band_index=tone.band_index,
                tone_index=tone.tone_index,
                freq_word=tone.freq_word,
                mag_ratio=mag_ratio,
                ratio_error=mag_ratio / (4.0 / math.pi) - 1.0,
                phase_diff_rad=abs(dphi),
                pre_lines_sine=lines_sine,
                pre_lines_square=lines_square,
                post_residual_db_sine=_post_accum_residual_db(s_sine),
                post_residual_db_square=_post_accum_residual_db(s_square),
            )
        )
    return DemodComparison(
        scenario_name=cfg.scenario_name,
        config_hash=config_hash(cfg),
        tones=tuple(rows),
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# float oracle


def _float_interp_taps(cfg: ChainConfig, quantize_interp: bool) -> np.ndarray:
    g = cfg.generator
    if g.interp_filter is not None:
        spec = g.interp_filter
        return spec.taps_array() / float(1 << spec.shift)
    if quantize_interp:
        spec = g.resolved_interp_filter()
        return spec.taps_array() / float(1 << spec.shift)
    from .generator import windowed_sinc_taps

    return windowed_sinc_taps(
        63, 1.0 / (2 * g.upsample_factor), float(g.upsample_factor)
    )


def _float_chan_taps(cfg: ChainConfig) -> np.ndarray:
    a = cfg.analyzer
    if a.channelizer_filter is not None:
        spec = a.channelizer_filter
        return spec.taps_array() / float(1 << spec.shift)
    from .generator import windowed_sinc_taps

    return windowed_sinc_taps(127, 1.0 / (5 * a.decim_to_band), 1.0)


def _square_signs(ph: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact MSB signs of cos/sin(2 pi ph/L) from integer phase words
    (sign of an exact zero is +1)."""
    q = L // 4
    sc = np.where((ph <= q) | (ph >= 3 * q), 1.0, -1.0)
    ss = np.where(ph <= 2 * q, 1.0, -1.0)
    return sc, ss


def _mul_cyclic(x: np.ndarray, tab: np.ndarray) -> np.ndarray:
    """x[k] *= tab[k % len(tab)] in place, without building the tiled table."""
    m = len(x) - len(x) % len(tab)
    rows = x[:m].reshape(-1, len(tab))
    rows *= tab
    x[m:] *= tab[: len(x) - m]
    return x


def float_oracle(cfg: ChainConfig, quantize_interp: bool = False) -> RunResult:
    """The same chain topology in double precision with exact exponentials.

    Separates structural effects (periodicity, aliasing, filter-stopband
    leakage) from quantization effects. quantize_interp swaps in the
    quantized interpolator taps (as floats) while the rest stays ideal.
    """
    t0 = time.perf_counter()
    g, a = cfg.generator, cfg.analyzer
    u = g.upsample_factor
    n_windows = cfg.acquisition_len + cfg.warmup_windows
    n_band = n_windows * a.L_avg
    ref_amp = float((1 << (g.cordic.data_bits - 1)) - 1)
    h_interp = _float_interp_taps(cfg, quantize_interp)
    h_chan = _float_chan_taps(cfg)

    by_band: dict[int, list[ToneConfig]] = {}
    for t in cfg.tones:
        by_band.setdefault(t.band_index, []).append(t)

    # every exponential is evaluated once per distinct argument, reduced
    # modulo its period, and gathered or applied cyclically from that table,
    # so the float chain is exactly periodic (no ulp drift across the
    # acquisition)
    tone_tab = np.exp(2j * np.pi * np.arange(g.L_acc) / g.L_acc)
    fifth = np.arange(5)
    down_tab = np.exp(-2j * np.pi * fifth / 5.0)
    up_tab = np.exp(2j * np.pi * fifth / 5.0)

    def center_tabs(b: int) -> tuple[np.ndarray, np.ndarray]:
        frac = g.band_center_fraction(b)
        den = frac.denominator
        w_arg = (np.arange(den, dtype=np.int64) * frac.numerator) % den
        return np.exp(2j * np.pi * w_arg / den), np.exp(-2j * np.pi * w_arg / den)

    n_wide = n_band * u
    wide = np.zeros(n_wide, dtype=np.complex128)
    for b in sorted(by_band):
        band = np.zeros(n_band, dtype=np.complex128)
        for t in by_band[b]:
            ph = phase_words(g.L_acc, t.freq_word, n_band)
            amp = ref_amp * t.amplitude_code.to_float()
            band += amp * tone_tab[ph]
        band_w = polyphase_interpolate(_mul_cyclic(band, down_tab), h_interp, u)
        wide += _mul_cyclic(band_w, center_tabs(b)[0])
        del band_w  # one full-rate temporary at a time

    predicted = tuple(
        (f, "period-extension alias")
        for f, _ in predict_spurs(
            g.L_acc, u, g.shifter_lut_len, a.L_avg, a.band_rate_hz
        )
    )

    tone_results = []
    for b in sorted(by_band):
        mixed = _mul_cyclic(wide.copy(), center_tabs(b)[1])
        sub = _mul_cyclic(polyphase_decimate(mixed, h_chan, u), up_tab)
        del mixed  # one full-rate temporary at a time
        for tone in sorted(by_band[b], key=lambda t: t.tone_index):
            ph = phase_words(g.L_acc, tone.freq_word, n_band)
            if a.demod_mode is DemodMode.SINE_DDC:
                y = sub * np.conj(ref_amp * tone_tab[ph])
            else:
                sc, ss = _square_signs(ph, g.L_acc)
                y = sub * (sc - 1j * ss)
            nw = len(y) // a.L_avg
            sums = y[: nw * a.L_avg].reshape(nw, a.L_avg).sum(axis=1)
            sums = sums[cfg.warmup_windows :]
            series = IqTimeSeries(
                band_index=tone.band_index,
                tone_index=tone.tone_index,
                freq_word=tone.freq_word,
                i=sums.real.copy(),
                q=sums.imag.copy(),
                rate_hz=a.fs_hz,
                l_avg=a.L_avg,
                demod_mode=a.demod_mode,
                n_discarded=len(y) - nw * a.L_avg,
            )
            tone_results.append(_tone_metrics(series, predicted))

    wall = time.perf_counter() - t0
    return RunResult(
        scenario_name=cfg.scenario_name + "_float",
        config_hash=config_hash(cfg),
        config=cfg,
        tones=tuple(tone_results),
        wall_time_s=wall,
        throughput_sps=cfg.acquisition_len * a.L_avg * u / wall,
        computed_sps=n_wide / wall,
        engine="float",
    )


# ---------------------------------------------------------------------------
# persistence


def persist(result: RunResult, out_dir) -> dict:
    """Write per-tone I/Q files (CSV and binary), spectra CSVs, spur
    reports, the scenario config, and a manifest with per-file hashes.

    The directory appears atomically: files are staged in a temporary
    sibling and renamed into place, so a failed run leaves nothing.
    Reruns with equal config produce byte-identical payload files (wall
    time and throughput are reported on stdout only, never persisted).
    """
    import os
    import tempfile
    from pathlib import Path

    from . import __version__
    from . import formats

    out = Path(out_dir)
    if out.exists():
        raise FileExistsError(f"output directory already exists: {out}")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-run-", dir=out.parent))
    try:
        files: dict[str, bytes] = {}
        files["config.ini"] = formats.config_to_ini(result.config).encode("utf-8")
        for tr in result.tones:
            s = tr.series
            stem = f"b{s.band_index:03d}_t{s.tone_index:03d}"
            files[f"series/{stem}.csv"] = formats.series_to_csv(s).encode("utf-8")
            files[f"series/{stem}.bin"] = formats.series_to_binary(s)
            files[f"spectra/{stem}_amp.csv"] = formats.spectrum_to_csv(
                tr.amp_spectrum, result.config_hash
            ).encode("utf-8")
            files[f"spectra/{stem}_phase.csv"] = formats.spectrum_to_csv(
                tr.phase_spectrum, result.config_hash
            ).encode("utf-8")
            spurs = {
                "amp": json.loads(formats.spur_report_to_json(tr.amp_spurs)),
                "phase": json.loads(formats.spur_report_to_json(tr.phase_spurs)),
                "carrier_power": tr.carrier_power,
            }
            files[f"spurs/{stem}.json"] = json.dumps(
                spurs, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        for rel, data in files.items():
            p = tmp / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_bytes(data)
        manifest = {
            "package_version": __version__,
            "scenario_name": result.scenario_name,
            "engine": result.engine,
            "config_hash": result.config_hash,
            "config": formats.config_to_dict(result.config),
            "files": {rel: formats.sha256_hex(data) for rel, data in sorted(files.items())},
        }
        (tmp / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.chmod(tmp, 0o755)
        os.replace(tmp, out)
    except Exception:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return manifest
