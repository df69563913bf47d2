"""Experiment scenarios over the generator + analyzer chain.

Digital loopback (generator output fed straight into the analyzer),
CORDIC bit/iteration sweeps, sine-vs-square demodulator comparison, and a
float oracle: the same chain run in double precision. Includes the named
desk- and full-scale configurations and deterministic persistence.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from ._version import __version__
from .analyzer import (
    AnalyzerConfig,
    DemodMode,
    IqTimeSeries,
    channelize,
    ddc_products,
)
from .config import _MIRRORED, ChainConfig
from .formats import (
    config_hash,
    config_to_dict,
    config_to_ini,
    series_to_binary,
    series_to_csv,
    spectrum_to_csv,
    spur_report_dict,
)
from .fxp import ConfigError
from .generator import (
    AMPLITUDE_FORMAT,
    FIXED_POINT,
    CordicConfig,
    DoublePrecision,
    FixedPoint,
    GeneratorConfig,
    ToneConfig,
    band_tone_sums,
    cordic_tone,
    default_freq_words,
    generate_comb,
    periodic_extend,
    waveform_period,
    windowed_sinc_taps,
)
from .metrics import (
    Spectrum,
    SpectrumWindow,
    SpurReport,
    _amp_phase,
    _periodogram,
    _periodogram_fac,
    detect_spurs,
    predict_spurs,
    sinad_sfdr,
)

SPUR_FLOOR_GUARD_REL = 1e-24  # floor_min = max(PSD) * this, guards zero floors


# ---------------------------------------------------------------------------
# configuration


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
        L_avg=L_avg,
        demod_mode=demod_mode,
        **{a_name: attrgetter(g_name)(gen) for a_name, g_name in _MIRRORED},
    )
    words = (
        list(freq_words)
        if freq_words is not None
        else default_freq_words(L_acc, tones_per_band)
    )
    amp_raw = int(math.floor((1 << AMPLITUDE_FORMAT.frac_bits) / tones_per_band + 0.5))
    tones = tuple(
        ToneConfig(b, t, words[t], amp_raw) for b in range(n_bands) for t in range(len(words))
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
    full_a/full_b are the full-scale variants gated behind --long-run.
    A fresh dict each call; the frozen configs are built once."""
    return dict(_builtin_scenarios())


@functools.cache
def _builtin_scenarios() -> dict[str, ChainConfig]:
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
# results


@dataclass(frozen=True)
class ToneResult:
    """One tone's measurement at pattern size. Its series of n_windows
    retained windows tiles pattern, its first min(n_pat, n_windows), and
    both spectra are functions of that pattern: each is derived on
    access and not cached, since a cache would hold the whole-run arrays."""

    pattern: IqTimeSeries
    n_windows: int
    amp_spurs: SpurReport
    phase_spurs: SpurReport
    carrier_power: float

    @property
    def series(self) -> IqTimeSeries:
        return _tiled(self.pattern, self.n_windows)

    @property
    def amp_spectrum(self) -> Spectrum:
        return _tone_spectra(self.pattern, self.n_windows)[1]

    @property
    def phase_spectrum(self) -> Spectrum:
        return _tone_spectra(self.pattern, self.n_windows)[2]


@dataclass(frozen=True)
class RunResult:
    scenario_name: str
    config_hash: str
    config: ChainConfig
    tones: tuple[ToneResult, ...]  # band-major, tone-minor
    wall_time_s: float
    throughput_sps: float  # simulated (effective) full-rate complex samples per second
    computed_sps: float  # full-rate complex samples actually computed per second
    engine: str
    engine_reason: str  # why _engine_plan chose the periodic or the direct path


# ---------------------------------------------------------------------------
# loopback engines


def _band_transient_len(cfg: ChainConfig) -> int:
    """Upper bound, in band samples, on the settling time of both chains."""
    u = cfg.generator.upsample_factor
    n_interp = len(cfg.generator.resolved_interp_filter().taps)
    n_chan = len(cfg.resolved_channelizer_filter().taps)
    return (n_interp + n_chan) // u + 2


# a time slice is at least this many overlaps long, so the overlap each
# slice recomputes stays within a quarter of its length
_MIN_SLICE_OVERLAPS = 4


def _subbands(
    cfg: ChainConfig,
    n_band: int,
    threads: int,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Generate n_band band samples of the comb and channelize every band
    that holds a tone, in arith. The chain is causal from sample 0, so a
    prefix of the result equals a shorter run.

    [0, n_band) is cut into k = min(threads, n_band // m) time slices (at
    least one), which run in a pool when k > 1 (overlap-save). Each slice
    starts its chain from zero filter state one overlap before its first
    sample and drops those outputs; _band_transient_len bounds the
    transient, and the overlap is that bound rounded up to the generator's
    phase_step. m is _MIN_SLICE_OVERLAPS overlaps, and every slice starts
    on a step multiple, so the bits do not depend on threads. The band
    tone sums are formed once per run."""
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    g, spec = cfg.generator, cfg.resolved_channelizer_filter()
    sums = band_tone_sums(g, cfg.tones, n_band, arith=arith)
    step = g.phase_step
    overlap = -(-_band_transient_len(cfg) // step) * step
    k = max(1, min(threads, n_band // (_MIN_SLICE_OVERLAPS * overlap)))
    edges = [i * (n_band // step) // k * step for i in range(k)] + [n_band]

    def one_slice(a: int, b: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        a0 = max(0, a - overlap)
        wideband = generate_comb(g, sums, b - a0, a0, arith=arith)
        return {
            band: tuple(s[a - a0 :] for s in channelize(wideband, band, g, spec, arith=arith))
            for band in sums
        }

    if k == 1:
        return one_slice(0, n_band)
    with ThreadPoolExecutor(max_workers=k) as ex:
        parts = list(ex.map(one_slice, edges[:-1], edges[1:]))
    return {
        band: tuple(np.concatenate([p[band][c] for p in parts]) for c in (0, 1))
        for band in sums
    }


def _engine_plan(cfg: ChainConfig, engine: str) -> tuple[bool, int, int, str]:
    """The engine rule of every loopback run: (periodic, band samples to
    generate, span, reason). Periodic generates one period plus the
    transient and tiles its last period, the span (see _span); tiling is
    exact once the warm-up covers the transient. Direct spans the whole
    run, a span that tiles the run once, so _tone_series treats both plans
    alike. "auto" also needs the period plus the transient to be shorter than
    the run and a period of at most 2^23 full-rate samples."""
    if engine not in ("auto", "periodic", "direct"):
        raise ConfigError("engine must be 'auto', 'periodic', or 'direct'")
    g, u = cfg.generator, cfg.generator.upsample_factor
    n_band_total = (cfg.acquisition_len + cfg.warmup_windows) * cfg.analyzer.L_avg
    p_band = waveform_period(g.L_acc, u, g.shifter_lut_len) // u
    transient = _band_transient_len(cfg)
    warmup = cfg.warmup_windows * cfg.analyzer.L_avg
    tiling = f"period {p_band} + transient {transient} band samples"
    checks = (
        (warmup >= transient, f"the {transient}-sample transient exceeds {warmup} warm-up samples"),
        (p_band + transient < n_band_total, f"{tiling} >= {n_band_total}"),
        (p_band * u <= 1 << 23, f"the period of {p_band * u} full-rate samples exceeds 2^23"),
    )
    failed = [why for ok, why in checks if not ok]
    if engine == "periodic" and warmup < transient:
        raise ConfigError(
            "periodic engine needs warmup_windows*L_avg to cover the filter "
            f"transient ({transient} band samples)"
        )
    if engine == "direct" or (engine == "auto" and failed):
        why = "direct requested" if engine == "direct" else "; ".join(failed)
        return False, n_band_total, n_band_total, why
    why = "periodic requested" if engine == "periodic" else f"{tiling} < {n_band_total}"
    return True, p_band + transient, p_band, f"{why} and the transient fits"


def _span(
    plan: tuple[bool, int, int, str], subband: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """The span of a subband (at least n_gen samples) that an _engine_plan
    demodulates, starting at phase 0 of the reference period. On the
    periodic plan, samples [n_gen - span, n_gen) are one steady-state
    period, each n_gen % span samples ahead of its phase: rolled back by
    that shift, they are the period from its start (overlap-save). The
    direct plan's span is the first n_gen samples."""
    _, n_gen, span, _ = plan
    last = tuple(s[n_gen - span : n_gen] for s in subband)
    shift = n_gen % span
    return tuple(np.roll(s, shift) for s in last) if shift else last


def _tone_series(
    cfg: ChainConfig,
    sub: tuple[np.ndarray, np.ndarray],
    tone: ToneConfig,
    mode: DemodMode,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> IqTimeSeries:
    """The pattern of one tone's retained accumulator outputs from its
    band's _span, in arith: the span, starting at phase 0 of the reference
    period, is demodulated and its window sums taken as a stream that
    tiles it. That stream repeats every n_pat = span / gcd(L_avg, span)
    windows, so only the warm-up and the first min(n_pat, acquisition_len)
    retained windows are formed; _tiled extends them to the run. On the
    direct plan the span is the whole run, and so is the pattern."""
    g, a, w = cfg.generator, cfg.analyzer, cfg.warmup_windows
    span = len(sub[0])
    n_pat = span // math.gcd(a.L_avg, span)
    ref = arith.reference(g.L_acc, tone.freq_word, span, g.cordic)
    yi, yq = ddc_products(sub, ref, mode)
    n = w + min(n_pat, cfg.acquisition_len)
    i, q = (arith.window_sums(y, a.L_avg, n) for y in (yi, yq))
    return IqTimeSeries(
        band_index=tone.band_index,
        tone_index=tone.tone_index,
        freq_word=tone.freq_word,
        i=i[w:],
        q=q[w:],
        rate_hz=a.fs_hz,
        l_avg=a.L_avg,
        demod_mode=mode,
    )


def _tiled(pattern: IqTimeSeries, n: int) -> IqTimeSeries:
    """The series of n windows that tiles pattern."""
    return replace(pattern, i=periodic_extend(pattern.i, n), q=periodic_extend(pattern.q, n))


def run_loopback(
    cfg: ChainConfig, engine: str = "auto", threads: int = 1
) -> RunResult:
    """Generate the comb, loop it straight into the analyzer, demodulate
    every tone, and compute amplitude/phase PSDs and spur reports.
    threads > 1 runs time slices of the comb and channelizer (see
    _subbands) and then the tones (DDC and every metric) in thread pools;
    the bits do not depend on it.

    engine: "direct" streams every sample; "periodic" computes one
    waveform period plus the filter transient and assembles accumulator
    outputs by tiling its last period, which the transient has passed
    (bit-identical to direct for all retained windows); "auto" picks
    periodic when it is both applicable and cheaper. _engine_plan holds
    the rule; the result's engine_reason says why.
    """
    return _loopback(cfg, engine, threads, FIXED_POINT)


def _loopback(
    cfg: ChainConfig, engine: str, threads: int, arith: FixedPoint | DoublePrecision
) -> RunResult:
    """The one driver of run_loopback and float_oracle: the engine plan,
    comb, channelizer, tone series and metrics, run in arith."""
    t0 = time.perf_counter()
    plan = _engine_plan(cfg, engine)
    use_periodic, n_gen, _, reason = plan
    g, a = cfg.generator, cfg.analyzer
    spans = {b: _span(plan, s) for b, s in _subbands(cfg, n_gen, threads, arith).items()}
    predicted = tuple(
        (f, "period-extension alias")
        for f, _ in predict_spurs(
            g.L_acc, g.upsample_factor, g.shifter_lut_len, a.L_avg, g.band_rate_hz
        )
    )

    def one_tone(tone: ToneConfig) -> ToneResult:
        # the DDC temporaries are freed before the metrics start
        pattern = _tone_series(cfg, spans[tone.band_index], tone, a.demod_mode, arith)
        return _tone_metrics(pattern, cfg.acquisition_len, predicted)

    ordered_tones = sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index))
    if threads > 1 and len(ordered_tones) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            tone_results = tuple(ex.map(one_tone, ordered_tones))
    else:
        tone_results = tuple(map(one_tone, ordered_tones))
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
        engine_reason=reason,
    )


def _tone_spectra(pattern: IqTimeSeries, n: int) -> tuple[float, Spectrum, Spectrum]:
    """The mean amplitude and the amplitude and phase PSDs of the series of
    n windows that tiles pattern, from one _amp_phase pass. Each
    periodogram input is its fluctuation pattern times the Rect window's
    constant scale, tiled: the same products as the whole series times the
    scale, built at pattern cost."""
    fs = pattern.rate_hz
    if np.any(pattern.i) or np.any(pattern.q):
        fac = _periodogram_fac(n, fs)
        _, _, mean_amp, xa, xp = _amp_phase(pattern.i, pattern.q, n, fac, overwrite=True)
    else:  # a silent tone: no fluctuation, and its spectra are exact zeros
        mean_amp, xa, xp = 0.0, np.zeros(n), np.zeros(n)
    amp, phase = (_periodogram(x, fs, SpectrumWindow.RECT) for x in (xa, xp))
    return mean_amp, amp, phase


def _tone_metrics(
    pattern: IqTimeSeries, n: int, predicted: tuple[tuple[float, str], ...]
) -> ToneResult:
    """The ToneResult of the series of n windows that tiles pattern: both
    spur reports and the carrier power, from spectra it then drops."""
    mean_amp, *specs = _tone_spectra(pattern, n)
    reports = []
    for spec in specs:
        floor_min = float(np.max(spec.values)) * SPUR_FLOOR_GUARD_REL
        rep = detect_spurs(spec, threshold_db=10.0, floor_min=floor_min)
        reports.append(SpurReport(rep.lines, rep.floor, predicted))
    return ToneResult(pattern, n, *reports, carrier_power=mean_amp**2)


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
        "cordic_sweep", 65536, 65536, 1, 1, 2, freq_words=[997]
    )


def run_cordic_sweep(
    bits: Sequence[int], iters: Sequence[int], base: ChainConfig | None = None
) -> list[SweepRow]:
    """Tone quality versus CORDIC sizing.

    For each (data_bits, iterations) pair, generates one coherent
    full-scale tone capture (L_acc samples, so the tone word is the
    fundamental bin) and measures SINAD and SFDR on the in-phase wave.
    Each sweep CORDIC keeps the base config's angle_bits (None: data_bits
    - 1 at each width) and guard_bits.
    """
    cfg = base if base is not None else default_sweep_config()
    g = cfg.generator
    word = cfg.tones[0].freq_word
    n = g.L_acc
    fund = word if word <= n // 2 else n - word
    rows = []
    for b in bits:
        for it in iters:
            cordic = replace(g.cordic, data_bits=b, iterations=it)
            ci, _ = cordic_tone(g.L_acc, word, n, cordic)
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
    g = cfg.generator
    plan = _engine_plan(cfg, "auto")
    skip = _band_transient_len(cfg)
    # the pre-accumulation spectra take the first n_pre samples of the run
    n_pre = max(4096, 4 * skip)
    subbands = _subbands(cfg, max(plan[1], n_pre), threads)
    spans = {b: _span(plan, s) for b, s in subbands.items()}
    ref_amp = float((1 << (g.cordic.data_bits - 1)) - 1)

    rows = []
    for tone in sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index)):
        pre = tuple(s[:n_pre] for s in subbands[tone.band_index])
        ref = cordic_tone(g.L_acc, tone.freq_word, n_pre, g.cordic)
        lines, series = [], []
        for mode in (DemodMode.SINE_DDC, DemodMode.SQUARE_WAVE):
            yi, yq = ddc_products(pre, ref, mode)
            lines.append(_spectral_line_count((yi + 1j * yq)[skip:], PRE_ACCUM_LINE_THRESHOLD_DB))
            pattern = _tone_series(cfg, spans[tone.band_index], tone, mode)
            series.append(_tiled(pattern, cfg.acquisition_len))
        m_sine, m_square = (complex(np.mean(s.complex_values())) for s in series)
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
                pre_lines_sine=lines[0],
                pre_lines_square=lines[1],
                post_residual_db_sine=_post_accum_residual_db(series[0]),
                post_residual_db_square=_post_accum_residual_db(series[1]),
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


# The ideal taps have the lengths of the quantized ones they are designed
# as, so _band_transient_len bounds the float chain's transient as well.
def _float_interp_taps(cfg: ChainConfig, quantize_interp: bool) -> np.ndarray:
    g = cfg.generator
    spec = g.resolved_interp_filter()
    if g.interp_filter is None and not quantize_interp:
        u = g.upsample_factor
        return windowed_sinc_taps(len(spec.taps), 1.0 / (2 * u), float(u))
    return spec.taps_array() / float(1 << spec.frac_bits)


def _float_chan_taps(cfg: ChainConfig) -> np.ndarray:
    spec = cfg.resolved_channelizer_filter()
    if cfg.analyzer.channelizer_filter is None:
        u = cfg.generator.upsample_factor
        return windowed_sinc_taps(len(spec.taps), 1.0 / (5 * u), 1.0)
    return spec.taps_array() / float(1 << spec.frac_bits)


def float_oracle(
    cfg: ChainConfig, quantize_interp: bool = False, engine: str = "auto"
) -> RunResult:
    """run_loopback in double precision: the same chain, engine rule and
    tone path in the DoublePrecision arithmetic, with exact exponentials
    and ideal filter taps.

    Separates structural effects (periodicity, aliasing, filter-stopband
    leakage) from quantization effects. quantize_interp swaps in the
    quantized interpolator taps (as floats) while the rest stays ideal.
    result.engine is "float"; engine_reason says which path ran. The
    phasor tables make the float chain exactly periodic, so the periodic
    path matches the direct one up to the convolutions' rounding."""
    arith = DoublePrecision(_float_interp_taps(cfg, quantize_interp), _float_chan_taps(cfg))
    res = _loopback(cfg, engine, 1, arith)
    return replace(res, scenario_name=cfg.scenario_name + "_float", engine="float")


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
    out = Path(out_dir)
    if out.exists():
        raise FileExistsError(f"output directory already exists: {out}")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-run-", dir=out.parent))
    try:
        def artifacts():
            yield "config.ini", config_to_ini(result.config).encode("utf-8")
            for tr in result.tones:
                p = tr.pattern
                stem = f"b{p.band_index:03d}_t{p.tone_index:03d}"
                s = tr.series
                yield f"series/{stem}.csv", series_to_csv(s).encode("utf-8")
                yield f"series/{stem}.bin", series_to_binary(s)
                del s  # freed before both spectra are derived, in one pass
                _, amp, phase = _tone_spectra(p, tr.n_windows)
                for kind, spec in (("amp", amp), ("phase", phase)):
                    yield f"spectra/{stem}_{kind}.csv", spectrum_to_csv(
                        spec, result.config_hash
                    ).encode("utf-8")
                spurs = {
                    "amp": spur_report_dict(tr.amp_spurs),
                    "phase": spur_report_dict(tr.phase_spurs),
                    "carrier_power": tr.carrier_power,
                }
                yield f"spurs/{stem}.json", json.dumps(
                    spurs, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")

        # written and hashed one at a time: only one encoded artifact is held
        digests: dict[str, str] = {}
        for rel, data in artifacts():
            p = tmp / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_bytes(data)
            digests[rel] = hashlib.sha256(data).hexdigest()
        manifest = {
            "package_version": __version__,
            "scenario_name": result.scenario_name,
            "engine": result.engine,
            "config_hash": result.config_hash,
            "config": config_to_dict(result.config),
            "files": dict(sorted(digests.items())),
        }
        (tmp / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.chmod(tmp, 0o755)
        os.replace(tmp, out)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return manifest
