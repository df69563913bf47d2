"""Experiment scenarios over the generator + analyzer chain.

Digital loopback (generator output fed straight into the analyzer),
CORDIC bit/iteration sweeps, sine-vs-square demodulator comparison, and a
float oracle: the same chain run in double precision. Includes the named
desk- and full-scale configurations and deterministic persistence.
"""

from __future__ import annotations

import contextlib
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
from typing import Callable, Sequence

import numpy as np

from ._version import __version__
from .analyzer import (
    AnalyzerConfig,
    DemodMode,
    IqTimeSeries,
    channelize,
    ddc_bank,
    ddc_products,
    reference_bank,
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
    Workspace,
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
        seed=1234,
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
        return _tone_spectra(self.pattern, self.n_windows)[1](0)

    @property
    def phase_spectrum(self) -> Spectrum:
        return _tone_spectra(self.pattern, self.n_windows)[1](1)


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
    predicted: tuple[float, ...]  # predict_spurs's alias frequencies, in Hz


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

# full-rate samples per time slice, the one working-set bound of the stream
# kernels, which each run over a whole slice: 256 KiB per int32 stream. A
# slice's comb and channelizer hold about 61 bytes of live arrays per sample
# on desk_a and 77 on full_a (67 on its band 0), whose 20-bit channelizer
# forms its LUT products in int64 (tracemalloc, one fresh Workspace): 3.8
# and 4.8 MiB at 2^16. The share of the host's L3 a guest gets varies with
# its neighbours, so a slice near its edge runs fast in one process and
# slow in the next. A direct desk_a run's comb and channelizer took 892,
# 786, 874 and 895 ms at 2^15 to 2^18 (medians of 8 alternating rounds, one
# thread), so the slice stays at 2^16
_SLICE_SAMPLES = 1 << 16


def _subbands(
    cfg: ChainConfig,
    start: int,
    stop: int,
    threads: int,
    arith: FixedPoint | DoublePrecision = FIXED_POINT,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Band samples [start, stop) of the comb run from sample 0,
    channelized for every band that holds a tone, in arith.

    [start, stop) is cut into k time slices of about _SLICE_SAMPLES
    full-rate samples each, and into at least min(threads, (stop - start)
    // m) of them, m being _MIN_SLICE_OVERLAPS overlaps; they run through
    the map of _pool(threads) (overlap-save). Each slice starts its chain
    from zero filter state one overlap of _band_transient_len samples
    before its first sample (or at sample 0), drops those outputs and
    writes the rest into the run's per-band arrays. Every LUT is read at
    the absolute sample, so the bits depend neither on threads nor on
    where a slice starts. Each band's tone sum is formed once per run, one
    band per task of the same map. The slices run in contiguous chunks,
    one per worker, each through one Workspace: the comb's and the
    channelizer's buffers are allocated once per worker, not per slice.
    The subbands are in arith's dtype."""
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    g, spec = cfg.generator, cfg.resolved_channelizer_filter()
    overlap, n = _band_transient_len(cfg), stop - start
    k = max(
        1,
        min(threads, n // (_MIN_SLICE_OVERLAPS * overlap)),
        -(-n * g.upsample_factor // _SLICE_SAMPLES),
    )
    edges = [start + i * n // k for i in range(k + 1)]
    chunks = _chunks(list(zip(edges[:-1], edges[1:])), threads)
    with _pool(threads) as run:
        sums = band_tone_sums(g, cfg.tones, arith=arith, run=run)
        out = {b: (np.empty(n, arith.dtype), np.empty(n, arith.dtype)) for b in sums}

        def slice_chunk(chunk: list[tuple[int, int]]) -> None:
            work = Workspace()
            for a, b in chunk:
                a0 = max(0, a - overlap)
                wideband = generate_comb(g, sums, b - a0, a0, arith=arith, work=work)
                for band, dst in out.items():
                    sub = channelize(wideband, band, g, spec, a0, arith=arith, work=work)
                    for d, s in zip(dst, sub):
                        d[a - start : b - start] = s[a - a0 :]

        for _ in run(slice_chunk, chunks):
            pass
    return out


def _engine_plan(cfg: ChainConfig, engine: str) -> tuple[bool, int, int, str]:
    """The engine rule of every loopback run: (periodic, start, span,
    reason), the run demodulating band samples [start, start + span).
    Direct spans the whole run. Periodic spans one period from the first
    multiple of the period at or past the transient: a steady-state
    period at phase 0 of every tone reference and of the windows, so it
    tiles the run and _band_series treats both plans alike. "auto" also
    needs the period plus the transient to be shorter than the run."""
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
    )
    failed = [why for ok, why in checks if not ok]
    if engine == "periodic" and warmup < transient:
        raise ConfigError(
            "periodic engine needs warmup_windows*L_avg to cover the filter "
            f"transient ({transient} band samples)"
        )
    if engine == "direct" or (engine == "auto" and failed):
        why = "direct requested" if engine == "direct" else "; ".join(failed)
        return False, 0, n_band_total, why
    why = "periodic requested" if engine == "periodic" else f"{tiling} < {n_band_total}"
    return True, -(-transient // p_band) * p_band, p_band, f"{why} and the transient fits"


def _band_series(
    cfg: ChainConfig,
    sub: tuple[np.ndarray, np.ndarray],
    tones: Sequence[ToneConfig],
    mode: DemodMode,
    arith: FixedPoint | DoublePrecision,
) -> list[IqTimeSeries]:
    """The pattern of each of a band's tones' retained accumulator outputs
    from the band's span, in arith: the span, starting at phase 0 of the
    reference period, is demodulated against the tones' stacked references
    and its window sums taken as a stream that tiles it (analyzer.ddc_bank),
    in float64 when the fixed-point products are exact there
    (ChainConfig.ddc_exact_in_float64). That stream repeats every
    n_pat = span / gcd(L_avg, span) windows, so only the warm-up and the
    first min(n_pat, acquisition_len) retained windows are formed; _tiled
    extends them to the run. On the direct plan the span is the whole run,
    and so is the pattern."""
    g, a, w = cfg.generator, cfg.analyzer, cfg.warmup_windows
    span = len(sub[0])
    n_pat = span // math.gcd(a.L_avg, span)
    n = w + min(n_pat, cfg.acquisition_len)
    table = arith.reference(g.L_acc, 1, g.cordic)  # every phase word
    dtype = np.float64 if cfg.ddc_exact_in_float64 else table[0].dtype
    bank = reference_bank(table, [t.freq_word for t in tones], mode, dtype)
    i, q = ddc_bank(sub, bank, a.L_avg, n, arith=arith)
    return [
        IqTimeSeries(
            band_index=t.band_index,
            tone_index=t.tone_index,
            freq_word=t.freq_word,
            i=i[k, w:],
            q=q[k, w:],
            rate_hz=g.band_rate_hz / a.L_avg,
            l_avg=a.L_avg,
            demod_mode=mode,
        )
        for k, t in enumerate(tones)
    ]


def _patterns(
    cfg: ChainConfig,
    spans: dict[int, tuple[np.ndarray, np.ndarray]],
    mode: DemodMode,
    arith: FixedPoint | DoublePrecision,
    run,
) -> list[IqTimeSeries]:
    """Every tone's pattern, band-major and tone-minor: each band's
    _band_series is one task of run, a map (_pool)."""
    by_band: dict[int, list[ToneConfig]] = {}
    for t in sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index)):
        by_band.setdefault(t.band_index, []).append(t)

    def one_band(b: int) -> list[IqTimeSeries]:
        return _band_series(cfg, spans[b], by_band[b], mode, arith)

    return [p for patterns in run(one_band, by_band) for p in patterns]


def _tiled(pattern: IqTimeSeries, n: int) -> IqTimeSeries:
    """The series of n windows that tiles pattern."""
    return replace(pattern, i=periodic_extend(pattern.i, n), q=periodic_extend(pattern.q, n))


def run_loopback(
    cfg: ChainConfig, engine: str = "auto", threads: int = 1
) -> RunResult:
    """Generate the comb, loop it straight into the analyzer, demodulate
    every tone, and compute amplitude/phase PSDs and spur reports.
    threads > 1 runs the band tone sums and the time slices of the comb
    and channelizer (see _subbands), then each band's DDC bank and then
    the tones' metrics, in contiguous chunks of tones, in thread pools; the
    bits do not depend on it.

    engine: "direct" streams every sample; "periodic" computes one
    steady-state waveform period past the filter transient and assembles
    accumulator outputs by tiling it (bit-identical to direct for all
    retained windows); "auto" picks periodic when it is both applicable
    and cheaper. _engine_plan holds the rule; the result's engine_reason
    says why.
    """
    return _loopback(cfg, engine, threads, FIXED_POINT)


def _loopback(
    cfg: ChainConfig, engine: str, threads: int, arith: FixedPoint | DoublePrecision
) -> RunResult:
    """The one driver of run_loopback and float_oracle: the engine plan,
    comb, channelizer, DDC banks and tone metrics, run in arith."""
    t0 = time.perf_counter()
    use_periodic, start, span, reason = _engine_plan(cfg, engine)
    g, a = cfg.generator, cfg.analyzer
    spans = _subbands(cfg, start, start + span, threads, arith)
    n = cfg.acquisition_len

    def tone_chunk(chunk: list[IqTimeSeries]) -> list[ToneResult]:
        work = _tone_workspace(n)
        return [_tone_metrics(pattern, n, work) for pattern in chunk]

    with _pool(threads) as run:
        patterns = _patterns(cfg, spans, a.demod_mode, arith, run)
        del spans
        chunks = _chunks(patterns, threads)
        tone_results = tuple(r for results in run(tone_chunk, chunks) for r in results)
    aliases = predict_spurs(
        g.L_acc, g.upsample_factor, g.shifter_lut_len, a.L_avg, g.band_rate_hz
    )
    wall = time.perf_counter() - t0
    return RunResult(
        scenario_name=cfg.scenario_name,
        config_hash=config_hash(cfg),
        config=cfg,
        tones=tone_results,
        wall_time_s=wall,
        throughput_sps=cfg.acquisition_len * a.L_avg * g.upsample_factor / wall,
        # the span and the lead-in its comb starts from
        computed_sps=(span + min(start, _band_transient_len(cfg))) * g.upsample_factor / wall,
        engine="periodic" if use_periodic else "direct",
        engine_reason=reason,
        predicted=tuple(f for f, _ in aliases),
    )


@contextlib.contextmanager
def _pool(threads: int):
    """The map that runs a stage's tasks: the map of a pool of `threads`
    workers when threads > 1, the builtin map on the calling thread
    otherwise."""
    if threads < 2:
        yield map
        return
    with ThreadPoolExecutor(max_workers=threads) as ex:
        yield ex.map


def _chunks(items: list, threads: int) -> list[list]:
    """items in min(threads, len(items)) contiguous chunks of near-equal
    length, in order: one per worker, each run through one workspace."""
    m = len(items)
    w = min(threads, m)
    return [items[i * m // w : (i + 1) * m // w] for i in range(w)]


def _tone_workspace(n: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """One worker's arrays for _tone_spectra on series of n windows: both
    tiled fluctuation series, and the rfft output and PSD values that each
    periodogram in turn writes over."""
    m = n // 2 + 1
    return (np.empty(n), np.empty(n)), (np.empty(m, np.complex128), np.empty(m))


def _tone_spectra(
    pattern: IqTimeSeries, n: int, work=None
) -> tuple[float, Callable[[int], Spectrum]]:
    """The mean amplitude of the series of n windows that tiles pattern,
    and psd, where psd(0) draws its amplitude PSD and psd(1) its phase PSD,
    each one periodogram, from one _amp_phase pass. Each periodogram input
    is its fluctuation pattern times the Rect window's constant scale,
    tiled: the same products as the whole series times the scale, built
    at pattern cost. With work (a _tone_workspace), every array is written
    into work's: a spectrum is valid only until the next is drawn or work
    is used again."""
    fs = pattern.rate_hz
    series_out, psd_work = (None, None) if work is None else work
    mean_amp, *xs = _amp_phase(pattern.i, pattern.q, n, _periodogram_fac(n, fs), series_out)
    return mean_amp, lambda k: _periodogram(xs[k], fs, SpectrumWindow.RECT, psd_work)


def _tone_metrics(pattern: IqTimeSeries, n: int, work=None) -> ToneResult:
    """The ToneResult of the series of n windows that tiles pattern: both
    spur reports and the carrier power, from spectra it then drops, in
    work's arrays if given (see _tone_spectra); the result holds none of
    them."""
    mean_amp, psd = _tone_spectra(pattern, n, work)
    # each report is made before the next spectrum overwrites work's arrays
    amp_spurs = detect_spurs(psd(0))
    return ToneResult(pattern, n, amp_spurs, detect_spurs(psd(1)), carrier_power=mean_amp**2)


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
    fund = min(word, g.L_acc - word)
    rows = []
    for b in bits:
        for it in iters:
            cordic = replace(g.cordic, data_bits=b, iterations=it)
            ci, _ = cordic_tone(g.L_acc, word, cordic)
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
    _, start, span, _ = _engine_plan(cfg, "auto")
    skip = _band_transient_len(cfg)
    # the pre-accumulation spectra take the interval's first n_pre samples:
    # it starts in steady state at phase 0, so past skip they are the run's
    n_pre = max(4096, 4 * skip)
    subbands = _subbands(cfg, start, start + max(span, n_pre), threads)
    spans = {b: tuple(x[:span] for x in s) for b, s in subbands.items()}
    ref_amp = float((1 << (g.cordic.data_bits - 1)) - 1)
    modes = (DemodMode.SINE_DDC, DemodMode.SQUARE_WAVE)
    with _pool(threads) as run:
        patterns = [_patterns(cfg, spans, mode, FIXED_POINT, run) for mode in modes]

    rows = []
    tones = sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index))
    for tone, *mode_patterns in zip(tones, *patterns):
        pre = tuple(s[:n_pre] for s in subbands[tone.band_index])
        ref = cordic_tone(g.L_acc, tone.freq_word, g.cordic)
        lines = [
            _spectral_line_count((yi + 1j * yq)[skip:], PRE_ACCUM_LINE_THRESHOLD_DB)
            for yi, yq in (ddc_products(pre, ref, mode) for mode in modes)
        ]
        series = [_tiled(p, cfg.acquisition_len) for p in mode_patterns]
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


def _float_taps(cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's interpolator and channelizer taps: a filter the config
    sets, as its quantized taps in floats; a default, as the ideal taps of
    the design it is quantized from. Either has the quantized filter's
    length, so _band_transient_len bounds the float chain's transient too."""
    g, a = cfg.generator, cfg.analyzer
    filters = (g.interp_filter, g.interp_design), (a.channelizer_filter, cfg.channelizer_design)
    return tuple(
        windowed_sinc_taps(*design) if spec is None else spec.taps_array() / 2.0**spec.frac_bits
        for spec, design in filters
    )


def float_oracle(cfg: ChainConfig, engine: str = "auto") -> RunResult:
    """run_loopback in double precision: the same chain, engine rule and
    tone path in the DoublePrecision arithmetic, with exact exponentials
    and ideal filter taps.

    Separates structural effects (periodicity, aliasing, filter-stopband
    leakage) from quantization effects. A filter the config sets runs on
    its quantized taps (as floats); a designed default, on its ideal taps.
    result.engine is "float"; engine_reason says which path ran. The
    phasor tables make the float chain exactly periodic, so the periodic
    path matches the direct one up to the convolutions' rounding."""
    arith = DoublePrecision(*_float_taps(cfg))
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
                _, psd = _tone_spectra(p, tr.n_windows)
                for k, kind in enumerate(("amp", "phase")):
                    yield f"spectra/{stem}_{kind}.csv", spectrum_to_csv(
                        psd(k), result.config_hash
                    ).encode("utf-8")
                spurs = {
                    "amp": spur_report_dict(tr.amp_spurs, result.predicted),
                    "phase": spur_report_dict(tr.phase_spurs, result.predicted),
                    "carrier_power": tr.carrier_power,
                }
                yield f"spurs/{stem}.json", json.dumps(
                    spurs, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")

        for sub in ("series", "spectra", "spurs"):
            (tmp / sub).mkdir()
        # written and hashed one at a time: only one encoded artifact is held
        digests: dict[str, str] = {}
        for rel, data in artifacts():
            (tmp / rel).write_bytes(data)
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
