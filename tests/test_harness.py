"""End-to-end loopback scenarios, sweeps, comparisons, oracles, persistence."""

import hashlib
import json
import math
import resource
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from combtwin import ConfigError, harness
from combtwin.analyzer import DemodMode, IqTimeSeries, channelize, ddc_products, reference_bank
from combtwin.config import ChainConfig
from combtwin.formats import config_from_ini, config_hash, config_to_dict
from combtwin.generator import (
    AMPLITUDE_FORMAT,
    FIXED_POINT,
    CordicConfig,
    DoublePrecision,
    FilterSpec,
    ToneConfig,
    Workspace,
    _cordic_table,
    band_sum,
    band_tone_sums,
    cordic_sincos_array,
    cordic_tone,
    generate_comb,
    lut_mix,
    periodic_extend,
    phase_words,
    tone_generate,
    upsample_interp,
    waveform_period,
)
from combtwin.harness import (
    LONG_RUN_SCENARIOS,
    PRE_ACCUM_LINE_THRESHOLD_DB,
    DemodToneComparison,
    ToneResult,
    builtin_scenarios,
    default_sweep_config,
    float_oracle,
    make_chain_config,
    persist,
    run_cordic_sweep,
    run_demod_compare,
    run_loopback,
    _band_transient_len,
    _engine_plan,
    _float_taps,
    _loopback,
    _MIN_SLICE_OVERLAPS,
    _SLICE_SAMPLES,
    _post_accum_residual_db,
    _spectral_line_count,
    _subbands,
    _tone_metrics,
    _tone_workspace,
)
from combtwin.metrics import (
    PsdMethod,
    Spectrum,
    SpectrumWindow,
    SpurReport,
    _rfft,
    detect_spurs,
    predict_spurs,
    sinad_sfdr,
)
from test_analyzer import elementwise_ddc_products, float_window_sums, prefix_window_sums
from test_metrics import _detect_spurs_loop, amp_phase_reference, assert_same_bits


@pytest.fixture(scope="module")
def desk_a_result():
    return run_loopback(builtin_scenarios()["desk_a"])


@pytest.fixture(scope="module")
def desk_b_result():
    return run_loopback(builtin_scenarios()["desk_b"])


# ---------------------------------------------------------------------------
# scenario catalog and config plumbing


def test_builtin_scenario_catalog():
    cfgs = builtin_scenarios()
    assert set(cfgs) == {
        "desk_a",
        "desk_b",
        "full_a",
        "full_b",
        "demod_single",
        "demod_two_tone",
    }
    assert set(LONG_RUN_SCENARIOS) == {"full_a", "full_b"}
    a = cfgs["desk_a"]
    assert a.generator.L_acc == a.analyzer.L_avg == 1024
    assert a.acquisition_len == 2560
    assert len(a.tones) == 8
    b = cfgs["desk_b"]
    assert b.generator.L_acc == b.analyzer.L_avg == 1020
    fa = cfgs["full_a"]
    assert fa.generator.L_acc == 65536
    assert fa.generator.n_bands == 10
    assert fa.generator.tones_per_band == 40
    assert fa.acquisition_len == 655_360
    assert builtin_scenarios()["full_b"].generator.L_acc == 65520


def test_builtin_scenarios_share_configs_in_fresh_dicts():
    first, second = builtin_scenarios(), builtin_scenarios()
    assert first == second and first is not second
    assert all(first[name] is second[name] for name in first)
    first["desk_a"] = first.pop("desk_b")
    first["extra"] = first["full_a"]
    third = builtin_scenarios()
    assert third == second and "extra" not in third
    assert third["desk_a"].scenario_name == "desk_a"


def test_config_hash_is_stable_and_discriminating():
    cfgs = builtin_scenarios()
    h1 = config_hash(cfgs["desk_a"])
    h2 = config_hash(builtin_scenarios()["desk_a"])
    assert h1 == h2
    assert len(h1) == 64
    assert h1 != config_hash(cfgs["desk_b"])
    bumped = replace(cfgs["desk_a"], seed=cfgs["desk_a"].seed + 1)
    assert config_hash(bumped) != h1


def test_make_chain_config_validation():
    cfg = builtin_scenarios()["desk_a"]
    with pytest.raises(ConfigError):
        replace(cfg, tones=cfg.tones + (cfg.tones[0],))  # duplicate tone id
    bad_band = ToneConfig(9, 0, 51, 8192)
    with pytest.raises(ConfigError):
        replace(cfg, tones=(bad_band,))
    # averaging length is settable independently of the accumulator modulus
    ok = replace(cfg, analyzer=replace(cfg.analyzer, L_avg=2048))
    assert ok.analyzer.L_avg == 2048
    with pytest.raises(ConfigError):
        replace(cfg, analyzer=replace(cfg.analyzer, decim_to_band=4))


@pytest.mark.parametrize("lut", [80, 120, 200])
def test_chain_config_rejects_an_analyzer_lut_unlike_the_generator_lut(lut):
    # every such LUT gives the same bits, but the config would hash apart
    cfg = builtin_scenarios()["desk_a"]
    with pytest.raises(
        ConfigError,
        match=f"analyzer.shifter_lut_len {lut} must equal generator.shifter_lut_len 40",
    ):
        replace(cfg, analyzer=replace(cfg.analyzer, shifter_lut_len=lut))


# ---------------------------------------------------------------------------
# loopback runs: spur structure


def tone_result(result, band_index, tone_index):
    """The ToneResult of one tone of a RunResult."""
    key = (band_index, tone_index)
    (t,) = (t for t in result.tones if (t.pattern.band_index, t.pattern.tone_index) == key)
    return t


def _spur_bins(result, kind="amp"):
    out = {}
    for t in result.tones:
        rep = t.amp_spurs if kind == "amp" else t.phase_spurs
        out[(t.series.band_index, t.series.tone_index)] = [l.bin for l in rep.lines]
    return out


def test_power_of_two_modulus_loopback_has_fifth_rate_lines(desk_a_result):
    m = 2560
    for kind in ("amp", "phase"):
        for key, bins in _spur_bins(desk_a_result, kind).items():
            assert bins == [m // 5, 2 * m // 5], (kind, key)


def test_power_of_two_modulus_lines_clear_floor_by_10db(desk_a_result):
    for t in desk_a_result.tones:
        for rep in (t.amp_spurs, t.phase_spurs):
            for line in rep.lines:
                assert line.level_db >= 10.0


def test_adjusted_modulus_loopback_is_clean(desk_b_result):
    for t in desk_b_result.tones:
        assert len(t.amp_spurs.lines) == 0
        assert len(t.phase_spurs.lines) == 0
        # series is exactly constant: every window sees the same bits
        assert np.all(t.series.i == t.series.i[0])
        assert np.all(t.series.q == t.series.q[0])


def test_adjusted_modulus_no_line_at_former_spur_bins(desk_b_result):
    m = 2560
    for t in desk_b_result.tones:
        vals = t.amp_spectrum.values
        floor = np.median(vals[1:])
        for b in (m // 5, 2 * m // 5):
            assert vals[b] <= floor * 10 ** (3 / 10) or vals[b] == 0.0


def test_loopback_attaches_predictions(desk_a_result, desk_b_result):
    fs = 250e6 / 1024
    assert desk_a_result.predicted == pytest.approx([fs / 5, 2 * fs / 5], rel=1e-12)
    assert desk_b_result.predicted == ()


def test_predicted_lines_appear_in_spectrum(desk_a_result):
    # consistency: each predicted alias maps to a detected bin
    m = 2560
    for t in desk_a_result.tones:
        fs = t.series.rate_hz
        detected = {l.bin for l in t.amp_spurs.lines}
        for freq in desk_a_result.predicted:
            assert round(freq / (fs / m)) in detected


def test_zero_amplitude_tones_give_silent_series():
    cfg = builtin_scenarios()["desk_a"]
    tones = tuple(replace(t, amplitude_raw=0) for t in cfg.tones)
    res = run_loopback(replace(cfg, tones=tones, acquisition_len=40))
    for t in res.tones:
        assert not t.series.i.any() and not t.series.q.any()
        assert len(t.amp_spurs.lines) == 0
        assert t.carrier_power == 0.0


def test_run_result_metadata(desk_a_result):
    assert desk_a_result.scenario_name == "desk_a"
    assert desk_a_result.engine == "periodic"
    assert desk_a_result.engine_reason == (
        "period 5120 + transient 25 band samples < 2622464 and the transient fits"
    )
    assert desk_a_result.config_hash == config_hash(desk_a_result.config)
    assert desk_a_result.wall_time_s > 0
    t = tone_result(desk_a_result, 1, 2)
    assert t.series.band_index == 1 and t.series.tone_index == 2
    assert len(t.series) == 2560


def test_throughput_counter(desk_a_result):
    # full-rate samples per second, sanity bound
    assert desk_a_result.throughput_sps >= 5e6


def test_computed_rate_counts_only_generated_samples(desk_a_result):
    # periodic: one period of 5120 band samples plus the 25-sample transient
    # computed for 2560 windows of 1024
    r = desk_a_result
    assert r.computed_sps / r.throughput_sps == pytest.approx((5120 + 25) / (2560 * 1024))
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=64)
    d = run_loopback(cfg, engine="direct")
    assert d.computed_sps / d.throughput_sps == pytest.approx((64 + 1) / 64)


def test_oracle_computed_rate_counts_only_generated_samples():
    # periodic: one period of 5120 band samples plus the 25-sample transient;
    # direct: all 64 + 1 windows of 1024
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=64)
    p = float_oracle(cfg, engine="periodic")
    assert p.computed_sps / p.throughput_sps == pytest.approx((5120 + 25) / (64 * 1024))
    d = float_oracle(cfg, engine="direct")
    assert d.computed_sps / d.throughput_sps == pytest.approx((64 + 1) / 64)


# ---------------------------------------------------------------------------
# engines and determinism


def test_periodic_engine_matches_direct():
    for name in ("desk_a", "desk_b"):
        cfg = replace(builtin_scenarios()[name], acquisition_len=64)
        rp = run_loopback(cfg, engine="periodic")
        rd = run_loopback(cfg, engine="direct")
        assert rp.engine == "periodic" and rd.engine == "direct"
        for tp, td in zip(rp.tones, rd.tones):
            assert np.array_equal(tp.series.i, td.series.i)
            assert np.array_equal(tp.series.q, td.series.q)


def tiny_chain():
    # period 40 band samples, filter transient 192: longer than the period
    cfg = make_chain_config(
        "tiny", 8, 8, 1, 1, 64, upsample_factor=1, shifter_lut_len=5, freq_words=[1]
    )
    return replace(cfg, warmup_windows=30)


def test_periodic_engine_tiles_a_period_past_the_transient():
    cfg = tiny_chain()
    auto = run_loopback(cfg, engine="auto")
    direct = run_loopback(cfg, engine="direct")
    assert auto.engine == "periodic"
    assert np.array_equal(auto.tones[0].series.i, direct.tones[0].series.i)
    assert np.array_equal(auto.tones[0].series.q, direct.tones[0].series.q)


@st.composite
def small_chains(draw):
    l_acc = 4 * draw(st.integers(2, 16))
    u = draw(st.sampled_from([1, 2, 4]))
    n_tones = draw(st.integers(1, 2))
    l_avg = draw(st.integers(4, 32))
    cfg = make_chain_config(
        "prop",
        l_acc,
        l_avg,
        draw(st.integers(1, 2)),
        n_tones,
        draw(st.integers(8, 48)),
        upsample_factor=u,
        shifter_lut_len=5 * u * draw(st.integers(1, 2)),
        demod_mode=draw(st.sampled_from(list(DemodMode))),
        freq_words=draw(
            st.lists(st.integers(0, l_acc - 1), min_size=n_tones, max_size=n_tones)
        ),
    )
    warmup = -(-_band_transient_len(cfg) // l_avg) + draw(st.integers(0, 2))
    return replace(cfg, warmup_windows=warmup)


def reshape_window_sums(y, l_avg, n_windows):
    """The boxcar of the former analyzer.ddc: the first n_windows whole
    windows of y, each summed from its own samples."""
    return y[: n_windows * l_avg].reshape(n_windows, l_avg).sum(axis=1)


def whole_run_series(cfg, tone):
    """A tone's retained window sums from the whole run, with no engine
    plan: the first n_total subband samples, their elementwise products
    with the reference tiled over the whole run, reshape sums, warm-up
    windows dropped."""
    g, a, w = cfg.generator, cfg.analyzer, cfg.warmup_windows
    n_windows = cfg.acquisition_len + w
    n_total = n_windows * a.L_avg
    sub = _subbands(cfg, 0, n_total, 1)[tone.band_index]
    tone_period = cordic_tone(g.L_acc, tone.freq_word, g.cordic)
    ref = tuple(periodic_extend(c, n_total) for c in tone_period)
    return tuple(
        reshape_window_sums(y, a.L_avg, n_windows)[w:]
        for y in elementwise_ddc_products(sub, ref, a.demod_mode)
    )


@settings(max_examples=40)
@given(small_chains())
def test_periodic_engine_equals_direct_on_random_chains(cfg):
    rp = run_loopback(cfg, engine="periodic")
    rd = run_loopback(cfg, engine="direct")
    tones = sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index))
    for tone, tp, td in zip(tones, rp.tones, rd.tones, strict=True):
        want_i, want_q = whole_run_series(cfg, tone)
        assert np.array_equal(td.series.i, want_i)
        assert np.array_equal(td.series.q, want_q)
        assert np.array_equal(tp.series.i, td.series.i)
        assert np.array_equal(tp.series.q, td.series.q)
        assert np.array_equal(tp.amp_spectrum.values, td.amp_spectrum.values)
        assert np.array_equal(tp.phase_spectrum.values, td.phase_spectrum.values)


def tone_series(cfg, sub, tone, mode, arith=FIXED_POINT):
    """harness._tone_series before the DDC bank, kept as the bank's oracle:
    one tone's ddc_products against one accumulator period of its
    reference, then the window sums of the product stream tiled from the
    span's start (prefix_window_sums in int64, float_window_sums in
    float64) for the warm-up and the first min(n_pat, acquisition_len)
    retained windows. Returns the retained (i, q)."""
    g, a, w = cfg.generator, cfg.analyzer, cfg.warmup_windows
    span = len(sub[0])
    n_pat = span // math.gcd(a.L_avg, span)
    n = w + min(n_pat, cfg.acquisition_len)
    y = ddc_products(sub, arith.reference(g.L_acc, tone.freq_word, g.cordic), mode)
    sums = prefix_window_sums if arith is FIXED_POINT else float_window_sums
    return tuple(sums(c, a.L_avg, n)[w:] for c in y)


def with_mode(cfg, mode):
    return replace(cfg, analyzer=replace(cfg.analyzer, demod_mode=mode))


def wrapping_chain():
    # L_acc 8 does not divide L_avg 12; the 40-sample period holds
    # n_pat = 10 windows, so the warm-up and pattern windows wrap its span
    cfg = make_chain_config(
        "wrap", 8, 12, 1, 2, 20, upsample_factor=1, shifter_lut_len=5, freq_words=[1, 3]
    )
    return replace(cfg, warmup_windows=-(-_band_transient_len(cfg) // 12))


def assert_bank_equals_tone_series(cfg, engine, threads, arith):
    """Both modes through _loopback against tone_series on the plan's
    span: int64 bit for bit, float64 within the rounding of the window sums
    at the chain's full scale (ref_amp^2 * L_avg)."""
    _, start, span, _ = _engine_plan(cfg, engine)
    spans = _subbands(cfg, start, start + span, 1, arith)
    ref_amp = float((1 << (cfg.generator.cordic.data_bits - 1)) - 1)
    full_scale = ref_amp**2 * cfg.analyzer.L_avg
    tones = sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index))
    for mode in DemodMode:
        c = with_mode(cfg, mode)
        got = _loopback(c, engine, threads, arith).tones
        for tone, tr in zip(tones, got, strict=True):
            want = tone_series(c, spans[tone.band_index], tone, mode, arith)
            for g, w in zip((tr.pattern.i, tr.pattern.q), want, strict=True):
                assert g.dtype == w.dtype and len(g) == len(w)
                if arith is FIXED_POINT:
                    assert g.tolist() == w.tolist()
                else:
                    assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), full_scale)


@settings(max_examples=40, deadline=None)
@given(small_chains(), st.sampled_from(["periodic", "direct"]), st.sampled_from([1, 3]))
@example(wrapping_chain(), "periodic", 3)
def test_ddc_bank_equals_the_per_tone_oracle(cfg, engine, threads):
    # L_avg 4-32 against L_acc 8-64, so L_acc often does not divide it, and
    # the periodic plan's windows wrap its span
    assert_bank_equals_tone_series(cfg, engine, threads, FIXED_POINT)
    assert_bank_equals_tone_series(cfg, engine, threads, DoublePrecision(*_float_taps(cfg)))


def need_chain(l_avg):
    # a 24-bit CORDIC and 2 bands of 2 tones: a 26-bit wideband stream and
    # 51-bit DDC products, so the accumulator need is 51 + ceil(log2 L_avg)
    cfg = make_chain_config(
        "need", 16, l_avg, 2, 2, 12,
        upsample_factor=2, shifter_lut_len=10, cordic=CordicConfig(24, 24),
    )
    return replace(cfg, warmup_windows=-(-_band_transient_len(cfg) // l_avg))


@pytest.mark.parametrize("l_avg, need, in_float64", [(4, 53, True), (5, 54, False), (8, 54, False)])
def test_ddc_bank_at_the_float64_bound_and_one_bit_past_it(l_avg, need, in_float64):
    # at 53 bits every partial sum is below 2^53 and the bank is float64;
    # one bit past it the same products run on an int64 bank
    cfg = need_chain(l_avg)
    assert cfg._accumulator_need == need
    assert cfg.ddc_exact_in_float64 is in_float64
    for engine in ("periodic", "direct"):
        with mock.patch("combtwin.harness.reference_bank", wraps=reference_bank) as bank:
            assert_bank_equals_tone_series(cfg, engine, 1, FIXED_POINT)
        want = np.float64 if in_float64 else np.int64
        assert {np.dtype(c.args[3]) for c in bank.call_args_list} == {np.dtype(want)}
    # the float arithmetic's bank is float64 on both sides of the bound
    with mock.patch("combtwin.harness.reference_bank", wraps=reference_bank) as bank:
        assert_bank_equals_tone_series(cfg, "direct", 1, DoublePrecision(*_float_taps(cfg)))
    assert {np.dtype(c.args[3]) for c in bank.call_args_list} == {np.dtype(np.float64)}


@st.composite
def coherent_chains(draw):
    """small_chains() with the capture made coherent: acquisition_len
    rounded up to a multiple of the series period n_pat = R / gcd(L_avg, R),
    R the waveform period in band samples, so every line falls on a bin."""
    cfg = draw(small_chains())
    g = cfg.generator
    r = waveform_period(g.L_acc, g.upsample_factor, g.shifter_lut_len) // g.upsample_factor
    n_pat = r // math.gcd(cfg.analyzer.L_avg, r)
    return replace(cfg, acquisition_len=-(-cfg.acquisition_len // n_pat) * n_pat)


def _r_divides_l_avg():
    # R = lcm(L_acc, lut / U) = 20 divides L_avg = 20: no residual lines at all
    cfg = make_chain_config(
        "prop", 20, 20, 1, 2, 10, upsample_factor=1, shifter_lut_len=5, freq_words=[3, 7]
    )
    return replace(cfg, warmup_windows=-(-_band_transient_len(cfg) // 20))


@settings(max_examples=100)
@given(coherent_chains())
@example(_r_divides_l_avg())
def test_amplitude_lines_lie_on_predicted_bins(cfg):
    # the amplitude half of the spur law over random chains; the phase half
    # waits on an explicit winding term (a tone that winds whole turns per
    # pattern leaks its phase ramp into unpredicted bins)
    g, a = cfg.generator, cfg.analyzer
    r = waveform_period(g.L_acc, g.upsample_factor, g.shifter_lut_len) // g.upsample_factor
    predicted = predict_spurs(g.L_acc, g.upsample_factor, g.shifter_lut_len, a.L_avg, 1.0)
    bin_hz = 1.0 / (a.L_avg * cfg.acquisition_len)
    assert all(abs(f / bin_hz - round(f / bin_hz)) < 1e-6 for f, _ in predicted)
    bins = {round(f / bin_hz) for f, _ in predicted}
    if a.L_avg % r == 0:
        assert bins == set()
    for t in run_loopback(cfg).tones:
        assert {line.bin for line in t.amp_spurs.lines} <= bins


def test_engine_auto_falls_back_to_direct_when_period_too_long():
    cfg = builtin_scenarios()["desk_a"]
    short = replace(cfg, acquisition_len=4)  # a period plus the transient exceeds the run
    res = run_loopback(short, engine="auto")
    assert res.engine == "direct"
    assert res.engine_reason == "period 5120 + transient 25 band samples >= 5120"
    cold = run_loopback(replace(cfg, acquisition_len=64, warmup_windows=0), engine="auto")
    assert cold.engine == "direct"
    assert cold.engine_reason == "the 25-sample transient exceeds 0 warm-up samples"
    # the float oracle follows the same rule
    assert float_oracle(short).engine_reason == res.engine_reason
    assert run_loopback(short, engine="direct").engine_reason == "direct requested"


def test_engine_auto_takes_a_period_of_over_2_pow_23_samples_that_tiles_the_run():
    # the plan only: the run would demodulate 10485760 band samples
    cfg = make_chain_config(
        "long", 1 << 21, 1024, 1, 1, 1 << 15, upsample_factor=1, shifter_lut_len=5
    )
    assert _engine_plan(cfg, "auto") == (
        True,
        10485760,
        10485760,
        "period 10485760 + transient 192 band samples < 33555456 and the transient fits",
    )


@pytest.mark.parametrize("run", [run_loopback, float_oracle, run_demod_compare])
def test_one_window_capture_is_refused_before_any_work(run):
    # building the config raises, so no run is handed one
    with mock.patch("combtwin.harness.generate_comb") as comb:
        with pytest.raises(ConfigError, match="acquisition_len 1 is too short"):
            run(replace(builtin_scenarios()["desk_a"], acquisition_len=1))
    comb.assert_not_called()
    with pytest.raises(ConfigError, match="acquisition_len 0 is too short"):
        replace(builtin_scenarios()["desk_a"], acquisition_len=0)


def test_engine_plan_span_is_the_tiled_period_or_the_whole_run():
    # (periodic, start, span): the period past desk_a's 25-sample transient
    cfg = builtin_scenarios()["desk_a"]
    p_band = waveform_period(1024, 8, 40) // 8
    n = (cfg.acquisition_len + cfg.warmup_windows) * cfg.analyzer.L_avg
    assert _engine_plan(cfg, "auto")[:3] == (True, p_band, p_band)
    assert _engine_plan(cfg, "periodic")[:3] == (True, p_band, p_band)
    assert _engine_plan(cfg, "direct")[:3] == (False, 0, n)
    short = replace(cfg, acquisition_len=4)
    assert _engine_plan(short, "auto")[:3] == (False, 0, 5 * 1024)
    # a 192-sample transient over a 40-sample period: the fifth period
    assert _engine_plan(tiny_chain(), "periodic")[:3] == (True, 200, 40)


@settings(max_examples=40)
@given(small_chains())
def test_periodic_plan_span_is_one_period_ending_the_run(cfg):
    g = cfg.generator
    p_band = waveform_period(g.L_acc, g.upsample_factor, g.shifter_lut_len) // g.upsample_factor
    periodic, start, span, _ = _engine_plan(cfg, "periodic")
    # the span is the first whole period past the transient, and ends the
    # samples the comb generates
    transient = _band_transient_len(cfg)
    assert periodic and span == p_band and start % p_band == 0
    assert start - p_band < transient <= start
    assert _engine_plan(cfg, "direct")[1:3] == (
        0, (cfg.acquisition_len + cfg.warmup_windows) * cfg.analyzer.L_avg
    )


def one_band_builtin(name):
    cfg = builtin_scenarios()[name]
    if name in LONG_RUN_SCENARIOS:  # one band of 40 tones
        cfg = replace(cfg, tones=tuple(t for t in cfg.tones if t.band_index == 0))
    return cfg


@pytest.mark.parametrize("name", [*sorted(builtin_scenarios()), "tiny"])
def test_rotated_span_equals_the_last_period_of_a_whole_period_run(name):
    # oracle: the last of k whole periods of a run from sample 0, which
    # starts at a multiple of p_band past the transient
    cfg = tiny_chain() if name == "tiny" else one_band_builtin(name)
    periodic, start, p_band, _ = _engine_plan(cfg, "periodic")
    assert periodic and start % p_band == 0
    transient = _band_transient_len(cfg)
    k = -(-transient // p_band) + 1
    assert start == (k - 1) * p_band
    if name == "tiny":
        assert (p_band, transient, k) == (40, 192, 6)
    whole = _subbands(cfg, 0, k * p_band, 1)
    got = _subbands(cfg, start, start + p_band, 1)
    assert sorted(got) == sorted(whole)
    for b in whole:
        for g, s in zip(got[b], whole[b], strict=True):
            assert g.dtype == s.dtype == np.int32
            assert np.array_equal(g, s[start:])


@settings(max_examples=40, deadline=None)
@given(small_chains())
@example(tiny_chain())
def test_periodic_interval_equals_both_periods_of_a_whole_run(cfg):
    # oracle: one slice from sample 0 through two periods past the start;
    # the interval is cut into time slices at 2 and 3 threads
    periodic, start, p_band, _ = _engine_plan(cfg, "periodic")
    assert periodic
    whole = _subbands(cfg, 0, start + 2 * p_band, 1)
    for threads in (1, 2, 3):
        got = _subbands(cfg, start, start + p_band, threads)
        assert sorted(got) == sorted(whole)
        for b in whole:
            for g, s in zip(got[b], whole[b], strict=True):
                assert g.dtype == s.dtype == np.int32
                assert np.array_equal(g, s[start : start + p_band])
                assert np.array_equal(g, s[start + p_band :])


class ReferenceTone(NamedTuple):
    """A tone result that holds its whole series and both spectra, as
    ToneResult did before it kept only the pattern."""

    series: IqTimeSeries
    amp_spectrum: Spectrum
    phase_spectrum: Spectrum
    amp_spurs: SpurReport
    phase_spurs: SpurReport
    carrier_power: float


def tone_metrics_reference(series):
    """_tone_metrics before it ran on the pattern, spelled out: amplitude
    and phase over the whole series, scipy's periodogram of each
    fluctuation series, the bin-loop spur detector and the carrier from the
    mean amplitude of the whole series."""
    n, fs = len(series), series.rate_hz

    def spectrum(values):
        return Spectrum(
            n_points=n,
            bin_hz=fs / n,
            values=values,
            window=SpectrumWindow.RECT,
            method=PsdMethod.PERIODOGRAM,
        )

    if not (np.any(series.i) or np.any(series.q)):
        zeros = spectrum(np.zeros(n // 2 + 1))
        empty = SpurReport(lines=(), floor=0.0)
        return ReferenceTone(series, zeros, zeros, empty, empty, 0.0)
    amp, _, delta_amp, delta_phase = amp_phase_reference(series.i, series.q)
    spectra, reports = [], []
    for delta in (delta_amp, delta_phase):
        _, pxx = signal.periodogram(
            delta, fs=fs, window="boxcar", detrend=False, scaling="density"
        )
        spec = spectrum(pxx)
        spectra.append(spec)
        reports.append(SpurReport(*_detect_spurs_loop(spec)))
    return ReferenceTone(series, *spectra, *reports, float(np.mean(amp)) ** 2)


def assert_same_tone(got, want):
    """Series, both spectra, both spur reports and carrier power, bit for bit."""
    arrays = [
        (t.series.i, t.series.q, t.amp_spectrum.values, t.phase_spectrum.values)
        for t in (got, want)
    ]
    assert_same_bits(*arrays)
    # the spectra's other fields
    meta = [
        [{k: v for k, v in vars(s).items() if k != "values"} for s in spectra]
        for spectra in ((t.amp_spectrum, t.phase_spectrum) for t in (got, want))
    ]
    assert meta[0] == meta[1]
    assert repr((got.amp_spurs, got.phase_spurs)) == repr((want.amp_spurs, want.phase_spurs))
    assert float(got.carrier_power).hex() == float(want.carrier_power).hex()


@settings(max_examples=40)
@given(small_chains())
def test_tone_metrics_on_the_pattern_equal_the_whole_series_path(cfg):
    rp = run_loopback(cfg, engine="periodic")
    rd = run_loopback(cfg, engine="direct")
    for tp, td in zip(rp.tones, rd.tones, strict=True):
        assert_same_tone(tp, tone_metrics_reference(td.series))


def test_tone_metrics_on_a_winding_pattern_equal_the_whole_series_path():
    # the demodulated phasor winds two whole turns per 5-window pattern
    cfg = make_chain_config(
        "winding", 20, 4, 1, 1, 15, upsample_factor=2, shifter_lut_len=10, freq_words=[12]
    )
    cfg = replace(cfg, warmup_windows=25)
    (tp,) = run_loopback(cfg, engine="periodic").tones
    (td,) = run_loopback(cfg, engine="direct").tones
    p = np.arctan2(tp.series.q[:5], tp.series.i[:5])
    assert not np.all(np.abs(np.diff(p, append=p[:1])) < np.pi)  # the tiled unwrap runs
    assert_same_tone(tp, tone_metrics_reference(td.series))


@pytest.mark.parametrize(
    "i, q, n",
    [
        (np.array([700]), np.array([-300]), 40),  # constant, n_pat = 1
        (np.array([1000.0]), np.array([-0.0]), 41),  # constant on a signed zero
        (np.array([-500, -500, -500, -500]), np.array([3, -3, 2, -1]), 43),  # crosses +-pi
        # fluctuations that are exactly zero: amplitude and phase, amplitude
        # only, phase only (as on full_b), and a silent series
        (np.array([700]), np.array([0]), 40),
        (np.array([-3, 4, 0]), np.array([4, 3, -5]), 42),
        (np.array([1, 2, 3, 4, 5]), np.array([0, 0, 0, 0, 0]), 45),
        (np.array([0, 0]), np.array([0, 0]), 40),
    ],
)
def test_tone_metrics_on_constant_and_pi_crossing_patterns(i, q, n):
    k = np.arange(n) % len(i)
    pattern = IqTimeSeries(0, 0, 1, i, q, 1e5, 4, DemodMode.SINE_DDC)
    series = replace(pattern, i=i[k], q=q[k])
    with mock.patch("combtwin.metrics._rfft", wraps=_rfft) as rfft:
        got = _tone_metrics(pattern, n)
    # an FFT of zeros is never taken
    assert rfft.call_count == sum(np.any(s.values) for s in (got.amp_spectrum, got.phase_spectrum))
    assert_same_tone(got, tone_metrics_reference(series))


def test_one_workspace_serves_a_run_of_tones_as_fresh_arrays_do(desk_a_result):
    # a fluctuating desk_a tone, a silent one, one that crosses +-pi (the
    # tiled unwrap runs), then the first again, all through one workspace
    first = desk_a_result.tones[0]
    n = first.n_windows
    silent = replace(first.pattern, i=np.zeros(3), q=np.zeros(3))
    crossing = replace(
        first.pattern, i=np.array([-500.0, -500, -500, -500]), q=np.array([3.0, -3, 2, -1])
    )
    p = np.arctan2(crossing.q, crossing.i)
    assert not np.all(np.abs(np.diff(p, append=p[:1])) < np.pi)
    assert first.amp_spurs.lines and first.phase_spurs.lines
    work = _tone_workspace(n)
    got = [_tone_metrics(pat, n, work) for pat in (first.pattern, silent, crossing, first.pattern)]
    assert got[1].carrier_power == 0.0
    for g in got:
        want = _tone_metrics(g.pattern, n)
        assert_same_tone(g, want)
        assert repr(g) == repr(want)
    # a result's spectra are its own fresh arrays
    values = [g.amp_spectrum.values for g in got]
    for k, v in enumerate(values):
        assert not any(np.shares_memory(v, w) for pair in work for w in pair)
        assert not any(np.shares_memory(v, u) for u in values[k + 1 :])


def test_each_spectrum_property_takes_one_fft(desk_a_result):
    # a desk_a tone fluctuates in amplitude and phase, so each PSD is one
    # rfft: reading the phase spectrum forms no amplitude spectrum
    tone = desk_a_result.tones[0]
    assert tone.amp_spurs.lines and tone.phase_spurs.lines
    for kind in ("amp", "phase"):
        with mock.patch("combtwin.metrics._rfft", wraps=_rfft) as rfft:
            spec = getattr(tone, f"{kind}_spectrum")
        assert rfft.call_count == 1, kind
        assert detect_spurs(spec) == getattr(tone, f"{kind}_spurs")


def test_tone_results_hold_the_same_pattern_at_any_run_length():
    # desk_a's two bands of four tones: every series tiles n_pat = 5
    # windows, so what a result retains does not grow with the run
    base = builtin_scenarios()["desk_a"]
    runs = [run_loopback(replace(base, acquisition_len=acq), engine="periodic") for acq in (40, 400)]
    for res, acq in zip(runs, (40, 400)):
        assert res.engine == "periodic" and len(res.tones) == 8
        for t in res.tones:
            assert type(t) is ToneResult and t.n_windows == len(t.series) == acq
    nbytes = [sum(t.pattern.i.nbytes + t.pattern.q.nbytes for t in r.tones) for r in runs]
    assert nbytes[0] == nbytes[1] == 8 * 2 * 5 * 8
    for ta, tb in zip(*(r.tones for r in runs)):
        assert_same_bits((ta.pattern.i, ta.pattern.q), (tb.pattern.i, tb.pattern.q))


def periodic_window_sums_reference(y, p_band, l_avg, n_windows):
    """Prefix sums over two periods and a modulo gather: the window sums of
    y tiled from sample 0, kept as an oracle for prefix_window_sums."""
    period_sum = int(y.sum())
    c = np.concatenate(([0], np.cumsum(np.concatenate((y, y)))))
    full, rem = divmod(l_avg, p_band)
    n_pat = p_band // math.gcd(l_avg, p_band)
    offsets = (np.arange(n_pat, dtype=np.int64) * l_avg) % p_band
    pattern = full * period_sum + (c[offsets + rem] - c[offsets])
    idx = np.arange(n_windows, dtype=np.int64) % n_pat
    return pattern[idx]


def exact_window_sums(y, l_avg, n_windows):
    """y tiled from sample 0 and reshape-summed in Python ints (object
    dtype), which never wrap."""
    tiled = y.astype(object)[np.arange(n_windows * l_avg) % len(y)]
    return reshape_window_sums(tiled, l_avg, n_windows)


@st.composite
def window_sum_cases(draw):
    p_band = draw(st.integers(1, 120))
    divisors = [d for d in range(1, p_band + 1) if p_band % d == 0]
    l_avg = draw(
        st.one_of(
            st.sampled_from(divisors),  # divides p_band
            st.integers(1, 4).map(lambda k: k * p_band),  # a multiple
            st.integers(1, 4 * p_band + 7),  # below or above, coprime or not
        )
    )
    # up to 2^62 / l_avg every window sum fits int64 while the prefix sums
    # of the tiled stream can wrap, soonest when every value is >= 0
    bound = draw(st.sampled_from([1 << 31, (1 << 62) // l_avg]))
    low = draw(st.sampled_from([-bound, 0]))
    y = np.array(
        draw(st.lists(st.integers(low, bound), min_size=p_band, max_size=p_band)),
        dtype=np.int64,
    )
    return y, p_band, l_avg, draw(st.integers(1, 400))


@settings(max_examples=200)
@given(window_sum_cases())
def test_periodic_window_sums_equal_the_two_period_reference(case):
    # the window sums of tone_series, the oracle of the DDC bank, and the
    # bank's accumulators, which take them over rows of block sums
    y, p_band, l_avg, n_windows = case
    got = prefix_window_sums(y, l_avg, n_windows)
    want = periodic_window_sums_reference(y, p_band, l_avg, n_windows)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert got.tolist() == exact_window_sums(y, l_avg, n_windows).tolist()
    rows = np.stack((y, y[::-1], np.roll(y, 1)))
    sums = FIXED_POINT.accumulate(rows, l_avg, n_windows)
    assert sums.dtype == np.int64
    assert sums.tolist() == [exact_window_sums(r, l_avg, n_windows).tolist() for r in rows]
    # the float sums, with n_windows well past n_pat: every window is
    # summed from its own samples, so window m repeats window m - n_pat bit
    # for bit; y / 3 makes sums that round, so the order of their terms shows
    y, rows = y / 3.0, rows / 3.0
    got = float_window_sums(y, l_avg, n_windows)
    tiled = y[np.arange(n_windows * l_avg) % p_band]
    assert_same_bits((got,), (reshape_window_sums(tiled, l_avg, n_windows),))
    n_pat = p_band // math.gcd(l_avg, p_band)
    assert_same_bits((got[n_pat:],), (got[: max(n_windows - n_pat, 0)],))
    sums = DoublePrecision(np.ones(1), np.ones(1)).accumulate(rows, l_avg, n_windows)
    for row, r in zip(sums, rows, strict=True):
        want = float_window_sums(r, l_avg, n_windows)
        assert np.all(np.abs(row - want) <= 1e-12 * float_window_sums(np.abs(r), l_avg, n_windows))
    assert_same_bits((sums[:, n_pat:],), (sums[:, : max(n_windows - n_pat, 0)],))


def test_thread_count_does_not_change_bits():
    # the tone pool runs the DDC and every metric, so compare all of them;
    # one band at 3 threads cuts the comb into 3 time slices
    desk = replace(builtin_scenarios()["desk_a"], acquisition_len=160)
    one_band = replace(desk, tones=tuple(t for t in desk.tones if t.band_index == 0))
    cases = [(cfg, engine, used, threads)
             for cfg, threads in ((desk, (1, 2, 4)), (one_band, (1, 3)))
             for engine, used in (("auto", "periodic"), ("direct", "direct"))]
    for cfg, engine, used, threads in cases:
        runs = [run_loopback(cfg, engine=engine, threads=t) for t in threads]
        base = runs[0]
        assert base.engine == used
        for other in runs[1:]:
            assert other.config_hash == base.config_hash
            assert other.engine == used
            assert len(other.tones) == len(base.tones) == len(cfg.tones)
            for ta, tb in zip(base.tones, other.tones):
                assert np.array_equal(ta.series.i, tb.series.i)
                assert np.array_equal(ta.series.q, tb.series.q)
                assert np.array_equal(ta.amp_spectrum.values, tb.amp_spectrum.values)
                assert np.array_equal(ta.phase_spectrum.values, tb.phase_spectrum.values)
                assert ta.amp_spurs == tb.amp_spurs
                assert ta.phase_spurs == tb.phase_spurs
                assert ta.carrier_power == tb.carrier_power


def unsliced_subbands(cfg, stop, arith):
    """Band samples [0, stop) of every toned band, from one unsliced chain:
    band_tone_sums, generate_comb and channelize from sample 0."""
    g = cfg.generator
    sums = band_tone_sums(g, cfg.tones, arith=arith)
    wideband = generate_comb(g, sums, stop, arith=arith)
    spec = cfg.resolved_channelizer_filter()
    return {b: channelize(wideband, b, g, spec, arith=arith) for b in sums}


def int64_generate_comb(g, tone_sums, n, start=0):
    """generate_comb before its streams were int32 and its stages wrote into
    a workspace, kept as the oracle: each band's int64 stages in fresh
    arrays (int64 LUT products), summed by band_sum."""

    def one_band(b, band):
        band = tuple(periodic_extend(s.astype(np.int64), n, start=start) for s in band)
        w = g.resolved_sum_width
        band = upsample_interp(lut_mix(band, 5, 1, w, -1, start), g)
        return lut_mix(band, g.shifter_lut_len, g.band_shift_cycles(b), w, +1, start * g.upsample_factor)

    return band_sum((one_band(b, band) for b, band in sorted(tone_sums.items())), g.wide_width)


def int64_channelize(wideband, band_index, g, spec, start=0):
    """channelize before its streams were int32, kept as the oracle: int64
    stages in fresh arrays."""
    w, u = g.wide_width, g.upsample_factor
    mixed = lut_mix(wideband, g.shifter_lut_len, g.band_shift_cycles(band_index), w, -1, start * u)
    return lut_mix(FIXED_POINT.decimate(mixed, spec, u, w), 5, 1, w, +1, start)


def wide_chain(cfg, w):
    """cfg with band sums of w bits and CORDIC tones of w - 1 bits, so that
    the streams reach their formats' edges."""
    cordic = CordicConfig(w - 1, 10)
    g = replace(cfg.generator, sum_width_bits=w, cordic=cordic)
    a = replace(cfg.analyzer, wide_width_bits=g.wide_width, reference_bits=cordic.data_bits)
    return replace(cfg, generator=g, analyzer=a)


@settings(max_examples=30, deadline=None)
@given(small_chains(), st.data())
def test_int32_streams_equal_the_int64_chain(cfg, data):
    # band sums of 15 to 17 bits put the LUT mixes on both sides of the
    # int32 product bound (mix_dtype), the channelizer's one bit or more
    # wider. Two slices of any start and length run through one workspace,
    # the second reusing the first's buffers: the comb and every band's
    # channelizer output equal the int64 chain's bits
    for w in (15, 16, 17):
        c = wide_chain(cfg, w)
        g, spec = c.generator, c.resolved_channelizer_filter()
        sums = band_tone_sums(g, c.tones)
        work = Workspace()
        for _ in range(2):
            start = data.draw(st.integers(0, 3 * g.L_acc * g.shifter_lut_len))
            n = data.draw(st.integers(1, 3 * _band_transient_len(c)) | st.integers(1, 2000))
            want = int64_generate_comb(g, sums, n, start)
            got = generate_comb(g, sums, n, start, work=work)
            for x, y in zip(got, want, strict=True):
                assert x.dtype == np.int32 and y.dtype == np.int64
                assert np.array_equal(x, y)
            for b in sums:
                ref = int64_channelize(want, b, g, spec, start)
                for x, y in zip(channelize(got, b, g, spec, start, work=work), ref, strict=True):
                    assert x.dtype == np.int32 and y.dtype == np.int64
                    assert np.array_equal(x, y)


@pytest.mark.parametrize("name", ["full_a", "full_b"])
def test_int64_fallbacks_equal_the_float64_paths_at_full_scale(name):
    # band 0 of the full-scale config cut to 8 windows, where the margins
    # to 2^53 are thinnest (full_a's channelizer sums reach 2^35.4, its
    # DDC accumulator needs 47 bits): with both float64 predicates false,
    # the FIRs run as int64 polyphase convolutions (the float64 products
    # raise if called) and the DDC bank in int64, and every tone's bits
    # equal those of the float64 paths
    cfg = replace(one_band_builtin(name), acquisition_len=8)
    assert cfg.ddc_exact_in_float64
    assert cfg.resolved_channelizer_filter().exact_in_float64(cfg.generator.wide_width)
    want = run_loopback(cfg)
    with (
        mock.patch.object(FilterSpec, "exact_in_float64", lambda self, bits: False),
        mock.patch.object(ChainConfig, "ddc_exact_in_float64", property(lambda self: False)),
        mock.patch("combtwin.generator.exact_interpolate", None),
        mock.patch("combtwin.generator.exact_decimate", None),
        mock.patch("combtwin.harness.reference_bank", wraps=reference_bank) as bank,
    ):
        got = run_loopback(cfg)
    assert [c.args[3] for c in bank.call_args_list] == [np.int64]
    assert len(got.tones) == len(want.tones) == 40
    for g, w in zip(got.tones, want.tones, strict=True):
        assert g.pattern.i.dtype == np.int64
        assert np.array_equal(g.pattern.i, w.pattern.i)
        assert np.array_equal(g.pattern.q, w.pattern.q)
        assert g.carrier_power == w.carrier_power


@pytest.mark.parametrize("name, bound", [("desk_a", 64), ("full_a", 70)])
def test_one_slice_holds_its_pinned_bytes_per_sample(name, bound):
    # the live arrays of one time slice's comb and channelizer, every band
    # of desk_a (2) and band 0 of full_a, through a fresh workspace: a
    # slice of _SLICE_SAMPLES full-rate samples plus its overlap lead-in,
    # from a start off every LUT period. Measured: 61.1 bytes per full-rate
    # sample on desk_a and 67.1 on full_a, whose 20-bit channelizer mix
    # forms int64 products against its LUT tiled to the slice. The bounds
    # sit less than 4 bytes above: one more full-rate temporary held at the
    # peak, even an int32 one, fails here
    cfg = one_band_builtin(name)
    g, spec = cfg.generator, cfg.resolved_channelizer_filter()
    sums = band_tone_sums(g, cfg.tones)
    start = 12346

    def one_slice(n):
        work = Workspace()
        wideband = generate_comb(g, sums, n, start, work=work)
        for b in sums:
            channelize(wideband, b, g, spec, start, work=work)

    one_slice(64)  # fill the filter, matrix and LUT caches
    n = _SLICE_SAMPLES // g.upsample_factor + _band_transient_len(cfg)
    tracemalloc.start()
    try:
        one_slice(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_sample = peak / (n * g.upsample_factor)
    print(f"{name}: {peak} B live, {per_sample:.1f} B per full-rate sample")
    assert per_sample <= bound


@settings(max_examples=40, deadline=None)
@given(small_chains(), st.data())
def test_time_slices_equal_one_slice_bit_for_bit(cfg, data):
    # n_band from below one minimum slice, m, to several slices and periods;
    # drawn as whole slices plus a rest, since small integers dominate draws.
    # The interval starts at any band sample, on or off the LUT periods.
    # Slices of 1 to 4 overlaps cut the interval into many slices
    g = cfg.generator
    overlap = _band_transient_len(cfg)
    m = _MIN_SLICE_OVERLAPS * overlap
    p_band = waveform_period(g.L_acc, g.upsample_factor, g.shifter_lut_len) // g.upsample_factor
    n_band = m * data.draw(st.integers(0, 4)) + data.draw(st.integers(1, m + 3 * p_band))
    start = data.draw(st.integers(0, 2 * p_band + m))
    slice_samples = data.draw(st.integers(1, 4)) * overlap * g.upsample_factor
    double = DoublePrecision(*_float_taps(cfg))
    for arith in (FIXED_POINT, double):
        want = unsliced_subbands(cfg, start + n_band, arith)
        assert sorted(want) == sorted({t.band_index for t in cfg.tones})
        for threads in (1, 2, 3, 4):
            with mock.patch.object(harness, "_SLICE_SAMPLES", slice_samples):
                got = _subbands(cfg, start, start + n_band, threads, arith)
            assert sorted(got) == sorted(want)
            for b in want:
                for x, y in zip(got[b], want[b], strict=True):
                    assert x.dtype == y.dtype and len(x) == n_band
                    assert np.array_equal(x, y[start:])


def test_time_slices_run_in_the_harness_pool():
    # desk_a (a 25-sample transient, U = 8): k slices at edges i * n_band // k,
    # each run from one overlap early, through one pool of `threads` workers
    # (none at one thread); each band's tone sum is one task of that pool, and
    # every tone is generated once per run, not once per slice
    cfg = builtin_scenarios()["desk_a"]
    assert _band_transient_len(cfg) == 25 and cfg.generator.upsample_factor == 8
    m, full = _MIN_SLICE_OVERLAPS * 25, harness._SLICE_SAMPLES
    tone_threads = set()

    def on_thread(*args):
        tone_threads.add(threading.get_ident())
        return tone_generate(*args)

    cases = (
        # the thread rule: min(threads, n_band // m) slices, at least one
        (m - 1, 4, full, 1),
        (2 * m + 3, 4, full, 2),
        (5145, 3, full, 3),
        # the size rule: ceil(n_band * U / _SLICE_SAMPLES) slices
        (5145, 1, 8000, 6),
        (5145, 3, 8000, 6),
        (2 * full // 8 + 1, 1, full, 3),
    )
    for n_band, threads, slice_samples, k in cases:
        with (
            mock.patch.object(harness, "_SLICE_SAMPLES", slice_samples),
            mock.patch("combtwin.harness.ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool,
            mock.patch("combtwin.harness.generate_comb", wraps=generate_comb) as comb,
            mock.patch("combtwin.generator.tone_generate", side_effect=on_thread) as tone,
        ):
            tone_threads.clear()
            got = _subbands(cfg, 0, n_band, threads)
        if threads == 1:
            pool.assert_not_called()
            assert tone_threads == {threading.get_ident()}
        else:
            pool.assert_called_once_with(max_workers=threads)
            assert threading.get_ident() not in tone_threads
        assert tone.call_count == len(cfg.tones)
        edges = [i * n_band // k for i in range(k + 1)]
        starts = [max(0, a - 25) for a in edges[:-1]]
        # (start, length) of each slice's comb, in edge order
        assert sorted((c.args[3], c.args[2]) for c in comb.call_args_list) == [
            (a0, b - a0) for a0, b in zip(starts, edges[1:])
        ]
        want = unsliced_subbands(cfg, n_band, FIXED_POINT)
        for b in want:
            assert np.array_equal(got[b][0], want[b][0])
            assert np.array_equal(got[b][1], want[b][1])


def test_rerun_is_bit_identical(desk_a_result):
    again = run_loopback(builtin_scenarios()["desk_a"])
    for ta, tb in zip(desk_a_result.tones, again.tones):
        assert np.array_equal(ta.series.i, tb.series.i)
        assert np.array_equal(ta.series.q, tb.series.q)


# ---------------------------------------------------------------------------
# CORDIC sweep


def test_sweep_frozen_goldens():
    base = default_sweep_config()
    rows = run_cordic_sweep([10], [7, 10], base)
    by_key = {(r.data_bits, r.iterations): r for r in rows}
    r7 = by_key[(10, 7)]
    r10 = by_key[(10, 10)]
    assert r10.sfdr_db == pytest.approx(51.210643529495584, abs=1e-9)
    assert r10.sinad_db == pytest.approx(40.909787896735665, abs=1e-9)
    assert r7.sfdr_db == pytest.approx(51.63653377269667, abs=1e-9)
    assert r7.sinad_db == pytest.approx(39.0200926911109, abs=1e-9)


def test_sweep_reduced_iterations_keep_sfdr():
    base = default_sweep_config()
    rows = run_cordic_sweep([10], [7, 8, 9, 10], base)
    by_iter = {r.iterations: r for r in rows}
    assert 48.0 <= by_iter[10].sfdr_db <= 52.0
    for n in (7, 8, 9):
        assert abs(by_iter[n].sfdr_db - by_iter[10].sfdr_db) <= 0.5
    drop = by_iter[10].sinad_db - by_iter[7].sinad_db
    assert 1.5 <= drop <= 3.5


def test_sweep_low_precision_golden():
    rows = run_cordic_sweep([6], [3], default_sweep_config())
    assert rows[0].sinad_db == pytest.approx(16.868394440272112, abs=1e-9)
    assert rows[0].sfdr_db == pytest.approx(23.99078745404838, abs=1e-9)


@pytest.mark.parametrize("word", [997, 1000, 3100])
@pytest.mark.parametrize("angle_bits, guard_bits", [(None, 0), (12, 3)])
def test_sweep_rows_equal_the_cordic_of_every_phase_word(word, angle_bits, guard_bits):
    # the sweep's former path, kept as its oracle: cordic_sincos_array over
    # one accumulator period of phase words, with the sweep's data bits and
    # iterations and the base config's angle and guard bits
    l_acc = 4096
    base = make_chain_config(
        "sweep", l_acc, l_acc, 1, 1, 2, freq_words=[word],
        cordic=CordicConfig(10, 10, angle_bits=angle_bits, guard_bits=guard_bits),
    )
    bits, iters = [6, 10, 13], [3, 10]
    rows = run_cordic_sweep(bits, iters, base)
    assert len(rows) == len(bits) * len(iters)
    ph = phase_words(l_acc, word, l_acc)
    fund = min(word, l_acc - word)
    for row in rows:
        cordic = CordicConfig(
            row.data_bits, row.iterations, angle_bits=angle_bits, guard_bits=guard_bits
        )
        ci, _ = cordic_sincos_array(ph, l_acc, cordic)
        assert (row.sinad_db, row.sfdr_db) == sinad_sfdr(ci.astype(np.float64), fund)


def test_repeated_sweeps_of_two_moduli_read_their_cordic_tables_from_the_cache():
    # 12 configs per sweep, as in sweep-cordic --bits 8,10,12 --iters
    # 6,8,10,12, on L_acc 1024 and 1020: the first sweep of each modulus
    # builds its 12 tables, the second identical sweep reads all 12
    sc = builtin_scenarios()
    bits, iters = [8, 10, 12], [6, 8, 10, 12]
    _cordic_table.cache_clear()
    first = [run_cordic_sweep(bits, iters, sc[name]) for name in ("desk_a", "desk_b")]
    assert (_cordic_table.cache_info().misses, _cordic_table.cache_info().hits) == (24, 0)
    second = [run_cordic_sweep(bits, iters, sc[name]) for name in ("desk_a", "desk_b")]
    assert (_cordic_table.cache_info().misses, _cordic_table.cache_info().hits) == (24, 24)
    assert second == first


def test_sweep_table_shape():
    rows = run_cordic_sweep([8, 10], [2, 5], default_sweep_config())
    assert [(r.data_bits, r.iterations) for r in rows] == [
        (8, 2),
        (8, 5),
        (10, 2),
        (10, 5),
    ]


# ---------------------------------------------------------------------------
# demodulator comparison


@pytest.fixture(scope="module")
def single_tone_compare():
    return run_demod_compare(builtin_scenarios()["demod_single"])


@pytest.fixture(scope="module")
def two_tone_compare():
    return run_demod_compare(builtin_scenarios()["demod_two_tone"])


def demod_compare_reference(cfg):
    """run_demod_compare before it shared one comb, kept as the oracle: a
    full run_loopback per demodulator mode, then a third, short comb for the
    pre-accumulation product spectra. Returns DemodComparison.tones."""
    g, a = cfg.generator, cfg.analyzer
    cfg_sine = replace(cfg, analyzer=replace(a, demod_mode=DemodMode.SINE_DDC))
    cfg_square = replace(cfg, analyzer=replace(a, demod_mode=DemodMode.SQUARE_WAVE))
    res_sine = run_loopback(cfg_sine)
    res_square = run_loopback(cfg_square)
    n_pre = max(4096, 4 * _band_transient_len(cfg))
    wideband = generate_comb(g, band_tone_sums(g, cfg.tones), n_pre)
    spec = cfg.resolved_channelizer_filter()
    subbands = {b: channelize(wideband, b, g, spec) for b in {t.band_index for t in cfg.tones}}
    skip = _band_transient_len(cfg)
    ref_amp = float((1 << (g.cordic.data_bits - 1)) - 1)
    rows = []
    for tone in sorted(cfg.tones, key=lambda t: (t.band_index, t.tone_index)):
        tone_period = cordic_tone(g.L_acc, tone.freq_word, g.cordic)
        ref = tuple(periodic_extend(c, n_pre) for c in tone_period)
        sub = subbands[tone.band_index]
        pi_s, pq_s = elementwise_ddc_products(sub, ref, DemodMode.SINE_DDC)
        pi_q, pq_q = elementwise_ddc_products(sub, ref, DemodMode.SQUARE_WAVE)
        zs = (pi_s + 1j * pq_s)[skip:]
        zq = (pi_q + 1j * pq_q)[skip:]
        key = (tone.band_index, tone.tone_index)
        s_sine = tone_result(res_sine, *key).series
        s_square = tone_result(res_square, *key).series
        m_sine = complex(np.mean(s_sine.complex_values()))
        m_square = complex(np.mean(s_square.complex_values()))
        mag_ratio = abs(m_square) * ref_amp / abs(m_sine) if m_sine != 0 else math.inf
        dphi = math.remainder(
            math.atan2(m_square.imag, m_square.real) - math.atan2(m_sine.imag, m_sine.real),
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
                pre_lines_sine=_spectral_line_count(zs, PRE_ACCUM_LINE_THRESHOLD_DB),
                pre_lines_square=_spectral_line_count(zq, PRE_ACCUM_LINE_THRESHOLD_DB),
                post_residual_db_sine=_post_accum_residual_db(s_sine),
                post_residual_db_square=_post_accum_residual_db(s_square),
            )
        )
    return tuple(rows)


# Each builtin's loopback run is longer than its 4096-sample pre-accumulation
# run; desk_a at 4 windows makes "auto" fall back to the direct engine. The
# random chains below have loopback runs shorter than the pre-accumulation run.
@pytest.mark.parametrize(
    "name, acq",
    [("demod_single", None), ("demod_two_tone", None), ("desk_a", None),
     ("desk_b", None), ("desk_a", 320), ("desk_b", 320), ("desk_a", 4)],
)
def test_demod_compare_equals_reference(name, acq):
    cfg = builtin_scenarios()[name]
    if acq is not None:
        cfg = replace(cfg, acquisition_len=acq)
    assert run_demod_compare(cfg).tones == demod_compare_reference(cfg)


@settings(max_examples=30)
@given(small_chains())
def test_demod_compare_equals_reference_on_random_chains(cfg):
    assert run_demod_compare(cfg).tones == demod_compare_reference(cfg)


def test_demod_compare_thread_count_does_not_change_results():
    for acq in (2560, 4):  # periodic, then direct
        cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=acq)
        base = run_demod_compare(cfg, threads=1)
        assert run_demod_compare(cfg, threads=2).tones == base.tones
        assert len(base.tones) == len(cfg.tones)


def test_single_tone_square_ratio_and_phase(single_tone_compare):
    (tone,) = single_tone_compare.tones
    assert abs(tone.ratio_error) <= 0.02
    assert abs(tone.phase_diff_rad) <= 1e-2
    assert tone.mag_ratio == pytest.approx(4 / math.pi, rel=0.02)


def test_square_wave_has_more_pre_accumulation_lines(single_tone_compare, two_tone_compare):
    for cmp_rec in (single_tone_compare, two_tone_compare):
        for tone in cmp_rec.tones:
            assert tone.pre_lines_square > tone.pre_lines_sine


def test_two_tone_post_accumulation_residual(two_tone_compare):
    for tone in two_tone_compare.tones:
        assert tone.post_residual_db_sine <= 3.0
        assert tone.post_residual_db_square <= 3.0


def test_two_tone_phase_and_ratio(two_tone_compare):
    for tone in two_tone_compare.tones:
        assert abs(tone.ratio_error) <= 0.02
        assert abs(tone.phase_diff_rad) <= 1e-2


# ---------------------------------------------------------------------------
# float oracle


def test_float_oracle_single_tone_is_exact():
    cfg = replace(builtin_scenarios()["demod_single"], acquisition_len=40)
    res = float_oracle(cfg)
    assert res.engine == "float"
    z = res.tones[0].series.complex_values()
    assert np.abs(z - z.mean()).max() / np.abs(z.mean()) < 1e-9


# Tests of the oracle's structure run both paths: with desk_b's one-window
# pattern the periodic path's series is constant by construction, so only
# the direct path can show that the chain itself is clean. Both loop over
# the engines rather than parametrize, which keeps the test ids.
ORACLE_ENGINES = ("periodic", "direct")


def oracle_on(cfg, engine):
    res = float_oracle(cfg, engine=engine)
    assert res.engine == "float" and res.engine_reason.startswith(f"{engine} requested")
    return res


def pinned_interp(cfg):
    """cfg with its interpolator set to the designed one, so that the float
    oracle runs the quantized interpolator taps (as floats)."""
    g = cfg.generator
    return replace(cfg, generator=replace(g, interp_filter=g.resolved_interp_filter()))


def test_float_oracle_shows_structural_lines_with_quantized_interp():
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=160)
    m = 160
    for engine in ORACLE_ENGINES:
        for t in oracle_on(pinned_interp(cfg), engine).tones:
            bins = {l.bin for l in t.amp_spurs.lines}
            assert m // 5 in bins and 2 * m // 5 in bins


def test_float_oracle_clean_when_modulus_divisible_by_five():
    # exactly periodic chain, window-commensurate period: the decimated
    # series is bitwise constant and every non-DC PSD value is zero
    cfg = replace(builtin_scenarios()["desk_b"], acquisition_len=160)
    for engine in ORACLE_ENGINES:
        for t in oracle_on(cfg, engine).tones:
            assert len(t.amp_spurs.lines) == 0
            assert len(t.phase_spurs.lines) == 0
            assert t.amp_spectrum.values[1:].max() == 0.0
            assert t.phase_spectrum.values[1:].max() == 0.0


def test_quantization_adds_fluctuation_power_over_float(desk_a_result):
    # with the same (quantized) filter taps the float chain carries only
    # stopband leakage; the integer chain adds rounding noise on top, so
    # its total non-carrier power must come out higher for every tone
    res = float_oracle(pinned_interp(builtin_scenarios()["desk_a"]))
    for tf, ti in zip(res.tones, desk_a_result.tones):
        assert ti.amp_spectrum.values[1:].sum() > tf.amp_spectrum.values[1:].sum()
        assert ti.phase_spectrum.values[1:].sum() > tf.phase_spectrum.values[1:].sum()


def _square_signs(ph, L):
    """Exact MSB signs of cos/sin(2 pi ph/L) from integer phase words
    (sign of an exact zero is +1)."""
    q = L // 4
    sc = np.where((ph <= q) | (ph >= 3 * q), 1.0, -1.0)
    ss = np.where(ph <= 2 * q, 1.0, -1.0)
    return sc, ss


def float_oracle_reference(cfg):
    """float_oracle before its polyphase and table rewrite, kept as the
    oracle: np.exp over every sample, full-rate convolution of the
    zero-stuffed band and of the mixed wideband, then every U-th output.
    Returns the per-tone results in float_oracle's order."""
    g, a = cfg.generator, cfg.analyzer
    u = g.upsample_factor
    n_band = (cfg.acquisition_len + cfg.warmup_windows) * a.L_avg
    ref_amp = float((1 << (g.cordic.data_bits - 1)) - 1)
    h_interp, h_chan = _float_taps(cfg)
    by_band = {}
    for t in cfg.tones:
        by_band.setdefault(t.band_index, []).append(t)
    n_wide = n_band * u
    wide = np.zeros(n_wide, dtype=np.complex128)
    for b in sorted(by_band):
        band = np.zeros(n_band, dtype=np.complex128)
        for t in by_band[b]:
            ph = phase_words(g.L_acc, t.freq_word, n_band)
            amp = t.amplitude_raw / (1 << AMPLITUDE_FORMAT.frac_bits)
            band += ref_amp * amp * np.exp(2j * np.pi * ph / g.L_acc)
        n_idx = np.arange(n_band) % 5
        band = band * np.exp(-2j * np.pi * n_idx / 5.0)
        stuffed = np.zeros(n_wide, dtype=np.complex128)
        stuffed[::u] = band
        band_w = np.convolve(stuffed, h_interp)[:n_wide]
        frac = Fraction(2 * b + 1, 5 * u)
        w_arg = (np.arange(n_wide, dtype=np.int64) * frac.numerator) % frac.denominator
        wide += band_w * np.exp(2j * np.pi * w_arg / frac.denominator)
    results = []
    for b in sorted(by_band):
        frac = Fraction(2 * b + 1, 5 * u)
        w_arg = (np.arange(n_wide, dtype=np.int64) * frac.numerator) % frac.denominator
        mixed = wide * np.exp(-2j * np.pi * w_arg / frac.denominator)
        sub = np.convolve(mixed, h_chan)[:n_wide][::u]
        sub = sub * np.exp(2j * np.pi * (np.arange(len(sub)) % 5) / 5.0)
        for tone in sorted(by_band[b], key=lambda t: t.tone_index):
            ph = phase_words(g.L_acc, tone.freq_word, n_band)
            if a.demod_mode is DemodMode.SINE_DDC:
                y = sub * np.conj(ref_amp * np.exp(2j * np.pi * ph / g.L_acc))
            else:
                sc, ss = _square_signs(ph, g.L_acc)
                y = sub * (sc - 1j * ss)
            nw = len(y) // a.L_avg
            sums = y[: nw * a.L_avg].reshape(nw, a.L_avg).sum(axis=1)[cfg.warmup_windows :]
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
            results.append(_tone_metrics(series, len(series)))
    return results


def spur_bins(tone):
    return [l.bin for l in tone.amp_spurs.lines], [l.bin for l in tone.phase_spurs.lines]


@pytest.mark.parametrize("quantize_interp", [False, True])
@pytest.mark.parametrize("mode", list(DemodMode))
@pytest.mark.parametrize("name", ["desk_a", "desk_b", "demod_two_tone"])
def test_float_oracle_equals_full_rate_reference(name, mode, quantize_interp):
    base = builtin_scenarios()[name]
    cfg = replace(base, acquisition_len=40, analyzer=replace(base.analyzer, demod_mode=mode))
    if quantize_interp:
        cfg = pinned_interp(cfg)
    want = float_oracle_reference(cfg)
    for engine in ORACLE_ENGINES:
        got = oracle_on(cfg, engine).tones
        assert len(got) == len(want) == len(cfg.tones)
        for tg, tw in zip(got, want):
            zg, zw = tg.series.complex_values(), tw.series.complex_values()
            sg, sw = tg.series, tw.series
            assert (sg.band_index, sg.tone_index, len(zg)) == (
                sw.band_index, sw.tone_index, len(zw)
            )
            assert np.abs(zg - zw).max() <= 1e-12 * np.abs(zw).max()
            assert spur_bins(tg) == spur_bins(tw)


@settings(max_examples=60)
@given(small_chains())
def test_float_oracle_equals_full_rate_reference_on_random_chains(cfg):
    # Both chains round at the chain's full scale, ref_amp^2 * L_avg for a
    # window sum of a full-amplitude tone. A tone in the channelizer's
    # stopband ends far below it (L_acc 8, U 1, word 5: a series peak of
    # 12.9 against 1.0e6), where the oracle's real-pair products and the
    # reference's complex ones, rounded differently, differ by 4e-12 of
    # the series; so errors are measured against the larger of the series
    # and that scale. No spur bins: on clean chains the PSD is rounding noise.
    ref_amp = float((1 << (cfg.generator.cordic.data_bits - 1)) - 1)
    full_scale = ref_amp**2 * cfg.analyzer.L_avg
    want = float_oracle_reference(cfg)
    for engine in ORACLE_ENGINES:
        for tg, tw in zip(oracle_on(cfg, engine).tones, want, strict=True):
            zg, zw = tg.series.complex_values(), tw.series.complex_values()
            assert (tg.series.band_index, tg.series.tone_index, len(zg)) == (
                tw.series.band_index, tw.series.tone_index, len(zw)
            )
            assert np.abs(zg - zw).max() <= 1e-12 * max(np.abs(zw).max(), full_scale)


@pytest.mark.parametrize("l_acc", range(4, 65, 4))
def test_float_reference_signs_are_the_exact_square_waves(l_acc):
    # the square-wave DDC takes the reference's sign (>= 0 is +1), so the
    # phasor table must hold exact zeros at quarter turns
    arith = DoublePrecision(np.ones(1), np.ones(1))
    for word in range(l_acc):
        ph = phase_words(l_acc, word, l_acc)
        ci, cq = arith.reference(l_acc, word, CordicConfig(10, 10))
        sc, ss = _square_signs(ph, l_acc)
        assert np.array_equal(np.where(ci >= 0, 1.0, -1.0), sc)
        assert np.array_equal(np.where(cq >= 0, 1.0, -1.0), ss)


def test_transient_bound_covers_the_oracle_taps():
    for cfg in builtin_scenarios().values():
        u = cfg.generator.upsample_factor
        for c in (cfg, pinned_interp(cfg)):
            n_taps = sum(map(len, _float_taps(c)))
            assert n_taps // u + 2 <= _band_transient_len(cfg)


def assert_oracle_taps_quantize_to_the_chain_filters(cfg):
    # rounded as design_windowed_sinc rounds, the oracle's ideal taps must
    # give the chain's quantized ones
    specs = cfg.generator.resolved_interp_filter(), cfg.resolved_channelizer_filter()
    for h, spec in zip(_float_taps(cfg), specs, strict=True):
        raw = np.floor(h * 2.0**spec.frac_bits + 0.5).astype(np.int64)
        assert raw.tolist() == list(spec.taps), spec.description


def test_oracle_default_filters_are_the_chain_filters_on_every_builtin():
    for cfg in builtin_scenarios().values():
        assert_oracle_taps_quantize_to_the_chain_filters(cfg)


@settings(max_examples=40)
@given(small_chains())
def test_oracle_default_filters_are_the_chain_filters_on_random_chains(cfg):
    assert_oracle_taps_quantize_to_the_chain_filters(cfg)


@settings(max_examples=40)
@given(small_chains())
def test_periodic_oracle_equals_direct_oracle_on_random_chains(cfg):
    zp = float_oracle(cfg, engine="periodic").tones
    zd = float_oracle(cfg, engine="direct").tones
    for tp, td in zip(zp, zd, strict=True):
        p, d = tp.series.complex_values(), td.series.complex_values()
        assert len(p) == len(d) == cfg.acquisition_len
        assert np.abs(p - d).max() <= 1e-12 * max(np.abs(d).max(), 1.0)


def test_periodic_oracle_needs_the_warm_up_to_cover_the_transient():
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=64, warmup_windows=0)
    for run in (run_loopback, float_oracle):
        with pytest.raises(ConfigError, match="transient"):
            run(cfg, engine="periodic")
        with pytest.raises(ConfigError, match="engine must be"):
            run(cfg, engine="tiled")


def full_scale_oracle(name):
    cfg = builtin_scenarios()[name]
    return float_oracle(pinned_interp(replace(cfg, tones=cfg.tones[:4])))


def test_full_scale_oracle_separates_structural_lines():
    # band 0, tones 0-3, all 655360 windows: the periodic path computes one
    # period and its lead-in instead of 4.3e10 band samples. full_b's chain is clean; full_a
    # shows only the period-extension lines m/5 and 2m/5, though not on
    # every tone: a line must clear the detector's 10 dB over its floor
    clean = full_scale_oracle("full_b")
    assert clean.engine_reason.endswith("and the transient fits")
    assert all(spur_bins(t) == ([], []) for t in clean.tones)
    res = full_scale_oracle("full_a")
    m = res.config.acquisition_len
    lines = [set(a) | set(p) for a, p in map(spur_bins, res.tones)]
    assert all(bins <= {m // 5, 2 * m // 5} for bins in lines)
    assert {m // 5, 2 * m // 5} in lines


def test_ideal_wave_beats_fixed_point_figures():
    n = 65536
    k = 997
    ideal = np.sin(2 * np.pi * k * np.arange(n) / n)
    from combtwin.metrics import sinad_sfdr

    sinad, sfdr = sinad_sfdr(ideal, fundamental_bin=k)
    assert sinad > 250.0 and sfdr > 250.0  # vs 40.9 / 51.2 for the 10-bit path


def test_float_oracle_square_mode_ratio():
    base = builtin_scenarios()["demod_single"]
    cfg_s = replace(base, acquisition_len=40)
    cfg_q = replace(
        cfg_s, analyzer=replace(cfg_s.analyzer, demod_mode=DemodMode.SQUARE_WAVE)
    )
    ms = np.mean(float_oracle(cfg_s).tones[0].series.complex_values())
    mq = np.mean(float_oracle(cfg_q).tones[0].series.complex_values())
    ratio = abs(mq) * 511.0 / abs(ms)
    assert ratio == pytest.approx(4 / math.pi, rel=1e-3)


# ---------------------------------------------------------------------------
# persistence


def test_persist_layout_and_manifest(tmp_path, desk_a_result):
    out = tmp_path / "run"
    man = persist(desk_a_result, str(out))
    assert (out / "manifest.json").exists()
    disk = json.loads((out / "manifest.json").read_text())
    assert disk == man
    assert man["config_hash"] == desk_a_result.config_hash
    assert man["scenario_name"] == "desk_a"
    for rel in man["files"]:
        assert (out / rel).exists()
    assert "series/b000_t000.bin" in man["files"]
    assert "series/b001_t003.csv" in man["files"]
    assert "spectra/b000_t000_amp.csv" in man["files"]
    assert "spurs/b000_t000.json" in man["files"]
    assert "config.ini" in man["files"]


def test_persist_refuses_existing_directory(tmp_path, desk_a_result):
    out = tmp_path / "dup"
    persist(desk_a_result, str(out))
    with pytest.raises(OSError):
        persist(desk_a_result, str(out))


def test_persist_reruns_are_byte_identical(tmp_path):
    import hashlib

    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=80)
    digests = []
    for threads, sub in ((1, "r1"), (4, "r4")):
        res = run_loopback(cfg, threads=threads)
        out = tmp_path / sub
        man = persist(res, str(out))
        acc = hashlib.sha256()
        for rel in sorted(man["files"]):
            acc.update(rel.encode())
            acc.update((out / rel).read_bytes())
        digests.append(acc.hexdigest())
    assert digests[0] == digests[1]


def test_persist_live_peak_does_not_grow_with_the_band_count(tmp_path):
    # persist derives one tone's series and spectra at a time and drops
    # them, so its live peak is that of one tone's artifacts, at 1 band or
    # 4 (2 tones or 8); a result that cached them would grow by each tone's
    # 60 kB. The process peak RSS, the whole test process's, is reported
    # beside it: it sits above live memory and moves with allocation order
    peaks = {}
    for n_bands in (1, 4):
        res = run_loopback(make_chain_config("flat", 1024, 1024, n_bands, 2, 2560))
        tracemalloc.start()
        try:
            persist(res, tmp_path / f"bands{n_bands}")
            peaks[n_bands] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"persist live peak {peaks[1]} B at 1 band, {peaks[4]} B at 4; process peak RSS {rss_mb:.0f} MB")
    assert peaks[4] < 1.1 * peaks[1]


GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("name", ["desk_a", "desk_b", "demod_single", "demod_two_tone"])
def test_persisted_artifacts_match_golden_digests(tmp_path, name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    res = run_loopback(builtin_scenarios()[name])
    persist(res, str(tmp_path / name))
    digests = {
        p.relative_to(tmp_path / name).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / name).rglob("*"))
        if p.is_file()
    }
    assert res.config_hash == golden["config_hash"]
    assert digests == golden["files"]


# SHA-256 of the series/*.bin files, concatenated in sorted order, of the
# builtin run with the square-wave demodulator; no golden file holds one
SQUARE_WAVE_SERIES = {
    "desk_a": "fdf9c9fee6c066575a5939599dfc35b28534580effdb7a6cf87f5d5245d6afcb",
    "demod_two_tone": "d586f29c1902eed7cb58a617ce80f29c4d02c03ebc79f2c70aa345a1324e049c",
}


@pytest.mark.parametrize("name", sorted(SQUARE_WAVE_SERIES))
def test_square_wave_series_bytes_are_pinned(tmp_path, name):
    cfg = builtin_scenarios()[name]
    cfg = replace(cfg, analyzer=replace(cfg.analyzer, demod_mode=DemodMode.SQUARE_WAVE))
    res = run_loopback(cfg)
    persist(res, tmp_path / name)
    acc = hashlib.sha256()
    for p in sorted((tmp_path / name / "series").glob("*.bin")):
        acc.update(p.read_bytes())
    assert acc.hexdigest() == SQUARE_WAVE_SERIES[name]
    if name == "desk_a":
        # the periodic plan, and the power-of-two modulus's lines at acq/5, 2*acq/5
        assert res.engine == "periodic"
        for tr in res.tones:
            assert {l.bin for l in tr.amp_spurs.lines} == {512, 1024}


def test_persisted_config_reloads_to_same_hash(tmp_path, desk_a_result):
    out = tmp_path / "cfg"
    persist(desk_a_result, str(out))
    cfg2 = config_from_ini((out / "config.ini").read_text())
    assert config_hash(cfg2) == desk_a_result.config_hash
