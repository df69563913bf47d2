"""End-to-end loopback scenarios, sweeps, comparisons, oracles, persistence."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin import ConfigError, FxpValue
from combtwin.analyzer import DemodMode, IqTimeSeries
from combtwin.formats import config_from_dict, config_from_ini, config_to_dict
from combtwin.generator import AMPLITUDE_FORMAT, ToneConfig, phase_words
from combtwin.harness import (
    LONG_RUN_SCENARIOS,
    builtin_scenarios,
    config_hash,
    default_sweep_config,
    float_oracle,
    make_chain_config,
    persist,
    run_cordic_sweep,
    run_demod_compare,
    run_loopback,
    _band_transient_len,
    _float_chan_taps,
    _float_interp_taps,
    _square_signs,
    _tone_metrics,
)
from combtwin.metrics import predict_spurs


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


def test_config_hash_is_stable_and_discriminating():
    cfgs = builtin_scenarios()
    h1 = config_hash(cfgs["desk_a"])
    h2 = config_hash(builtin_scenarios()["desk_a"])
    assert h1 == h2
    assert len(h1) == 64
    assert h1 != config_hash(cfgs["desk_b"])
    bumped = replace(cfgs["desk_a"], seed=cfgs["desk_a"].seed + 1)
    assert config_hash(bumped) != h1


def test_config_dict_round_trip():
    for name, cfg in builtin_scenarios().items():
        d = config_to_dict(cfg)
        cfg2 = config_from_dict(d)
        assert config_to_dict(cfg2) == d, name
        assert config_hash(cfg2) == config_hash(cfg), name


def test_make_chain_config_validation():
    cfg = builtin_scenarios()["desk_a"]
    with pytest.raises(ConfigError):
        replace(cfg, tones=cfg.tones + (cfg.tones[0],))  # duplicate tone id
    bad_band = ToneConfig(9, 0, 51, FxpValue(8192, AMPLITUDE_FORMAT))
    with pytest.raises(ConfigError):
        replace(cfg, tones=(bad_band,))
    # averaging length is settable independently of the accumulator modulus
    ok = replace(cfg, analyzer=replace(cfg.analyzer, L_avg=2048))
    assert ok.analyzer.L_avg == 2048
    with pytest.raises(ConfigError):
        replace(cfg, analyzer=replace(cfg.analyzer, decim_to_band=4))


# ---------------------------------------------------------------------------
# loopback runs: spur structure


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
    for t in desk_a_result.tones:
        freqs = sorted(f for f, _ in t.amp_spurs.predicted)
        assert freqs == pytest.approx([fs / 5, 2 * fs / 5], rel=1e-12)
    for t in desk_b_result.tones:
        assert len(t.amp_spurs.predicted) == 0


def test_predicted_lines_appear_in_spectrum(desk_a_result):
    # consistency: each predicted alias maps to a detected bin
    m = 2560
    for t in desk_a_result.tones:
        fs = t.series.rate_hz
        detected = {l.bin for l in t.amp_spurs.lines}
        for freq, _ in t.amp_spurs.predicted:
            assert round(freq / (fs / m)) in detected


def test_zero_amplitude_tones_give_silent_series():
    cfg = builtin_scenarios()["desk_a"]
    zero = FxpValue(0, AMPLITUDE_FORMAT)
    tones = tuple(replace(t, amplitude_code=zero) for t in cfg.tones)
    res = run_loopback(replace(cfg, tones=tones, acquisition_len=40))
    for t in res.tones:
        assert not t.series.i.any() and not t.series.q.any()
        assert len(t.amp_spurs.lines) == 0
        assert t.carrier_power == 0.0


def test_run_result_metadata(desk_a_result):
    assert desk_a_result.scenario_name == "desk_a"
    assert desk_a_result.engine == "periodic"
    assert desk_a_result.config_hash == config_hash(desk_a_result.config)
    assert desk_a_result.wall_time_s > 0
    t = desk_a_result.tone(1, 2)
    assert t.series.band_index == 1 and t.series.tone_index == 2
    assert len(t.series) == 2560


def test_throughput_counter(desk_a_result):
    # full-rate samples per second, sanity bound
    assert desk_a_result.throughput_sps >= 5e6


def test_computed_rate_counts_only_generated_samples(desk_a_result):
    # periodic: 2 periods of 5120 band samples computed for 2560 windows of 1024
    r = desk_a_result
    assert r.computed_sps / r.throughput_sps == pytest.approx(2 * 5120 / (2560 * 1024))
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=64)
    d = run_loopback(cfg, engine="direct")
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


def test_periodic_engine_tiles_a_period_past_the_transient():
    # period 40 band samples, filter transient 192: only the 6th period is steady
    cfg = make_chain_config(
        "tiny", 8, 8, 1, 1, 64, upsample_factor=1, shifter_lut_len=5, freq_words=[1]
    )
    cfg = replace(cfg, warmup_windows=30)
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


@settings(max_examples=40)
@given(small_chains())
def test_periodic_engine_equals_direct_on_random_chains(cfg):
    rp = run_loopback(cfg, engine="periodic")
    rd = run_loopback(cfg, engine="direct")
    for tp, td in zip(rp.tones, rd.tones, strict=True):
        assert np.array_equal(tp.series.i, td.series.i)
        assert np.array_equal(tp.series.q, td.series.q)
        assert np.array_equal(tp.amp_spectrum.values, td.amp_spectrum.values)
        assert np.array_equal(tp.phase_spectrum.values, td.phase_spectrum.values)


def test_engine_auto_falls_back_to_direct_when_period_too_long():
    cfg = builtin_scenarios()["desk_a"]
    short = replace(cfg, acquisition_len=4)  # 2 periods exceed the run
    res = run_loopback(short, engine="auto")
    assert res.engine == "direct"


def test_thread_count_does_not_change_bits():
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=160)
    runs = [run_loopback(cfg, threads=t) for t in (1, 2, 4)]
    base = runs[0]
    for other in runs[1:]:
        assert other.config_hash == base.config_hash
        for ta, tb in zip(base.tones, other.tones):
            assert np.array_equal(ta.series.i, tb.series.i)
            assert np.array_equal(ta.series.q, tb.series.q)
            assert np.array_equal(ta.amp_spectrum.values, tb.amp_spectrum.values)


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


def test_float_oracle_shows_structural_lines_with_quantized_interp():
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=160)
    res = float_oracle(cfg, quantize_interp=True)
    m = 160
    for t in res.tones:
        bins = {l.bin for l in t.amp_spurs.lines}
        assert m // 5 in bins and 2 * m // 5 in bins


def test_float_oracle_clean_when_modulus_divisible_by_five():
    # exactly periodic chain, window-commensurate period: the decimated
    # series is bitwise constant and every non-DC PSD value is zero
    cfg = replace(builtin_scenarios()["desk_b"], acquisition_len=160)
    res = float_oracle(cfg)
    for t in res.tones:
        assert len(t.amp_spurs.lines) == 0
        assert len(t.phase_spurs.lines) == 0
        assert t.amp_spectrum.values[1:].max() == 0.0
        assert t.phase_spectrum.values[1:].max() == 0.0


def test_quantization_adds_fluctuation_power_over_float(desk_a_result):
    # with the same (quantized) filter taps the float chain carries only
    # stopband leakage; the integer chain adds rounding noise on top, so
    # its total non-carrier power must come out higher for every tone
    res = float_oracle(builtin_scenarios()["desk_a"], quantize_interp=True)
    for tf, ti in zip(res.tones, desk_a_result.tones):
        assert ti.amp_spectrum.values[1:].sum() > tf.amp_spectrum.values[1:].sum()
        assert ti.phase_spectrum.values[1:].sum() > tf.phase_spectrum.values[1:].sum()


def float_oracle_reference(cfg, quantize_interp=False):
    """float_oracle before its polyphase and table rewrite, kept as the
    oracle: np.exp over every sample, full-rate convolution of the
    zero-stuffed band and of the mixed wideband, then every U-th output.
    Returns the per-tone results in float_oracle's order."""
    g, a = cfg.generator, cfg.analyzer
    u = g.upsample_factor
    n_band = (cfg.acquisition_len + cfg.warmup_windows) * a.L_avg
    ref_amp = float((1 << (g.cordic.data_bits - 1)) - 1)
    h_interp = _float_interp_taps(cfg, quantize_interp)
    h_chan = _float_chan_taps(cfg)
    by_band = {}
    for t in cfg.tones:
        by_band.setdefault(t.band_index, []).append(t)
    n_wide = n_band * u
    wide = np.zeros(n_wide, dtype=np.complex128)
    for b in sorted(by_band):
        band = np.zeros(n_band, dtype=np.complex128)
        for t in by_band[b]:
            ph = phase_words(g.L_acc, t.freq_word, n_band)
            band += ref_amp * t.amplitude_code.to_float() * np.exp(2j * np.pi * ph / g.L_acc)
        n_idx = np.arange(n_band) % 5
        band = band * np.exp(-2j * np.pi * n_idx / 5.0)
        stuffed = np.zeros(n_wide, dtype=np.complex128)
        stuffed[::u] = band
        band_w = np.convolve(stuffed, h_interp)[:n_wide]
        frac = g.band_center_fraction(b)
        w_arg = (np.arange(n_wide, dtype=np.int64) * frac.numerator) % frac.denominator
        wide += band_w * np.exp(2j * np.pi * w_arg / frac.denominator)
    predicted = tuple(
        (f, "period-extension alias")
        for f, _ in predict_spurs(g.L_acc, u, g.shifter_lut_len, a.L_avg, a.band_rate_hz)
    )
    results = []
    for b in sorted(by_band):
        frac = g.band_center_fraction(b)
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
            results.append(_tone_metrics(series, predicted))
    return results


def spur_bins(tone):
    return [l.bin for l in tone.amp_spurs.lines], [l.bin for l in tone.phase_spurs.lines]


@pytest.mark.parametrize("quantize_interp", [False, True])
@pytest.mark.parametrize("mode", list(DemodMode))
@pytest.mark.parametrize("name", ["desk_a", "desk_b", "demod_two_tone"])
def test_float_oracle_equals_full_rate_reference(name, mode, quantize_interp):
    base = builtin_scenarios()[name]
    cfg = replace(base, acquisition_len=40, analyzer=replace(base.analyzer, demod_mode=mode))
    got = float_oracle(cfg, quantize_interp=quantize_interp).tones
    want = float_oracle_reference(cfg, quantize_interp=quantize_interp)
    assert len(got) == len(want) == len(cfg.tones)
    for tg, tw in zip(got, want):
        zg, zw = tg.series.complex_values(), tw.series.complex_values()
        sg, sw = tg.series, tw.series
        assert (sg.band_index, sg.tone_index, len(zg)) == (sw.band_index, sw.tone_index, len(zw))
        assert np.abs(zg - zw).max() <= 1e-12 * np.abs(zw).max()
        assert spur_bins(tg) == spur_bins(tw)


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


def test_persisted_config_reloads_to_same_hash(tmp_path, desk_a_result):
    out = tmp_path / "cfg"
    persist(desk_a_result, str(out))
    cfg2 = config_from_ini((out / "config.ini").read_text())
    assert config_hash(cfg2) == desk_a_result.config_hash
