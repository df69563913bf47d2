"""Excitation path: phase accumulator, CORDIC, band pipeline, comb assembly."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin import ConfigError, FxpFormat, FxpValue, generator
from combtwin.generator import (
    AMPLITUDE_FORMAT,
    CordicConfig,
    DoublePrecision,
    FIXED_POINT,
    FilterSpec,
    GeneratorConfig,
    ToneConfig,
    band_sum,
    band_tone_sums,
    _cordic_table,
    _block_products,
    _phasor_table,
    cmul_lut,
    cordic_gain,
    cordic_sincos_array,
    cordic_tone,
    default_freq_words,
    design_windowed_sinc,
    exact_decimate,
    exact_interpolate,
    generate_comb,
    lut_mix,
    make_lut,
    mix_dtype,
    periodic_extend,
    phase_words,
    polyphase_decimate,
    polyphase_interpolate,
    tone_generate,
    upsample_interp,
    waveform_period,
)
from combtwin.harness import _SLICE_SAMPLES
from combtwin.metrics import sinad_sfdr


def desk_cfg(l_acc=1024, n_bands=2, tones=4):
    return GeneratorConfig(
        n_bands=n_bands,
        tones_per_band=tones,
        L_acc=l_acc,
        band_rate_hz=250e6,
        upsample_factor=8,
        shifter_lut_len=40,
    )


# The exciter's two LUT mixes as stages of their own, kept as references:
# generate_comb applies them through its arithmetic's mix.


def down_shift(band, cfg):
    """Multiply by e^(-j*2pi*n/5): shift the band down by band_rate/5."""
    return lut_mix(band, 5, 1, cfg.resolved_sum_width, -1)


def band_shift(band, band_index, cfg):
    """Multiply by the band-center exponential from the shifter LUT."""
    cycles = cfg.band_shift_cycles(band_index)  # validates band_index
    assert cycles == Fraction(2 * band_index + 1, 5 * cfg.upsample_factor) * cfg.shifter_lut_len
    return lut_mix(band, cfg.shifter_lut_len, cycles, cfg.resolved_sum_width, +1)


def clip(x, width):
    """x saturated to the width-bit two's-complement range."""
    return np.clip(x, -(1 << (width - 1)), (1 << (width - 1)) - 1)


def fir_apply(i, q, spec, stream_bits):
    """Causal length-preserving FIR in exact integers, then shift and
    saturate: the full-rate filter that the polyphase interpolator and
    decimator are checked against."""
    h = spec.taps_array()
    return tuple(clip(np.convolve(s, h)[: len(s)] >> spec.frac_bits, stream_bits) for s in (i, q))


# ---------------------------------------------------------------------------
# phase accumulator


def stepped_phases(modulus, increment, n):
    """Oracle of phase_words: a counter stepped n times from 0, wrapping by
    a conditional subtraction as the hardware does."""
    out, phase = [], 0
    for _ in range(n):
        out.append(phase)
        phase += increment
        if phase >= modulus:
            phase -= modulus
    return out


def test_phase_step_power_of_two_wrap():
    assert phase_words(65536, 65535, 3).tolist() == [0, 65535, 65534]


def test_phase_step_explicit_modulo():
    assert phase_words(65520, 32761, 3).tolist() == [0, 32761, 2]


def test_phase_sequence_period_by_cycle_detection():
    # coprime increment walks the full modulus before repeating
    ph = phase_words(65520, 65519, 65521)
    assert ph[65520] == ph[0] == 0
    assert np.flatnonzero(ph[1:] == ph[0]).tolist() == [65519]
    assert len(np.unique(ph[:65520])) == 65520


def test_phase_words_matches_stepped_accumulator():
    rng = np.random.default_rng(21)
    for _ in range(20):
        mod = int(rng.integers(8, 5000))
        inc = int(rng.integers(0, mod))
        n = int(rng.integers(1, 400))
        ph = phase_words(mod, inc, n)
        assert ph.tolist() == stepped_phases(mod, inc, n)


def test_phase_acc_rejects_bad_increment():
    # the tone's frequency word is the accumulator increment: it must be < L_acc
    cfg = desk_cfg()
    tone_generate(ToneConfig(0, 0, cfg.L_acc - 1, 32767), cfg)
    with pytest.raises(ConfigError):
        tone_generate(ToneConfig(0, 0, cfg.L_acc, 32767), cfg)


# ---------------------------------------------------------------------------
# CORDIC


def test_cordic_cardinal_points():
    cfg = CordicConfig(data_bits=10, iterations=10)
    ci, cq = cordic_sincos_array(np.array([0, 1024 // 4, 512, 3 * 1024 // 4]), 1024, cfg)
    assert list(zip(ci.tolist(), cq.tolist())) == [(511, 0), (0, 511), (-511, 0), (0, -511)]


def test_cordic_gain_bounds():
    for n in range(1, 20):
        k = cordic_gain(n)
        assert 0.607 < k <= 1.0 / math.sqrt(2) + 1e-12


def test_cordic_rejects_out_of_range_phase():
    cfg = CordicConfig(data_bits=10, iterations=10)
    for bad in ([1024], [-1], [0, 1023, 1024]):
        with pytest.raises(ValueError):
            cordic_sincos_array(np.array(bad), 1024, cfg)


def test_cordic_config_validation():
    with pytest.raises(ConfigError):
        CordicConfig(data_bits=3, iterations=5)
    with pytest.raises(ConfigError):
        CordicConfig(data_bits=10, iterations=0)
    with pytest.raises(ConfigError):
        CordicConfig(data_bits=10, iterations=10, angle_bits=3)
    with pytest.raises(ConfigError):
        CordicConfig(data_bits=10, iterations=10, guard_bits=9)


def test_cordic_quarter_turn_rotation_is_exact():
    # adding L/4 to the phase rotates (i, q) -> (-q, i) bit-exactly
    L = 1024
    cfg = CordicConfig(data_bits=10, iterations=10)
    p = np.arange(0, 3 * L // 4)
    ci, si = cordic_sincos_array(p, L, cfg)
    cj, sj = cordic_sincos_array(p + L // 4, L, cfg)
    assert np.array_equal(cj, -si)
    assert np.array_equal(sj, ci)


def test_cordic_conjugate_symmetry_within_noise_bound():
    # mirrored phases agree to within the rotation quantization noise
    L = 1024
    cfg = CordicConfig(data_bits=10, iterations=10)
    p = np.arange(1, L)
    ci, si = cordic_sincos_array(p, L, cfg)
    cj, sj = cordic_sincos_array(L - p, L, cfg)
    assert np.abs(ci - cj).max() <= 24
    assert np.abs(si + sj).max() <= 24


def test_cordic_ten_bit_ten_iteration_spectrum():
    # full-period sweep at a coprime word: frozen spectral figures
    L = 65536
    cfg = CordicConfig(data_bits=10, iterations=10)
    ph = phase_words(L, 997, L)
    ci, _ = cordic_sincos_array(ph, L, cfg)
    sinad, sfdr = sinad_sfdr(ci.astype(float), fundamental_bin=997)
    assert sfdr == pytest.approx(51.210643529495584, abs=1e-9)
    assert sinad == pytest.approx(40.909787896735665, abs=1e-9)
    assert 48.0 <= sfdr <= 52.0


def test_cordic_spectrum_invariant_to_word_choice():
    # for coprime words the sweep is a sample permutation: identical figures
    L = 4096
    cfg = CordicConfig(data_bits=10, iterations=10)
    results = []
    for k in (5, 997, 2049):
        ph = phase_words(L, k, L)
        ci, _ = cordic_sincos_array(ph, L, cfg)
        fund = min(k, L - k)
        results.append(sinad_sfdr(ci.astype(float), fundamental_bin=fund))
    for sinad, sfdr in results[1:]:
        assert sinad == pytest.approx(results[0][0], abs=1e-9)
        assert sfdr == pytest.approx(results[0][1], abs=1e-9)


def test_cordic_amplitude_error_shrinks_with_iterations():
    L = 2048
    b = 10
    scale = (1 << (b - 1)) - 1
    ph = np.arange(L)
    ideal_i = scale * np.cos(2 * np.pi * ph / L)
    ideal_q = scale * np.sin(2 * np.pi * ph / L)
    errs = []
    for n in range(1, 15):
        ci, si = cordic_sincos_array(ph, L, CordicConfig(data_bits=b, iterations=n))
        e = np.sqrt(np.mean((ci - ideal_i) ** 2 + (si - ideal_q) ** 2))
        errs.append(e)
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev * 1.01 + 0.05
    assert errs[-1] < errs[0] / 10


def cordic_oracle(phase, L_acc, cfg):
    """Oracle of cordic_sincos_array: one phase in Python integers, each
    rotation direction an if-branch, guard bits rounded half up."""
    b, n, A, g = cfg.data_bits, cfg.iterations, cfg.resolved_angle_bits, cfg.guard_bits
    unit = (1 << A) / (2 * math.pi)
    tab = [max(1, math.floor(math.atan(2.0**-i) * unit + 0.5)) for i in range(n)]
    quad, rem = divmod(phase, L_acc // 4)
    z = (rem * (1 << (A + 1)) + L_acc) // (2 * L_acc)
    x, y = math.floor((1 << (b - 1 + g)) * cordic_gain(n) + 0.5), 0
    for i in range(n):
        if z >= 0:
            x, y, z = x - (y >> i), y + (x >> i), z - tab[i]
        else:
            x, y, z = x + (y >> i), y - (x >> i), z + tab[i]
    if rem == 0:
        y = 0
    if g > 0:
        x, y = (x + (1 << (g - 1))) >> g, (y + (1 << (g - 1))) >> g
    lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
    x, y = min(max(x, lo), hi), min(max(y, lo), hi)
    return [(x, y), (-y, x), (-x, -y), (y, -x)][quad]


@st.composite
def cordic_cases(draw):
    l_acc = 4 * draw(st.integers(2, 256))
    cfg = CordicConfig(
        data_bits=draw(st.integers(4, 24)),
        iterations=draw(st.integers(1, 16)),
        angle_bits=draw(st.one_of(st.none(), st.integers(4, 24))),
        guard_bits=draw(st.integers(0, 8)),
    )
    q = l_acc // 4
    edges = {(k * q + d) % l_acc for k in range(4) for d in (-1, 0, 1)}
    more = draw(st.lists(st.integers(0, l_acc - 1), max_size=32))
    return l_acc, cfg, np.array(sorted(edges) + more, dtype=np.int64)


@settings(max_examples=300)
@given(cordic_cases())
def test_cordic_sincos_array_equals_big_int_oracle(case):
    l_acc, cfg, phases = case
    ci, cq = cordic_sincos_array(phases, l_acc, cfg)
    assert ci.dtype == cq.dtype == np.int64
    got = list(zip(ci.tolist(), cq.tolist()))
    assert got == [cordic_oracle(int(p), l_acc, cfg) for p in phases]


def test_cordic_angle_bits_past_int64_raise():
    # z0 = rem * 2^(A+1) wraps int64 for L_acc 1024 once A >= 55; at 56 it
    # gave 768 wrong phases of 1024 before the check
    bad = CordicConfig(data_bits=10, iterations=10, angle_bits=56)
    with pytest.raises(ConfigError, match="angle_bits 56"):
        replace(desk_cfg(), cordic=bad)
    with pytest.raises(ConfigError, match="angle_bits 56"):
        cordic_sincos_array(np.arange(1024, dtype=np.int64), 1024, bad)


@pytest.mark.parametrize("l_acc, a_max", [(8, 61), (1024, 54), (65520, 48)])
def test_cordic_largest_legal_angle_bits_equals_oracle(l_acc, a_max):
    """a_max is the largest A with (L_acc/4 - 1) * 2^(A+1) + L_acc < 2^63."""
    cfg = CordicConfig(data_bits=10, iterations=10, angle_bits=a_max)
    assert replace(desk_cfg(l_acc), cordic=cfg).cordic == cfg
    q = l_acc // 4
    edges = {(k * q + d) % l_acc for k in range(4) for d in (-1, 0, 1)}
    phases = np.array(sorted(edges | set(range(0, l_acc, max(1, l_acc // 1024)))))
    ci, cq = cordic_sincos_array(phases, l_acc, cfg)
    got = list(zip(ci.tolist(), cq.tolist()))
    assert got == [cordic_oracle(int(p), l_acc, cfg) for p in phases]
    over = replace(cfg, angle_bits=a_max + 1)
    with pytest.raises(ConfigError):
        replace(desk_cfg(l_acc), cordic=over)
    with pytest.raises(ConfigError):
        cordic_sincos_array(phases, l_acc, over)


@st.composite
def cordic_tables(draw):
    l_acc = 4 * draw(st.integers(2, 512))
    cfg = CordicConfig(
        data_bits=draw(st.integers(4, 24)),
        iterations=draw(st.integers(1, 24)),
        angle_bits=draw(st.one_of(st.none(), st.integers(4, 24))),
        guard_bits=draw(st.integers(0, 8)),
    )
    return l_acc, cfg


@settings(max_examples=200)
@given(cordic_tables())
def test_cordic_table_equals_cordic_sincos_array(case):
    l_acc, cfg = case
    ti, tq = _cordic_table(l_acc, cfg)
    ri, rq = cordic_sincos_array(np.arange(l_acc), l_acc, cfg)
    assert ti.dtype == ri.dtype == np.int64
    assert np.array_equal(ti, ri)
    assert np.array_equal(tq, rq)


@st.composite
def cordic_tones(draw):
    l_acc = 4 * draw(st.integers(2, 256))
    divisors = [d for d in range(1, l_acc + 1) if l_acc % d == 0]
    step = draw(st.sampled_from(divisors))  # words sharing factors with l_acc
    word = step * draw(st.integers(0, l_acc // step - 1))
    cfg = CordicConfig(data_bits=draw(st.integers(4, 16)), iterations=draw(st.integers(1, 16)))
    return l_acc, word, cfg


@settings(max_examples=200)
@given(cordic_tones())
def test_cordic_tone_equals_lookup_of_every_phase_word(case):
    # one accumulator period, whatever the tone's own period
    l_acc, word, cfg = case
    ti, tq = cordic_tone(l_acc, word, cfg)
    ri, rq = cordic_sincos_array(phase_words(l_acc, word, l_acc), l_acc, cfg)
    assert ti.dtype == np.int64 and len(ti) == len(tq) == l_acc
    assert np.array_equal(ti, ri)
    assert np.array_equal(tq, rq)


def test_cordic_tone_owns_its_arrays_and_checks_l_acc():
    cfg = CordicConfig(data_bits=10, iterations=10)
    with pytest.raises(ConfigError):
        cordic_tone(1022, 1, cfg)  # not a multiple of 4
    ci, cq = cordic_tone(1024, 1, cfg)
    ci[:] = 0  # callers own their arrays; the shared table is untouched
    cq[:] = 0
    again = cordic_tone(1024, 1, cfg)
    assert np.array_equal(again, cordic_sincos_array(np.arange(1024), 1024, cfg))


# ---------------------------------------------------------------------------
# tone generator and band pipeline


def test_tone_dc_word_is_constant():
    cfg = desk_cfg()
    ti, tq = tone_generate(ToneConfig(0, 0, 0, 32767), cfg)
    assert len(ti) == len(tq) == cfg.L_acc
    want = (511 * 32767) >> 15
    assert np.all(ti == want)
    assert np.all(tq == 0)


def test_tone_periodicity():
    cfg = desk_cfg()
    ti, tq = tone_generate(ToneConfig(0, 0, 4, 32767), cfg)
    assert np.array_equal(ti[:256], ti[256:512])
    assert np.array_equal(tq[:768], tq[256:])
    assert not np.array_equal(ti[:128], ti[128:256])  # 256 is minimal


def test_tone_full_modulus_period_for_coprime_word():
    cfg = desk_cfg(l_acc=65536)
    ti, _ = tone_generate(ToneConfig(0, 0, 997, 32767), cfg)
    assert len(ti) == 65536  # every period divides 65536, and 32768 is not one
    assert not np.array_equal(ti[: 65536 // 2], ti[65536 // 2 : 65536])


def test_tone_amplitude_validation():
    with pytest.raises(ConfigError, match="amplitude_raw -1 "):
        ToneConfig(0, 0, 3, -1)
    with pytest.raises(ConfigError, match="amplitude_raw 32769 "):
        ToneConfig(0, 0, 3, 32769)  # > 1.0
    assert ToneConfig(0, 0, 3).amplitude_raw == 32768
    # the raw code is read as AMPLITUDE_FORMAT (Q2.15)
    assert ToneConfig(0, 0, 3, 0).amplitude_code == FxpValue(0, AMPLITUDE_FORMAT)
    assert ToneConfig(0, 0, 3, 16384).amplitude_code == FxpValue(1 << 14, AMPLITUDE_FORMAT)


def test_band_sum_dc_tones():
    n = 8
    streams = [(np.full(n, 10, dtype=np.int64), np.zeros(n, dtype=np.int64))] * 40
    bi, bq = band_sum(streams, 16)
    assert np.all(bi == 400)
    assert np.all(bq == 0)


def test_band_sum_cancellation():
    rng = np.random.default_rng(22)
    si = rng.integers(-500, 500, 64)
    sq = rng.integers(-500, 500, 64)
    bi, bq = band_sum([(si, sq), (-si, -sq)], 12)
    assert np.all(bi == 0) and np.all(bq == 0)


def test_band_sum_equals_per_tone_sum():
    cfg = desk_cfg()
    t1 = tone_generate(ToneConfig(0, 0, 3, 8192), cfg)
    t2 = tone_generate(ToneConfig(0, 1, 5, 8192), cfg)
    bi, bq = band_sum([t1, t2], cfg.resolved_sum_width)
    assert np.array_equal(bi, t1[0] + t2[0])
    assert np.array_equal(bq, t1[1] + t2[1])


def test_band_sum_big_integer_oracle():
    rng = np.random.default_rng(23)
    streams = [
        (rng.integers(-511, 512, 50), rng.integers(-511, 512, 50)) for _ in range(40)
    ]
    bi, bq = band_sum(streams, 16)
    for n in range(50):
        assert int(bi[n]) == sum(int(s[0][n]) for s in streams)
        assert int(bq[n]) == sum(int(s[1][n]) for s in streams)


def test_band_sum_overflow_detected():
    streams = [(np.full(4, 511, dtype=np.int64), np.zeros(4, dtype=np.int64))] * 40
    with pytest.raises(ConfigError):
        band_sum(streams, 10)


def test_band_sum_of_a_generator_equals_list_and_leaves_inputs_alone():
    rng = np.random.default_rng(27)
    streams = [(rng.integers(-500, 500, 64), rng.integers(-500, 500, 64)) for _ in range(12)]
    copies = [(si.copy(), sq.copy()) for si, sq in streams]
    bi, bq = band_sum(streams, 14)
    gi, gq = band_sum((s for s in streams), 14)
    assert np.array_equal(bi, gi) and np.array_equal(bq, gq)
    oi, oq = band_sum(streams[:1], 14)
    oi += 1
    oq += 1
    for (si, sq), (ci, cq) in zip(streams, copies):
        assert np.array_equal(si, ci) and np.array_equal(sq, cq)


def test_band_sum_rejects_empty_and_unequal_streams():
    for empty in ([], iter(())):
        with pytest.raises(ConfigError, match="at least one stream"):
            band_sum(empty, 16)
    a, b = np.zeros(8, dtype=np.int64), np.zeros(9, dtype=np.int64)
    for streams in ([(a, b)], [(a, a), (b, b)], [(a, a), (a, b)]):
        with pytest.raises(ConfigError, match="equal length"):
            band_sum(streams, 16)
        with pytest.raises(ConfigError, match="equal length"):
            band_sum(iter(streams), 16)


@pytest.mark.parametrize(
    "total, dtype",
    [(band_sum, np.int64), (DoublePrecision(np.ones(1), np.ones(1)).sum, float)],
    ids=["band_sum", "DoublePrecision.sum"],
)
def test_stream_sums_drop_each_stream_once_added(total, dtype):
    """While stream k+1 is being made, no earlier stream is alive: the sum
    holds only its running total and the stream it is adding."""
    made, live = [], []

    def streams():
        for k in range(4):
            live.append(sum(any(r() is not None for r in refs) for refs in made))
            pair = (np.full(64, k, dtype), np.full(64, -k, dtype))
            made.append([weakref.ref(a) for a in pair])
            yield pair
            del pair

    bi, bq = total(streams(), 16)
    assert live == [0, 0, 0, 0]
    assert bi.tolist() == [6] * 64 and bq.tolist() == [-6] * 64


def test_generate_comb_streams_tones_into_the_band_sum():
    """A 40-tone band peaks below 8 tone streams' worth of traced memory,
    through its tone sum and the comb: the tones are summed as they are
    generated, never held together. The run is one accumulator period, so
    each tone stream spans all of it."""
    n = 1 << 15
    cfg = GeneratorConfig(
        n_bands=1, tones_per_band=40, L_acc=n, upsample_factor=1, shifter_lut_len=5
    )
    words = default_freq_words(cfg.L_acc, 40)
    tones = [ToneConfig(0, t, w, 819) for t, w in enumerate(words)]
    # fill the CORDIC table and filter caches
    generate_comb(cfg, band_tone_sums(cfg, tones), 64)
    tracemalloc.start()
    try:
        generate_comb(cfg, band_tone_sums(cfg, tones), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stream_bytes = 2 * n * np.dtype(np.int64).itemsize  # I and Q of one tone
    assert peak < 8 * stream_bytes


def test_down_shift_dc_becomes_period_five_tone():
    cfg = desk_cfg()
    n = 40
    band = (np.full(n, 1000, dtype=np.int64), np.zeros(n, dtype=np.int64))
    di, dq = down_shift(band, cfg)
    assert np.array_equal(di[:5], di[5:10])
    assert np.array_equal(dq[:35], dq[5:])
    assert not np.all(dq == 0)
    # entry 0 is the unit: identity within 1 LSB at stride-5 points
    assert np.abs(di[::5] - 1000).max() <= 1
    assert np.abs(dq[::5]).max() <= 1


def test_down_shift_moves_band_rate_fifth_tone_to_dc():
    cfg = desk_cfg(l_acc=1020)
    st = tone_generate(ToneConfig(0, 0, 1020 // 5, 32767), cfg)
    band = band_sum([st], cfg.resolved_sum_width)
    di, dq = down_shift(band, cfg)
    mag = np.abs(np.fft.fft(di + 1j * dq)) / 1020
    floor = np.delete(mag, 0).max()
    assert mag[0] > 400
    assert 20 * np.log10(mag[0] / floor) > 40.0


def test_upsample_zero_in_zero_out():
    cfg = desk_cfg()
    z = np.zeros(32, dtype=np.int64)
    ui, uq = upsample_interp((z, z), cfg)
    assert len(ui) == 32 * 8
    assert not ui.any() and not uq.any()


def test_upsample_impulse_yields_tap_sequence():
    cfg = desk_cfg()
    spec = cfg.resolved_interp_filter()
    x = np.zeros(16, dtype=np.int64)
    x[0] = 1000
    ui, _ = upsample_interp((x, np.zeros_like(x)), cfg)
    taps = spec.taps_array()
    want = (1000 * taps) >> spec.frac_bits
    assert np.array_equal(ui[: len(taps)], want)


def test_upsample_steady_state_period_scales_by_factor():
    cfg = desk_cfg()
    rng = np.random.default_rng(24)
    p = 12
    one = rng.integers(-1000, 1000, p)
    x = np.tile(one, 30)
    ui, uq = upsample_interp((x, x[::-1].copy() if False else x), cfg)
    n_taps = len(cfg.resolved_interp_filter().taps)
    steady = ui[n_taps - 1 :]
    up = p * 8
    assert np.array_equal(steady[:-up], steady[up:])


def stream_pair(seed, width, n):
    """Random width-bit I and Q streams, a fifth of the samples at the
    format's edges so that saturation is exercised."""
    rng = np.random.default_rng(seed)
    lim = 1 << (width - 1)
    out = []
    for _ in range(2):
        x = rng.integers(-lim, lim, n)
        edge = rng.random(n) < 0.2
        x[edge] = rng.choice([-lim, lim - 1], int(edge.sum()))
        out.append(x.astype(np.int64))
    return tuple(out)


def zero_stuffed_interp(band, cfg):
    """The interpolator before its polyphase split, kept as the oracle:
    zero-stuff by U, then run fir_apply at the full rate."""
    bi, bq = band
    u = cfg.upsample_factor
    ui = np.zeros(len(bi) * u, dtype=np.int64)
    uq = np.zeros(len(bq) * u, dtype=np.int64)
    ui[::u] = bi
    uq[::u] = bq
    return fir_apply(ui, uq, cfg.resolved_interp_filter(), cfg.resolved_sum_width)


@st.composite
def interpolators(draw):
    u = draw(st.integers(1, 8))
    frac = draw(st.integers(1, 17))
    fmt = FxpFormat(frac + 2, frac)
    half = draw(st.lists(st.integers(fmt.min_raw, fmt.max_raw), min_size=1, max_size=12))
    taps = tuple(half + half[-2::-1])  # odd and symmetric, 1 to 23 taps
    width = draw(st.integers(2, 24))
    band = stream_pair(draw(st.integers(0, 2**32 - 1)), width, draw(st.integers(1, 40)))
    cfg = GeneratorConfig(
        n_bands=1,
        tones_per_band=1,
        L_acc=8,
        upsample_factor=u,
        shifter_lut_len=5 * u,
        interp_filter=FilterSpec(taps, fmt.total_bits, fmt.frac_bits, "random"),
        sum_width_bits=width,
    )
    return band, cfg


@settings(max_examples=300)
@given(interpolators())
def test_polyphase_interpolator_equals_zero_stuffed_fir(case):
    band, cfg = case
    pi, pq = upsample_interp(band, cfg)
    ri, rq = zero_stuffed_interp(band, cfg)
    assert pi.dtype == np.int64 and len(pi) == len(band[0]) * cfg.upsample_factor
    assert np.array_equal(pi, ri)
    assert np.array_equal(pq, rq)


def test_polyphase_interpolator_with_fewer_taps_than_branches():
    cfg = GeneratorConfig(
        n_bands=1, tones_per_band=1, L_acc=8, upsample_factor=8, shifter_lut_len=40,
        interp_filter=FilterSpec((1 << 15, 1 << 16, 1 << 15), 18, 16, "3 taps"),
        sum_width_bits=12,
    )
    x = np.array([100, -200, 2047], dtype=np.int64)
    ui, uq = upsample_interp((x, -x), cfg)
    # branches 3..7 have no taps; 2047 * 0.5 truncates to 1023
    gap = [0] * 5
    assert ui.tolist() == [50, 100, 50] + gap + [-100, -200, -100] + gap + [1023, 2047, 1023] + gap
    assert np.array_equal(uq, zero_stuffed_interp((x, -x), cfg)[1])


def stream_length(draw, period, low=0):
    """A stream length from low to 3 time slices of _SLICE_SAMPLES, the
    largest stream a run's kernels see: any, or on or one off a whole
    number of periods (a LUT's, or a FIR's window), most often 0 to 2."""
    top = 3 * _SLICE_SAMPLES
    if draw(st.booleans()):
        return draw(st.integers(low, 40) | st.integers(low, top))
    whole = draw(st.integers(0, 2) | st.integers(0, top // period)) * period
    return max(low, whole + draw(st.sampled_from([-1, 0, 1])))


@st.composite
def exact_fir_cases(draw):
    """A rate 1 to 8, odd symmetric int64 taps (1 to 129, so also fewer
    than the rate) and a stream of 1 sample to 3 time slices, also on and
    one off whole windows (the interpolator's K = ceil(len(h) / rate)
    inputs, or the decimator's K blocks of rate inputs), a fifth of its
    codes at the edges of a format up to the widest that keeps every
    partial sum below 2^53."""
    rate = draw(st.integers(1, 8))
    lim = 1 << (draw(st.integers(1, 24)) - 1)
    m = draw(st.integers(1, 65))
    half = draw(st.lists(st.integers(-lim, lim - 1), min_size=m, max_size=m))
    h = np.array(half + half[-2::-1], dtype=np.int64)
    total = int(np.abs(h).sum())
    top = max(w for w in range(2, 33) if total << (w - 1) < 1 << 53)
    width = draw(st.just(top) | st.integers(2, top))
    window = draw(st.sampled_from([-(-len(h) // rate), ((len(h) + rate - 2) // rate + 1) * rate]))
    n = stream_length(draw, window, low=1)
    return stream_pair(draw(st.integers(0, 2**32 - 1)), width, n)[0], h, rate


@settings(max_examples=200)
@given(exact_fir_cases())
def test_exact_fir_products_equal_the_polyphase_kernels(case):
    x, h, rate = case
    for exact, polyphase in (
        (exact_interpolate, polyphase_interpolate),
        (exact_decimate, polyphase_decimate),
    ):
        got, want = exact(x, h, rate), polyphase(x, h, rate)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "centre, kernel", [((1 << 33) - 1, "exact"), (1 << 33, "polyphase")], ids=["below", "at"]
)
def test_fir_callers_take_the_exact_product_below_2_53(monkeypatch, centre, kernel):
    """Taps (2^32, centre, 2^32) in Q2.34 on a 20-bit stream: sum|h| *
    2^19 is 2^53 - 2^19, the largest bound below 2^53, or 2^53 itself.
    Full-scale codes of both signs reach it. Only the kernel named runs
    (the other raises), and both callers equal the zero-stuffed oracle."""
    spec = FilterSpec((1 << 32, centre, 1 << 32), 36, 34, "at the bound")
    assert spec.exact_in_float64(20) is (kernel == "exact")
    unused = ("polyphase" if kernel == "exact" else "exact") + "_{}"
    for name in ("interpolate", "decimate"):
        monkeypatch.setattr(generator, unused.format(name), None)
    lim = 1 << 19
    x = np.array([-lim] * 5 + [lim - 1] * 5 + [-lim, lim - 1] * 3, dtype=np.int64)
    raw = np.convolve(x, spec.taps_array())
    assert -raw.min() == int(np.abs(spec.taps_array()).sum()) << 19
    cfg = GeneratorConfig(
        n_bands=1, tones_per_band=1, L_acc=8, upsample_factor=1, shifter_lut_len=5,
        interp_filter=spec, sum_width_bits=20,
    )
    want = fir_apply(x, -x, spec, 20)
    for got in (upsample_interp((x, -x), cfg), FIXED_POINT.decimate((x, -x), spec, 1, 20)):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    got = FIXED_POINT.decimate((x, -x), spec, 3, 20)
    assert np.array_equal(got[0], want[0][::3]) and np.array_equal(got[1], want[1][::3])


def modulo_lut_mix(x, length, cycles, width, sign, start):
    """lut_mix before tiling, kept as the oracle: modulo-indexed LUT
    gathers at the absolute sample and the out-of-place complex multiply."""
    xi, xq = x
    li, lq = make_lut(length, cycles, width, sign)
    idx = (start + np.arange(len(xi))) % length
    li, lq = li[idx], lq[idx]
    sh = np.int64(width - 1)
    pi = (xi * li - xq * lq) >> sh
    pq = (xi * lq + xq * li) >> sh
    return clip(pi, width), clip(pq, width)


def tiled_float_mix(x, length, cycles, sign, start):
    """DoublePrecision.mix before the block layout, kept as its oracle: the
    phasor table gathered at each absolute sample, out-of-place products."""
    k = phase_words(length, cycles, length)
    c, s = _phasor_table(length)
    idx = (start + np.arange(len(x[0]))) % length
    li, lq = (t[idx] for t in (c[k], sign * s[k]))
    return x[0] * li - x[1] * lq, x[0] * lq + x[1] * li


@st.composite
def lut_mixes(draw):
    """A LUT mix over a stream of 0 samples to 3 time slices, also on and
    one off whole LUT periods, from any absolute sample, a whole number of
    periods in (so also the LUT as the stream's own table, untiled) or
    not; a LUT longer than a slice; widths up to GeneratorConfig's 32
    bits, a fifth of the codes at the format's edges; half the streams are
    strided views (every other element of an array twice as long)."""
    length = draw(st.integers(1, 64) | st.just(_SLICE_SAMPLES + 3))
    cycles = draw(st.integers(0, 3 * length))
    sign = draw(st.sampled_from([+1, -1]))
    width = draw(st.integers(2, 32))
    n = stream_length(draw, length)
    x = stream_pair(draw(st.integers(0, 2**32 - 1)), width, n)
    if draw(st.booleans()):
        x = tuple(np.repeat(s, 2)[::2] for s in x)
    start = draw(st.integers(0, 3).map(lambda k: k * length) | st.integers(0, 3 * length))
    return x, length, cycles, width, sign, start


@settings(max_examples=300)
@given(lut_mixes())
def test_block_lut_mix_equals_modulo_indexed(case):
    x, length, cycles, width, sign, start = case
    before = (x[0].copy(), x[1].copy())
    mi, mq = lut_mix(x, length, cycles, width, sign, start)
    ri, rq = modulo_lut_mix(x, length, cycles, width, sign, start)
    assert mi.dtype == np.int64 and len(mi) == len(x[0])
    assert np.array_equal(mi, ri)
    assert np.array_equal(mq, rq)
    assert np.array_equal(x[0], before[0]) and np.array_equal(x[1], before[1])


@pytest.mark.parametrize("w, dtype", [(16, np.int32), (17, np.int64)])
def test_mix_products_are_int32_up_to_16_bits(w, dtype):
    # the worst case: every sample at -2^(w-1) against LUT entries at
    # +-(2^(w-1) - 1) in both components, so the two products of each sum
    # add, to 2^(2w-1) - 2^w: below 2^31 at 16 bits, past it at 17
    assert mix_dtype(w) is dtype and make_lut(40, 3, w, +1)[0].dtype == dtype
    lim, sc = 1 << (w - 1), (1 << (w - 1)) - 1
    x = np.full(4, -lim, np.int32)
    li, lq = np.array([sc, sc, -sc, -sc], dtype), np.array([sc, -sc, sc, -sc], dtype)
    exact = [
        [int(a) * int(c) - int(b) * int(d) for a, b, c, d in zip(x, x, li, lq)],
        [int(a) * int(d) + int(b) * int(c) for a, b, c, d in zip(x, x, li, lq)],
    ]
    assert max(abs(v) for v in exact[0] + exact[1]) == (1 << (2 * w - 1)) - (1 << w)
    assert (max(abs(v) for v in exact[0]) < 1 << 31) is (w == 16)
    products = _block_products((x, x), (li, lq))
    assert [p.dtype for p in products] == [dtype, dtype]
    assert [p.tolist() for p in products] == exact
    got = cmul_lut(x, x, li, lq, w)
    assert [g.dtype for g in got] == [np.int32, np.int32]
    assert [g.tolist() for g in got] == [clip(np.array(e) >> (w - 1), w).tolist() for e in exact]


def test_lut_mix_saturates_at_both_format_edges():
    # at 45 degrees, edge codes of opposite sign overflow the format upwards
    # and downwards, in the stream's first time slice and in the 999
    # samples past it, which end off a whole LUT period
    x = stream_pair(3, 16, _SLICE_SAMPLES + 999)
    li, lq = make_lut(8, 1, 16, +1)
    idx = np.arange(len(x[0])) % 8
    raw = (x[0] * li[idx] - x[1] * lq[idx]) >> np.int64(15)
    for part in (raw[:_SLICE_SAMPLES], raw[_SLICE_SAMPLES:]):
        assert part.max() > (1 << 15) - 1 and part.min() < -(1 << 15)
    assert len(raw) % 8
    assert np.array_equal(lut_mix(x, 8, 1, 16, +1)[0], clip(raw, 16))


@settings(max_examples=200)
@given(lut_mixes())
def test_block_float_mix_equals_tiled(case):
    x, length, cycles, _, sign, start = case
    x = tuple(np.repeat(s / 3.0, 2)[::2] if s.strides[0] > 8 else s / 3.0 for s in x)
    before = (x[0].copy(), x[1].copy())
    mi, mq = DoublePrecision(np.ones(1), np.ones(1)).mix(x, length, cycles, 0, sign, start)
    ri, rq = tiled_float_mix(x, length, cycles, sign, start)
    assert mi.dtype == np.float64 and len(mi) == len(x[0])
    assert np.array_equal(mi, ri)
    assert np.array_equal(mq, rq)
    assert np.array_equal(x[0], before[0]) and np.array_equal(x[1], before[1])


@settings(max_examples=200)
@given(
    st.integers(1, 12).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(-(2**40), 2**40), min_size=m, max_size=m),
            st.integers(0, 8 * m + 9),
            st.sampled_from([np.int64, np.float64]),
            st.booleans(),
            st.integers(-3 * m, 3 * m),
        )
    )
)
def test_periodic_extend_equals_modulo_indexed(case):
    values, n, dtype, into, start = case
    a = np.array(values, dtype=dtype)
    want = a[(start + np.arange(n)) % len(a)]
    out = np.full(n, -1, dtype=dtype) if into else None
    got = periodic_extend(a, n, out=out, start=start)
    assert got.dtype == a.dtype and got.flags.writeable
    assert np.array_equal(got, want)
    if into:
        assert got is out


def test_band_shift_lut_periodicity():
    cfg = desk_cfg()
    n = 400
    band = (np.full(n, 800, dtype=np.int64), np.zeros(n, dtype=np.int64))
    si, sq = band_shift(band, 0, cfg)
    assert np.array_equal(si[:40], si[40:80])
    assert np.array_equal(sq[: n - 40], sq[40:])
    # DC in, band 0: tone at 1/40 of full rate
    peak = np.argmax(np.abs(np.fft.fft(si + 1j * sq)[: n // 2]))
    assert peak == n // 40


def test_band_shift_rejects_bad_band():
    cfg = desk_cfg()
    band = (np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64))
    with pytest.raises(ConfigError):
        band_shift(band, 2, cfg)


def test_band_add_identity_and_zero():
    rng = np.random.default_rng(25)
    s = (rng.integers(-100, 100, 32), rng.integers(-100, 100, 32))
    ai, aq = band_sum([s], 16)
    assert np.array_equal(ai, s[0]) and np.array_equal(aq, s[1])
    z = (np.zeros(32, dtype=np.int64), np.zeros(32, dtype=np.int64))
    ai, aq = band_sum([z] * 10, 16)
    assert not ai.any() and not aq.any()


def test_band_add_exact_sum():
    rng = np.random.default_rng(26)
    bands = [
        (rng.integers(-4000, 4000, 40), rng.integers(-4000, 4000, 40))
        for _ in range(10)
    ]
    ai, aq = band_sum(bands, 17)
    for n in range(40):
        assert int(ai[n]) == sum(int(b[0][n]) for b in bands)
        assert int(aq[n]) == sum(int(b[1][n]) for b in bands)


# ---------------------------------------------------------------------------
# whole-comb periodicity


def test_waveform_period_examples():
    assert waveform_period(65536, 8, 40) == 2_621_440
    assert waveform_period(65520, 8, 40) == 524_160
    assert waveform_period(1024, 8, 40) == 40_960
    assert waveform_period(1020, 8, 40) == 8_160


def test_waveform_period_validation():
    with pytest.raises(ConfigError):
        waveform_period(0, 8, 40)


def _comb_steady(cfg, words, n_periods=2):
    tones = [
        ToneConfig(b, t, k, 8192)
        for b in range(cfg.n_bands)
        for t, k in enumerate(words)
    ]
    period = waveform_period(cfg.L_acc, cfg.upsample_factor, cfg.shifter_lut_len)
    n_taps = len(cfg.resolved_interp_filter().taps)
    n_band = (n_periods * period + n_taps * cfg.upsample_factor) // cfg.upsample_factor
    wi, wq = generate_comb(cfg, band_tone_sums(cfg, tones), n_band)
    return wi[n_taps - 1 :], wq[n_taps - 1 :], period


def test_comb_period_is_lcm_and_minimal_power_of_two_modulus():
    cfg = desk_cfg(l_acc=1024)
    wi, wq, period = _comb_steady(cfg, default_freq_words(1024, 4))
    assert period == 40_960
    assert np.array_equal(wi[:period], wi[period : 2 * period])
    assert np.array_equal(wq[:period], wq[period : 2 * period])
    # maximal proper divisors 20480 and 8192 both fail -> 40960 is minimal
    for d in (period // 2, period // 5):
        assert not np.array_equal(wi[:d], wi[d : 2 * d])


def test_comb_period_is_lcm_and_minimal_adjusted_modulus():
    cfg = desk_cfg(l_acc=1020)
    wi, wq, period = _comb_steady(cfg, default_freq_words(1020, 4))
    assert period == 8_160  # collapses to L*U: 40 divides 1020*8
    assert np.array_equal(wi[:period], wi[period : 2 * period])
    assert np.array_equal(wq[:period], wq[period : 2 * period])
    for p in (2, 3, 5, 17):
        d = period // p
        assert not np.array_equal(wi[:d], wi[d : 2 * d])


def test_generate_comb_deterministic():
    cfg = desk_cfg()
    tones = [ToneConfig(0, 0, 51, 8192), ToneConfig(1, 2, 257, 8192)]
    a = generate_comb(cfg, band_tone_sums(cfg, tones), 300)
    b = generate_comb(cfg, band_tone_sums(cfg, tones), 300)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_generate_comb_empty_band_is_silent():
    cfg = desk_cfg()
    tones = [ToneConfig(0, 0, 51, 8192)]
    wi, wq = generate_comb(cfg, band_tone_sums(cfg, tones), 100)
    assert len(wi) == 800
    only = band_shift(
        upsample_interp(
            down_shift(
                band_sum([tone_over(tones[0], cfg, 100)], cfg.resolved_sum_width),
                cfg,
            ),
            cfg,
        ),
        0,
        cfg,
    )
    assert np.array_equal(wi, only[0]) and np.array_equal(wq, only[1])


def tone_over(tone, cfg, n):
    """The tone's first n band samples: its accumulator period tiled."""
    return tuple(periodic_extend(s, n) for s in tone_generate(tone, cfg))


def generate_comb_reference(cfg, tones, n):
    """generate_comb before it summed one accumulator period: every tone
    generated over all n band samples, kept as the oracle."""
    bands = []
    for b in sorted({t.band_index for t in tones}):
        streams = [tone_over(t, cfg, n) for t in tones if t.band_index == b]
        band = band_sum(streams, cfg.resolved_sum_width)
        bands.append(band_shift(upsample_interp(down_shift(band, cfg), cfg), b, cfg))
    return band_sum(bands, cfg.wide_width)


@st.composite
def comb_cases(draw):
    l_acc = 4 * draw(st.integers(2, 16))
    u = draw(st.sampled_from([1, 2, 4]))
    cfg = GeneratorConfig(
        n_bands=draw(st.integers(1, 2)),
        tones_per_band=3,
        L_acc=l_acc,
        upsample_factor=u,
        shifter_lut_len=5 * u * draw(st.integers(1, 2)),
        sum_width_bits=draw(st.sampled_from([None, 10, 11])),  # 10 and 11 may overflow
    )
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(0, cfg.n_bands - 1),
                st.integers(0, l_acc - 1),
                st.integers(0, 1 << AMPLITUDE_FORMAT.frac_bits),
            ),
            min_size=1,
            max_size=4,
        )
    )
    tones = [ToneConfig(b, t, w, a) for t, (b, w, a) in enumerate(specs)]
    n = draw(st.one_of(st.integers(1, l_acc - 1), st.integers(l_acc, 3 * l_acc + 5)))
    # any start, on or off the LUT periods, and past the first period
    return cfg, tones, n, draw(st.integers(0, 2 * l_acc + 7))


@settings(max_examples=150)
@given(comb_cases())
def test_generate_comb_sums_one_accumulator_period(case):
    # a comb from start, n below, at and above L_acc, equals the reference
    # run from 0 past the interpolator's transient; the reference covers at
    # least one accumulator period, so both raise on the same overflow
    cfg, tones, n, start = case
    try:
        want = generate_comb_reference(cfg, tones, max(start + n, cfg.L_acc))
    except ConfigError as e:
        with pytest.raises(ConfigError, match=str(e)):
            generate_comb(cfg, band_tone_sums(cfg, tones), n, start)
        return
    got = generate_comb(cfg, band_tone_sums(cfg, tones), n, start)
    skip = len(cfg.resolved_interp_filter().taps) - 1 if start else 0
    u = cfg.upsample_factor
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.int32 and w.dtype == np.int64
        assert len(g) == n * u
        assert np.array_equal(g[skip:], w[start * u + skip : (start + n) * u])


def float_arith(cfg):
    """DoublePrecision on cfg's interpolator taps as floats."""
    spec = cfg.resolved_interp_filter()
    return DoublePrecision(spec.taps_array() / 2.0**spec.frac_bits, np.ones(1))


@settings(max_examples=100)
@given(comb_cases())
def test_generate_comb_from_any_start_equals_a_run_from_0(case):
    # every LUT is read at the absolute sample: past the interpolator's
    # transient a comb from start is the run from 0, bit for bit, in both
    # arithmetics
    cfg, tones, n, start = case
    skip, u = len(cfg.resolved_interp_filter().taps) - 1, cfg.upsample_factor
    for arith in (FIXED_POINT, float_arith(cfg)):
        try:
            sums = band_tone_sums(cfg, tones, arith=arith)
        except ConfigError:  # the sum width overflows: no run at any start
            continue
        want = generate_comb(cfg, sums, start + n, arith=arith)
        got = generate_comb(cfg, sums, n, start, arith=arith)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and len(g) == n * u
            assert np.array_equal(g[skip:], w[start * u + skip :])


def test_generate_comb_needs_one_period_tone_sums():
    cfg = desk_cfg()
    tone = ToneConfig(0, 0, 51, 8192)
    for arith in (FIXED_POINT, float_arith(cfg)):
        [(si, sq)] = band_tone_sums(cfg, [tone], arith=arith).values()
        assert len(si) == len(sq) == cfg.L_acc
        generate_comb(cfg, {0: (si, sq)}, 50, 1001, arith=arith)
        for bad in ((si[:-1], sq[:-1]), (si, sq[:-1]), tone_over(tone, cfg, 2 * cfg.L_acc)):
            with pytest.raises(ConfigError, match="tone sums must be one accumulator period of 1024"):
                generate_comb(cfg, {0: bad}, 50, arith=arith)


def test_generate_comb_needs_a_toned_band():
    cfg = desk_cfg()
    for arith in (FIXED_POINT, DoublePrecision(np.ones(1), np.ones(1))):
        with pytest.raises(ConfigError, match="needs at least one stream"):
            generate_comb(cfg, {}, 100, arith=arith)


def test_generate_comb_needs_a_band_sample():
    # tone sums take no length, so the run length is checked where it is cut
    cfg = desk_cfg()
    for arith in (FIXED_POINT, float_arith(cfg)):
        sums = band_tone_sums(cfg, [ToneConfig(0, 0, 51, 8192)], arith=arith)
        assert len(generate_comb(cfg, sums, 1, arith=arith)[0]) == cfg.upsample_factor
        for n in (0, -3):
            with pytest.raises(ConfigError, match=f"n_band_samples must be >= 1, got {n}"):
                generate_comb(cfg, sums, n, arith=arith)


# ---------------------------------------------------------------------------
# config plumbing


def test_default_words_are_odd_coprime_in_band():
    assert default_freq_words(1024, 4) == [51, 153, 257, 359]
    assert default_freq_words(1020, 4) == [53, 157, 257, 359]
    w = default_freq_words(65536, 40)
    assert w[:6] == [327, 983, 1639, 2293, 2949, 3605]
    assert len(w) == len(set(w)) == 40
    for k in w:
        assert k % 2 == 1
        assert math.gcd(k, 65536) == 1
        assert k < 0.41 * 65536


def test_filter_spec_validation():
    with pytest.raises(ConfigError):
        FilterSpec((1, 2, 2, 1), 17, 15, "even length")
    with pytest.raises(ConfigError):
        FilterSpec((1, 1, 2), 17, 15, "asymmetric")
    assert FilterSpec((1, 2, 1), 17, 15).description == ""
    with pytest.raises(ConfigError):
        FilterSpec((1, 1 << 16, 1), 17, 15, "tap too large")
    with pytest.raises(ConfigError):
        FilterSpec((-(1 << 16) - 1,), 17, 15, "tap too small")
    FilterSpec((-(1 << 16), (1 << 16) - 1, -(1 << 16)), 17, 15, "edges")
    # the widths are those of an FxpFormat
    with pytest.raises(ConfigError, match="total_bits must be in 2..64"):
        FilterSpec((1,), 65, 15)
    with pytest.raises(ConfigError, match="frac_bits must be in 0..total_bits"):
        FilterSpec((1,), 17, 18)


def test_unbounded_taps_are_rejected_before_they_wrap_int64():
    # taps of 2^50 on a 20-bit stream: the convolution sum 3 * 2^50 * (2^19 - 1)
    # wraps int64 and fir_apply returns -524288 where +524287 is right
    with pytest.raises(ConfigError):
        FilterSpec((1 << 50,) * 3, 18, 16, "x")
    wide = FilterSpec((1 << 50,) * 3, 52, 16, "x")
    x = np.full(4, 2**19 - 1, dtype=np.int64)
    assert fir_apply(x, x, wide, 20)[0][-1] == -524288  # the silent wrap
    with pytest.raises(ConfigError, match="interp_filter"):
        GeneratorConfig(
            n_bands=2, tones_per_band=4, L_acc=1024, interp_filter=wide, sum_width_bits=20
        )
    # the bound is sum|h| * 2^(stream_bits-1) < 2^63, checked exactly
    edge = FilterSpec((1 << 45, 1 << 46, 1 << 45), 52, 16, "x")
    GeneratorConfig(n_bands=2, tones_per_band=4, L_acc=1024, interp_filter=edge, sum_width_bits=16)
    with pytest.raises(ConfigError):
        GeneratorConfig(n_bands=2, tones_per_band=4, L_acc=1024, interp_filter=edge, sum_width_bits=17)


def exact_lut_mix(x, length, cycles, width, sign):
    """lut_mix in Python integers: the products cannot wrap."""
    li, lq = make_lut(length, cycles, width, sign)
    hi = (1 << (width - 1)) - 1
    out = ([], [])
    for n, (a, b) in enumerate(zip(*x)):
        c, s = int(li[n % length]), int(lq[n % length])
        for o, v in zip(out, (int(a) * c - int(b) * s, int(a) * s + int(b) * c)):
            o.append(min(max(v >> (width - 1), -hi - 1), hi))
    return out


def test_stream_widths_are_bounded_before_the_lut_mixes_wrap_int64():
    # a 42-bit stream wraps int64 in lut_mix: 8388607 gives -2, not 8388606
    x = (np.full(5, 8388607, dtype=np.int64),) * 2
    assert lut_mix(x, 5, 1, 42, +1)[0][0] == -2
    assert exact_lut_mix(x, 5, 1, 42, +1)[0][0] == 8388606
    one = dict(n_bands=1, tones_per_band=1, L_acc=8, upsample_factor=1, shifter_lut_len=5,
               cordic=CordicConfig(24, 24))
    for bad in (0, 1, 32, 42):  # a band sum of < 2 bits, a wideband stream of > 32
        with pytest.raises(ConfigError, match=f"sum_width_bits {bad} "):
            GeneratorConfig(**one, sum_width_bits=bad)
    g = GeneratorConfig(**one, sum_width_bits=31)
    assert g.wide_width == 32
    # at the widest legal streams, format-edge codes mix exactly; one bit more wraps
    for w in (g.resolved_sum_width, g.wide_width, g.wide_width + 1):
        x = stream_pair(w, w, 400)
        got = [lut_mix(x, 40, c, w, sign) for c in (1, 3) for sign in (+1, -1)]
        want = [exact_lut_mix(x, 40, c, w, sign) for c in (1, 3) for sign in (+1, -1)]
        exact = all(a.tolist() == b for pg, pw in zip(got, want) for a, b in zip(pg, pw))
        assert exact == (w <= 32), w


def test_filter_design_keeps_the_gain_argument_type():
    # designs are shared between calls; 8 and 8.0 must still give their own text
    a = design_windowed_sinc(63, 1.0 / 16, gain=8)
    b = design_windowed_sinc(63, 1.0 / 16, gain=8.0)
    assert a.taps == b.taps
    assert "gain 8," in a.description and "gain 8.0," in b.description


def test_windowed_sinc_filter_is_symmetric_and_unit_peak():
    spec = design_windowed_sinc(63, 1.0 / 16, gain=8, coeff_bits=18)
    taps = spec.taps_array()
    assert len(taps) == 63
    assert np.array_equal(taps, taps[::-1])
    assert taps[31] == taps.max()
    assert abs(taps[31] / 2.0**16 - 1.0) < 0.01  # center tap near the stuffed gain


def test_make_lut_quarter_symmetry():
    li, lq = make_lut(40, 1, 16, sign=+1)
    assert li[0] == (1 << 15) - 1
    assert lq[0] == 0
    assert li[10] == 0 and lq[10] == (1 << 15) - 1
    lin, lqn = make_lut(40, 1, 16, sign=-1)
    assert np.array_equal(lin, li)
    assert np.array_equal(lqn, -lq)


def test_shared_tables_are_read_only():
    # every mix shares one LUT and every FIR call one tap array
    li, lq = make_lut(40, 3, 13, -1)
    assert make_lut(40, 3, 13, -1)[0] is li
    taps = design_windowed_sinc(63, 1.0 / 16, gain=8, coeff_bits=18).taps_array()
    for a in (li, lq, taps):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("lut", [0, -40])
def test_generator_config_refuses_a_shifter_lut_below_one_entry(lut):
    # both pass the multiple-of-5U check; a zero phase step then divides by zero
    with pytest.raises(ConfigError, match=f"shifter_lut_len {lut} "):
        GeneratorConfig(shifter_lut_len=lut)


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        desk_cfg(l_acc=7)  # too small
    with pytest.raises(ConfigError):
        desk_cfg(l_acc=1022)  # not a multiple of 4
    with pytest.raises(ConfigError):
        GeneratorConfig(
            n_bands=2,
            tones_per_band=4,
            L_acc=1024,
            band_rate_hz=250e6,
            upsample_factor=8,
            shifter_lut_len=39,  # band centers not representable
        )
