"""Analysis path: channelizer, demodulators, boxcar averaging."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin import ConfigError
from combtwin.analyzer import (
    AnalyzerConfig,
    DemodMode,
    IqTimeSeries,
    boxcar_response,
    channelize,
    ddc_products,
)
from combtwin.generator import (
    FIXED_POINT,
    CordicConfig,
    FilterSpec,
    GeneratorConfig,
    ToneConfig,
    band_tone_sums,
    cordic_sincos_array,
    generate_comb,
    lut_mix,
    phase_words,
)
from combtwin.harness import make_chain_config
from test_generator import fir_apply


def desk_analyzer(l_avg=1024, mode=DemodMode.SINE_DDC, n_bands=2, wide=13):
    return AnalyzerConfig(
        decim_to_band=8,
        L_avg=l_avg,
        demod_mode=mode,
        n_bands=n_bands,
        band_rate_hz=250e6,
        wide_width_bits=wide,
        reference_bits=10,
    )


def desk_generator(l_acc=1024):
    # two bands of four 10-bit tones: a 13-bit wideband stream
    return GeneratorConfig(
        n_bands=2,
        tones_per_band=4,
        L_acc=l_acc,
        band_rate_hz=250e6,
        upsample_factor=8,
        shifter_lut_len=40,
    )


def desk_chain(**kw):
    """desk_generator's chain: 2 bands of 4 tones, L_avg 1024."""
    return make_chain_config("desk", 1024, 1024, 2, 4, 2, **kw)


def desk_channelizer():
    return desk_chain().resolved_channelizer_filter()


def channelize_direct(wideband, band_index, g, spec):
    """channelize with the full-rate FIR, kept as the reference of the
    polyphase decimator: the conjugate band shift, fir_apply, then every
    U-th sample and the band_rate/5 re-shift."""
    w, lut, u = g.wide_width, g.shifter_lut_len, g.upsample_factor
    cycles = lut * (2 * band_index + 1) // (5 * u)
    mi, mq = lut_mix(wideband, lut, cycles, w, -1)
    bi, bq = fir_apply(mi, mq, spec, w)
    return lut_mix((bi[::u], bq[::u]), 5, 1, w, +1)


def reference_wave(word, l_acc, n):
    ph = phase_words(l_acc, word, n)
    return cordic_sincos_array(ph, l_acc, CordicConfig(data_bits=10, iterations=10))


# ---------------------------------------------------------------------------
# configuration


def test_analyzer_config_defaults_and_validation():
    cfg = desk_analyzer()
    assert cfg.fs_hz == pytest.approx(250e6 / 1024)
    with pytest.raises(ConfigError):
        desk_analyzer(l_avg=0)
    # the chain checks the copies against the generator and sizes the
    # accumulator from the generator's widths
    chain = desk_chain()
    assert chain.ddc_product_bits == 13 + 10 + 1
    assert chain.resolved_accumulator_width >= chain.ddc_product_bits + 10
    with pytest.raises(ConfigError, match="analyzer.shifter_lut_len 39"):
        replace(chain, analyzer=replace(chain.analyzer, shifter_lut_len=39))
    with pytest.raises(ConfigError, match="accumulator_width_bits 20 < 34"):
        # cannot hold the boxcar growth
        replace(chain, analyzer=replace(chain.analyzer, accumulator_width_bits=20))


def test_channelizer_default_filter_shape():
    spec = desk_channelizer()
    taps = spec.taps_array()
    assert len(taps) == 127
    assert np.array_equal(taps, taps[::-1])


# ---------------------------------------------------------------------------
# channelizer


def test_channelize_zero_in_zero_out():
    g, spec = desk_generator(), desk_channelizer()
    z = np.zeros(4096, dtype=np.int64)
    for b in range(2):
        yi, yq = channelize((z, z), b, g, spec)
        assert len(yi) == 512
        assert not yi.any() and not yq.any()


def test_channelize_rejects_bad_band():
    g, spec = desk_generator(), desk_channelizer()
    z = np.zeros(64, dtype=np.int64)
    with pytest.raises(ConfigError):
        channelize((z, z), 2, g, spec)
    with pytest.raises(ConfigError):
        channelize((z, z), -1, g, spec)


def test_polyphase_equals_direct_on_random_input():
    rng = np.random.default_rng(31)
    n = 100_000
    wi = rng.integers(-4096, 4096, n)
    wq = rng.integers(-4096, 4096, n)
    g, spec = desk_generator(), desk_channelizer()
    for b in range(2):
        di, dq = channelize_direct((wi, wq), b, g, spec)
        pi, pq = channelize((wi, wq), b, g, spec)
        assert np.array_equal(di, pi)
        assert np.array_equal(dq, pq)


@st.composite
def channelizer_cases(draw):
    u = draw(st.integers(1, 8))
    n_bands = draw(st.integers(1, 3))
    band_bits = max(1, math.ceil(math.log2(n_bands)))
    # the generator's band sum has at least 2 bits: a wideband stream of 3
    # bits (4 for three bands) up to 32
    w = draw(st.integers(2 + band_bits, 32))
    half = draw(st.lists(st.integers(-(1 << 17), (1 << 17) - 1), min_size=1, max_size=16))
    spec = FilterSpec(tuple(half + half[-2::-1]), 18, 16, "random symmetric")
    g = GeneratorConfig(
        n_bands=n_bands,
        tones_per_band=1,
        L_acc=8,
        upsample_factor=u,
        shifter_lut_len=5 * u * draw(st.integers(1, 3)),
        sum_width_bits=w - band_bits,
    )
    assert g.wide_width == w
    n = draw(st.integers(1, 300))
    lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
    stream = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    wide = (np.array(draw(stream), dtype=np.int64), np.array(draw(stream), dtype=np.int64))
    return g, spec, wide, draw(st.integers(0, n_bands - 1))


@settings(max_examples=150)
@given(channelizer_cases())
def test_polyphase_equals_direct_on_random_configs(case):
    g, spec, wide, band = case
    di, dq = channelize_direct(wide, band, g, spec)
    pi, pq = channelize(wide, band, g, spec)
    assert np.array_equal(di, pi)
    assert np.array_equal(dq, pq)


def test_channelizer_taps_that_can_wrap_int64_are_rejected():
    # sum|h| * 2^(w-1) = 3 * 2^50 * 2^(w-1) reaches 2^63 at w = 13
    taps = FilterSpec((1 << 50,) * 3, 52, 16, "x")
    chain = desk_chain()  # 13-bit wideband stream
    with pytest.raises(ConfigError, match="channelizer_filter"):
        replace(chain, analyzer=replace(chain.analyzer, channelizer_filter=taps))
    chain = make_chain_config("one", 1024, 1024, 1, 1, 2)  # 12-bit wideband stream
    assert chain.generator.wide_width == 12
    replace(chain, analyzer=replace(chain.analyzer, channelizer_filter=taps))


def test_channelize_recovers_single_tone_band():
    # a tone placed in band 1 shows up in channel 1 at its grid frequency
    # and only as stopband leakage in channel 0
    gcfg, spec = desk_generator(), desk_channelizer()
    word = 257
    tones = [ToneConfig(1, 0, word, 32767)]
    wide = generate_comb(gcfg, band_tone_sums(gcfg, tones, 4096), 4096)
    y1 = channelize(wide, 1, gcfg, spec)
    y0 = channelize(wide, 0, gcfg, spec)
    n = len(y1[0])
    skip = 64  # filter transient
    z1 = (y1[0] + 1j * y1[1])[skip:]
    z0 = (y0[0] + 1j * y0[1])[skip:]
    f1 = np.abs(np.fft.fft(z1))
    peak = int(np.argmax(f1))
    want = round(word / 1024 * len(z1))
    assert abs(peak - want) <= 1
    assert np.abs(z0).max() < 0.05 * np.abs(z1).max()


def test_channelize_undoes_band_shift_on_tone_grid():
    # exciter cascade up, analyzer cascade down: the tone returns at its
    # own grid frequency (the down-shift and re-shift cancel exactly)
    from combtwin.generator import upsample_interp
    from test_generator import band_shift, down_shift

    gcfg = desk_generator()
    n = 2048
    k = 9  # cycles in n samples at band rate
    t = np.arange(n)
    x = np.round(3000 * np.exp(2j * np.pi * k * t / n))
    band = x.real.astype(np.int64), x.imag.astype(np.int64)
    shifted = band_shift(upsample_interp(down_shift(band, gcfg), gcfg), 0, gcfg)
    yi, yq = channelize(shifted, 0, gcfg, desk_channelizer())
    z = (yi + 1j * yq)[32:]
    spec = np.abs(np.fft.fft(z))
    peak = int(np.argmax(spec))
    assert peak == round(k / n * len(z))
    assert spec[peak] > 100 * np.median(spec)


# ---------------------------------------------------------------------------
# demodulators


def demod(subband, reference, l_avg, mode=DemodMode.SINE_DDC):
    """The chain's demodulator: ddc_products, then the fixed-point window
    sums of every whole window."""
    n_windows = len(subband[0]) // l_avg
    return tuple(
        FIXED_POINT.window_sums(y, l_avg, n_windows)
        for y in ddc_products(subband, reference, mode)
    )


def test_ddc_sine_self_demodulation():
    word, l_acc, l_avg = 205, 1024, 1024
    n = 4 * l_avg
    ref = reference_wave(word, l_acc, n)
    i, q = demod(ref, ref, l_avg)
    assert len(i) == len(q) == 4
    # each window accumulates |ref|^2 exactly
    want = int((ref[0].astype(object) ** 2 + ref[1].astype(object) ** 2)[:l_avg].sum())
    assert np.all(i == want)
    assert np.all(q == 0)
    assert want > 0.9 * l_avg * 511**2


def test_ddc_sine_rejects_other_grid_tone():
    l_acc = l_avg = 1024
    n = 4 * l_avg
    ref = reference_wave(205, l_acc, n)
    other = reference_wave(307, l_acc, n)
    i, q = demod(other, ref, l_avg)
    # boxcar zero at grid spacing: bounded by accumulated quantization
    assert np.abs(i).max() <= 4 * l_avg
    assert np.abs(q).max() <= 4 * l_avg
    self_i, _ = demod(ref, ref, l_avg)
    assert np.abs(i).max() < 1e-2 * self_i[0]


def test_ddc_zero_subband_zero_series():
    l_avg = 1024
    ref = reference_wave(205, 1024, 2 * l_avg)
    z = np.zeros(2 * l_avg, dtype=np.int64)
    for mode in DemodMode:
        i, q = demod((z, z), ref, l_avg, mode)
        assert not i.any() and not q.any()


def test_ddc_square_uses_reference_signs_only():
    l_avg = 128
    n = 2 * l_avg
    rng = np.random.default_rng(32)
    si = rng.integers(-2000, 2000, n)
    sq = rng.integers(-2000, 2000, n)
    ref = reference_wave(17, 1024, n)
    i, q = demod((si, sq), ref, l_avg, DemodMode.SQUARE_WAVE)
    sc = np.where(ref[0] >= 0, 1, -1).astype(np.int64)
    ss = np.where(ref[1] >= 0, 1, -1).astype(np.int64)
    want_i = (sc * si + ss * sq)[:l_avg].sum()
    want_q = (sc * sq - ss * si)[:l_avg].sum()
    assert i[0] == want_i
    assert q[0] == want_q


def test_ddc_square_sign_of_zero_is_positive():
    l_avg = 4
    ref_i = np.array([0, -1, 0, 1], dtype=np.int64)
    ref_q = np.array([1, 0, -1, 0], dtype=np.int64)
    ones = np.ones(4, dtype=np.int64)
    zeros = np.zeros(4, dtype=np.int64)
    i, q = demod((ones, zeros), (ref_i, ref_q), l_avg, DemodMode.SQUARE_WAVE)
    # signs: sc = [+,-,+,+], ss = [+,+,-,+]
    assert i[0] == 1 - 1 + 1 + 1
    assert q[0] == -(1 + 1 - 1 + 1)


def test_square_to_sine_magnitude_ratio():
    # on-grid tone: square-wave demod picks up the 4/pi fundamental factor
    word, l_acc, l_avg = 205, 1024, 1024
    n = 8 * l_avg
    ref = reference_wave(word, l_acc, n)
    si, sq = demod(ref, ref, l_avg)
    qi, qq = demod(ref, ref, l_avg, DemodMode.SQUARE_WAVE)
    ms = np.abs(si.mean() + 1j * sq.mean())
    mq = np.abs(qi.mean() + 1j * qq.mean())
    ratio = (mq * 511.0 / ms) / (4.0 / math.pi)
    assert abs(ratio - 1.0) < 0.02
    dphi = abs(math.atan2(qq.mean(), qi.mean()) - math.atan2(sq.mean(), si.mean()))
    assert dphi < 1e-2


def test_series_metadata_and_complex_view():
    l_avg = 512
    ref = reference_wave(205, 1024, 2 * l_avg)
    i, q = demod(ref, ref, l_avg)
    rate = desk_analyzer(l_avg=l_avg).fs_hz
    out = IqTimeSeries(1, 3, 205, i, q, rate, l_avg, DemodMode.SINE_DDC)
    assert out.band_index == 1 and out.tone_index == 3 and out.freq_word == 205
    assert out.rate_hz == pytest.approx(250e6 / 512)
    z = out.complex_values()
    assert z.dtype == np.complex128
    assert np.array_equal(z.real.astype(np.int64), out.i)


# ---------------------------------------------------------------------------
# boxcar response


def test_boxcar_response_endpoints():
    assert boxcar_response(65536, 0.0) == 1.0
    assert boxcar_response(1024, 0.0) == 1.0


def test_boxcar_response_nulls_are_exact():
    for L in (1024, 1020, 65536):
        for k in (1, 2, 7, L // 2):
            assert boxcar_response(L, k / L) == 0.0


def test_boxcar_response_near_null_fifth():
    # the modulus-spur frequency lands between nulls and leaks through
    L = 65536
    got = boxcar_response(L, 1.0 / (5 * L))
    # direct-summation oracle
    f = 1.0 / (5 * L)
    want = abs(np.exp(2j * np.pi * f * np.arange(L)).sum()) / L
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(0.9355, abs=1e-4)


def test_boxcar_float_zero_invariant():
    # float-precision exponential at any nonzero grid word sums to ~0
    rng = np.random.default_rng(33)
    L = 4096
    n = np.arange(L)
    for _ in range(20):
        k = int(rng.integers(1, L))
        s = np.exp(2j * np.pi * k * n / L).sum()
        assert abs(s) / L < 1e-9


def test_alias_arithmetic_of_residual_lines():
    # a float tone at f_b*j/(5*L_avg) folds to bin M*j/5 of the series FFT
    l_avg = 1024
    m_windows = 40
    n = l_avg * m_windows
    t = np.arange(n)
    for j in (1, 2):
        x = np.exp(2j * np.pi * j * t / (5 * l_avg))
        w = x.reshape(m_windows, l_avg).sum(axis=1)
        spec = np.abs(np.fft.fft(w - w.mean()))
        assert int(np.argmax(spec[: m_windows // 2 + 1])) == m_windows * j // 5
