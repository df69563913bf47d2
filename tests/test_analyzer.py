"""Analysis path: channelizer, demodulators, boxcar averaging."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin import ConfigError, analyzer
from combtwin.analyzer import (
    AnalyzerConfig,
    DemodMode,
    IqTimeSeries,
    channelize,
    ddc_bank,
    ddc_products,
)
from combtwin.generator import (
    FIXED_POINT,
    CordicConfig,
    DoublePrecision,
    FilterSpec,
    GeneratorConfig,
    ToneConfig,
    band_tone_sums,
    cordic_sincos_array,
    generate_comb,
    _block_products,
    lut_mix,
    periodic_extend,
    phase_words,
)
from combtwin.harness import make_chain_config
from test_generator import fir_apply, stream_length


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


def test_channelize_refuses_an_empty_stream_in_both_arithmetics():
    g, spec = desk_generator(), desk_channelizer()
    double = DoublePrecision(np.ones(1), spec.taps_array() / 2.0**spec.frac_bits)
    for arith, dtype in ((FIXED_POINT, np.int64), (double, np.float64)):
        z = np.zeros(0, dtype=dtype)
        with pytest.raises(ConfigError, match="wideband stream must hold >= 1 sample, got 0"):
            channelize((z, z), 0, g, spec, arith=arith)


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


@settings(max_examples=150)
@given(channelizer_cases(), st.data())
def test_channelize_from_any_start_equals_a_run_from_0(case, data):
    # every LUT is read at the absolute sample: a stream that starts at band
    # sample a0, past the channelizer's transient, gives the run from 0's
    # samples bit for bit in both arithmetics, on or off the LUT periods
    g, spec, wide, band = case
    u = g.upsample_factor
    a0 = data.draw(st.integers(0, (len(wide[0]) - 1) // u))
    skip = -(-(len(spec.taps) - 1) // u)
    double = DoublePrecision(np.ones(1), spec.taps_array() / 2.0**spec.frac_bits)
    for arith, x in ((FIXED_POINT, wide), (double, tuple(s / 3.0 for s in wide))):
        want = channelize(x, band, g, spec, arith=arith)
        got = channelize(tuple(s[a0 * u :] for s in x), band, g, spec, a0, arith=arith)
        for c, w in zip(got, want, strict=True):
            assert c.dtype == w.dtype and len(c) == len(w) - a0
            assert np.array_equal(c[skip:], w[a0 + skip :])


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
    wide = generate_comb(gcfg, band_tone_sums(gcfg, tones), 4096)
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
    """The chain's demodulator on one tone: a one-tone bank of the
    reference (the table of word 1 is the reference itself) in float64
    through ddc_bank, every whole window."""
    n_windows = len(subband[0]) // l_avg
    return tuple(x[0] for x in ddc_bank(subband, reference, [1], mode, l_avg, n_windows, np.float64))


def prefix_window_sums(y, l_avg, n_windows):
    """The fixed-point window sums before the DDC bank, kept as an oracle:
    the first n_windows boxcar sums over the stream that is y (p samples)
    tiled from absolute sample 0, window m covering [m*l_avg,
    (m+1)*l_avg). The stream's prefix sum at x is (x // p) * c[p] +
    c[x % p], c the prefix sums of y; int64 wraparound cancels in the
    differences, so every sum that fits int64 is exact."""
    p = len(y)
    c = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(y, out=c[1:])
    x = np.arange(n_windows + 1, dtype=np.int64) * l_avg
    return np.diff((x // p) * c[p] + c[x % p])


def float_window_sums(y, l_avg, n_windows):
    """The float oracle's window sums before the DDC bank, kept as an
    oracle: every window of the tiled stream summed from its own samples."""
    return periodic_extend(y, n_windows * l_avg).reshape(n_windows, l_avg).sum(axis=1)


def elementwise_ddc_products(subband, reference, mode):
    """ddc_products before it ran as block products, kept as the oracle:
    the subband times the conjugate of an equal-length reference, sample
    by sample."""
    fi, fq = subband
    ci, cq = reference
    assert len(fi) == len(ci) and len(fq) == len(cq)
    if mode is DemodMode.SINE_DDC:
        return fi * ci + fq * cq, fq * ci - fi * cq
    sc = np.where(ci >= 0, np.int64(1), np.int64(-1))
    ss = np.where(cq >= 0, np.int64(1), np.int64(-1))
    return sc * fi + ss * fq, sc * fq - ss * fi


def random_words(rng, n, dtype):
    """n int64 codes (a quarter of them 0) or float64 values (a quarter
    of them +0.0 or -0.0)."""
    if dtype is np.int64:
        x = rng.integers(-(1 << 20), 1 << 20, n)
    else:
        x = rng.standard_normal(n) * 1e3
    x[rng.random(n) < 0.25] = 0
    if dtype is np.float64:
        x[rng.random(n) < 0.5] *= -1.0  # the zeros take both signs
    return x


@st.composite
def ddc_cases(draw):
    """A reference of 1 to 3 periods of a random tone period, and a stream
    of 0 samples to 3 time slices, also on and one off whole reference
    lengths; one case in five has a reference as long as the stream.
    int64 or float64, with zeros in both."""
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    mode = draw(st.sampled_from(list(DemodMode)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    period = draw(st.integers(1, 40))
    length = period * draw(st.integers(1, 3))
    n = stream_length(draw, length)
    if n and draw(st.integers(0, 4)) == 0:
        period = length = n
    reference = tuple(np.tile(random_words(rng, period, dtype), length // period) for _ in "iq")
    subband = tuple(random_words(rng, n, dtype) for _ in "iq")
    return subband, reference, mode


def bits(x):
    return x.view(np.int64) if x.dtype == np.float64 else x


@settings(max_examples=300)
@given(ddc_cases())
def test_ddc_products_equal_elementwise_on_the_tiled_reference(case):
    subband, reference, mode = case
    n = len(subband[0])
    got = ddc_products(subband, reference, mode)
    want = elementwise_ddc_products(
        subband, tuple(periodic_extend(c, n) for c in reference), mode
    )
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and len(g) == n
        assert np.array_equal(bits(g), bits(w))


@st.composite
def bank_cases(draw):
    """1-4 random tones of a random reference table of 1-40 entries, a
    span of 1-4 tables (whole or not), windows shorter or longer than the
    table, 1-25 windows that may wrap the span, and blocks of 1, 7 or
    _BANK_BLOCK entries (one tone and one row a product at the smallest).
    int64 or float64 codes below 2^20, with zeros; every int64 partial sum
    stays below 2^53."""
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    mode = draw(st.sampled_from(list(DemodMode)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(1, 40))
    span = draw(
        st.integers(1, 4 * length) | st.integers(1, 6).map(lambda k: k * length)
    )
    l_avg = draw(st.integers(1, 3 * length + 5) | st.integers(1, 3).map(lambda k: k * length))
    words = draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=4))
    table = tuple(random_words(rng, length, dtype) for _ in "iq")
    subband = tuple(random_words(rng, span, dtype) for _ in "iq")
    block = draw(st.sampled_from([1, 7, analyzer._BANK_BLOCK]))
    return subband, table, words, mode, l_avg, draw(st.integers(1, 25)), block


@settings(max_examples=300)
@given(bank_cases())
def test_ddc_bank_equals_ddc_products_and_window_sums(case):
    # the old per-tone path: one tone's products on its one-period
    # reference, then the window sums of the tiled product stream. int64
    # codes give its bits through a float64 and an int64 bank; float64
    # codes agree within the rounding of each window's terms
    subband, table, words, mode, l_avg, n_windows, block = case
    dtype = subband[0].dtype
    banks = [np.float64, np.int64] if dtype == np.int64 else [np.float64]
    for bank_dtype in banks:
        with mock.patch.object(analyzer, "_BANK_BLOCK", block):
            got = ddc_bank(
                subband, table, words, mode, l_avg, n_windows, bank_dtype, arith=arith_of(dtype)
            )
        for k, word in enumerate(words):
            ph = phase_words(len(table[0]), word, len(table[0]))
            y = ddc_products(subband, tuple(c[ph] for c in table), mode)
            for g, yc in zip(got, y, strict=True):
                assert g.dtype == dtype and g.shape == (len(words), n_windows)
                if dtype == np.int64:
                    assert g[k].tolist() == prefix_window_sums(yc, l_avg, n_windows).tolist()
                else:
                    scale = float_window_sums(np.abs(y[0]) + np.abs(y[1]), l_avg, n_windows)
                    want = float_window_sums(yc, l_avg, n_windows)
                    assert np.all(np.abs(g[k] - want) <= 1e-12 * scale)


def arith_of(dtype):
    return FIXED_POINT if dtype == np.int64 else DoublePrecision(np.ones(1), np.ones(1))


@pytest.mark.parametrize(
    "lengths",
    [
        (2 * 40, 2 * 40 + 1, 40, 40),  # Q one sample past whole rows
        (100, 100, 0, 0),  # empty table
        (100, 100, 40, 39),  # table I and Q of unequal length
    ],
    ids=["long-q", "empty-table", "unequal-table"],
)
def test_block_products_refuse_malformed_operands(lengths):
    ni, nq, li, lq = (np.ones(k, dtype=np.int64) for k in lengths)
    with pytest.raises(ConfigError):
        _block_products((ni, nq), (li, lq))
    for mode in DemodMode:
        with pytest.raises(ConfigError):
            ddc_products((ni, nq), (li, lq), mode)


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


def boxcar_response(L: int, f_norm: float) -> float:
    """|sum_{n<L} e^(j 2 pi f n)| / L, the averaging filter's magnitude,
    kept as the oracle of predict_spurs' attenuation column.

    Closed form sin(pi L f) / (L sin(pi f)); exact 1 at f = 0 and exact 0
    at nonzero multiples of 1/L.
    """
    if L < 1:
        raise ConfigError("L must be >= 1")
    if not (0.0 <= f_norm < 1.0):
        raise ConfigError("f_norm must be in [0, 1)")
    if f_norm == 0.0:
        return 1.0
    ratio = L * f_norm
    # exact zero at the boxcar nulls despite floating-point sin
    if abs(ratio - round(ratio)) < 1e-9 and round(ratio) % L != 0:
        return 0.0
    return abs(math.sin(math.pi * ratio) / (L * math.sin(math.pi * f_norm)))


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
