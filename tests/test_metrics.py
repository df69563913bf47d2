"""Measurement mathematics: the FFT the PSDs run, PSDs, demod statistics, spur tools."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from combtwin import ConfigError
from combtwin.metrics import (
    PsdMethod,
    Spectrum,
    SpectrumUnits,
    SpectrumWindow,
    SpurLine,
    _amp_phase,
    _periodogram_fac,
    _rfft,
    deglitch,
    detect_spurs,
    predict_spurs,
    psd,
    sinad_sfdr,
)
from test_analyzer import boxcar_response


# ---------------------------------------------------------------------------
# FFT: metrics._rfft (scipy.fft.rfft), the transform every periodogram runs


def _direct_rdft(x):
    """Bins 0..n//2 of the DFT of a real x, each summed directly."""
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k[: n // 2 + 1], k) / n) @ x


def test_fft_unit_impulse():
    x = np.zeros(40)
    x[0] = 1.0
    assert np.allclose(_rfft(x), np.ones(21), atol=1e-12)


def test_fft_single_exponential_is_one_bin():
    # a real cosine is two exponentials; the one-sided transform holds one
    n = 160
    k = 23
    x = np.cos(2 * np.pi * k * np.arange(n) / n)
    spec = np.abs(_rfft(x))
    assert spec[k] == pytest.approx(n / 2, rel=1e-9)
    others = np.delete(spec, k)
    assert others.max() < 1e-9 * n


def test_fft_matches_direct_dft_oracle():
    # any length: the transform has no 2^a * 5^b restriction
    rng = np.random.default_rng(41)
    for n in (8, 40, 160, 2560, 45):
        x = rng.standard_normal(n)
        got = _rfft(x)
        want = _direct_rdft(x)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() / scale < 1e-9


def test_fft_parseval():
    # one-sided: every bin but DC and (for even n) Nyquist stands for two
    rng = np.random.default_rng(43)
    for n in (2560, 2561):
        x = rng.standard_normal(n)
        p = np.abs(_rfft(x)) ** 2
        p[1 : -1 if n % 2 == 0 else None] *= 2
        e_time = np.sum(x**2)
        assert abs(np.sum(p) / n - e_time) / e_time < 1e-9


# ---------------------------------------------------------------------------
# amplitude / phase extraction


def test_amp_phase_constant_real():
    i = np.full(16, 1000.0)
    q = np.zeros(16)
    amp, _, _, delta_amp, delta_phase = _amp_phase(i, q, len(i))
    assert np.allclose(delta_amp, 0.0, atol=1e-12)
    assert np.allclose(delta_phase, 0.0, atol=1e-12)
    assert np.allclose(amp, 1000.0)


def test_amp_phase_quadrature_and_pythagorean():
    _, phase, *_ = _amp_phase(np.zeros(8), np.full(8, 7.0), 8)
    assert np.allclose(phase, np.pi / 2)
    amp, *_ = _amp_phase(np.full(4, 3.0), np.full(4, 4.0), 4)
    assert np.allclose(amp, 5.0)


def test_amp_phase_unwraps():
    n = 64
    ph = np.linspace(0, 6 * np.pi, n)  # three full turns
    _, phase, *_ = _amp_phase(np.cos(ph), np.sin(ph), n)
    assert phase[-1] == pytest.approx(6 * np.pi, abs=1e-9)
    assert np.all(np.diff(phase) > 0)


def test_amp_phase_degenerate_input():
    with pytest.raises(ValueError, match="degenerate"):
        _amp_phase(np.zeros(8), np.zeros(8), 8)


def amp_phase_reference(i, q):
    """_amp_phase before it ran on a pattern, kept as the oracle: every step
    over the whole series."""
    i = np.asarray(i, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if len(i) == 0:
        raise ConfigError("amp_phase needs a nonempty series")
    amp = np.hypot(i, q)
    phase = np.unwrap(np.arctan2(q, i))
    mean_amp = float(np.mean(amp))
    if mean_amp == 0.0:
        raise ValueError("degenerate input: mean amplitude is zero")
    return (amp, phase, amp / mean_amp - 1.0, phase - float(np.mean(phase)))


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


# pattern values: small integers, signed zeros, and points either side of
# the negative real axis, where the phase crosses +-pi
_PATTERN_POINTS = st.one_of(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (-5.0, 1e-3), (-5.0, -1e-3), (-5.0, -0.0), (-5.0, 0.0)]),
)


@st.composite
def tiled_patterns(draw):
    points = draw(st.lists(_PATTERN_POINTS, min_size=1, max_size=12))
    i, q = (np.array(v, dtype=np.float64) for v in zip(*points))
    # lengths past 4096 tile each pattern many times over
    n = draw(st.integers(len(i), 5 * len(i) + 7) | st.integers(4090, 9000))
    # 1.0 is the whole-series call's; the others are Rect periodogram scales 1/sqrt(n*fs)
    fac = draw(st.sampled_from([1.0, 1 / math.sqrt(41 * 3.0), 2.0**-9]))
    return i, q, n, fac, draw(st.booleans())


@settings(max_examples=300)
@given(tiled_patterns())
@example((np.full(1, 1000.0), np.full(1, -0.0), 9, 1.0, False))  # constant series, n_pat = 1
@example((np.full(1, 1000.0), np.full(1, -0.0), 9, 2.0**-9, True))  # zero fluctuations
@example((np.array([-5.0, -5.0, -5.0]), np.array([1e-3, -1e-3, 0.0]), 50, 1.0, True))  # crosses +-pi
@example((np.array([3.0, -1.0, -2.0]), np.array([0.0, 2.0, -2.0]), 31, 2.0**-9, True))  # winds once per pattern
@example((np.array([3.0, -1.0, -2.0]), np.array([0.0, 2.0, -2.0]), 4097, 1.0, False))
def test_amp_phase_on_a_pattern_equals_the_tiled_series_bit_for_bit(case):
    i, q, n, fac, overwrite = case
    k = np.arange(n) % len(i)
    try:
        amp, phase, delta_amp, delta_phase = amp_phase_reference(i[k], q[k])
    except ValueError:
        with pytest.raises(ValueError, match="degenerate"):
            _amp_phase(i, q, n, fac, overwrite)
        return
    got_amp, got_phase, mean_amp, got_da, got_dp = _amp_phase(i, q, n, fac, overwrite)
    assert_same_bits((got_da, got_dp), (delta_amp * fac, delta_phase * fac))
    if overwrite:  # the fluctuation series took the place of the tiled arrays
        assert got_amp is got_da and got_phase is got_dp
    else:
        assert_same_bits((got_amp, got_phase), (amp, phase))
    assert mean_amp.hex() == float(np.mean(amp)).hex()
    r = _amp_phase(i[k], q[k], n)
    assert_same_bits((r[0], r[1], r[3], r[4]), (amp, phase, delta_amp, delta_phase))


# ---------------------------------------------------------------------------
# PSD estimation


def test_periodogram_white_noise_level():
    rng = np.random.default_rng(44)
    fs = 1000.0
    sigma2 = 4.0
    levels = []
    for _ in range(100):
        x = math.sqrt(sigma2) * rng.standard_normal(1024)
        spec = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
        levels.append(np.mean(spec.values[1:-1]))
    # one-sided density: 2 sigma^2 / fs
    assert np.mean(levels) == pytest.approx(2 * sigma2 / fs, rel=0.10)


def test_periodogram_sine_integrated_power():
    fs = 1000.0
    a = 3.0
    n = 4096
    t = np.arange(n) / fs
    x = a * np.sin(2 * np.pi * 125.0 * t)
    spec = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
    total = np.sum(spec.values) * spec.bin_hz
    assert total == pytest.approx(a * a / 2, rel=0.01)


def test_periodogram_parseval():
    rng = np.random.default_rng(45)
    fs = 500.0
    x = rng.standard_normal(2048)
    spec = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
    mean_square = np.mean(x**2)
    integrated = np.sum(spec.values) * spec.bin_hz
    assert abs(integrated - mean_square) / mean_square < 1e-6


def test_welch_reduces_variance_by_segment_count():
    rng = np.random.default_rng(46)
    fs = 1.0
    n = 4096
    seg = 512  # 8 non-overlapping segments
    var_p, var_w = [], []
    for _ in range(100):
        x = rng.standard_normal(n)
        p = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
        w = psd(
            x,
            fs,
            method=PsdMethod.WELCH,
            window=SpectrumWindow.RECT,
            segment_len=seg,
            overlap_frac=0.0,
        )
        var_p.append(p.values[10:-10])
        var_w.append(w.values[5:-5])
    vp = np.var(np.array(var_p), axis=0).mean()
    vw = np.var(np.array(var_w), axis=0).mean()
    k = n // seg
    ratio = vw / vp
    assert 1.0 / (2 * k) < ratio < 2.0 / k


def test_psd_method_defaults():
    x = np.random.default_rng(47).standard_normal(4096)
    spec = psd(x, 1.0)
    assert spec.method is PsdMethod.PERIODOGRAM
    assert spec.window is SpectrumWindow.RECT
    w = psd(x, 1.0, method=PsdMethod.WELCH)
    assert w.window is SpectrumWindow.HANN
    assert w.segment_len == 512  # N/8
    assert w.overlap_frac == 0.5
    assert w.n_points == 512
    assert len(w.values) == 257


@settings(max_examples=120)
@given(
    n=st.integers(2, 3000),
    window=st.sampled_from(list(SpectrumWindow)),
    fs=st.sampled_from([1.0, 0.37, 3814.697265625, 244140.625]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, window=SpectrumWindow.RECT, fs=1.0, seed=0)
@example(n=2, window=SpectrumWindow.HANN, fs=1.0, seed=0)
@example(n=999, window=SpectrumWindow.HANN, fs=244140.625, seed=1)
@example(n=2560, window=SpectrumWindow.RECT, fs=244140.625, seed=2)
def test_periodogram_equals_scipy_bit_for_bit(n, window, fs, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    name = "boxcar" if window is SpectrumWindow.RECT else "hann"
    _, want = signal.periodogram(x, fs=fs, window=name, detrend=False, scaling="density")
    got = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=window).values
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _window(window, n):
    """scipy.signal.periodogram's window array."""
    return signal.get_window("boxcar" if window is SpectrumWindow.RECT else "hann", n)


@pytest.mark.parametrize("window", list(SpectrumWindow))
@pytest.mark.parametrize(
    "x",
    [
        np.zeros(2),
        np.zeros(7),
        np.array([0.0, -0.0] * 4),
        np.full(9, -0.0),
        np.array([0.0, 0.0, 5e-324, 0.0, -0.0, 0.0]),  # underflows to +-0 once scaled
        np.full(10, 5e-324),
        np.array([0.0, 1e-300, 0.0, 0.0, -3e-310]),
    ],
)
def test_periodogram_of_zero_and_near_zero_inputs_equals_scipy(x, window):
    name = "boxcar" if window is SpectrumWindow.RECT else "hann"
    _, want = signal.periodogram(x, fs=3.0, window=name, detrend=False, scaling="density")
    with mock.patch("combtwin.metrics._rfft", wraps=_rfft) as rfft:
        got = psd(x, 3.0, method=PsdMethod.PERIODOGRAM, window=window).values
    assert got.dtype == want.dtype
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    w = _window(window, len(x))
    xw = x * (w * _periodogram_fac(np.add.accumulate(w * w)[-1], 3.0))
    assert rfft.call_count == (1 if xw.any() else 0)


@settings(max_examples=60)
@given(
    st.sampled_from(list(SpectrumWindow)),
    st.integers(1, 70000),
    st.sampled_from([1.0, 3.0, 250e6 / 1024, 1e-3, 0.1]),
)
def test_periodogram_fac_and_scale_equal_scipy_order(window, n, fs):
    # scipy.signal.periodogram's density factor over the whole window; psd
    # passes the Rect window's sum of squares as the length n and scales by
    # the scalar, which equals the window times the factor bit for bit
    w = _window(window, n)
    w2 = np.add.accumulate(w * w)[-1]
    fac = 1 / np.sqrt(w2 / (1 / fs))
    assert _periodogram_fac(w2, fs).hex() == float(fac).hex()
    if window is SpectrumWindow.RECT:
        assert _periodogram_fac(n, fs).hex() == float(fac).hex()
        assert_same_bits((np.full(n, _periodogram_fac(n, fs)),), (w * fac,))
    else:
        assert_same_bits((w * _periodogram_fac(w2, fs),), (w * fac,))


def test_psd_rejects_short_input():
    with pytest.raises(ValueError):
        psd(np.ones(4), 1.0, method=PsdMethod.WELCH, segment_len=512)


def test_periodogram_rejects_segment_len():
    # a periodogram has one segment, the whole input; Welch takes segment_len
    x = np.ones(10)
    with pytest.raises(ConfigError, match="Welch"):
        psd(x, 1.0, method=PsdMethod.PERIODOGRAM, segment_len=5)
    assert psd(x, 1.0, method=PsdMethod.WELCH, segment_len=5).n_points == 5


# ---------------------------------------------------------------------------
# SINAD / SFDR


def test_sinad_sfdr_ideal_sinusoid():
    n = 4096
    k = 129
    x = np.sin(2 * np.pi * k * np.arange(n) / n)
    sinad, sfdr = sinad_sfdr(x, fundamental_bin=k)
    assert sinad > 250.0
    assert sfdr > 250.0


def test_sinad_decreases_with_added_noise():
    rng = np.random.default_rng(49)
    n = 4096
    k = 129
    x = np.sin(2 * np.pi * k * np.arange(n) / n)
    prev = np.inf
    for sigma in (1e-4, 1e-3, 1e-2, 1e-1):
        noisy = x + sigma * rng.standard_normal(n)
        sinad, _ = sinad_sfdr(noisy, fundamental_bin=k)
        assert sinad < prev
        prev = sinad


def test_sinad_sfdr_rejects_empty_fundamental():
    x = np.sin(2 * np.pi * 5 * np.arange(256) / 256)
    with pytest.raises(ValueError):
        sinad_sfdr(np.zeros(256), fundamental_bin=5)
    with pytest.raises(ValueError):
        sinad_sfdr(x, fundamental_bin=0)


def test_sinad_sfdr_known_two_tone():
    # fundamental plus a single -40 dB spur: SFDR is exactly 40 dB
    n = 1024
    t = np.arange(n)
    x = np.sin(2 * np.pi * 100 * t / n) + 0.01 * np.sin(2 * np.pi * 333 * t / n)
    sinad, sfdr = sinad_sfdr(x, fundamental_bin=100)
    assert sfdr == pytest.approx(40.0, abs=1e-6)
    assert sinad == pytest.approx(40.0, abs=1e-6)


# ---------------------------------------------------------------------------
# spur prediction and detection


def test_predict_spurs_full_scale_moduli():
    lines = predict_spurs(65536, 8, 40, 65536, 250e6)
    freqs = sorted(f for f, _ in lines)
    assert len(freqs) == 2
    assert freqs[0] == pytest.approx(762.94, abs=0.01)
    assert freqs[1] == pytest.approx(1525.88, abs=0.01)
    assert predict_spurs(65520, 8, 40, 65520, 250e6) == []


def test_predict_spurs_desk_scale():
    lines = predict_spurs(1024, 8, 40, 1024, 1.0)
    fs = 1.0 / 1024
    freqs = sorted(f for f, _ in lines)
    assert freqs[0] == pytest.approx(fs / 5, rel=1e-12)
    assert freqs[1] == pytest.approx(2 * fs / 5, rel=1e-12)
    assert predict_spurs(1020, 8, 40, 1020, 1.0) == []


def test_predict_spurs_attenuation_matches_boxcar():
    lines = predict_spurs(65536, 8, 40, 65536, 250e6)
    for freq, att_db in lines:
        j = round(freq / (250e6 / 65536) * 5)  # 1 or 2
        want = 20 * math.log10(boxcar_response(65536, j / (5 * 65536)))
        assert att_db == pytest.approx(want, abs=1e-9)


def _flat_spectrum(n=512, level=1e-6, fs=1000.0):
    x = np.random.default_rng(50).standard_normal(8 * n)
    spec = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
    return dataclasses.replace(spec, values=np.full(len(spec.values), level))


def test_detect_spurs_flat_floor_is_empty():
    spec = _flat_spectrum()
    rep = detect_spurs(spec, threshold_db=10.0)
    assert len(rep.lines) == 0
    assert rep.floor == pytest.approx(1e-6)


def test_detect_spurs_single_line():
    spec = _flat_spectrum()
    vals = spec.values.copy()
    vals[100] *= 10**3  # +30 dB
    rep = detect_spurs(dataclasses.replace(spec, values=vals), threshold_db=10.0)
    assert len(rep.lines) == 1
    assert rep.lines[0].bin == 100
    assert rep.lines[0].level_db == pytest.approx(30.0, abs=0.1)
    assert rep.lines[0].freq_hz == pytest.approx(spec.freqs_hz[100])


def test_detect_spurs_finds_all_injected_lines():
    rng = np.random.default_rng(51)
    for _ in range(20):
        spec = _flat_spectrum()
        vals = spec.values * (1 + 0.01 * rng.standard_normal(len(spec.values)))
        bins = sorted(rng.choice(np.arange(5, 250), size=3, replace=False))
        bins = [int(b) for b in bins if all(abs(b - o) > 1 for o in bins if o != b)]
        for b in bins:
            vals[b] *= 10 ** (rng.uniform(15, 40) / 10)
        rep = detect_spurs(dataclasses.replace(spec, values=vals), threshold_db=10.0)
        got = {line.bin for line in rep.lines}
        assert got == set(bins)


def test_detect_spurs_threshold_validation():
    with pytest.raises(ValueError):
        detect_spurs(_flat_spectrum(), threshold_db=0.0)


def _detect_spurs_loop(spec, threshold_db, floor_min):
    """Bin-by-bin reference for detect_spurs: (lines, linear floor)."""
    vals = spec.values
    floor_lin = max(float(np.median(vals)), floor_min)
    thresh = floor_lin * 10.0 ** (threshold_db / 10.0)
    lines = []
    for b in range(1, len(vals)):
        v = vals[b]
        if not v > thresh:  # a NaN bin or a NaN floor is never a line
            continue
        left = vals[b - 1] if b - 1 >= 0 else -np.inf
        right = vals[b + 1] if b + 1 < len(vals) else -np.inf
        if v > left and v > right:
            level_db = (
                math.inf if floor_lin == 0.0 else 10.0 * math.log10(v / floor_lin)
            )
            lines.append(SpurLine(freq_hz=b * spec.bin_hz, level_db=level_db, bin=b))
    return tuple(lines), floor_lin


# linear levels that tie with every floor_min below, sit one subnormal
# below zero, carry a sign bit, or make the two middle bins sum past the
# largest double
_TIE_LEVELS = [-0.0, 0.0, -5e-324, 1e-24, 1.0, 2.0, 1e3, 9e307]


def _spur_spectrum(values, bin_hz=1.0):
    values = np.array(values, dtype=np.float64)
    return Spectrum(
        n_points=2 * len(values) - 1,
        bin_hz=bin_hz,
        values=values,
        units=SpectrumUnits.LINEAR_PER_HZ,
        window=SpectrumWindow.RECT,
        method=PsdMethod.PERIODOGRAM,
    )


@st.composite
def spur_spectra(draw):
    m = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["plateau", "float", "zero", "edge", "nan", "half", "tie"]))
    if kind == "zero":
        vals = [0.0] * m
    elif kind == "float":
        vals = draw(st.lists(st.floats(0.0, 1e6), min_size=m, max_size=m))
    elif kind == "nan":  # mostly zeros, so only a NaN keeps the median from the floor
        vals = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, math.nan, 30.0]), min_size=m, max_size=m))
    elif kind == "half":  # a zero in just under, exactly or just over half the bins
        low = draw(st.sampled_from([m // 2, (m + 1) // 2, m // 2 + 1]))
        vals = [0.0] * low + [30.0] * (m - low)
        vals = draw(st.permutations(vals))
    elif kind == "tie":
        vals = draw(st.lists(st.sampled_from(_TIE_LEVELS), min_size=m, max_size=m))
    else:  # few distinct levels, so equal neighbours are common
        vals = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 30.0, 1e3]), min_size=m, max_size=m))
        if kind == "edge":
            vals[-1] = 1e6  # a line in the last bin, which has no right neighbour
    return _spur_spectrum(vals, draw(st.sampled_from([1.0, 0.1, 3.814697265625])))


@settings(max_examples=500)
@given(
    spec=spur_spectra(),
    threshold_db=st.floats(0.1, 40.0),
    floor_min=st.sampled_from([0.0, -0.0, 1e-24, 1.0, 1e308]),
)
# more than half zeros and a NaN: the median, and so the floor, is NaN
@example(spec=_spur_spectrum([0.0, 0.0, 0.0, math.nan, 5.0]), threshold_db=10.0, floor_min=0.0)
@example(spec=_spur_spectrum([0.0, math.nan, 0.0, 0.0]), threshold_db=10.0, floor_min=0.0)
# median == floor_min on a signed zero, odd and even
@example(spec=_spur_spectrum([-0.0, -0.0, 1.0]), threshold_db=10.0, floor_min=0.0)
@example(spec=_spur_spectrum([-0.0, 5.0, -0.0, -0.0]), threshold_db=10.0, floor_min=0.0)
@example(spec=_spur_spectrum([0.0, 7.0, 0.0]), threshold_db=10.0, floor_min=-0.0)
# (-5e-324 + 0.0) / 2 rounds to -0.0
@example(spec=_spur_spectrum([0.0, -5e-324, 2.0, -5e-324]), threshold_db=10.0, floor_min=0.0)
# median == floor_min away from zero
@example(spec=_spur_spectrum([1.0, 1.0, 30.0, 0.0]), threshold_db=10.0, floor_min=1.0)
# exactly half at or below floor_min: the median is the mean of 0.0 and 30.0
@example(spec=_spur_spectrum([0.0, 30.0, 30.0, 0.0]), threshold_db=10.0, floor_min=0.0)
# the two middle bins sum to inf
@example(spec=_spur_spectrum([9e307, 9e307, 0.0, 9e307]), threshold_db=10.0, floor_min=1e308)
def test_detect_spurs_equals_bin_loop(spec, threshold_db, floor_min):
    with np.errstate(over="ignore"):  # the median of two bins near the largest double
        lines, floor_lin = _detect_spurs_loop(spec, threshold_db, floor_min)
        rep = detect_spurs(spec, threshold_db=threshold_db, floor_min=floor_min)
    assert rep.lines == lines
    assert all(type(line.bin) is int for line in rep.lines)
    assert type(rep.floor) is float
    assert rep.floor.hex() == float(floor_lin).hex()


# ---------------------------------------------------------------------------
# deglitch


def test_deglitch_constant_series_unchanged():
    x = np.full(100, 3.25)
    out, n = deglitch(x, rng_seed=1)
    assert n == 0
    assert np.array_equal(out, x)


def test_deglitch_identity_when_clean():
    rng = np.random.default_rng(52)
    x = rng.standard_normal(10_000)
    out, n = deglitch(x, rng_seed=2)
    assert n == 0
    assert np.array_equal(out, x)


def test_deglitch_replaces_injected_outliers():
    rng = np.random.default_rng(53)
    x = rng.standard_normal(100_000)
    idx = rng.choice(100_000, size=10, replace=False)
    x[idx] = 100.0 * np.where(rng.random(10) > 0.5, 1.0, -1.0)
    mu, sigma = x.mean(), x.std()
    out, n = deglitch(x, rng_seed=3)
    assert n == 10
    changed = np.flatnonzero(out != x)
    assert set(changed) == set(idx)
    assert np.all(np.abs(out[idx] - mu) <= sigma)
    keep = np.setdiff1d(np.arange(100_000), idx)
    assert np.array_equal(out[keep], x[keep])


def test_deglitch_deterministic_and_idempotent():
    rng = np.random.default_rng(54)
    x = rng.standard_normal(50_000)
    x[123] = 80.0
    a, na = deglitch(x, rng_seed=9)
    b, nb = deglitch(x, rng_seed=9)
    assert na == nb == 1
    assert np.array_equal(a, b)
    c, nc = deglitch(a, rng_seed=9)
    assert nc == 0
    assert np.array_equal(c, a)


def deglitch_reference(x, rng_seed):
    """deglitch with one scalar draw per glitch, in index order, kept as the
    oracle."""
    x = np.asarray(x, dtype=np.float64)
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    out = x.copy()
    if sigma == 0.0:
        return out, 0
    idx = np.nonzero(np.abs(x - mu) > 5.0 * sigma)[0]
    rng = np.random.default_rng(rng_seed)
    for k in idx:
        out[k] = rng.uniform(mu - sigma, mu + sigma)
    return out, int(idx.size)


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1000, 4000),
    st.one_of(st.just(0), st.just(1), st.integers(2, 30)),
    st.integers(0, 2**32 - 1),
)
def test_deglitch_equals_one_draw_per_glitch(data_seed, n, n_glitches, rng_seed):
    rng = np.random.default_rng(data_seed)
    x = rng.standard_normal(n)
    idx = rng.choice(n, size=n_glitches, replace=False)
    x[idx] = 1e4 * np.where(rng.random(n_glitches) > 0.5, 1.0, -1.0)
    got, n_got = deglitch(x, rng_seed)
    want, n_want = deglitch_reference(x, rng_seed)
    assert n_got == n_want == n_glitches
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_deglitch_requires_two_samples():
    with pytest.raises(ValueError):
        deglitch(np.ones(1), rng_seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", list(PsdMethod))
def test_psd_refuses_non_finite_samples(bad, method):
    # every bin would be NaN
    with pytest.raises(ConfigError, match="psd needs finite samples"):
        psd(np.array([1.0, 2.0, bad, 4.0]), 1.0, method=method, segment_len=None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_deglitch_refuses_non_finite_samples(bad):
    # mu and sigma would be NaN and the draw would raise OverflowError
    with pytest.raises(ConfigError, match="finite"):
        deglitch(np.array([1.0, 2.0, bad, 4.0]), rng_seed=0)
