"""Measurement mathematics: FFT, PSDs, demod statistics, spur tools."""

import dataclasses
import math

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
    amp_phase,
    dbc_per_hz,
    deglitch,
    detect_spurs,
    fft,
    ifft,
    predict_spurs,
    psd,
    sinad_sfdr,
)


# ---------------------------------------------------------------------------
# FFT


def _direct_dft(x):
    n = len(x)
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return w @ x


def test_fft_unit_impulse():
    x = np.zeros(40, dtype=complex)
    x[0] = 1.0
    assert np.allclose(fft(x), np.ones(40), atol=1e-12)


def test_fft_single_exponential_is_one_bin():
    n = 160
    k = 23
    x = np.exp(2j * np.pi * k * np.arange(n) / n)
    spec = np.abs(fft(x))
    assert spec[k] == pytest.approx(n, rel=1e-9)
    others = np.delete(spec, k)
    assert others.max() < 1e-9 * n


def test_fft_matches_direct_dft_oracle():
    rng = np.random.default_rng(41)
    for n in (8, 40, 160, 2560):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = fft(x)
        want = _direct_dft(x)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() / scale < 1e-9


def test_fft_round_trip_identity():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(640) + 1j * rng.standard_normal(640)
    back = ifft(fft(x))
    assert np.abs(back - x).max() / np.abs(x).max() < 1e-9


def test_fft_rejects_unsupported_length():
    with pytest.raises(ValueError, match="2\\^a"):
        fft(np.zeros(24, dtype=complex))  # 24 = 2^3 * 3
    with pytest.raises(ValueError):
        fft(np.zeros(7, dtype=complex))


def test_fft_parseval():
    rng = np.random.default_rng(43)
    x = rng.standard_normal(2560) + 1j * rng.standard_normal(2560)
    e_time = np.sum(np.abs(x) ** 2)
    e_freq = np.sum(np.abs(fft(x)) ** 2) / len(x)
    assert abs(e_freq - e_time) / e_time < 1e-9


# ---------------------------------------------------------------------------
# amplitude / phase extraction


def test_amp_phase_constant_real():
    i = np.full(16, 1000.0)
    q = np.zeros(16)
    r = amp_phase((i, q))
    assert np.allclose(r.delta_amp, 0.0, atol=1e-12)
    assert np.allclose(r.delta_phase, 0.0, atol=1e-12)
    assert np.allclose(r.amp, 1000.0)


def test_amp_phase_quadrature_and_pythagorean():
    r = amp_phase((np.zeros(8), np.full(8, 7.0)))
    assert np.allclose(r.phase, np.pi / 2)
    r2 = amp_phase((np.full(4, 3.0), np.full(4, 4.0)))
    assert np.allclose(r2.amp, 5.0)


def test_amp_phase_unwraps():
    n = 64
    ph = np.linspace(0, 6 * np.pi, n)  # three full turns
    r = amp_phase((np.cos(ph), np.sin(ph)))
    assert r.phase[-1] == pytest.approx(6 * np.pi, abs=1e-9)
    assert np.all(np.diff(r.phase) > 0)


def test_amp_phase_degenerate_input():
    with pytest.raises(ValueError, match="degenerate"):
        amp_phase((np.zeros(8), np.zeros(8)))


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


def test_psd_rejects_short_input():
    with pytest.raises(ValueError):
        psd(np.ones(4), 1.0, method=PsdMethod.WELCH, segment_len=512)


def test_periodogram_rejects_segment_len():
    # a periodogram has one segment, the whole input; Welch takes segment_len
    x = np.ones(10)
    with pytest.raises(ConfigError, match="Welch"):
        psd(x, 1.0, method=PsdMethod.PERIODOGRAM, segment_len=5)
    assert psd(x, 1.0, method=PsdMethod.WELCH, segment_len=5).n_points == 5


def test_dbc_per_hz():
    x = np.random.default_rng(48).standard_normal(512)
    spec = psd(x, 1.0, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
    carrier = 2.0
    out = dbc_per_hz(spec, carrier)
    assert out.units is SpectrumUnits.DBC_PER_HZ
    want = 10 * np.log10(spec.values[5] / carrier)
    assert out.values[5] == pytest.approx(want, abs=1e-12)
    flat = dataclasses.replace(spec, values=np.full_like(spec.values, carrier))
    assert np.allclose(dbc_per_hz(flat, carrier).values, 0.0, atol=1e-12)
    ten = dataclasses.replace(spec, values=np.full_like(spec.values, 10 * carrier))
    assert np.allclose(dbc_per_hz(ten, carrier).values, 10.0, atol=1e-12)
    with pytest.raises(ValueError):
        dbc_per_hz(spec, 0.0)


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
    from combtwin.analyzer import boxcar_response

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
    vals = spec.linear_values()
    floor_lin = max(float(np.median(vals)), floor_min)
    thresh = floor_lin * 10.0 ** (threshold_db / 10.0)
    lines = []
    for b in range(1, len(vals)):
        v = vals[b]
        if v <= thresh:
            continue
        left = vals[b - 1] if b - 1 >= 0 else -np.inf
        right = vals[b + 1] if b + 1 < len(vals) else -np.inf
        if v > left and v > right:
            level_db = (
                math.inf if floor_lin == 0.0 else 10.0 * math.log10(v / floor_lin)
            )
            lines.append(SpurLine(freq_hz=b * spec.bin_hz, level_db=level_db, bin=b))
    return tuple(lines), floor_lin


@st.composite
def spur_spectra(draw):
    m = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["plateau", "float", "zero", "edge"]))
    if kind == "zero":
        vals = [0.0] * m
    elif kind == "float":
        vals = draw(st.lists(st.floats(0.0, 1e6), min_size=m, max_size=m))
    else:  # few distinct levels, so equal neighbours are common
        vals = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 30.0, 1e3]), min_size=m, max_size=m))
        if kind == "edge":
            vals[-1] = 1e6  # a line in the last bin, which has no right neighbour
    units = draw(st.sampled_from([SpectrumUnits.LINEAR_PER_HZ, SpectrumUnits.DBC_PER_HZ]))
    values = np.array(vals)
    if units is SpectrumUnits.DBC_PER_HZ:
        values = values * 1e-4 - 50.0  # -50..+50 dB
    return Spectrum(
        n_points=2 * m - 1,
        bin_hz=draw(st.sampled_from([1.0, 0.1, 3.814697265625])),
        values=values,
        units=units,
        window=SpectrumWindow.RECT,
        method=PsdMethod.PERIODOGRAM,
    )


@settings(max_examples=300)
@given(
    spec=spur_spectra(),
    threshold_db=st.floats(0.1, 40.0),
    floor_min=st.sampled_from([0.0, 1e-24, 1.0]),
)
def test_detect_spurs_equals_bin_loop(spec, threshold_db, floor_min):
    lines, floor_lin = _detect_spurs_loop(spec, threshold_db, floor_min)
    rep = detect_spurs(spec, threshold_db=threshold_db, floor_min=floor_min)
    assert rep.lines == lines
    assert all(type(line.bin) is int for line in rep.lines)
    if spec.units is SpectrumUnits.LINEAR_PER_HZ:
        assert rep.floor == floor_lin


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


def test_deglitch_requires_two_samples():
    with pytest.raises(ValueError):
        deglitch(np.ones(1), rng_seed=0)
