"""Release gates: one test per criterion, each prints a PASS line with the
measured numbers when it clears its tolerance.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from combtwin.analyzer import channelize
from combtwin.generator import (
    GeneratorConfig,
    ToneConfig,
    band_tone_sums,
    default_freq_words,
    generate_comb,
    waveform_period,
)
from combtwin.harness import (
    builtin_scenarios,
    persist,
    run_cordic_sweep,
    run_demod_compare,
    run_loopback,
)
from combtwin.metrics import (
    PsdMethod,
    SpectrumWindow,
    deglitch,
    predict_spurs,
    psd,
)
from test_analyzer import boxcar_response, channelize_direct


def _ok(name, detail):
    print(f"PASS {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. structural spur reproduction at desk scale


def test_criterion_1_desk_spur_reproduction():
    m = 2560
    t0 = time.perf_counter()
    res_a = run_loopback(builtin_scenarios()["desk_a"])
    wall_a = time.perf_counter() - t0
    t0 = time.perf_counter()
    res_b = run_loopback(builtin_scenarios()["desk_b"])
    wall_b = time.perf_counter() - t0

    min_level = np.inf
    for t in res_a.tones:
        for rep in (t.amp_spurs, t.phase_spurs):
            assert [l.bin for l in rep.lines] == [m // 5, 2 * m // 5]
            for line in rep.lines:
                assert line.level_db >= 10.0
                min_level = min(min_level, line.level_db)
    for t in res_b.tones:
        assert len(t.amp_spurs.lines) == 0
        assert len(t.phase_spurs.lines) == 0
        for spec in (t.amp_spectrum, t.phase_spectrum):
            floor = np.median(spec.values[1:])
            for b in (m // 5, 2 * m // 5):
                assert spec.values[b] <= floor * 10 ** (3 / 10) or spec.values[b] == 0.0
    assert wall_a < 60.0 and wall_b < 60.0
    _ok(
        "criterion 1",
        f"bins {m // 5}/{2 * m // 5} present >= {min_level:.1f} dB in config A, "
        f"absent in config B; walls {wall_a:.1f}/{wall_b:.1f} s",
    )


# ---------------------------------------------------------------------------
# 2. full-scale spur frequencies


def test_criterion_2_full_scale_spur_frequencies():
    spurs = predict_spurs(65536, 8, 40, 65536, 250e6)
    freqs = [f for f, _ in spurs]
    assert len(freqs) == 2
    assert abs(freqs[0] - 762.94) <= 0.01
    assert abs(freqs[1] - 1525.88) <= 0.01
    assert len(predict_spurs(65520, 8, 40, 65520, 250e6)) == 0
    _ok("criterion 2", f"{freqs[0]:.6f} / {freqs[1]:.6f} Hz; adjusted modulus clean")


# ---------------------------------------------------------------------------
# 3. waveform period law


def _steady_comb(l_acc):
    cfg = GeneratorConfig(
        n_bands=2,
        tones_per_band=4,
        L_acc=l_acc,
        band_rate_hz=250e6,
        upsample_factor=8,
        shifter_lut_len=40,
    )
    words = default_freq_words(l_acc, 4)
    tones = [
        ToneConfig(b, t, k, 8192)
        for b in range(2)
        for t, k in enumerate(words)
    ]
    period = waveform_period(l_acc, 8, 40)
    n_taps = len(cfg.resolved_interp_filter().taps)
    n_band = (2 * period + n_taps * 8) // 8
    wi, wq = generate_comb(cfg, band_tone_sums(cfg, tones), n_band)
    return wi[n_taps - 1 :], wq[n_taps - 1 :], period


def test_criterion_3_period_law_brute_force():
    for l_acc, want, prime_factors in ((1024, 40_960, (2, 5)), (1020, 8_160, (2, 3, 5, 17))):
        wi, wq, period = _steady_comb(l_acc)
        assert period == want
        assert np.array_equal(wi[:period], wi[period : 2 * period])
        assert np.array_equal(wq[:period], wq[period : 2 * period])
        # minimal: every maximal proper divisor fails
        for p in prime_factors:
            d = period // p
            assert not np.array_equal(wi[:d], wi[d : 2 * d])
    _ok("criterion 3", "periods 40960 (L=1024) and 8160 (L=1020) exact and minimal")


# ---------------------------------------------------------------------------
# 4. CORDIC sizing metrics


def test_criterion_4_cordic_metrics():
    t0 = time.perf_counter()
    rows = {r.iterations: r for r in run_cordic_sweep([10], [7, 10])}
    wall = time.perf_counter() - t0
    sfdr10 = rows[10].sfdr_db
    sfdr7 = rows[7].sfdr_db
    drop = rows[10].sinad_db - rows[7].sinad_db
    assert abs(sfdr10 - 50.0) <= 2.0
    assert abs(sfdr7 - sfdr10) <= 0.5
    assert abs(drop - 2.5) <= 1.0
    assert wall < 10.0
    _ok(
        "criterion 4",
        f"SFDR {sfdr10:.2f} dB, delta {sfdr7 - sfdr10:+.2f} dB, "
        f"SINAD drop {drop:.2f} dB, wall {wall:.1f} s",
    )


# ---------------------------------------------------------------------------
# 5. demodulator equivalence


def test_criterion_5_demodulator_equivalence():
    t0 = time.perf_counter()
    single = run_demod_compare(builtin_scenarios()["demod_single"])
    two = run_demod_compare(builtin_scenarios()["demod_two_tone"])
    wall = time.perf_counter() - t0
    t = single.tones[0]
    assert abs(t.ratio_error) <= 0.02
    assert t.phase_diff_rad <= 0.01
    worst = -np.inf
    for tt in two.tones:
        assert tt.post_residual_db_sine <= 3.0
        assert tt.post_residual_db_square <= 3.0
        worst = max(worst, tt.post_residual_db_sine, tt.post_residual_db_square)
    assert wall < 60.0
    _ok(
        "criterion 5",
        f"ratio err {100 * t.ratio_error:+.3f}%, dphi {t.phase_diff_rad:.5f} rad, "
        f"worst post residual {worst:.2f} dB, wall {wall:.1f} s",
    )


# ---------------------------------------------------------------------------
# 6. boxcar zeros and partial attenuation


def test_criterion_6_boxcar_response():
    rng = np.random.default_rng(61)
    L = 4096
    n = np.arange(L)
    for _ in range(20):
        k = int(rng.integers(1, L))
        assert abs(np.exp(2j * np.pi * k * n / L).sum()) / L < 1e-9
        assert boxcar_response(L, k / L) == 0.0
    L = 65536
    f = 1.0 / (5 * L)
    got = boxcar_response(L, f)
    want = abs(np.exp(2j * np.pi * f * np.arange(L)).sum()) / L
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(0.9355, abs=1e-4)
    _ok("criterion 6", f"grid tones null to < 1e-9; response at fs/(5L) = {got:.6f}")


# ---------------------------------------------------------------------------
# 7. FFT / PSD correctness


def test_criterion_7_fft_psd_correctness():
    # the Rect periodogram against a direct-DFT |X|^2 density, one-sided:
    # |X_k|^2 / (n fs), doubled off DC and (for even n) Nyquist
    rng = np.random.default_rng(71)
    worst = 0.0
    fs = 500.0
    for n in (8, 40, 160, 2560, 45):
        x = rng.standard_normal(n)
        k = np.arange(n)
        ref = np.abs(np.exp(-2j * np.pi * np.outer(k[: n // 2 + 1], k) / n) @ x) ** 2 / (n * fs)
        ref[1 : -1 if n % 2 == 0 else None] *= 2
        spec = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
        assert len(spec.values) == n // 2 + 1 and spec.bin_hz == fs / n
        err = np.abs(spec.values - ref).max() / ref.max()
        assert err < 1e-9
        worst = max(worst, err)

    x = rng.standard_normal(2048)
    spec = psd(x, fs, method=PsdMethod.PERIODOGRAM, window=SpectrumWindow.RECT)
    integrated = np.sum(spec.values) * spec.bin_hz
    parseval = abs(integrated - np.mean(x**2)) / np.mean(x**2)
    assert parseval < 1e-6

    n, seg = 4096, 512
    per, wel = [], []
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
        per.append(p.values[10:-10])
        wel.append(w.values[5:-5])
    k = n // seg
    ratio = np.var(np.array(wel), axis=0).mean() / np.var(np.array(per), axis=0).mean()
    assert 1.0 / (2 * k) < ratio < 2.0 / k
    _ok(
        "criterion 7",
        f"DFT err {worst:.2e}, Parseval {parseval:.2e}, "
        f"Welch variance ratio {ratio:.4f} (1/K = {1 / k:.4f})",
    )


# ---------------------------------------------------------------------------
# 8. deglitcher


def test_criterion_8_deglitcher():
    rng = np.random.default_rng(81)
    x = rng.standard_normal(100_000)
    idx = rng.choice(100_000, size=10, replace=False)
    x[idx] = 100.0 * np.where(rng.random(10) > 0.5, 1.0, -1.0)
    mu, sigma = x.mean(), x.std()
    out, n_repl = deglitch(x, rng_seed=8)
    assert n_repl == 10
    assert set(np.flatnonzero(out != x)) == set(idx)
    assert np.all(np.abs(out[idx] - mu) <= sigma)
    keep = np.setdiff1d(np.arange(100_000), idx)
    assert np.array_equal(out[keep], x[keep])
    out2, _ = deglitch(x, rng_seed=8)
    assert np.array_equal(out, out2)
    _ok("criterion 8", "10/10 outliers replaced in [mu-sigma, mu+sigma], rest untouched")


# ---------------------------------------------------------------------------
# 9. determinism and polyphase equivalence


def test_criterion_9_determinism_and_polyphase(tmp_path):
    cfg = replace(builtin_scenarios()["desk_a"], acquisition_len=320)
    digests = []
    for threads, sub in ((1, "t1"), (4, "t4")):
        res = run_loopback(cfg, threads=threads)
        out = tmp_path / sub
        man = persist(res, str(out))
        acc = hashlib.sha256()
        for rel in sorted(man["files"]):
            acc.update(rel.encode())
            acc.update((out / rel).read_bytes())
        digests.append(acc.hexdigest())
    assert digests[0] == digests[1]

    rng = np.random.default_rng(91)
    n = 100_000
    wi = rng.integers(-4096, 4096, n)
    wq = rng.integers(-4096, 4096, n)
    g, spec = cfg.generator, cfg.resolved_channelizer_filter()  # 13-bit wideband
    for b in range(2):
        di, dq = channelize_direct((wi, wq), b, g, spec)
        pi, pq = channelize((wi, wq), b, g, spec)
        assert np.array_equal(di, pi)
        assert np.array_equal(dq, pq)
    _ok(
        "criterion 9",
        f"thread-count reruns byte-identical ({digests[0][:12]}); "
        f"polyphase bit-exact on {n} samples",
    )
