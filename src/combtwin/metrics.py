"""Measurement mathematics.

Periodogram and Welch PSDs, amplitude/phase extraction into
fractional-fluctuation series, SINAD/SFDR, spur prediction from
accumulator/LUT period arithmetic, spur detection over a median floor,
and the mu +/- 5 sigma deglitcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.fft import rfft as _rfft
from numpy.lib.stride_tricks import sliding_window_view

from .fxp import ConfigError
from .generator import periodic_extend, waveform_period

SPUR_THRESHOLD_DB = 10.0  # a line clears the median floor by this much
SPUR_FLOOR_GUARD_REL = 1e-24  # the floor is at least max(PSD) * this


class SpectrumWindow(Enum):
    RECT = "rect"
    HANN = "hann"


class PsdMethod(Enum):
    PERIODOGRAM = "periodogram"
    WELCH = "welch"


@dataclass(frozen=True)
class Spectrum:
    """One-sided PSD, a linear density per Hz: n_points/2 + 1 bins spaced
    bin_hz apart."""

    n_points: int
    bin_hz: float
    values: np.ndarray
    window: SpectrumWindow
    method: PsdMethod
    segment_len: int | None = None
    overlap_frac: float | None = None

    def __post_init__(self) -> None:
        if len(self.values) != self.n_points // 2 + 1:
            raise ConfigError("one-sided spectrum must have n_points/2 + 1 bins")


@dataclass(frozen=True)
class SpurLine:
    freq_hz: float
    level_db: float  # dB above the median floor
    bin: int


@dataclass(frozen=True)
class SpurReport:
    lines: tuple[SpurLine, ...]
    floor: float  # median PSD (linear density)


# ---------------------------------------------------------------------------
# amplitude / phase


def _amp_phase(i, q, n: int, fac: float, out=None):
    """The mean amplitude and the fractional fluctuation series of the
    series that tiles (i, q) to n samples: (mean(amp), (amp/mean(amp) - 1)
    * fac, (phase - mean(phase)) * fac), where amp is sqrt(I^2+Q^2) and
    phase the unwrapped four-quadrant phase; a silent series, mean(amp) 0,
    gives 0.0 and two zero series. The elementwise work runs on
    the given samples only, the means over the tiled arrays, and each
    fluctuation series is written over its tiled array: out's two
    n-length float64 arrays if given, fresh ones otherwise. Unless some
    cyclic step of the pattern's phase (the wrap step included) is a
    jump, np.unwrap of the tiled phase adds 0.0 to every sample after the
    first and nothing else, so delta_phase tiles the pattern too;
    otherwise np.unwrap runs over the tiled phase."""
    i = np.asarray(i, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if len(i) == 0:
        raise ConfigError("amp_phase needs a nonempty series")
    amp, phase = (np.empty(n), np.empty(n)) if out is None else out
    amp_pat = np.hypot(i, q)
    periodic_extend(amp_pat, n, out=amp)
    mean_amp = float(np.mean(amp))
    if mean_amp == 0.0:  # a silent series fluctuates by nothing
        amp.fill(0.0)
        phase.fill(0.0)
        return 0.0, amp, phase
    periodic_extend((amp_pat / mean_amp - 1.0) * fac, n, out=amp)
    p = np.arctan2(q, i)
    if np.all(np.abs(np.diff(p, append=p[:1])) < np.pi):
        p_up = p + 0.0
        periodic_extend(p_up, n, out=phase)
        phase[0] = p[0]
        mean_phase = float(np.mean(phase))
        periodic_extend((p_up - mean_phase) * fac, n, out=phase)
        phase[0] = (p[0] - mean_phase) * fac
    else:
        phase[:] = np.unwrap(periodic_extend(p, n, out=phase))
        phase -= float(np.mean(phase))
        phase *= fac
    return mean_amp, amp, phase


# ---------------------------------------------------------------------------
# power spectral density


def _periodogram_fac(w2: float, fs: float) -> float:
    """scipy.signal.periodogram's density factor for a window whose sum of
    squares is w2, in its exact operation order. The Rect window's w2 is
    the length n exactly, so it needs no window array."""
    return float(1 / np.sqrt(w2 / (1 / fs)))


def _periodogram(xw: np.ndarray, fs: float, window: SpectrumWindow, work=None) -> Spectrum:
    """The periodogram of xw, the input already multiplied by the window
    and its _periodogram_fac: scipy.signal.periodogram(
    detrend=False, scaling="density") written out around one rfft, in its
    exact operation order, bit-identical for both windows and every length
    without ShortTimeFFT's overhead. Squaring the rfft output in place
    through its float64 view forms scipy's re**2 and im**2, which numpy
    computes as re*re and im*im. The rfft of +-0 is +-0, so an all-zero
    input skips it. work, if given, is the (n/2+1 complex128 rfft output,
    n/2+1 float64 values) pair written over: the spectrum's values are
    then work's, valid until work is used again."""
    n = len(xw)
    if n < 2:
        raise ConfigError("psd needs at least 2 samples")
    z, pxx = (None, np.empty(n // 2 + 1)) if work is None else work
    if not (xw[0] or xw.any()):
        pxx.fill(0.0)
    else:
        ri = _rfft(xw, out=z).view(np.float64)
        np.multiply(ri, ri, out=ri)
        np.add(ri[0::2], ri[1::2], out=pxx)
        pxx[1 : -1 if n % 2 == 0 else None] *= 2
    return Spectrum(
        n_points=n,
        bin_hz=fs / n,
        values=pxx,
        window=window,
        method=PsdMethod.PERIODOGRAM,
    )


def _hann(m: int) -> np.ndarray:
    """scipy.signal.get_window("hann", m), the periodic Hann window, in
    general_cosine's exact operation order: sum a_k * cos(k * fac) over
    m + 1 points from -pi to pi, a = (0.5, 0.5), the last point dropped."""
    if m <= 1:
        return np.ones(m)
    fac = np.linspace(-np.pi, np.pi, m + 1)
    w = np.zeros(m + 1)
    for k, a in enumerate((0.5, 0.5)):
        w += a * np.cos(k * fac)
    return w[:-1]


def _scaled_window(window: SpectrumWindow, m: int, fs: float) -> np.ndarray:
    """The length-m window times its _periodogram_fac, whose sum of squares
    runs in the order of scipy's builtin sum."""
    w = _hann(m) if window is SpectrumWindow.HANN else np.ones(m)
    return w * _periodogram_fac(np.add.accumulate(w * w)[-1], fs)


def _welch(x: np.ndarray, scale: np.ndarray, noverlap: int) -> np.ndarray:
    """The values of scipy.signal.welch(x, nperseg=len(scale), noverlap=
    noverlap, detrend=False, scaling="density") for the window times its
    density factor scale, in the exact operation order of the
    ShortTimeFFT.spectrogram that csd runs: the (n - noverlap) // hop
    segments times scale, one rfft each, squared and added (re**2 + im**2)
    into a C-contiguous (bins, segments) array, every bin but DC (and
    Nyquist for an even length) doubled, then the mean over the segments,
    whose pairwise summation runs along that array's rows."""
    seg = len(scale)
    hop = seg - noverlap
    p1 = (len(x) - noverlap) // hop
    ri = _rfft(sliding_window_view(x, seg)[::hop][:p1] * scale).view(np.float64)
    np.multiply(ri, ri, out=ri)
    pxx = np.empty((seg // 2 + 1, p1))
    np.add(ri[:, 0::2], ri[:, 1::2], out=pxx.T)
    pxx[1 : -1 if seg % 2 == 0 else None] *= 2
    return pxx.mean(axis=-1) if p1 > 1 else pxx.reshape(-1)


def psd(
    x: np.ndarray,
    fs: float,
    method: PsdMethod = PsdMethod.PERIODOGRAM,
    window: SpectrumWindow | None = None,
    segment_len: int | None = None,
    overlap_frac: float = 0.5,
) -> Spectrum:
    """One-sided PSD density in 1/Hz.

    Periodogram: single segment (segment_len must be None), Rect window
    unless specified. Welch: Hann-windowed segments (default length N/8,
    50% overlap), window power compensated, segment periodograms averaged.
    Non-finite samples are refused.

    Both methods are numpy code written in the exact operation order of
    scipy.signal.periodogram and scipy.signal.welch (detrend=False,
    scaling="density"), so their values are scipy's bit for bit. scipy is
    the reference order and the tests' oracle, not a runtime import.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ConfigError("psd needs at least 2 samples")
    if not np.isfinite(x).all():
        raise ConfigError("psd needs finite samples")
    if not (0 < fs < math.inf):
        raise ConfigError(f"fs must be finite and > 0, got {fs}")
    if method is PsdMethod.PERIODOGRAM:
        if segment_len is not None:
            raise ConfigError("segment_len applies to the Welch method only")
        if window is SpectrumWindow.HANN:
            return _periodogram(x * _scaled_window(window, n, fs), fs, window)
        return _periodogram(x * _periodogram_fac(n, fs), fs, SpectrumWindow.RECT)
    win = window if window is not None else SpectrumWindow.HANN
    seg = segment_len if segment_len is not None else max(2, n // 8)
    if seg < 2 or seg > n:
        raise ConfigError(f"segment_len {seg} out of range 2..{n}")
    if not (0.0 <= overlap_frac < 1.0):
        raise ConfigError("overlap_frac must be in [0, 1)")
    pxx = _welch(x, _scaled_window(win, seg, fs), int(seg * overlap_frac))
    return Spectrum(
        n_points=seg,
        bin_hz=fs / seg,
        values=pxx,
        window=win,
        method=method,
        segment_len=seg,
        overlap_frac=overlap_frac,
    )


# ---------------------------------------------------------------------------
# tone quality


def sinad_sfdr(tone_wave: np.ndarray, fundamental_bin: int) -> tuple[float, float]:
    """SINAD and SFDR of a coherently captured real tone, DC excluded.

    SINAD compares the fundamental against everything else; SFDR against
    the single largest other bin.
    """
    x = np.asarray(tone_wave, dtype=np.float64)
    p = np.abs(np.fft.rfft(x)) ** 2
    if not (0 < fundamental_bin < len(p)):
        raise ConfigError("fundamental_bin out of range")
    p[0] = 0.0
    p_fund = p[fundamental_bin]
    if p_fund == 0.0:
        raise ValueError("fundamental bin holds no power")
    p[fundamental_bin] = 0.0
    total_rest = float(p.sum())
    max_rest = float(p.max())
    sinad = math.inf if total_rest == 0.0 else 10.0 * math.log10(p_fund / total_rest)
    sfdr = math.inf if max_rest == 0.0 else 10.0 * math.log10(p_fund / max_rest)
    return sinad, sfdr


# ---------------------------------------------------------------------------
# spur prediction and detection


def predict_spurs(
    L_acc: int, U: int, lut_len: int, L_avg: int, band_rate: float
) -> list[tuple[float, float]]:
    """Baseband aliases of the waveform's residual sub-L_acc structure.

    The steady-state waveform period at band rate is R = lcm(L_acc*U,
    lut_len)/U samples. Residual grid components at band_rate*j/R that are
    not multiples of the output rate fs = band_rate/L_avg fall through the
    boxcar and alias to (j*band_rate/R) mod fs, folded to [0, fs/2]. Each
    alias is reported with the boxcar attenuation of its least-attenuated
    contributor. Empty when every grid component is a boxcar zero (R
    divides L_avg). Each frequency is one correctly rounded division of
    exact integers, a * band_rate / (R * L_avg).
    """
    if L_acc < 1 or U < 1 or lut_len < 1 or L_avg < 1:
        raise ConfigError("all integer arguments must be >= 1")
    if not (0 < band_rate < math.inf):
        raise ConfigError(f"band_rate must be finite and > 0, got {band_rate}")
    R = waveform_period(L_acc, U, lut_len) // U
    # j*L_avg mod R depends only on j mod n = R / gcd(L_avg, R): j in [1, n)
    # and the mirrors R - j are each residue's least-attenuated members
    n = R // math.gcd(L_avg, R)
    j = np.arange(1, n, dtype=np.int64)
    j = np.concatenate([j, R - j])
    am = (j * np.int64(L_avg)) % np.int64(R)
    a = np.minimum(am, np.int64(R) - am)
    # boxcar magnitude at f = j/R in (0, 1); no j is a multiple of n, a null
    f = j / float(R)
    resp = np.abs(np.sin(np.pi * L_avg * f) / (L_avg * np.sin(np.pi * f)))
    att = 20.0 * np.log10(resp)
    aliases, which = np.unique(a, return_inverse=True)  # ascending, as are the frequencies
    best_att = np.full(len(aliases), -np.inf)
    np.maximum.at(best_att, which, att)
    num, den = float(band_rate).as_integer_ratio()
    den *= R * L_avg
    return [(ai * num / den, att_ai) for ai, att_ai in zip(aliases.tolist(), best_att.tolist())]


def _spur_floor(vals: np.ndarray, floor_min: float) -> float:
    """max(float(np.median(vals)), floor_min), without the median when more
    than half the bins are <= floor_min and none is NaN. The two middle
    bins are then <= floor_min, and so is their mean, since floor_min <
    2**1023 keeps their sum finite: max returns floor_min, or at a tie the
    median, whose bits equal floor_min's unless both are zero. A zero
    floor_min ties with a +0.0 median when no bin has its sign bit set."""
    if (
        floor_min < 2.0**1023
        and 2 * np.count_nonzero(vals <= floor_min) > len(vals)
        and not np.isnan(vals).any()
    ):
        if floor_min != 0.0:
            return floor_min
        if not np.signbit(vals).any():
            return 0.0
    return max(float(np.median(vals)), floor_min)


def detect_spurs(spec: Spectrum) -> SpurReport:
    """Local maxima exceeding the median floor by SPUR_THRESHOLD_DB.

    The floor is at least SPUR_FLOOR_GUARD_REL of the largest bin: the
    guard keeps numerical dust from clearing the threshold over a zero
    median. Bin 0 is never a line (the demodulated carrier lives at DC).
    """
    vals = spec.values
    floor_lin = _spur_floor(vals, float(np.max(vals)) * SPUR_FLOOR_GUARD_REL)
    thresh = floor_lin * 10.0 ** (SPUR_THRESHOLD_DB / 10.0)
    # bins 1.. over the threshold against both neighbours; the last bin's
    # right neighbour is -inf, which every bin over the threshold exceeds
    cand = np.flatnonzero(vals[1:] > thresh) + 1
    v = vals[cand]
    last = len(vals) - 1
    right = vals[np.minimum(cand + 1, last)]
    peak = (v > vals[cand - 1]) & ((cand == last) | (v > right))
    lines = []
    for b in cand[peak].tolist():
        level_db = (
            math.inf if floor_lin == 0.0 else 10.0 * math.log10(vals[b] / floor_lin)
        )
        lines.append(SpurLine(freq_hz=b * spec.bin_hz, level_db=level_db, bin=b))
    return SpurReport(lines=tuple(lines), floor=floor_lin)


# ---------------------------------------------------------------------------
# deglitch


def deglitch(x: np.ndarray, rng_seed: int) -> tuple[np.ndarray, int]:
    """Replace samples outside mu +/- 5 sigma with seeded uniform draws
    from [mu - sigma, mu + sigma].

    Statistics are computed once over the raw input (glitches included);
    replacements are drawn in ascending index order so the result is
    deterministic for a given seed. sigma = 0 returns the input unchanged.
    Non-finite samples are refused.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 2:
        raise ConfigError("deglitch needs at least 2 samples")
    if not np.isfinite(x).all():
        raise ConfigError("deglitch needs finite samples")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    out = x.copy()
    if sigma == 0.0:
        return out, 0
    mask = np.abs(x - mu) > 5.0 * sigma
    idx = np.nonzero(mask)[0]
    rng = np.random.default_rng(rng_seed)
    out[idx] = rng.uniform(mu - sigma, mu + sigma, size=idx.size)
    return out, int(idx.size)
