"""Measurement mathematics.

Periodogram and Welch PSDs, amplitude/phase extraction into
fractional-fluctuation series, SINAD/SFDR, spur prediction from
accumulator/LUT period arithmetic, spur detection over a median floor,
and the mu +/- 5 sigma deglitcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.fft import rfft as _rfft

from .fxp import ConfigError
from .generator import periodic_extend, waveform_period


class SpectrumUnits(Enum):
    LINEAR_PER_HZ = "linear_per_hz"


class SpectrumWindow(Enum):
    RECT = "rect"
    HANN = "hann"


class PsdMethod(Enum):
    PERIODOGRAM = "periodogram"
    WELCH = "welch"


@dataclass(frozen=True)
class Spectrum:
    """One-sided PSD: n_points/2 + 1 bins spaced bin_hz apart."""

    n_points: int
    bin_hz: float
    values: np.ndarray
    units: SpectrumUnits
    window: SpectrumWindow
    method: PsdMethod
    segment_len: int | None = None
    overlap_frac: float | None = None

    def __post_init__(self) -> None:
        if len(self.values) != self.n_points // 2 + 1:
            raise ConfigError("one-sided spectrum must have n_points/2 + 1 bins")

    @property
    def freqs_hz(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.bin_hz


@dataclass(frozen=True)
class SpurLine:
    freq_hz: float
    level_db: float  # dB above the median floor
    bin: int


@dataclass(frozen=True)
class SpurReport:
    lines: tuple[SpurLine, ...]
    floor: float  # median PSD (linear density)
    predicted: tuple[tuple[float, str], ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# amplitude / phase


def _amp_phase(i, q, n: int, fac: float = 1.0, overwrite: bool = False):
    """Amplitude sqrt(I^2+Q^2) and unwrapped four-quadrant phase of the
    series that tiles (i, q) to n samples, with its fractional fluctuation
    series delta_amp = amp/mean(amp) - 1 and delta_phase = phase -
    mean(phase), both multiplied by fac: (amp, phase, mean amplitude,
    delta_amp * fac, delta_phase * fac). The elementwise work
    runs on the given samples only, the means over the tiled arrays; with
    overwrite, the fluctuation series are written over those two arrays,
    for callers that need only the means of them. Unless some cyclic step
    of the pattern's phase (the wrap step included) is a jump, np.unwrap of
    the tiled phase adds 0.0 to every sample after the first and nothing
    else, so delta_phase tiles the pattern too; otherwise np.unwrap runs
    over the tiled phase."""
    i = np.asarray(i, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if len(i) == 0:
        raise ConfigError("amp_phase needs a nonempty series")
    amp_pat = np.hypot(i, q)
    amp = periodic_extend(amp_pat, n)
    mean_amp = float(np.mean(amp))
    if mean_amp == 0.0:
        raise ValueError("degenerate input: mean amplitude is zero")
    delta_amp = periodic_extend(
        (amp_pat / mean_amp - 1.0) * fac, n, out=amp if overwrite else None
    )
    p = np.arctan2(q, i)
    if np.all(np.abs(np.diff(p, append=p[:1])) < np.pi):
        p_up = p + 0.0
        phase = periodic_extend(p_up, n)
        phase[0] = p[0]
        mean_phase = float(np.mean(phase))
        delta_phase = periodic_extend(
            (p_up - mean_phase) * fac, n, out=phase if overwrite else None
        )
        delta_phase[0] = (p[0] - mean_phase) * fac
    else:
        phase = np.unwrap(periodic_extend(p, n))
        mean_phase = float(np.mean(phase))
        delta_phase = np.subtract(phase, mean_phase, out=phase if overwrite else None)
        delta_phase *= fac
    return amp, phase, mean_amp, delta_amp, delta_phase


# ---------------------------------------------------------------------------
# power spectral density


def _periodogram_fac(w2: float, fs: float) -> float:
    """scipy.signal.periodogram's density factor for a window whose sum of
    squares is w2, in its exact operation order. The Rect window's w2 is
    the length n exactly, so it needs no window array."""
    return float(1 / np.sqrt(w2 / (1 / fs)))


def _periodogram(xw: np.ndarray, fs: float, window: SpectrumWindow) -> Spectrum:
    """The periodogram of xw, the input already multiplied by the window
    and its _periodogram_fac: scipy.signal.periodogram(
    detrend=False, scaling="density") written out around one rfft, in its
    exact operation order, bit-identical for both windows and every length
    without ShortTimeFFT's overhead. Squaring the rfft output in place
    through its float64 view forms scipy's re**2 and im**2, which numpy
    computes as re*re and im*im. The rfft of +-0 is +-0, so an all-zero
    input skips it."""
    n = len(xw)
    if n < 2:
        raise ConfigError("psd needs at least 2 samples")
    if not (xw[0] or xw.any()):
        pxx = np.zeros(n // 2 + 1)
    else:
        ri = _rfft(xw).view(np.float64)
        np.multiply(ri, ri, out=ri)
        pxx = ri[0::2] + ri[1::2]
        pxx[1 : -1 if n % 2 == 0 else None] *= 2
    return Spectrum(
        n_points=n,
        bin_hz=fs / n,
        values=pxx,
        units=SpectrumUnits.LINEAR_PER_HZ,
        window=window,
        method=PsdMethod.PERIODOGRAM,
    )


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
            from scipy.signal import get_window

            w = get_window("hann", n)
            scale = w * _periodogram_fac(np.add.accumulate(w * w)[-1], fs)
            return _periodogram(x * scale, fs, window)
        return _periodogram(x * _periodogram_fac(n, fs), fs, SpectrumWindow.RECT)
    win = window if window is not None else SpectrumWindow.HANN
    win_name = "boxcar" if win is SpectrumWindow.RECT else "hann"
    seg = segment_len if segment_len is not None else max(2, n // 8)
    if seg < 2 or seg > n:
        raise ConfigError(f"segment_len {seg} out of range 2..{n}")
    if not (0.0 <= overlap_frac < 1.0):
        raise ConfigError("overlap_frac must be in [0, 1)")
    from scipy.signal import welch

    _, pxx = welch(
        x,
        fs=fs,
        window=win_name,
        nperseg=seg,
        noverlap=int(seg * overlap_frac),
        detrend=False,
        scaling="density",
    )
    return Spectrum(
        n_points=seg,
        bin_hz=fs / seg,
        values=pxx,
        units=SpectrumUnits.LINEAR_PER_HZ,
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
    divides L_avg).
    """
    if L_acc < 1 or U < 1 or lut_len < 1 or L_avg < 1:
        raise ConfigError("all integer arguments must be >= 1")
    if not (0 < band_rate < math.inf):
        raise ConfigError(f"band_rate must be finite and > 0, got {band_rate}")
    R = waveform_period(L_acc, U, lut_len) // U
    j = np.arange(1, R, dtype=np.int64)
    am = (j * np.int64(L_avg)) % np.int64(R)
    keep = am != 0
    j = j[keep]
    if j.size == 0:
        return []
    a = np.minimum(am[keep], np.int64(R) - am[keep])
    # boxcar magnitude at f = j/R in (0, 1); masked j never hit the nulls
    f = j / float(R)
    resp = np.abs(np.sin(np.pi * L_avg * f) / (L_avg * np.sin(np.pi * f)))
    att = 20.0 * np.log10(resp)
    best_att = np.full(R, -np.inf)
    np.maximum.at(best_att, a, att)
    out = []
    for ai in np.unique(a):  # ascending, and so are the frequencies
        freq_hz = float(Fraction(int(ai), R * L_avg) * Fraction(band_rate))
        out.append((freq_hz, float(best_att[ai])))
    return out


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


def detect_spurs(
    spec: Spectrum, threshold_db: float = 10.0, floor_min: float = 0.0
) -> SpurReport:
    """Local maxima exceeding the median floor by threshold_db.

    floor_min (linear density) clamps the floor from below; it guards
    degenerate all-zero spectra where numerical dust would otherwise
    clear any threshold over a zero median. Bin 0 is never a line (the
    demodulated carrier lives at DC).
    """
    if threshold_db <= 0:
        raise ConfigError("threshold_db must be > 0")
    vals = spec.values
    floor_lin = _spur_floor(vals, floor_min)
    thresh = floor_lin * 10.0 ** (threshold_db / 10.0)
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
