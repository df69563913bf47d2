"""Measurement mathematics.

FFT with validated mixed-radix lengths, periodogram and Welch PSDs,
amplitude/phase extraction into fractional-fluctuation series, dBc/Hz
normalization, SINAD/SFDR, spur prediction from accumulator/LUT period
arithmetic, spur detection over a median floor, and the mu +/- 5 sigma
deglitcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy import signal as _signal
from scipy.fft import rfft as _rfft

from .fxp import ConfigError


class SpectrumUnits(Enum):
    LINEAR_PER_HZ = "linear_per_hz"
    DBC_PER_HZ = "dbc_per_hz"
    DB_FS = "db_fs"


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

    def linear_values(self) -> np.ndarray:
        if self.units is SpectrumUnits.LINEAR_PER_HZ:
            return np.asarray(self.values, dtype=np.float64)
        return 10.0 ** (np.asarray(self.values, dtype=np.float64) / 10.0)


@dataclass(frozen=True)
class SpurLine:
    freq_hz: float
    level_db: float  # dB above the median floor
    bin: int


@dataclass(frozen=True)
class SpurReport:
    lines: tuple[SpurLine, ...]
    floor: float  # median PSD in the spectrum's units
    predicted: tuple[tuple[float, str], ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# transforms


def _validate_fft_length(n: int) -> None:
    if n < 1:
        raise ConfigError("fft length must be >= 1")
    m = n
    for p in (2, 5):
        while m % p == 0:
            m //= p
    if m != 1:
        raise ConfigError(
            f"fft length {n} unsupported: must factor as 2^a * 5^b"
        )


def fft(x: np.ndarray) -> np.ndarray:
    """Forward DFT for lengths factorizable as 2^a * 5^b."""
    x = np.asarray(x)
    _validate_fft_length(len(x))
    return np.fft.fft(x)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT; ifft(fft(x)) returns x within 1e-9 relative."""
    x = np.asarray(x)
    _validate_fft_length(len(x))
    return np.fft.ifft(x)


# ---------------------------------------------------------------------------
# amplitude / phase


@dataclass(frozen=True)
class AmpPhaseResult:
    """Raw amplitude/phase plus the fractional fluctuation series used for
    PSDs: delta_amp = amp/mean(amp) - 1, delta_phase = phase - mean(phase)."""

    amp: np.ndarray
    phase: np.ndarray
    delta_amp: np.ndarray
    delta_phase: np.ndarray


def amp_phase(series) -> AmpPhaseResult:
    """Amplitude sqrt(I^2+Q^2) and unwrapped four-quadrant phase.

    Accepts an IqTimeSeries or a plain (i, q) array pair.
    """
    if isinstance(series, tuple):
        i, q = series
    else:
        i, q = series.i, series.q
    i = np.asarray(i, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if len(i) == 0:
        raise ConfigError("amp_phase needs a nonempty series")
    amp = np.hypot(i, q)
    phase = np.unwrap(np.arctan2(q, i))
    mean_amp = float(np.mean(amp))
    if mean_amp == 0.0:
        raise ValueError("degenerate input: mean amplitude is zero")
    return AmpPhaseResult(
        amp=amp,
        phase=phase,
        delta_amp=amp / mean_amp - 1.0,
        delta_phase=phase - float(np.mean(phase)),
    )


# ---------------------------------------------------------------------------
# power spectral density


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
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ConfigError("psd needs at least 2 samples")
    if fs <= 0:
        raise ConfigError("fs must be > 0")
    if method is PsdMethod.PERIODOGRAM:
        if segment_len is not None:
            raise ConfigError("segment_len applies to the Welch method only")
        win = window if window is not None else SpectrumWindow.RECT
        win_name = "boxcar" if win is SpectrumWindow.RECT else "hann"
        # scipy.signal.periodogram(detrend=False, scaling="density") written
        # out around one rfft, in its exact operation order: bit-identical
        # for both windows and every length, without ShortTimeFFT's overhead
        w = _signal.get_window(win_name, n)
        fac = 1 / np.sqrt(np.add.accumulate(w * w)[-1] / (1 / fs))
        spec = _rfft(x * (w * fac))
        pxx = spec.real**2 + spec.imag**2
        pxx[1 : -1 if n % 2 == 0 else None] *= 2
        return Spectrum(
            n_points=n,
            bin_hz=fs / n,
            values=pxx,
            units=SpectrumUnits.LINEAR_PER_HZ,
            window=win,
            method=method,
        )
    win = window if window is not None else SpectrumWindow.HANN
    win_name = "boxcar" if win is SpectrumWindow.RECT else "hann"
    seg = segment_len if segment_len is not None else max(2, n // 8)
    if seg < 2 or seg > n:
        raise ConfigError(f"segment_len {seg} out of range 2..{n}")
    if not (0.0 <= overlap_frac < 1.0):
        raise ConfigError("overlap_frac must be in [0, 1)")
    _, pxx = _signal.welch(
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


def dbc_per_hz(spec: Spectrum, carrier_power: float) -> Spectrum:
    """Renormalize a linear-density spectrum to dB relative to the carrier."""
    if carrier_power <= 0:
        raise ConfigError("carrier_power must be > 0")
    if spec.units is not SpectrumUnits.LINEAR_PER_HZ:
        raise ConfigError("dbc_per_hz expects a linear-density spectrum")
    with np.errstate(divide="ignore"):
        vals = 10.0 * np.log10(np.asarray(spec.values, dtype=np.float64) / carrier_power)
    return Spectrum(
        n_points=spec.n_points,
        bin_hz=spec.bin_hz,
        values=vals,
        units=SpectrumUnits.DBC_PER_HZ,
        window=spec.window,
        method=spec.method,
        segment_len=spec.segment_len,
        overlap_frac=spec.overlap_frac,
    )


# ---------------------------------------------------------------------------
# tone quality


def sinad_sfdr(tone_wave: np.ndarray, fundamental_bin: int) -> tuple[float, float]:
    """SINAD and SFDR of a coherently captured real tone, DC excluded.

    SINAD compares the fundamental against everything else; SFDR against
    the single largest other bin.
    """
    x = np.asarray(tone_wave, dtype=np.float64)
    spec = np.abs(np.fft.rfft(x)) ** 2
    if not (0 < fundamental_bin < len(spec)):
        raise ConfigError("fundamental_bin out of range")
    p = spec.copy()
    p[0] = 0.0
    p_fund = p[fundamental_bin]
    if p_fund == 0.0:
        raise ValueError("fundamental bin holds no power")
    p_rest = p.copy()
    p_rest[fundamental_bin] = 0.0
    total_rest = float(p_rest.sum())
    max_rest = float(p_rest.max())
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
    if band_rate <= 0:
        raise ConfigError("band_rate must be > 0")
    R = math.lcm(L_acc * U, lut_len) // U
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
    for ai in np.unique(a):
        freq_hz = float(Fraction(int(ai), R * L_avg) * Fraction(band_rate))
        out.append((freq_hz, float(best_att[ai])))
    out.sort(key=lambda t: t[0])
    return out


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
    vals = spec.linear_values()
    floor_lin = max(float(np.median(vals)), floor_min)
    thresh = floor_lin * 10.0 ** (threshold_db / 10.0)
    # bins 1.. against both neighbours; the last bin's right neighbour is -inf
    padded = np.append(vals, -np.inf)
    v = padded[1:-1]
    peak = (v > thresh) & (v > padded[:-2]) & (v > padded[2:])
    lines = []
    for b in (np.flatnonzero(peak) + 1).tolist():
        level_db = (
            math.inf if floor_lin == 0.0 else 10.0 * math.log10(vals[b] / floor_lin)
        )
        lines.append(SpurLine(freq_hz=b * spec.bin_hz, level_db=level_db, bin=b))
    floor_out = floor_lin
    if spec.units is not SpectrumUnits.LINEAR_PER_HZ:
        floor_out = -math.inf if floor_lin == 0.0 else 10.0 * math.log10(floor_lin)
    return SpurReport(lines=tuple(lines), floor=floor_out)


# ---------------------------------------------------------------------------
# deglitch


def deglitch(x: np.ndarray, rng_seed: int) -> tuple[np.ndarray, int]:
    """Replace samples outside mu +/- 5 sigma with seeded uniform draws
    from [mu - sigma, mu + sigma].

    Statistics are computed once over the raw input (glitches included);
    replacements are drawn in ascending index order so the result is
    deterministic for a given seed. sigma = 0 returns the input unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 2:
        raise ConfigError("deglitch needs at least 2 samples")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    out = x.copy()
    if sigma == 0.0:
        return out, 0
    mask = np.abs(x - mu) > 5.0 * sigma
    idx = np.nonzero(mask)[0]
    rng = np.random.default_rng(rng_seed)
    for k in idx:
        out[k] = rng.uniform(mu - sigma, mu + sigma)
    return out, int(idx.size)
