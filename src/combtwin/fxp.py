"""Fixed-point arithmetic substrate.

Two's-complement signed formats with explicit overflow and rounding
policies. Scalar operations use exact Python integers; the array helpers
at the bottom operate on int64 numpy arrays and are what the DSP blocks
run on. Both views share one definition of shifting, wrapping and
saturation, so scalar and vector results are bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or format mismatch."""


class Overflow(enum.Enum):
    WRAP = "wrap"
    SATURATE = "saturate"


class Rounding(enum.Enum):
    TRUNCATE_TOWARD_NEG_INF = "truncate"
    ROUND_HALF_UP = "round_half_up"


@dataclass(frozen=True)
class FxpFormat:
    """Signed two's-complement fixed-point format.

    Parameters
    ----------
    total_bits : int
        Word width including the sign bit, 2..64.
    frac_bits : int
        Fractional bits, 0..total_bits.
    overflow : Overflow
        Policy applied whenever a raw value leaves the representable range.
    rounding : Rounding
        Policy applied on right shifts. Truncation (arithmetic shift
        right) is the hardware default; round-half-up is selectable
        per block.
    """

    total_bits: int
    frac_bits: int
    overflow: Overflow = Overflow.SATURATE
    rounding: Rounding = Rounding.TRUNCATE_TOWARD_NEG_INF

    def __post_init__(self) -> None:
        if not (2 <= self.total_bits <= 64):
            raise ConfigError(f"total_bits must be in 2..64, got {self.total_bits}")
        if not (0 <= self.frac_bits <= self.total_bits):
            raise ConfigError(
                f"frac_bits must be in 0..total_bits, got {self.frac_bits}"
            )

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def epsilon(self) -> float:
        return 2.0 ** (-self.frac_bits)


@dataclass(frozen=True)
class FxpValue:
    """A raw integer bound to its format. raw is always in range."""

    raw: int
    fmt: FxpFormat

    def __post_init__(self) -> None:
        if not (self.fmt.min_raw <= self.raw <= self.fmt.max_raw):
            raise ConfigError(
                f"raw {self.raw} outside [{self.fmt.min_raw}, {self.fmt.max_raw}] "
                f"for {self.fmt.total_bits}-bit format"
            )

    def to_float(self) -> float:
        return fxp_to_float(self)


@dataclass(frozen=True)
class IqSample:
    """Complex integer baseband sample; i and q share one format."""

    i: FxpValue
    q: FxpValue

    def __post_init__(self) -> None:
        if self.i.fmt != self.q.fmt:
            raise ConfigError("i and q must share one format")


def _shift_right_int(x: int, shift: int, rounding: Rounding) -> int:
    if shift == 0:
        return x
    if rounding is Rounding.ROUND_HALF_UP:
        x += 1 << (shift - 1)
    return x >> shift  # Python >> floors, i.e. truncates toward -inf


def _apply_overflow_int(x: int, total_bits: int, policy: Overflow) -> int:
    lo = -(1 << (total_bits - 1))
    hi = (1 << (total_bits - 1)) - 1
    if lo <= x <= hi:
        return x
    if policy is Overflow.SATURATE:
        return lo if x < lo else hi
    span = 1 << total_bits
    return ((x - lo) % span) + lo


def fxp_from_float(value: float, fmt: FxpFormat) -> FxpValue:
    """Quantize a float to fmt. Rounding and overflow follow the format."""
    scaled = value * (1 << fmt.frac_bits)
    if fmt.rounding is Rounding.ROUND_HALF_UP:
        raw = int(np.floor(scaled + 0.5))
    else:
        raw = int(np.floor(scaled))
    return FxpValue(_apply_overflow_int(raw, fmt.total_bits, fmt.overflow), fmt)


def fxp_to_float(a: FxpValue) -> float:
    """raw / 2^frac_bits, exact in double precision for total_bits <= 52."""
    return a.raw / (1 << a.fmt.frac_bits)


def fxp_add(a: FxpValue, b: FxpValue, out_fmt: FxpFormat) -> FxpValue:
    """Exact integer sum, then the output format's overflow policy.

    The operands and the output must already share frac_bits; any
    realignment must be done explicitly with fxp_rescale at the call
    site, never implicitly here.
    """
    if a.fmt.frac_bits != b.fmt.frac_bits or a.fmt.frac_bits != out_fmt.frac_bits:
        raise ConfigError(
            "fxp_add operands and output must share frac_bits; "
            "realign explicitly with fxp_rescale"
        )
    s = a.raw + b.raw
    return FxpValue(_apply_overflow_int(s, out_fmt.total_bits, out_fmt.overflow), out_fmt)


def fxp_mul(a: FxpValue, b: FxpValue, out_fmt: FxpFormat) -> FxpValue:
    """Exact double-width product, right shift to out_fmt, overflow policy.

    The shift is (a.frac + b.frac - out.frac) and must be >= 0; a
    requested left shift is a configuration error.
    """
    shift = a.fmt.frac_bits + b.fmt.frac_bits - out_fmt.frac_bits
    if shift < 0:
        raise ConfigError(
            f"fxp_mul would need a left shift by {-shift}; "
            "choose an output format with frac_bits <= a.frac + b.frac"
        )
    p = a.raw * b.raw
    p = _shift_right_int(p, shift, out_fmt.rounding)
    return FxpValue(_apply_overflow_int(p, out_fmt.total_bits, out_fmt.overflow), out_fmt)


def fxp_rescale(a: FxpValue, out_fmt: FxpFormat) -> FxpValue:
    """Explicit format realignment: shift raw to out_fmt's frac_bits.

    Right shifts round per the output format; left shifts are exact
    (then the overflow policy applies).
    """
    shift = a.fmt.frac_bits - out_fmt.frac_bits
    if shift >= 0:
        raw = _shift_right_int(a.raw, shift, out_fmt.rounding)
    else:
        raw = a.raw << (-shift)
    return FxpValue(_apply_overflow_int(raw, out_fmt.total_bits, out_fmt.overflow), out_fmt)


# ---------------------------------------------------------------------------
# Array helpers. The DSP chain carries streams as int64 numpy arrays of raw
# codes; every operation below is the vector twin of the scalar definitions
# above. Callers guarantee intermediate products fit int64 (the widest
# configured datapath is < 48 bits).


def shift_right(x: np.ndarray, shift: int, rounding: Rounding) -> np.ndarray:
    """Arithmetic right shift with the selected rounding, elementwise."""
    if shift == 0:
        return x
    if rounding is Rounding.ROUND_HALF_UP:
        x = x + (np.int64(1) << np.int64(shift - 1))
    return x >> np.int64(shift)


def saturate(x: np.ndarray, total_bits: int) -> np.ndarray:
    lo = -(1 << (total_bits - 1))
    hi = (1 << (total_bits - 1)) - 1
    return np.clip(x, lo, hi)


def wrap(x: np.ndarray, total_bits: int) -> np.ndarray:
    # exact modulo 2^total_bits on the raw integer
    if total_bits > 63:
        raise ConfigError("array wrap supports total_bits <= 63")
    lo = -(1 << (total_bits - 1))
    span = 1 << total_bits
    return (x - lo) % span + lo


def apply_overflow(x: np.ndarray, total_bits: int, policy: Overflow) -> np.ndarray:
    if policy is Overflow.SATURATE:
        return saturate(x, total_bits)
    return wrap(x, total_bits)
