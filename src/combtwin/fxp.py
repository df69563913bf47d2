"""Fixed-point arithmetic substrate.

Two's-complement signed formats, and the narrowing kernels every
saturating DSP stage runs on: requantize, an arithmetic right shift with
a rounding policy, and truncate, the floor of an exact float64 value, each
then saturating to a word width through saturate. Only the phase
accumulators reduce modulo their own modulus (generator.phase_words);
every stream stage saturates or is proven not to overflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or format mismatch."""


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
    """

    total_bits: int
    frac_bits: int

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


# ---------------------------------------------------------------------------
# The DSP chain carries its streams as int32 numpy arrays of raw codes (every
# stream is at most 32 bits wide), and forms products, filter sums and
# accumulator sums in int64 or as exact float64 values. Sums reach 63 bits;
# the config checks (check_int64_headroom, the stream and accumulator width
# limits) refuse every datapath whose intermediates could leave int64.

# the ufunc behind np.clip, without np.clip's per-call Python argument checks
_clip = np._core.umath.clip


def requantize(
    x: np.ndarray,
    shift: int,
    width: int,
    rounding: Rounding = Rounding.TRUNCATE_TOWARD_NEG_INF,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Shift out shift bits with the given rounding, then saturate to width
    bits (saturate): x is an integer array its caller owns, shifted in
    place, and the result is written into out, x itself if None. Round
    half up needs x + 2^(shift-1) to fit x's dtype."""
    if shift and rounding is Rounding.ROUND_HALF_UP:
        x += 1 << (shift - 1)
    x >>= shift
    return saturate(x, width, out)


def truncate(x: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """The requantization of a float64 array of exact fixed-point values, as
    the exact FIR products give them (codes times 2^-shift): truncation
    toward -inf is the floor, taken in place, then saturate into out."""
    np.floor(x, out=x)
    return saturate(x, width, out)


def saturate(x: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """x clipped to the width-bit range, into out (x itself if None): the one
    saturation of every narrowing stage. The clipped values are integers
    that fit any integer out of at least width bits, so the cast is exact."""
    hi = (1 << (width - 1)) - 1
    return _clip(x, -hi - 1, hi, out=x if out is None else out, casting="unsafe")
