"""Fixed-point arithmetic substrate.

Two's-complement signed formats, and the int64 array helpers every DSP
block runs on: an arithmetic right shift with a rounding policy, and
saturation to a word width. Only the phase accumulators reduce modulo
their own modulus (generator.phase_words); every stream stage saturates
or is proven not to overflow.
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
# Array helpers. The DSP chain carries streams as int64 numpy arrays of raw
# codes. Callers guarantee intermediate products fit int64 (the widest
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
