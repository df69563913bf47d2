"""Fixed-point substrate: formats, values, the one narrowing kernel
(requantize) and the chain's one multiply (the LUT complex multiply)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin import ConfigError, FxpFormat, FxpValue, Rounding
from combtwin.fxp import requantize
from combtwin.generator import cmul_lut

Q17 = FxpFormat(8, 7)


# big-integer oracles of requantize's shift and saturation


def _shift_right_int(x: int, shift: int, rounding: Rounding) -> int:
    if shift == 0:
        return x
    if rounding is Rounding.ROUND_HALF_UP:
        x += 1 << (shift - 1)
    return x >> shift  # Python >> floors, i.e. truncates toward -inf


def _apply_overflow_int(x: int, total_bits: int) -> int:
    """Saturate x to the total_bits two's-complement range."""
    lo = -(1 << (total_bits - 1))
    hi = (1 << (total_bits - 1)) - 1
    return min(max(x, lo), hi)


def test_format_range():
    assert Q17.min_raw == -128
    assert Q17.max_raw == 127
    assert FxpFormat(64, 0).min_raw == -(1 << 63)
    assert FxpFormat(2, 0).max_raw == 1


def test_format_validation():
    with pytest.raises(ConfigError):
        FxpFormat(1, 0)
    with pytest.raises(ConfigError):
        FxpFormat(65, 0)
    with pytest.raises(ConfigError):
        FxpFormat(8, 9)


def test_value_raw_must_fit_format():
    FxpValue(127, Q17)
    FxpValue(-128, Q17)
    with pytest.raises(ConfigError):
        FxpValue(128, Q17)
    with pytest.raises(ConfigError):
        FxpValue(-129, Q17)


def test_mul_examples():
    # Q1.7 x Q1.7 -> Q1.7 through the LUT multiply, imaginary parts zero
    x = np.array([64, -128, 77], dtype=np.int64)
    zero = np.zeros(3, dtype=np.int64)
    pi, pq = cmul_lut(x, zero, x, zero, 8)
    assert pi.tolist() == [32, 127, 46]  # 0.25 exactly; -1 * -1 saturates; 5929 >> 7
    assert pq.tolist() == [0, 0, 0]


def test_mul_matches_big_integer_oracle():
    # exact double-width products before the shift, wide random sweep
    rng = np.random.default_rng(12)
    xi, xq, li, lq = (rng.integers(-(1 << 17), 1 << 17, 20_000) for _ in range(4))
    pi, pq = cmul_lut(xi, xq, li, lq, 18)
    for k in range(len(xi)):
        a, b, c, d = int(xi[k]), int(xq[k]), int(li[k]), int(lq[k])
        assert pi[k] == _apply_overflow_int((a * c - b * d) >> 17, 18)
        assert pq[k] == _apply_overflow_int((a * d + b * c) >> 17, 18)


def test_array_helpers_match_scalar_ops():
    rng = np.random.default_rng(14)
    x = rng.integers(-(1 << 20), 1 << 20, 4000).astype(np.int64)
    for shift in (0, 1, 5, 13):
        # at 64 bits nothing saturates: the shift alone
        t = requantize(x.copy(), shift, 64)
        h = requantize(x.copy(), shift, 64, Rounding.ROUND_HALF_UP)
        for i in range(0, 4000, 97):
            xi = int(x[i])
            assert t[i] == (xi >> shift)
            want = ((xi + (1 << (shift - 1))) >> shift) if shift else xi
            assert h[i] == want
    s = requantize(x.copy(), 0, 12)
    assert s.max() == 2047 and s.min() == -2048
    inside = (x >= -2048) & (x <= 2047)
    assert np.array_equal(s[inside], x[inside])
    assert np.array_equal(requantize(x.copy(), 5, 12), np.clip(x >> 5, -2048, 2047))


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


@st.composite
def int64_helper_cases(draw):
    width = draw(st.integers(2, 64))
    shift = draw(st.integers(0, 63))
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    edges = [lo - 1, lo, lo + 1, -1, 0, 1, hi - 1, hi, hi + 1, INT64_MIN, INT64_MAX]
    values = st.one_of(
        st.sampled_from([v for v in edges if INT64_MIN <= v <= INT64_MAX]),
        st.integers(INT64_MIN, INT64_MAX),
    )
    return width, shift, draw(st.lists(values, min_size=1, max_size=40))


@settings(max_examples=400)
@given(int64_helper_cases())
def test_int64_helpers_equal_big_int_scalar_ops(case):
    width, shift, values = case
    # the kernel's contract: the rounding offset must not carry past int64
    fits = [v for v in values if shift == 0 or v <= INT64_MAX - (1 << (shift - 1))]
    cases = ((Rounding.TRUNCATE_TOWARD_NEG_INF, values), (Rounding.ROUND_HALF_UP, fits))
    for rounding, vals in cases:
        x = np.array(vals, dtype=np.int64)
        got = requantize(x, shift, width, rounding)
        assert got is x  # in place: the caller's fresh array comes back
        assert got.tolist() == [
            _apply_overflow_int(_shift_right_int(v, shift, rounding), width) for v in vals
        ]
