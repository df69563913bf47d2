"""Fixed-point substrate: scalar ops, array helpers, policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin import (
    ConfigError,
    FxpFormat,
    FxpValue,
    IqSample,
    Overflow,
    Rounding,
    fxp_add,
    fxp_from_float,
    fxp_mul,
    fxp_rescale,
    fxp_to_float,
)
from combtwin.fxp import (
    _apply_overflow_int,
    _shift_right_int,
    apply_overflow,
    saturate,
    shift_right,
    wrap,
)

Q17 = FxpFormat(8, 7)
Q17_WRAP = FxpFormat(8, 7, overflow=Overflow.WRAP)
Q115 = FxpFormat(16, 15)


def test_format_range_and_epsilon():
    assert Q17.min_raw == -128
    assert Q17.max_raw == 127
    assert Q17.epsilon == 2.0 ** -7
    assert FxpFormat(16, 0).epsilon == 1.0


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


def test_iq_sample_requires_one_format():
    a = FxpValue(3, Q17)
    b = FxpValue(4, Q115)
    with pytest.raises(ConfigError):
        IqSample(a, b)
    IqSample(a, FxpValue(4, Q17))


def test_add_examples():
    assert fxp_add(FxpValue(3, Q17_WRAP), FxpValue(4, Q17_WRAP), Q17_WRAP).raw == 7
    # two's-complement wrap at +128
    assert fxp_add(FxpValue(127, Q17_WRAP), FxpValue(1, Q17_WRAP), Q17_WRAP).raw == -128
    assert fxp_add(FxpValue(127, Q17), FxpValue(1, Q17), Q17).raw == 127


def test_add_requires_aligned_fractions():
    with pytest.raises(ConfigError):
        fxp_add(FxpValue(1, Q17), FxpValue(1, Q115), Q115)


def test_mul_examples():
    half = fxp_from_float(0.5, Q17)
    assert fxp_mul(half, half, Q17).raw == 32  # 0.25 exactly
    neg1 = FxpValue(-128, Q17)
    assert fxp_mul(neg1, neg1, Q17).raw == 127  # -1 * -1 saturates
    x = FxpValue(77, Q17)
    assert fxp_mul(x, x, Q17).raw == 46  # 5929 >> 7


def test_mul_rejects_left_shift():
    a = FxpValue(1, FxpFormat(8, 2))
    with pytest.raises(ConfigError):
        fxp_mul(a, a, FxpFormat(16, 8))


def test_to_float_examples():
    assert fxp_to_float(FxpValue(64, Q17)) == 0.5
    assert fxp_to_float(FxpValue(-128, Q17)) == -1.0
    assert fxp_to_float(FxpValue(1, Q115)) == 2.0 ** -15


def test_wrap_add_associative_commutative():
    rng = np.random.default_rng(11)
    fmt = Q17_WRAP
    for _ in range(500):
        a, b, c = (FxpValue(int(v), fmt) for v in rng.integers(-128, 128, 3))
        ab = fxp_add(a, b, fmt)
        ba = fxp_add(b, a, fmt)
        assert ab.raw == ba.raw
        left = fxp_add(ab, c, fmt).raw
        right = fxp_add(a, fxp_add(b, c, fmt), fmt).raw
        assert left == right


def test_mul_matches_big_integer_oracle():
    # exact double-width product before the shift, wide random sweep
    rng = np.random.default_rng(12)
    fmt = FxpFormat(18, 15, overflow=Overflow.WRAP)
    for _ in range(100_000):
        ra = int(rng.integers(fmt.min_raw, fmt.max_raw + 1))
        rb = int(rng.integers(fmt.min_raw, fmt.max_raw + 1))
        got = fxp_mul(FxpValue(ra, fmt), FxpValue(rb, fmt), fmt).raw
        want = (ra * rb) >> 15
        span = 1 << 18
        want = (want - fmt.min_raw) % span + fmt.min_raw
        assert got == want


def test_quantize_round_trip_is_identity():
    rng = np.random.default_rng(13)
    for fmt in (Q17, Q115, FxpFormat(12, 4)):
        raws = rng.integers(fmt.min_raw, fmt.max_raw + 1, 1000)
        for r in raws:
            v = FxpValue(int(r), fmt)
            back = fxp_from_float(fxp_to_float(v), fmt)
            assert back.raw == v.raw


def test_from_float_rounding_policies():
    trunc = FxpFormat(8, 4)
    half_up = FxpFormat(8, 4, rounding=Rounding.ROUND_HALF_UP)
    assert fxp_from_float(0.34375, trunc).raw == 5  # 5.5 floors
    assert fxp_from_float(0.34375, half_up).raw == 6
    assert fxp_from_float(-0.34375, trunc).raw == -6
    assert fxp_from_float(20.0, trunc).raw == 127  # saturates


def test_rescale_shifts_and_saturates():
    v = FxpValue(100, FxpFormat(16, 8))
    down = fxp_rescale(v, FxpFormat(16, 4))
    assert down.raw == 6  # 100 >> 4
    up = fxp_rescale(v, FxpFormat(16, 12))
    assert up.raw == 1600
    tight = fxp_rescale(v, FxpFormat(8, 8))
    assert tight.raw == 100
    with np.errstate():
        sat = fxp_rescale(FxpValue(30000, FxpFormat(16, 0)), FxpFormat(8, 0))
        assert sat.raw == 127


def test_array_helpers_match_scalar_ops():
    rng = np.random.default_rng(14)
    x = rng.integers(-(1 << 20), 1 << 20, 4000).astype(np.int64)
    for shift in (0, 1, 5, 13):
        t = shift_right(x, shift, Rounding.TRUNCATE_TOWARD_NEG_INF)
        h = shift_right(x, shift, Rounding.ROUND_HALF_UP)
        for i in range(0, 4000, 97):
            xi = int(x[i])
            assert t[i] == (xi >> shift)
            want = ((xi + (1 << (shift - 1))) >> shift) if shift else xi
            assert h[i] == want
    s = saturate(x, 12)
    assert s.max() <= 2047 and s.min() >= -2048
    w = wrap(x, 12)
    for i in range(0, 4000, 97):
        assert w[i] == ((int(x[i]) + 2048) % 4096) - 2048
    assert np.array_equal(apply_overflow(x, 12, Overflow.SATURATE), s)
    assert np.array_equal(apply_overflow(x, 12, Overflow.WRAP), w)


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


@st.composite
def int64_helper_cases(draw):
    width = draw(st.integers(2, 63))
    shift = draw(st.integers(0, 62))
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    edges = [lo - 1, lo, lo + 1, -1, 0, 1, hi - 1, hi, hi + 1, INT64_MIN, INT64_MAX]
    values = st.one_of(st.sampled_from(edges), st.integers(INT64_MIN, INT64_MAX))
    return width, shift, draw(st.lists(values, min_size=1, max_size=40))


@settings(max_examples=400)
@given(int64_helper_cases())
def test_int64_helpers_equal_big_int_scalar_ops(case):
    width, shift, values = case
    x = np.array(values, dtype=np.int64)
    trunc = shift_right(x, shift, Rounding.TRUNCATE_TOWARD_NEG_INF)
    assert trunc.tolist() == [
        _shift_right_int(v, shift, Rounding.TRUNCATE_TOWARD_NEG_INF) for v in values
    ]
    # the helpers' contract: the rounding offset must not carry past int64
    fits = [v for v in values if shift == 0 or v <= INT64_MAX - (1 << (shift - 1))]
    half_up = shift_right(np.array(fits, dtype=np.int64), shift, Rounding.ROUND_HALF_UP)
    assert half_up.tolist() == [_shift_right_int(v, shift, Rounding.ROUND_HALF_UP) for v in fits]
    for policy, helper in ((Overflow.SATURATE, saturate), (Overflow.WRAP, wrap)):
        want = [_apply_overflow_int(v, width, policy) for v in values]
        assert helper(x, width).tolist() == want
        assert apply_overflow(x, width, policy).tolist() == want


def test_wrap_at_63_bits_is_exact():
    # x - lo leaves int64 for the widest format; the wrap must stay exact
    x = np.array([1 << 62, -(1 << 62) - 1, INT64_MAX, INT64_MIN], dtype=np.int64)
    assert wrap(x, 63).tolist() == [-(1 << 62), (1 << 62) - 1, -1, 0]


def test_wrap_width_limit():
    with pytest.raises(ConfigError):
        wrap(np.zeros(4, dtype=np.int64), 64)
