import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finestruct.clifford_core import (
    CONJUGATE_SIGNS,
    GRADE,
    ONE,
    PARAVECTOR_MASKS,
    ZERO,
    Multivector,
    axis_decompose,
    blade_product,
    check_imaginary_unit,
    embed,
    is_paravector,
    mv_mul,
    paravector_conjugate,
    paravector_inverse,
    paravector_norm_sq,
    paravector_norm_sq_rows,
)
from finestruct.errors import EngineError, NotImaginaryUnit, NotParavector, ZeroParavector

small_ints = st.integers(min_value=-4, max_value=4)
mv_strategy = st.builds(
    lambda coeffs: Multivector(np.array(coeffs, dtype=float)),
    st.lists(small_ints, min_size=32, max_size=32),
)


def test_generators_square_to_minus_one():
    for i in range(5):
        e = Multivector.basis(1 << i)
        assert e * e == Multivector.scalar(-1.0)


def test_generators_anticommute():
    for i in range(5):
        for j in range(i + 1, 5):
            ei, ej = Multivector.basis(1 << i), Multivector.basis(1 << j)
            assert ei * ej + ej * ei == ZERO


def test_blade_product_signs():
    # e1 * e12 = e1 e1 e2 = -e2
    sign, mask = blade_product(0b00001, 0b00011)
    assert (sign, mask) == (-1, 0b00010)
    # e12 * e12 = -1
    sign, mask = blade_product(0b00011, 0b00011)
    assert (sign, mask) == (-1, 0)


def test_grades():
    assert GRADE[0] == 0
    assert GRADE[0b10101] == 3
    assert GRADE[0b11111] == 5


@given(mv_strategy, mv_strategy, mv_strategy)
@settings(max_examples=60, deadline=None)
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(mv_strategy, mv_strategy, mv_strategy)
@settings(max_examples=60, deadline=None)
def test_product_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(mv_strategy)
@settings(max_examples=60, deadline=None)
def test_one_is_identity(a):
    assert ONE * a == a
    assert a * ONE == a


def _reference_product(a: Multivector, b: Multivector) -> Multivector:
    """The definition of the product: a sum over all pairs of blades."""
    out = np.zeros(32)
    for i in range(32):
        for j in range(32):
            sign, k = blade_product(i, j)
            out[k] += sign * a[i] * b[j]
    return Multivector(out)


def test_mv_mul_matches_operator():
    rng = np.random.default_rng(3)
    for n in range(10):
        a, b = rng.normal(size=32), rng.normal(size=32)
        if n % 2:
            a[rng.random(32) < 0.6] = 0.0
            b[rng.random(32) < 0.6] = 0.0
        a, b = Multivector(a), Multivector(b)
        ref = _reference_product(a, b)
        assert (mv_mul(a, b) - ref).norm_inf() == 0.0
        assert (a * b - ref).norm_inf() == 0.0


def test_hash_agrees_with_equality_on_signed_zeros():
    negative_zero = np.zeros(32)
    negative_zero[0] = -0.0
    a, b = Multivector(negative_zero), Multivector.scalar(0.0)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_is_zero_treats_nan_as_nonzero_and_negative_zero_as_zero():
    c = np.zeros(32)
    c[3] = -0.0
    assert Multivector(c).is_zero()
    c[5] = np.nan
    assert not Multivector(c).is_zero()
    assert not Multivector(c).is_zero(atol=1.0)
    assert Multivector.scalar(-1e-13).is_zero(atol=1e-12)
    assert not Multivector.scalar(-1e-11).is_zero(atol=1e-12)


def test_adding_a_number_to_a_multivector_is_a_type_error():
    with pytest.raises(TypeError):
        Multivector.scalar(1.0) + 1.0
    with pytest.raises(TypeError):
        Multivector.scalar(1.0) - 1.0
    with pytest.raises(TypeError):
        1.0 - Multivector.scalar(1.0)


def test_paravector_roundtrip():
    x = Multivector.paravector(1.0, 2.0, 0.0, -1.0, 0.5, 0.25)
    assert is_paravector(x)
    assert x[0] == 1.0
    assert x[1] == 2.0
    assert x[16] == 0.25


def test_paravector_inverse():
    x = Multivector.paravector(0.5, -1.0, 2.0, 0.0, 0.0, 1.5)
    assert (x * paravector_inverse(x) - ONE).norm_inf() < 1e-14
    assert (paravector_inverse(x) * x - ONE).norm_inf() < 1e-14


def test_paravector_conjugate_product_is_norm():
    x = Multivector.paravector(0.5, -1.0, 2.0, 0.0, 0.25, 1.5)
    n = paravector_norm_sq(x)
    assert (x * paravector_conjugate(x)
            - Multivector.scalar(n)).norm_inf() < 1e-14


def test_zero_paravector_inverse_raises():
    with pytest.raises(ZeroParavector):
        paravector_inverse(ZERO)


def test_axis_decompose_and_embed():
    x = Multivector.paravector(1.5, 3.0, 4.0)
    x0, r, omega = axis_decompose(x)
    assert x0 == 1.5
    assert abs(r - 5.0) < 1e-14
    assert (omega * omega + ONE).norm_inf() < 1e-14
    assert (embed(x0, r, omega) - x).norm_inf() < 1e-14


def test_axis_decompose_on_axis():
    x0, r, omega = axis_decompose(Multivector.scalar(2.0))
    assert (x0, r) == (2.0, 0.0)
    assert omega is None


def test_check_imaginary_unit():
    check_imaginary_unit(Multivector.basis(2))
    v = Multivector.paravector(0.0, 0.6, 0.8)
    check_imaginary_unit(v)
    with pytest.raises(NotImaginaryUnit):
        check_imaginary_unit(Multivector.paravector(1.0, 1.0))
    with pytest.raises(NotImaginaryUnit):
        check_imaginary_unit(Multivector.paravector(0.0, 2.0))


def test_grade_part():
    x = Multivector.paravector(1.0, 2.0, 3.0)
    assert x.grade_part(0) == Multivector.scalar(1.0)
    assert x.grade_part(1) == x - Multivector.scalar(1.0)


def test_paravector_masks():
    assert PARAVECTOR_MASKS == (0, 1, 2, 4, 8, 16)


def test_paravector_inverse_rejects_a_non_paravector():
    x = Multivector.basis(1) + Multivector.basis(3)  # e1 + e12
    # xbar / |x|^2, the value it used to return, is no inverse of x.
    xbar = Multivector(x.c * CONJUGATE_SIGNS / paravector_norm_sq(x))
    assert not (x * xbar - ONE).is_zero(0.5)
    with pytest.raises(NotParavector):
        paravector_inverse(x)
    assert issubclass(NotParavector, EngineError)


def test_paravector_inverse_guard_is_exact():
    # Any nonzero blade outside the paravector slots is rejected, at any
    # scale; a signed zero there is a zero.
    for tiny in (1e-300, 5e-324):
        with pytest.raises(NotParavector):
            paravector_inverse(ONE + Multivector.basis(31) * tiny)
    c = Multivector.paravector(2.0, 1.0).c.copy()
    c[[3, 7, 31]] = -0.0
    inv = paravector_inverse(Multivector(c))
    assert inv == paravector_inverse(Multivector.paravector(2.0, 1.0))


def _reference_norm_sq_rows(X):
    """paravector_norm_sq_rows as a per-row loop: the ** 2 of
    paravector_norm_sq on the six slots, added left to right."""
    return [c0 ** 2 + c1 ** 2 + c2 ** 2 + c4 ** 2 + c8 ** 2 + c16 ** 2
            for c0, c1, c2, c4, c8, c16 in X[:, list(PARAVECTOR_MASKS)].tolist()]


def test_paravector_norm_sq_rows_keeps_the_bits_of_the_power_rule():
    """Scales 1e-170 to 1e150, +-0.0, subnormals, inf and NaN.  x * x,
    np.square and np.power(x, 2.0) each differ from ** 2 in the last bit on
    some of these rows, so this also checks that np.float_power squares
    with libm pow, as ** 2 does."""
    rng = np.random.default_rng(17)
    n = 20_000
    X = rng.normal(size=(n, 32)) * 10.0 ** rng.uniform(-170, 150, size=(n, 1))
    for value, share in ((-0.0, 0.05), (0.0, 0.05), (5e-324, 0.01),
                         (-3.1e-310, 0.01), (np.inf, 0.002), (-np.inf, 0.002),
                         (np.nan, 0.002)):
        X[rng.random((n, 32)) < share] = value
    for rows in (X, X[:0], X[:1], X[::3], np.asfortranarray(X), X[::-1, ::-1]):
        got = paravector_norm_sq_rows(rows)
        assert got.shape == (len(rows),)
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in _reference_norm_sq_rows(rows)]


def test_paravector_norm_sq_rows_raises_where_a_square_overflows():
    x = Multivector.paravector(0.5, 0.0, 1e200)
    with pytest.raises(OverflowError):
        paravector_norm_sq(x)
    with pytest.raises(OverflowError):
        paravector_norm_sq_rows(np.stack([ONE.c, x.c]))


def test_paravector_norm_sq_rows_overflowing_sum_is_inf_without_a_warning():
    x = Multivector.paravector(*[1e154] * 6)
    assert paravector_norm_sq(x) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = paravector_norm_sq_rows(np.stack([x.c, ONE.c]))
    assert got.tolist() == [np.inf, 1.0]
