"""Exact scalar arithmetic: canonical strings, field laws, square roots.

Hypothesis draws small integer numerators and denominators so the
field-law checks stay fast while still covering negative, zero, and
mixed real/imaginary values.  Everything asserts exact equality.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfact import InvalidInputError, Scalar
from rootfact.scalar import I, ONE, ZERO, sc

from helpers import conjugate, is_real

CANONICAL = ["0", "3", "-1/2", "1*i", "-2/3*i", "1/2-3/4*i", "13", "2-3*i"]


def fractions(span: int = 9):
    return st.builds(
        Fraction,
        st.integers(min_value=-span, max_value=span),
        st.integers(min_value=1, max_value=span),
    )


def scalars(span: int = 9):
    return st.builds(Scalar.from_fraction, fractions(span), fractions(span))


@pytest.mark.parametrize("text", CANONICAL)
def test_parse_format_round_trip(text):
    assert str(Scalar.parse(text)) == text


def test_parse_rejects_garbage():
    for bad in ["", "i", "1+i", "1/0", "2.5", "1 + 2*i", "--3"]:
        with pytest.raises(InvalidInputError):
            Scalar.parse(bad)


def test_normalization():
    assert Scalar(2, 0, 4) == Scalar(1, 0, 2)
    assert Scalar(1, 1, -2) == Scalar(-1, -1, 2)
    assert str(Scalar(6, -4, 8)) == "3/4-1/2*i"
    with pytest.raises(InvalidInputError):
        Scalar(1, 0, 0)


def test_imaginary_unit_squares_to_minus_one():
    assert I * I == -ONE
    assert (ONE + I) * (ONE - I) == sc(2)


def test_coercion_accepts_int_and_fraction_only():
    assert sc(3) == Scalar(3)
    assert sc(Fraction(-1, 2)) == Scalar(-1, 0, 2)
    with pytest.raises(InvalidInputError):
        sc("3")  # strings go through Scalar.parse
    with pytest.raises(InvalidInputError):
        sc(0.5)


def test_sqrt_exact():
    assert Scalar(9, 0, 4).sqrt_exact() == Scalar(3, 0, 2)
    assert ZERO.sqrt_exact() == ZERO
    with pytest.raises(InvalidInputError):
        Scalar(2).sqrt_exact()
    with pytest.raises(InvalidInputError):
        (-ONE).sqrt_exact()
    with pytest.raises(InvalidInputError):
        I.sqrt_exact()


def test_predicates():
    assert Scalar(3, 0, 2).is_positive_real()
    assert not Scalar(-1).is_positive_real()
    assert not I.is_positive_real()
    assert is_real(Scalar(-5, 0, 3))
    assert ZERO.is_zero() and not ONE.is_zero()


def test_division_and_zero_guards():
    assert Scalar(1) / Scalar(0, 1) == -I
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@pytest.mark.parametrize("x", [Scalar(-3), Scalar(0, 2), Scalar(5, -7, 6), ZERO],
                         ids=["real", "imaginary", "fractional", "zero"])
def test_division_by_one_returns_the_dividend(x):
    assert x / ONE == x
    assert x / 1 is x


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x + ZERO == x and x * ONE == x
    assert x + (-x) == ZERO


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_inverse_conjugate_abs2(x):
    if not x.is_zero():
        assert x * x.inverse() == ONE
    assert x.abs2() == x * conjugate(x)
    assert is_real(x.abs2())
    assert x.abs2().real >= 0
    assert conjugate(conjugate(x)) == x


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_string_round_trip(x):
    assert Scalar.parse(str(x)) == x


@settings(max_examples=40, deadline=None)
@given(scalars(span=5), st.integers(min_value=-4, max_value=4))
def test_integer_powers(x, n):
    if x.is_zero() and n < 0:
        return
    expected = ONE
    for _ in range(abs(n)):
        expected = expected * x
    if n < 0:
        expected = expected.inverse()
    assert x ** n == expected
