"""Exact scalar arithmetic: canonical strings, field laws, square roots.

Hypothesis draws small integer numerators and denominators so the
field-law checks stay fast while still covering negative, zero, and
mixed real/imaginary values.  Everything asserts exact equality.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfact import InvalidInputError, Scalar, forward_map
from rootfact.haar import RadicalScalar
from rootfact.jets import Jet
from rootfact.scalar import I, ONE, ZERO, power, sc

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


@pytest.mark.parametrize("parts,bad", [
    ((0.5,), "0.5"),
    ((1, 0.5), "0.5"),
    ((1, 0, 2.0), "2.0"),
    ((1, 0, 0.0), "0.0"),
    ((Fraction(1, 2),), "Fraction(1, 2)"),
    (("3",), "'3'"),
], ids=["float-real", "float-imag", "float-denominator", "float-zero-denominator",
        "fraction-part", "string-part"])
def test_constructor_takes_only_int_parts(parts, bad):
    # a part that is not an int is refused as sc refuses it, before any
    # arithmetic on it: Scalar(0.5) once stored 0.5 and failed to print
    with pytest.raises(InvalidInputError, match=f"^not a scalar: {re.escape(bad)}$"):
        Scalar(*parts)


@pytest.mark.parametrize("make,message", [
    (lambda: sc(True), "not a scalar: True"),
    (lambda: sc(False), "not a scalar: False"),
    (lambda: Scalar(True), "not a scalar: True"),
    (lambda: Scalar(1, False), "not a scalar: False"),
    (lambda: Scalar(1, 0, True), "not a scalar: True"),
    (lambda: forward_map("A", 1, (1,), [(True, 2)]), "not a scalar: True"),
    (lambda: RadicalScalar(True), "not a scalar: True"),
    (lambda: RadicalScalar(1, True), "radicand must be an int or a Fraction, got True"),
], ids=["sc-true", "sc-false", "real-part", "imag-part", "denominator", "forward-pair",
        "radical-coeff", "radical-radicand"])
def test_input_boundary_refuses_bools(make, message):
    # bool is an int subclass; the readers of words, ranks and JSON refuse
    # it, and so do the scalar constructors; the operators still lift it
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        make()
    assert Scalar(1) == True and ONE + True == Scalar(2)  # noqa: E712


def test_constructor_keeps_the_zero_denominator_message_and_reduces():
    with pytest.raises(InvalidInputError, match="^zero denominator$"):
        Scalar(1, 0, 0)
    assert (Scalar(0, 0, 5).a, Scalar(0, 0, 5).d) == (0, 1)
    assert str(Scalar(-6, 4, -8)) == "3/4-1/2*i" and Scalar(7).d == 1


@pytest.mark.parametrize("x", [Scalar(5, -7, 6), Scalar(-3), Scalar(0, 2, 3), ZERO])
def test_results_are_reduced_with_a_positive_denominator(x):
    # the constructor's callers inside the package build their results
    # with _red, which neither checks nor normalizes a sign
    results = [x / Scalar(-4, 0, 3), x / -2, x / Scalar(-1), x * 2 / Scalar(3, -1), x.abs2(),
               (x * x).abs2().sqrt_exact()]
    if not x.is_zero():
        results += [x.inverse(), Scalar(-2, 0, 7) / x]
    for out in results:
        assert out.d >= 1 and math.gcd(out.a, out.b, out.d) == 1
    assert x / Scalar(-4, 0, 3) == x * Scalar(-3, 0, 4)
    assert (x * x).abs2().sqrt_exact() == x.abs2()


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


def test_a_power_whose_exponent_is_no_int_is_not_implemented():
    for n in (0.5, Fraction(1, 2), "2"):
        assert power(Scalar(4), n, ONE) is NotImplemented
        with pytest.raises(TypeError):
            Scalar(4) ** n


def triple(x):
    return x.a, x.b, x.d


def canonical(re_part: Fraction, im_part: Fraction) -> tuple:
    """The one reduced (a, b, d) of re_part + im_part*i, from Fractions."""
    d = math.lcm(re_part.denominator, im_part.denominator)
    return int(re_part * d), int(im_part * d), d


def addmul_grid():
    """Seeded (self, x, y) triples: whole, pure real, pure imaginary, zero
    and negative parts; x.d * y.d equal to self.d, dividing it, and apart."""
    rng = random.Random(25)
    dens = [1, 1, 2, 3, 4, 6, 9, 12]

    def draw():
        kind = rng.choice(["zero", "real", "imag", "both", "both"])
        d = rng.choice(dens)
        a = 0 if kind in ("zero", "imag") else rng.randint(-12, 12)
        b = 0 if kind in ("zero", "real") else rng.randint(-12, 12)
        return Scalar(a, b, d)

    cases = []
    for _ in range(400):
        s, x, y = draw(), draw(), draw()
        cases.append((s, x, y))
        # the shared denominator, when x.d * y.d reduces no further
        shared = Scalar(rng.randint(-30, 30), rng.randint(-30, 30), x.d * y.d)
        if shared.d == x.d * y.d:
            cases.append((shared, x, y))
    return cases


def test_addmul_is_self_plus_x_times_y():
    shared = 0
    for s, x, y in addmul_grid():
        out = s.addmul(x, y)
        assert type(out) is Scalar
        assert triple(out) == triple(s + x * y)
        assert triple(out) == canonical(s.real + x.real * y.real - x.imag * y.imag,
                                        s.imag + x.real * y.imag + x.imag * y.real)
        assert out.d >= 1 and math.gcd(out.a, out.b, out.d) == 1
        shared += s.d == x.d * y.d != 1
    assert shared > 100
    # cancellation to zero and to a whole number, over every denominator
    assert triple(Scalar(1, 0, 6).addmul(Scalar(-1, 0, 2), Scalar(1, 0, 3))) == (0, 0, 1)
    assert triple(Scalar(5, -1, 6).addmul(Scalar(1, -1, 2), Scalar(0, 1, 3))) == (1, 0, 1)
    assert triple(Scalar(-7, 2, 4).addmul(Scalar(5, 0, 2), Scalar(3, 0, 2))) == (4, 1, 2)


def test_addmul_falls_back_on_other_operands():
    # an int, a Fraction, a Jet or a RadicalScalar as x or y: self + x * y
    s, v = Scalar(1, -2, 3), Scalar(-5, 1, 4)
    for x, y in [(2, v), (v, -3), (Fraction(-3, 4), v), (v, Fraction(5, 6)), (4, Fraction(1, 8))]:
        out = s.addmul(x, y)
        assert type(out) is Scalar and triple(out) == triple(s + x * y)
    jet = Jet(Scalar(2, 1, 3), {0: (1, 2), 3: (-4, 0)}, 5)
    for x, y in [(jet, v), (v, jet), (jet, jet), (jet, 7)]:
        out = s.addmul(x, y)
        assert type(out) is Jet and out == s + x * y  # val, den and nums
    root2 = RadicalScalar(ONE, Fraction(2))
    for x, y in [(root2, root2 * 3), (root2 * v, root2)]:
        out = s.addmul(x, y)
        assert str(out) == str(s + x * y) and out == s + x * y


def test_addmul_of_the_base_class_on_jets_and_radicals():
    a, b = Jet.variables([Scalar(1, 0, 2), Scalar(-3, 2)])
    c = Jet(Scalar(5, -1, 6), {1: (2, -3)}, 7)
    for s, x, y in [(a, b, c), (c, a, Scalar(2, 0, 3)), (a, 3, b), (c, Fraction(1, 4), ONE)]:
        assert s.addmul(x, y) == s + x * y
    r = RadicalScalar(Scalar(1, 1, 2), Fraction(3))
    for x, y in [(r, Scalar(2)), (Scalar(0, 1), r), (2, r)]:
        out = r.addmul(x, y)
        assert type(out) is RadicalScalar and str(out) == str(r + x * y)
