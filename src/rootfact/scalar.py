"""Exact Gaussian-rational scalars.

A Scalar is (a + b*i)/d with integers a, b and d >= 1, stored with
gcd(a, b, d) == 1.  All arithmetic is exact; there is no floating
point anywhere in this package.

Canonical string form, used in all JSON payloads:

- each part is a reduced fraction, "/1" omitted: "3", "-1/2"
- a zero imaginary part is omitted: "3/4"
- a zero real part is omitted when the imaginary part is nonzero,
  and the imaginary coefficient is always literal: "1*i", "-2/3*i"
- both parts: real first, then signed imaginary: "1/2-3/4*i"
- zero is "0"

>>> str(Scalar.parse("1/2-3/4*i") * 4)
'2-3*i'
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InvalidInputError, digit_limit_error, echo

_PART = r"[+-]?\d+(?:/\d+)?"
_RE_REAL = re.compile(rf"^({_PART})$")
_RE_IMAG = re.compile(rf"^({_PART})\*i$")
_RE_BOTH = re.compile(rf"^({_PART})([+-]\d+(?:/\d+)?)\*i$")


def _frac(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise InvalidInputError(f"zero denominator in scalar part {echo(text)}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except ValueError:  # the pattern admits only digits, so this is the limit
        raise digit_limit_error() from None


def power(x, n: int, one):
    """x ** n by square and multiply from ``one``, through x.inverse() for
    n < 0; one loop for every number type, as RadicalScalar's printed
    form depends on the order of the products."""
    if not isinstance(n, int):
        return NotImplemented
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class Number:
    """The protocol of Scalar, jets.Jet and haar.RadicalScalar: ``is_zero()``
    (an exact zero), ``inverse()``, negation, ``==``, and ``+``, ``-`` and
    ``*`` with the type itself, ints, Fractions and Scalars, NotImplemented
    for an operand it cannot lift; the matrix entries, Scalar and Jet, also
    have ``val``, the Scalar value a pivot is judged by.  ``other - x``,
    ``other / x`` and ``addmul`` follow from these, here, for all three;
    Scalar and Jet override ``addmul``."""

    __slots__ = ()

    def addmul(self, x, y):
        """self + x * y, the one sparse update: Scalar reduces it once, and
        Jet merges its gradients once, with no product built."""
        return self + x * y

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)


class Scalar(Number):
    """Immutable exact complex rational."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        """(a + b*i)/d from int parts, not bools, reduced; the library's
        own results are built by ``_red``, which checks nothing."""
        for part in (a, b, d):
            if not isinstance(part, int) or isinstance(part, bool):
                raise InvalidInputError(f"not a scalar: {echo(part)}")
        if d == 0:
            raise InvalidInputError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(a, b, d)
        self.a, self.b, self.d = a // g, b // g, d // g

    # -- construction ------------------------------------------------

    @classmethod
    def from_fraction(cls, re_part: Fraction, im_part: Fraction = Fraction(0)) -> "Scalar":
        d = math.lcm(re_part.denominator, im_part.denominator)
        return cls(int(re_part * d), int(im_part * d), d)

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        s = text.strip()
        m = _RE_BOTH.match(s)
        if m:
            return cls.from_fraction(_frac(m.group(1)), _frac(m.group(2)))
        m = _RE_IMAG.match(s)
        if m:
            return cls.from_fraction(Fraction(0), _frac(m.group(1)))
        m = _RE_REAL.match(s)
        if m:
            return cls.from_fraction(_frac(m.group(1)))
        raise InvalidInputError(f"cannot parse scalar {echo(text)}")

    # -- structure ---------------------------------------------------

    @property
    def val(self) -> "Scalar":
        """Value part; scalars are their own value (jets override)."""
        return self

    @property
    def real(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_positive_real(self) -> bool:
        return self.b == 0 and self.a > 0

    def abs2(self) -> "Scalar":
        """|z|^2, exact."""
        return _red(self.a * self.a + self.b * self.b, 0, self.d * self.d)

    def sqrt_exact(self) -> "Scalar":
        """Square root of a perfect-square nonnegative rational.

        Raises InvalidInputError when self is not such a square.
        """
        if self.b != 0 or self.a < 0:
            raise InvalidInputError("sqrt_exact needs a nonnegative real scalar")
        n = self.a * self.d
        r = math.isqrt(n)
        if r * r != n:
            raise InvalidInputError("not a perfect rational square")
        return _red(r, 0, self.d)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _red(self.a + other.a, self.b + other.b, d1)
        return _red(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _red(self.a - other.a, self.b - other.b, d1)
        return _red(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if b1 or b2:
            return _red(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)
        return _red(a1 * a2, 0, self.d * other.d)

    __rmul__ = __mul__

    def addmul(self, x, y):
        if x.__class__ is not Scalar or y.__class__ is not Scalar:
            return self + x * y
        a1, b1, a2, b2 = x.a, x.b, y.a, y.b
        if b1 or b2:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        else:
            a, b = a1 * a2, 0
        d, e = self.d, x.d * y.d
        if d == e:
            return _red(self.a + a, self.b + b, d)
        return _red(self.a * e + a * d, self.b * e + b * d, d * e)

    def inverse(self) -> "Scalar":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return _red(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.b == 0:
            if other.a == 0:
                raise ZeroDivisionError("division by zero scalar")
            if other.a == 1 and other.d == 1:
                return self
            num = self * (other.d if other.a > 0 else -other.d)
            return _red(num.a, num.b, num.d * abs(other.a))
        return self * other.inverse()

    def __pow__(self, n: int):
        return power(self, n, ONE)

    def __neg__(self):
        return _red(-self.a, -self.b, self.d)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting --------------------------------------------------

    def __str__(self):
        re_part = Fraction(self.a, self.d) if self.a else None
        im_part = Fraction(self.b, self.d) if self.b else None
        if im_part is None:
            return _fmt(re_part) if re_part is not None else "0"
        if re_part is None:
            return f"{_fmt(im_part)}*i"
        sign = "+" if im_part > 0 else "-"
        return f"{_fmt(re_part)}{sign}{_fmt(abs(im_part))}*i"

    def __repr__(self):
        return f"Scalar({self})"


def _fmt(q: Fraction) -> str:
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise digit_limit_error() from None


def _red(a: int, b: int, d: int) -> Scalar:
    """(a + b*i)/d, d >= 1, reduced: the result of every sum and product."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = object.__new__(Scalar)
    out.a = a
    out.b = b
    out.d = d
    return out


def power_product(terms) -> Scalar:
    """prod s ** p over the (Scalar s, int p) terms, termwise, as one
    Gaussian-integer numerator over one integer denominator, reduced once;
    s ** -1 is d(a - b*i)/(a^2 + b^2) for s = (a + b*i)/d.  The product of
    jacobian_det_formula, jacobian_det_double_product, haar_density,
    unit_jacobian_check, the self-check's pullback closed form, the
    suffix products prod_{j>k} s_j^(tau_k(h_tau_j)) of inverse_map and
    transpose_dual, and each torus entry prod_j s_j^(h_tau_j) of
    transpose_dual."""
    a, b, d = 1, 0, 1
    for s, p in terms:
        sa, sb, sd = s.a, s.b, s.d
        if p < 0:
            n = sa * sa + sb * sb
            if n == 0:
                raise ZeroDivisionError("inverse of zero scalar")
            sa, sb, sd, p = sa * sd, -sb * sd, n, -p
        for _ in range(p):
            a, b, d = a * sa - b * sb, a * sb + b * sa, d * sd
    return _red(a, b, d)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return _red(x, 0, 1)
    if isinstance(x, Fraction):
        return Scalar(x.numerator, 0, x.denominator)
    return None


ZERO = _red(0, 0, 1)
ONE = _red(1, 0, 1)
MINUS_ONE = _red(-1, 0, 1)
I = _red(0, 1, 1)


def sc(x) -> Scalar:
    """Coerce an int, Fraction, or Scalar; reject everything else, bools too."""
    out = _coerce(x)
    if out is None or isinstance(x, bool):
        raise InvalidInputError(f"not a scalar: {echo(x)}")
    return out
