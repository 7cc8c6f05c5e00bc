"""Forward-mode dual numbers over exact scalars, with sparse gradients.

A Jet is three slots: a Scalar value ``val``, its nonzero partial
derivatives ``nums``, a dict from variable index to a Gaussian-integer
numerator (a, b), and one denominator ``den`` the whole gradient shares,
coprime to the numerators taken together.  Every operation forms its
gradient as a sum of up to three terms c*x, three for the sparse update
``addmul``, over the lcm of their denominators, drops the pairs that
cancel and takes one gcd, so a partial costs no Scalar of its own and an
entry that depends on few coordinates costs only as much as those
coordinates.  A jet does not know how many variables there are:
``jacobian_det`` is told the width and reads the numerators directly.
"""

from __future__ import annotations

import math

from .linalg import det_exact
from .scalar import MINUS_ONE, ONE, ZERO, Number, Scalar, _coerce, _red, power, sc


def _times(ca: int, cb: int, x: dict) -> dict:
    """(ca + cb*i) times each numerator of x; x itself for 1."""
    if cb:
        return {k: (ca * a - cb * b, ca * b + cb * a) for k, (a, b) in x.items()}
    if ca == 1:
        return x
    return {k: (ca * a, ca * b) for k, (a, b) in x.items()}


def _combine(*terms):
    """(nums, den) of the gradient sum of c*x over the (c, x) terms, reduced:
    a term with a zero factor or no partials is left out, a lone term times
    1 or -1 keeps its reduced form with no gcd, and each further term is
    merged into the first over the lcm of their denominators."""
    terms = [(c, x) for c, x in terms if x.nums and (c.a or c.b)]
    if len(terms) < 2:
        if not terms:
            return {}, 1
        (c, x), = terms
        if c.d == 1 and not c.b and (c.a == 1 or c.a == -1):
            return _times(c.a, 0, x.nums), x.den
        out, den = _times(c.a, c.b, x.nums), c.d * x.den
    else:
        dens = [c.d * x.den for c, x in terms]
        den = math.lcm(*dens)
        (c, x), m = terms[0], den // dens[0]
        out = dict(_times(c.a * m, c.b * m, x.nums))
        for (c, x), d in zip(terms[1:], dens[1:]):
            ca, cb = c.a * (den // d), c.b * (den // d)
            for k, (a, b) in x.nums.items():
                s, t = out.pop(k, (0, 0))
                s, t = s + ca * a - cb * b, t + ca * b + cb * a
                if s or t:
                    out[k] = s, t
    if den != 1:
        g = math.gcd(den, *[t for ab in out.values() for t in ab])
        if g != 1:
            return {k: (a // g, b // g) for k, (a, b) in out.items()}, den // g
    return out, den


class Jet(Number):
    """A value with its nonzero partials nums[k]/den; ``nums`` may be shared
    between jets and is never mutated.  ``is_zero()`` is an exact zero, a
    zero value with no partials."""

    __slots__ = ("val", "nums", "den")

    def __init__(self, val: Scalar, nums: dict, den: int):
        self.val = val
        self.nums = nums
        self.den = den

    @classmethod
    def variables(cls, values) -> list["Jet"]:
        """Lift scalars to jets seeded with unit gradients."""
        return [cls(sc(v), {k: (1, 0)}, 1) for k, v in enumerate(values)]

    def is_zero(self) -> bool:
        return self.val.is_zero() and not self.nums

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, *_combine((ONE, self), (ONE, other)))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val + other, self.nums, self.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, *_combine((ONE, self), (MINUS_ONE, other)))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val - other, self.nums, self.den)

    def __mul__(self, other):
        if isinstance(other, Jet):
            v1, v2 = self.val, other.val
            return Jet(v1 * v2, *_combine((v2, self), (v1, other)))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val * other, *_combine((other, self)))

    __rmul__ = __mul__

    def addmul(self, x, y):
        """self + x * y by one merge of the gradients; a Scalar operand has
        none (the empty _ONE stands in), and any other falls back."""
        xj, yj = isinstance(x, Jet), isinstance(y, Jet)
        xv, yv = x.val if xj else x, y.val if yj else y
        if xv.__class__ is not Scalar or yv.__class__ is not Scalar:
            return self + x * y
        return Jet(self.val.addmul(xv, yv),
                   *_combine((ONE, self), (yv, x if xj else _ONE), (xv, y if yj else _ONE)))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            r = other.val.inverse()
            q = self.val * r
            # (g1 - q g2) / v2 = r g1 - q r g2
            return Jet(q, *_combine((r, self), (-(q * r), other)))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val / other, *_combine((other.inverse(), self)))

    def inverse(self) -> "Jet":
        return _ONE / self

    def __pow__(self, n: int):
        return power(self, n, _ONE)

    def __neg__(self):
        return Jet(-self.val, *_combine((MINUS_ONE, self)))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.val == other.val and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.val, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        return f"Jet({self.val}; {self.nums}/{self.den})"


_ONE = Jet(ONE, {}, 1)


def jacobian_det(outputs, width: int) -> Scalar:
    """det of the gradient rows of ``outputs``, a plain scalar among them a
    constant with a zero row; entries go in reduced, each over its own
    denominator, as ``det_exact`` eliminates over reduced Gaussian
    rationals."""
    return det_exact([[_red(*out.nums[k], out.den) if k in out.nums else ZERO
                       for k in range(width)] if isinstance(out, Jet) else [ZERO] * width
                      for out in outputs])
