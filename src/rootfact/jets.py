"""Forward-mode dual numbers over exact scalars, with sparse gradients.

A Jet is three slots: a Scalar value ``val``, its nonzero partial
derivatives ``nums``, a dict from variable index to a Gaussian-integer
numerator (a, b), and one denominator ``den`` the whole gradient shares,
coprime to the numerators taken together.  Every operation forms its
gradient as a*x + b*y over the lcm of the two denominators, drops the
pairs that cancel and takes one gcd, so a partial costs no Scalar of its
own and an entry that depends on few coordinates costs only as much as
those coordinates.  A jet does not know how many variables there are:
``jacobian_det`` is told the width and reads the numerators directly.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError
from .linalg import det_exact
from .scalar import ONE, ZERO, Number, Scalar, _coerce, power, sc

_HALF = Scalar(1, 0, 2)
_MINUS_ONE = Scalar(-1)


def _times(ca: int, cb: int, x: dict) -> dict:
    """(ca + cb*i) times each numerator of x; x itself for 1."""
    if cb:
        return {k: (ca * a - cb * b, ca * b + cb * a) for k, (a, b) in x.items()}
    if ca == 1:
        return x
    return {k: (ca * a, ca * b) for k, (a, b) in x.items()}


def _combine(c: Scalar, x: "Jet", e: Scalar = ZERO, y: "Jet | None" = None):
    """(nums, den) of the gradient c*x + e*y, reduced, with no second term
    when y is None; a term with a zero factor or no partials is left out,
    and a lone term times 1 or -1 keeps its reduced form with no gcd."""
    if y is not None and not (y.nums and (e.a or e.b)):
        y = None
    if not (x.nums and (c.a or c.b)):
        if y is None:
            return {}, 1
        c, x, y = e, y, None
    if y is None:
        if c.d == 1 and not c.b and (c.a == 1 or c.a == -1):
            return _times(c.a, 0, x.nums), x.den
        out, den = _times(c.a, c.b, x.nums), c.d * x.den
    else:
        d1, d2 = c.d * x.den, e.d * y.den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        out, den = dict(_times(c.a * m1, c.b * m1, x.nums)), d1 * m1
        for k, (a, b) in _times(e.a * m2, e.b * m2, y.nums).items():
            s, t = out.pop(k, (0, 0))
            if s + a or t + b:
                out[k] = s + a, t + b
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
            return Jet(self.val + other.val, *_combine(ONE, self, ONE, other))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val + other, self.nums, self.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, *_combine(ONE, self, _MINUS_ONE, other))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val - other, self.nums, self.den)

    def __mul__(self, other):
        if isinstance(other, Jet):
            v1, v2 = self.val, other.val
            return Jet(v1 * v2, *_combine(v2, self, v1, other))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val * other, *_combine(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            r = other.val.inverse()
            q = self.val * r
            # (g1 - q g2) / v2 = r g1 - q r g2
            return Jet(q, *_combine(r, self, -(q * r), other))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val / other, *_combine(other.inverse(), self))

    def inverse(self) -> "Jet":
        return _ONE / self

    def __pow__(self, n: int):
        return power(self, n, _ONE)

    def __neg__(self):
        return Jet(-self.val, *_combine(_MINUS_ONE, self))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.val == other.val and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.val, self.den, frozenset(self.nums.items())))

    def sqrt(self) -> "Jet":
        """Exact square root; the value must be a perfect rational square."""
        r = self.val.sqrt_exact()
        if r.is_zero():
            raise InvalidInputError("jet sqrt at zero is singular")
        return Jet(r, *_combine(_HALF / r, self))

    def __repr__(self):
        return f"Jet({self.val}; {self.nums}/{self.den})"


_ONE = Jet(ONE, {}, 1)


def jacobian_det(outputs, width: int) -> Scalar:
    """det of the gradient rows of ``outputs``, a plain scalar among them a
    constant with a zero row; entries go in reduced, as ``_bareiss`` clears
    the denominators of what the peel leaves, not of whole rows."""
    return det_exact([[Scalar(*out.nums[k], out.den) if k in out.nums else ZERO
                       for k in range(width)] if isinstance(out, Jet) else [ZERO] * width
                      for out in outputs])
