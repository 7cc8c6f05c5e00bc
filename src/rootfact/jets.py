"""Forward-mode dual numbers over exact scalars, with sparse gradients.

A Jet carries a Scalar value and its partial derivatives with respect
to a fixed list of ``width`` variables.  Only the nonzero partials are
stored, as a dict from variable index to a Gaussian-integer numerator
(a, b) over one denominator the whole gradient shares, coprime to the
numerators taken together.  Every operation forms its gradient as
a*x + b*y over the lcm of the two denominators, drops the pairs that
cancel and takes one gcd, so a partial costs no Scalar of its own and
an entry that depends on few coordinates costs only as much as those
coordinates.  ``partials`` and ``grad`` are read-only Scalar views.
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

    __slots__ = ("val", "nums", "den", "width")

    def __init__(self, val: Scalar, nums: dict, den: int, width: int):
        self.val = val
        self.nums = nums
        self.den = den
        self.width = width

    @classmethod
    def variables(cls, values) -> list["Jet"]:
        """Lift scalars to jets seeded with unit gradients."""
        vals = [sc(v) for v in values]
        return [cls(v, {k: (1, 0)}, 1, len(vals)) for k, v in enumerate(vals)]

    @classmethod
    def constant(cls, value, m: int) -> "Jet":
        return cls(sc(value), {}, 1, m)

    @property
    def partials(self) -> dict:
        """The nonzero partials as Scalars, by variable index."""
        return {k: Scalar(a, b, self.den) for k, (a, b) in self.nums.items()}

    @property
    def grad(self) -> tuple[Scalar, ...]:
        """The dense gradient row."""
        return tuple(Scalar(*self.nums.get(k, (0, 0)), self.den) for k in range(self.width))

    def is_zero(self) -> bool:
        return self.val.is_zero() and not self.nums

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, *_combine(ONE, self, ONE, other), self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val + other, self.nums, self.den, self.width)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, *_combine(ONE, self, _MINUS_ONE, other), self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val - other, self.nums, self.den, self.width)

    def __mul__(self, other):
        if isinstance(other, Jet):
            v1, v2 = self.val, other.val
            return Jet(v1 * v2, *_combine(v2, self, v1, other), self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val * other, *_combine(other, self), self.width)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            r = other.val.inverse()
            q = self.val * r
            # (g1 - q g2) / v2 = r g1 - q r g2
            return Jet(q, *_combine(r, self, -(q * r), other), self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val / other, *_combine(other.inverse(), self), self.width)

    def inverse(self) -> "Jet":
        return Jet(ONE, {}, 1, self.width) / self

    def __pow__(self, n: int):
        return power(self, n, Jet(ONE, {}, 1, self.width))

    def __neg__(self):
        return Jet(-self.val, *_combine(_MINUS_ONE, self), self.width)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.val == other.val and self.width == other.width
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.val, self.den, frozenset(self.nums.items())))

    def sqrt(self) -> "Jet":
        """Exact square root; the value must be a perfect rational square."""
        r = self.val.sqrt_exact()
        if r.is_zero():
            raise InvalidInputError("jet sqrt at zero is singular")
        return Jet(r, *_combine(_HALF / r, self), self.width)

    def __repr__(self):
        return f"Jet({self.val}; {','.join(map(str, self.grad))})"


def jacobian_det(outputs, width: int) -> Scalar:
    """det of the gradient rows of ``outputs``, a plain scalar among them a
    constant with a zero row; entries go in reduced, as ``_bareiss`` clears
    the denominators of what the peel leaves, not of whole rows."""
    return det_exact([[Scalar(*out.nums[k], out.den) if k in out.nums else ZERO
                       for k in range(width)] if isinstance(out, Jet) else [ZERO] * width
                      for out in outputs])
