"""Forward-mode dual numbers over exact scalars, with sparse gradients.

A Jet carries a Scalar value and its partial derivatives with respect
to a fixed list of ``width`` variables.  Only the nonzero partials are
stored, as a dict from variable index to Scalar; every operation forms
its gradient as a*x + b*y over those entries and drops the exact zeros
that cancellation leaves, so an entry of a product matrix that depends
on few coordinates costs only as much as those coordinates.  ``grad``
is the dense row, read-only.  Pushing jets through the factorization
maps yields exact Jacobian columns with no truncation error.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .linalg import det_exact
from .scalar import ONE, ZERO, Number, Scalar, _coerce, power, sc

_HALF = Scalar(1, 0, 2)
_MINUS_ONE = Scalar(-1)


def _combine(a: Scalar, x: dict, b: Scalar = ONE, y: dict | None = None) -> dict:
    """a*x + b*y over the nonzero partials x and y, with no second term
    when y is None.  A factor of 1 or -1 multiplies nothing, a zero
    factor drops its term, and the sum drops the exact zeros that
    cancellation leaves.  The result is x itself when it equals x."""
    x = _scaled(a, x)
    if not y:
        return x
    y = _scaled(b, y)
    if not x:
        return y
    out = dict(x)
    for k, g in y.items():
        h = out.get(k)
        if h is None:
            out[k] = g
        else:
            s = h + g
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
    return out


def _scaled(c: Scalar, x: dict) -> dict:
    """c*x; x itself for c = 1, its negation for c = -1."""
    if c.b or c.d != 1 or (c.a != 1 and c.a != -1):
        return {k: g * c for k, g in x.items()} if c.a or c.b else {}
    return x if c.a == 1 else {k: -g for k, g in x.items()}


class Jet(Number):
    """A value with its nonzero partials; ``partials`` may be shared
    between jets and is never mutated.  ``is_zero()`` is an exact zero,
    a zero value with no partials."""

    __slots__ = ("val", "partials", "width")

    def __init__(self, val: Scalar, partials: dict, width: int):
        self.val = val
        self.partials = partials
        self.width = width

    @classmethod
    def variables(cls, values) -> list["Jet"]:
        """Lift scalars to jets seeded with unit gradients."""
        vals = [sc(v) for v in values]
        return [cls(v, {k: ONE}, len(vals)) for k, v in enumerate(vals)]

    @classmethod
    def constant(cls, value, m: int) -> "Jet":
        return cls(sc(value), {}, m)

    @property
    def grad(self) -> tuple[Scalar, ...]:
        """The dense gradient row."""
        return tuple(self.partials.get(k, ZERO) for k in range(self.width))

    def is_zero(self) -> bool:
        return self.val.is_zero() and not self.partials

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, _combine(ONE, self.partials, ONE, other.partials),
                       self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val + other, self.partials, self.width)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, _combine(ONE, self.partials, _MINUS_ONE, other.partials),
                       self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val - other, self.partials, self.width)

    def __mul__(self, other):
        if isinstance(other, Jet):
            v1, v2 = self.val, other.val
            return Jet(v1 * v2, _combine(v2, self.partials, v1, other.partials), self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val * other, _combine(other, self.partials), self.width)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            r = other.val.inverse()
            q = self.val * r
            # (g1 - q g2) / v2 = r g1 - q r g2
            return Jet(q, _combine(r, self.partials, -(q * r), other.partials), self.width)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val / other, _combine(other.inverse(), self.partials), self.width)

    def inverse(self) -> "Jet":
        return Jet(ONE, {}, self.width) / self

    def __pow__(self, n: int):
        return power(self, n, Jet(ONE, {}, self.width))

    def __neg__(self):
        return Jet(-self.val, _combine(_MINUS_ONE, self.partials), self.width)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.val == other.val and self.width == other.width
                and self.partials == other.partials)

    def __hash__(self):
        return hash((self.val, frozenset(self.partials.items())))

    def sqrt(self) -> "Jet":
        """Exact square root; the value must be a perfect rational square."""
        r = self.val.sqrt_exact()
        if r.is_zero():
            raise InvalidInputError("jet sqrt at zero is singular")
        return Jet(r, _combine(_HALF / r, self.partials), self.width)

    def __repr__(self):
        return f"Jet({self.val}; {','.join(map(str, self.grad))})"


def jacobian_det(outputs, width: int) -> Scalar:
    """det of the gradient rows of ``outputs``, peeled and eliminated in ``det_exact``;
    a plain scalar among them is a constant, with a zero row."""
    rows = []
    for out in outputs:
        row = [ZERO] * width
        if isinstance(out, Jet):
            for k, g in out.partials.items():
                row[k] = g
        rows.append(row)
    return det_exact(rows)
