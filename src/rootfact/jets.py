"""Forward-mode dual numbers over exact scalars.

A Jet carries a Scalar value and a tuple of Scalar partial
derivatives with respect to a fixed list of variables.  Pushing jets
through the factorization maps yields exact Jacobian columns with no
truncation error.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .linalg import det_exact
from .scalar import ONE, ZERO, Scalar, _coerce, power, sc


class Jet:
    __slots__ = ("val", "grad")

    def __init__(self, val: Scalar, grad: tuple[Scalar, ...]):
        self.val = val
        self.grad = grad

    @classmethod
    def variables(cls, values) -> list["Jet"]:
        """Lift scalars to jets seeded with unit gradients."""
        vals = [sc(v) for v in values]
        m = len(vals)
        return [
            cls(v, tuple(ONE if j == k else ZERO for j in range(m)))
            for k, v in enumerate(vals)
        ]

    @classmethod
    def constant(cls, value, m: int) -> "Jet":
        return cls(sc(value), (ZERO,) * m)

    def is_zero(self) -> bool:
        return self.val.is_zero() and all(g.is_zero() for g in self.grad)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, tuple(a + b for a, b in zip(self.grad, other.grad)))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, tuple(a - b for a, b in zip(self.grad, other.grad)))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val - other, self.grad)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(other - self.val, tuple(-g for g in self.grad))

    def __mul__(self, other):
        if isinstance(other, Jet):
            v1, v2 = self.val, other.val
            return Jet(
                v1 * v2,
                tuple(g1 * v2 + v1 * g2 for g1, g2 in zip(self.grad, other.grad)),
            )
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val * other, tuple(g * other for g in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            v2 = other.val
            q = self.val / v2
            return Jet(
                q,
                tuple((g1 - q * g2) / v2 for g1, g2 in zip(self.grad, other.grad)),
            )
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(self.val / other, tuple(g / other for g in self.grad))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Jet(other, (ZERO,) * len(self.grad)).__truediv__(self)

    def inverse(self) -> "Jet":
        return Jet(ONE, (ZERO,) * len(self.grad)) / self

    def __pow__(self, n: int):
        return power(self, n, Jet(ONE, (ZERO,) * len(self.grad)))

    def __neg__(self):
        return Jet(-self.val, tuple(-g for g in self.grad))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.val == other.val and self.grad == other.grad

    def __hash__(self):
        return hash((self.val, self.grad))

    def sqrt(self) -> "Jet":
        """Exact square root; the value must be a perfect rational square."""
        r = self.val.sqrt_exact()
        if r.is_zero():
            raise InvalidInputError("jet sqrt at zero is singular")
        half = Scalar(1, 0, 2)
        return Jet(r, tuple(g * half / r for g in self.grad))

    def __repr__(self):
        return f"Jet({self.val}; {','.join(map(str, self.grad))})"


def jacobian_det(outputs, width: int) -> Scalar:
    """det of the gradient rows of ``outputs``; a plain scalar among them
    is a constant, with a zero row."""
    return det_exact([list(out.grad) if isinstance(out, Jet) else [ZERO] * width
                      for out in outputs])
