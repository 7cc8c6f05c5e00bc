"""Forward-mode jets: seeded variables, exact derivatives, square roots.

A Jet carries an exact value and an exact gradient row; arithmetic
implements the usual rules, and sqrt demands a perfect rational square
so results never leave the Gaussian rationals.
"""

from __future__ import annotations

import random

import pytest

from rootfact import InvalidInputError, Jet, Scalar
from rootfact.jets import jacobian_det
from rootfact.linalg import det_exact
from rootfact.scalar import ONE, ZERO, sc


def test_variable_seeding():
    a, b, c = Jet.variables([sc(3), sc(5), sc(-2)])
    assert (a.val, b.val, c.val) == (sc(3), sc(5), sc(-2))
    assert list(a.grad) == [ONE, ZERO, ZERO]
    assert list(c.grad) == [ZERO, ZERO, ONE]
    k = Jet.constant(sc(7), 3)
    assert k.val == sc(7) and list(k.grad) == [ZERO, ZERO, ZERO]


def test_polynomial_derivatives():
    a, b = Jet.variables([sc(3), sc(5)])
    p = a * a * b + 2 * a
    assert p.val == sc(51)
    assert list(p.grad) == [sc(32), sc(9)]  # (2ab + 2, a^2)


def test_quotient_derivatives():
    a, b = Jet.variables([sc(3), sc(5)])
    q = 1 / (a - 2)
    assert q.val == ONE
    assert list(q.grad) == [sc(-1), ZERO]
    r = b / a
    assert r.val == Scalar(5, 0, 3)
    assert list(r.grad) == [Scalar(-5, 0, 9), Scalar(1, 0, 3)]


def test_sqrt_jet():
    x = Jet.variables([sc(9)])[0]
    s = x.sqrt()
    assert s.val == sc(3)
    assert list(s.grad) == [Scalar(1, 0, 6)]  # 1 / (2 sqrt(x))
    assert (s * s).val == x.val
    assert list((s * s).grad) == [ONE]


def test_sqrt_requires_perfect_square():
    with pytest.raises(InvalidInputError):
        Jet.variables([sc(2)])[0].sqrt()


def test_negative_powers():
    x = Jet.variables([Scalar(1, 0, 2)])[0]
    y = x ** -2
    assert y.val == sc(4)
    assert list(y.grad) == [sc(-16)]  # -2 x^(-3)


@pytest.mark.parametrize("n,products", [(1, 1), (5, 4)])
def test_power_stops_squaring_after_last_bit(monkeypatch, n, products):
    # x ** n multiplies once per set bit and squares once per bit below the top
    x = Jet.variables([sc(3)])[0]
    calls = []
    mul = Jet.__mul__
    monkeypatch.setattr(Jet, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    y = x ** n
    assert len(calls) == products
    assert y.val == sc(3 ** n) and list(y.grad) == [sc(n * 3 ** (n - 1))]


def test_chain_through_composite():
    # d/dx of (x^2 + 1)^2 at x = 2 is 2*(x^2+1)*2x = 40
    x = Jet.variables([sc(2)])[0]
    f = (x * x + 1) ** 2
    assert f.val == sc(25)
    assert list(f.grad) == [sc(40)]


def test_elimination_keeps_zero_value_gradients():
    # a multiplier whose value vanishes still carries derivatives; the
    # triangular factorizer must not drop its update
    from rootfact import jacobian_det_ad, jacobian_det_formula
    from rootfact.linalg import ldu

    pairs = [(Scalar(0), Scalar(-2))]
    assert jacobian_det_ad("B", 1, (1,), pairs) == \
        jacobian_det_formula("B", 1, (1,), pairs) == Scalar(1)

    x, y = Jet.variables([sc(0), sc(3)])
    one = Jet.constant(1, 2)
    zero = Jet.constant(0, 2)
    # [[1, y], [x, 1 + x y]] factors as L(x) diag(1, 1) U(y)
    g = [[one, y], [x, one + x * y]]
    lower, d, upper = ldu(g)
    assert lower[1][0] == x and upper[0][1] == y
    assert d[0].val == sc(1) and d[1].val == sc(1)
    assert list(d[1].grad) == [sc(0), sc(0)]
    assert ldu([[zero + 1, y], [x, one + x * y]])[1][1].grad == d[1].grad


class DenseJet:
    """Reference jet with a dense gradient tuple: the textbook rules,
    entry by entry, zeros included."""

    def __init__(self, val, grad):
        self.val, self.grad = val, tuple(grad)

    @staticmethod
    def lift(x, width):
        return x if isinstance(x, DenseJet) else DenseJet(sc(x), [ZERO] * width)

    def __add__(self, other):
        other = self.lift(other, len(self.grad))
        return DenseJet(self.val + other.val, [a + b for a, b in zip(self.grad, other.grad)])

    __radd__ = __add__

    def __neg__(self):
        return DenseJet(-self.val, [-g for g in self.grad])

    def __sub__(self, other):
        return self + (-self.lift(other, len(self.grad)))

    def __rsub__(self, other):
        return self.lift(other, len(self.grad)) - self

    def __mul__(self, other):
        other = self.lift(other, len(self.grad))
        v1, v2 = self.val, other.val
        return DenseJet(v1 * v2, [g1 * v2 + v1 * g2 for g1, g2 in zip(self.grad, other.grad)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.lift(other, len(self.grad))
        q = self.val / other.val
        return DenseJet(q, [(g1 - q * g2) / other.val for g1, g2 in zip(self.grad, other.grad)])

    def __rtruediv__(self, other):
        return self.lift(other, len(self.grad)) / self

    def inverse(self):
        return 1 / self

    def __pow__(self, n):
        out = self.lift(1, len(self.grad))
        for _ in range(abs(n)):
            out = out * self
        return out if n >= 0 else 1 / out

    def sqrt(self):
        r = self.val.sqrt_exact()
        if r.is_zero():
            raise InvalidInputError("jet sqrt at zero is singular")
        return DenseJet(r, [g / (2 * r) for g in self.grad])


def outcome(f, *args):
    """The jet f returns, or the type of the exception it raises."""
    try:
        return f(*args)
    except (ArithmeticError, InvalidInputError) as err:
        return type(err)


# (name, function of two operands, a constant and an exponent); together
# they reach every rule of Jet
OPS = [
    ("add", lambda x, y, c, n: x + y),
    ("sub", lambda x, y, c, n: x - y),
    ("mul", lambda x, y, c, n: x * y),
    ("div", lambda x, y, c, n: x / y),
    ("add-const", lambda x, y, c, n: c + x),
    ("sub-const", lambda x, y, c, n: x - c),
    ("rsub-const", lambda x, y, c, n: c - x),
    ("mul-const", lambda x, y, c, n: c * x),
    ("div-const", lambda x, y, c, n: x / c),
    ("rdiv-const", lambda x, y, c, n: c / x),
    ("neg", lambda x, y, c, n: -x),
    ("inverse", lambda x, y, c, n: x.inverse()),
    ("pow", lambda x, y, c, n: x ** n),
    # a real value squared is a perfect rational square
    ("sqrt", lambda x, y, c, n: (x * x).sqrt() if x.val.is_real() else x.sqrt()),
    # zero value, nonzero derivatives
    ("zero-value", lambda x, y, c, n: x - x.val),
    # exact cancellations of whole gradients and of single partials
    ("cancel", lambda x, y, c, n: (x + y) - y),
    ("cancel-product", lambda x, y, c, n: x * y - y * x),
    ("cancel-partial", lambda x, y, c, n: x * y - y.val * x),
]

CONSTANTS = [0, 1, -1, 2, ZERO, ONE, Scalar(-3, 1, 2), Scalar(0, 2, 5)]


@pytest.mark.parametrize("seed", range(12))
def test_sparse_jet_matches_dense_reference(seed):
    rng = random.Random(f"jets/{seed}")
    width = 1 + seed % 5
    values = [rng.choice([ZERO, ONE, sc(-2), Scalar(1, 0, 3), Scalar(2, -1, 3)])
              for _ in range(width)]
    pool = list(zip(Jet.variables(values),
                    (DenseJet(v, [ONE if j == k else ZERO for j in range(width)])
                     for k, v in enumerate(values))))
    pool.append((Jet.constant(sc(3), width), DenseJet(sc(3), [ZERO] * width)))
    for _ in range(150):
        name, op = rng.choice(OPS)
        (x, dx), (y, dy) = rng.choice(pool), rng.choice(pool)
        args = (rng.choice(CONSTANTS), rng.choice([-2, -1, 0, 1, 2, 3]))
        got, want = outcome(op, x, y, *args), outcome(op, dx, dy, *args)
        if isinstance(want, type):
            assert got is want, name
            continue
        assert (got.val, got.grad) == (want.val, want.grad), name
        assert got.width == width and not any(g.is_zero() for g in got.partials.values())
        # keep the numbers small and the seeds: a derived entry gives way
        if got.partials and max(v.d.bit_length() for v in (got.val,) + got.grad) < 64:
            if len(pool) < width + 9:
                pool.append((got, want))
            else:
                pool[rng.randrange(width + 1, len(pool))] = (got, want)
    jets, dense = zip(*pool[-width:])
    assert jacobian_det(jets, width) == det_exact([list(d.grad) for d in dense])
