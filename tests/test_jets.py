"""Forward-mode jets: seeded variables, exact derivatives, square roots.

A Jet carries an exact value and an exact gradient row; arithmetic
implements the usual rules, and sqrt demands a perfect rational square
so results never leave the Gaussian rationals.
"""

from __future__ import annotations

import pytest

from rootfact import InvalidInputError, Jet, Scalar
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
