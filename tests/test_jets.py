"""Forward-mode jets: seeded variables and exact derivatives.

A Jet carries an exact value and an exact gradient row; arithmetic
implements the usual rules, so results never leave the Gaussian
rationals.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from rootfact import (Jet, RadicalScalar, Scalar, jacobian_det_ad, jacobian_det_formula,
                      lebesgue_pullback_det, random_reduced_word, zeta_from_eta)
from rootfact import haar, jets
from rootfact.factorization import word_plan
from rootfact.jets import _combine, jacobian_det
from rootfact.linalg import det_exact
from rootfact.scalar import ONE, ZERO, sc

from conftest import branch_pairs, generic_pairs
from helpers import constant, grad, partials


def test_variable_seeding():
    a, b, c = Jet.variables([sc(3), sc(5), sc(-2)])
    assert (a.val, b.val, c.val) == (sc(3), sc(5), sc(-2))
    assert list(grad(a, 3)) == [ONE, ZERO, ZERO]
    assert list(grad(c, 3)) == [ZERO, ZERO, ONE]
    k = constant(sc(7))
    assert k.val == sc(7) and list(grad(k, 3)) == [ZERO, ZERO, ZERO]


def test_polynomial_derivatives():
    a, b = Jet.variables([sc(3), sc(5)])
    p = a * a * b + 2 * a
    assert p.val == sc(51)
    assert list(grad(p, 2)) == [sc(32), sc(9)]  # (2ab + 2, a^2)


def test_quotient_derivatives():
    a, b = Jet.variables([sc(3), sc(5)])
    q = 1 / (a - 2)
    assert q.val == ONE
    assert list(grad(q, 2)) == [sc(-1), ZERO]
    r = b / a
    assert r.val == Scalar(5, 0, 3)
    assert list(grad(r, 2)) == [Scalar(-5, 0, 9), Scalar(1, 0, 3)]


def test_negative_powers():
    x = Jet.variables([Scalar(1, 0, 2)])[0]
    y = x ** -2
    assert y.val == sc(4)
    assert list(grad(y, 1)) == [sc(-16)]  # -2 x^(-3)


@pytest.mark.parametrize("n,products", [(1, 1), (5, 4)])
def test_power_stops_squaring_after_last_bit(monkeypatch, n, products):
    # x ** n multiplies once per set bit and squares once per bit below the top
    x = Jet.variables([sc(3)])[0]
    calls = []
    mul = Jet.__mul__
    monkeypatch.setattr(Jet, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    y = x ** n
    assert len(calls) == products
    assert y.val == sc(3 ** n) and list(grad(y, 1)) == [sc(n * 3 ** (n - 1))]


def test_chain_through_composite():
    # d/dx of (x^2 + 1)^2 at x = 2 is 2*(x^2+1)*2x = 40
    x = Jet.variables([sc(2)])[0]
    f = (x * x + 1) ** 2
    assert f.val == sc(25)
    assert list(grad(f, 1)) == [sc(40)]


def test_jacobian_det_takes_a_plain_scalar_output_as_a_zero_row():
    x, y = Jet.variables([sc(2), sc(3)])
    assert jacobian_det([x * y, x - y], 2) == sc(-5)
    assert jacobian_det([x * y, sc(7)], 2) == ZERO
    assert jacobian_det([Scalar(1, 1)], 1) == ZERO


def test_elimination_keeps_zero_value_gradients():
    # a multiplier whose value vanishes still carries derivatives; the
    # triangular factorizer must not drop its update
    from rootfact import jacobian_det_ad, jacobian_det_formula
    from rootfact.linalg import ldu

    pairs = [(Scalar(0), Scalar(-2))]
    assert jacobian_det_ad("B", 1, (1,), pairs) == \
        jacobian_det_formula("B", 1, (1,), pairs) == Scalar(1)

    x, y = Jet.variables([sc(0), sc(3)])
    one = constant(1)
    zero = constant(0)
    # [[1, y], [x, 1 + x y]] factors as L(x) diag(1, 1) U(y)
    g = [[one, y], [x, one + x * y]]
    lower, d, upper = ldu(g)
    assert lower[1][0] == x and upper[0][1] == y
    assert d[0].val == sc(1) and d[1].val == sc(1)
    assert list(grad(d[1], 2)) == [sc(0), sc(0)]
    assert grad(ldu([[zero + 1, y], [x, one + x * y]])[1][1], 2) == grad(d[1], 2)


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


def outcome(f, *args):
    """The jet f returns, or the type of the exception it raises."""
    try:
        return f(*args)
    except ArithmeticError as err:
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
    # zero value, nonzero derivatives
    ("zero-value", lambda x, y, c, n: x - x.val),
    # exact cancellations of whole gradients and of single partials
    ("cancel", lambda x, y, c, n: (x + y) - y),
    ("cancel-product", lambda x, y, c, n: x * y - y * x),
    ("cancel-partial", lambda x, y, c, n: x * y - y.val * x),
]

# with denominators that differ, so that merges take an lcm
CONSTANTS = [0, 1, -1, 2, ZERO, ONE, Scalar(-3, 1, 2), Scalar(0, 2, 5),
             Scalar(1, 0, 2), Scalar(2, 0, 3), Scalar(5, 0, 6), Scalar(0, 1, 7)]


def assert_reduced(jet):
    """The stored gradient is in its one form: a positive denominator,
    coprime to the numerators taken together, and no zero numerator."""
    assert jet.den > 0 and math.gcd(jet.den, *[t for ab in jet.nums.values() for t in ab]) == 1
    assert (0, 0) not in jet.nums.values()


@pytest.mark.parametrize("seed", range(12))
def test_sparse_jet_matches_dense_reference(seed):
    rng = random.Random(f"jets/{seed}")
    width = 1 + seed % 5
    values = [rng.choice([ZERO, ONE, sc(-2), Scalar(1, 0, 3), Scalar(2, -1, 3), Scalar(1, 0, 2),
                          Scalar(2, 0, 3), Scalar(5, 0, 6), Scalar(0, 1, 7)])
              for _ in range(width)]
    pool = list(zip(Jet.variables(values),
                    (DenseJet(v, [ONE if j == k else ZERO for j in range(width)])
                     for k, v in enumerate(values))))
    pool.append((constant(sc(3)), DenseJet(sc(3), [ZERO] * width)))
    for _ in range(150):
        name, op = rng.choice(OPS)
        (x, dx), (y, dy) = rng.choice(pool), rng.choice(pool)
        args = (rng.choice(CONSTANTS), rng.choice([-2, -1, 0, 1, 2, 3]))
        got, want = outcome(op, x, y, *args), outcome(op, dx, dy, *args)
        if isinstance(want, type):
            assert got is want, name
            continue
        assert (got.val, grad(got, width)) == (want.val, want.grad), name
        assert not any(g.is_zero() for g in partials(got).values())
        assert_reduced(got)
        # keep the numbers small and the seeds: a derived entry gives way
        if partials(got) and max(v.d.bit_length() for v in (got.val,) + grad(got, width)) < 64:
            if len(pool) < width + 9:
                pool.append((got, want))
            else:
                pool[rng.randrange(width + 1, len(pool))] = (got, want)
    jets, dense = zip(*pool[-width:])
    assert jacobian_det(jets, width) == det_exact([list(d.grad) for d in dense])


def test_equal_jets_hash_alike_at_mixed_denominators():
    a, b, c = Jet.variables([Scalar(1, 0, 2), Scalar(2, 0, 3), Scalar(0, 1, 7)])
    x = a * b + c / 2 - Scalar(5, 0, 6)
    y = (b - a) / 7 * c + Scalar(1, 0, 3) * a
    k = Scalar(5, 1, 6)
    for left, right in ((x * y, y * x), ((x + y) - y, x), ((x / k) * k, x), ((y / k) * k, y)):
        assert left == right and hash(left) == hash(right)
        assert_reduced(left)
        assert len({left, right}) == 1
    assert x.den > 1 and y.den > 1 and x.den != y.den
    assert x * y != y * x + a


def test_jets_of_any_number_of_variables_compare_by_value_and_partials():
    # a jet stores no width: the first of two variables and the first of
    # three are the same jet
    x, y = Jet.variables([1, 2])[0], Jet.variables([1, 2, 3])[0]
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != Jet.variables([1, 2])[1]


def test_jets_differ_where_one_part_differs():
    # the value, the denominator and the numerators are each compared
    x, y = Jet.variables([1, 1])
    assert x.val == y.val and x != y
    assert x + 1 != x and (x + 1).nums == x.nums
    half = x / 2
    assert (half.nums, half.den) == ({0: (1, 0)}, 2)
    assert half != Jet(half.val, half.nums, 1)


def test_jet_repr_prints_value_and_stored_numerators():
    a, b = Jet.variables([sc(3), Scalar(0, 1, 2)])
    assert repr(a * b / 2) == "Jet(3/4*i; {0: (0, 1), 1: (6, 0)}/4)"
    assert repr(Jet.variables([sc(5)])[0] - 5) == "Jet(0; {0: (1, 0)}/1)"


def test_no_library_path_builds_a_scalar_per_partial(monkeypatch):
    # the jet forward, the compact chain and jacobian_det read the stored
    # numerators: a Jet has no Scalar view of its partials, and the
    # Jacobian at B4 and A8 and the compact pullback at B3 answer
    assert not hasattr(Jet, "partials") and not hasattr(Jet, "grad")
    word = random_reduced_word("B", 3, 12)
    eta = branch_pairs(random.Random("jets/no-views/pullback"), len(word))
    expected = ONE
    for d, asq in zip(word_plan("B", 3, word).deltas, zeta_from_eta("B", 3, word, eta)[2]):
        expected = expected * asq ** (d + 1)

    monkeypatch.setattr(haar, "_last_pullback", [(None, None)])
    assert lebesgue_pullback_det("B", 3, word, eta) == expected
    for family, rank in (("B", 4), ("A", 8)):
        word = random_reduced_word(family, rank, 12)
        pairs = generic_pairs(random.Random(f"jets/no-views/{family}{rank}"), len(word))
        assert jacobian_det_ad(family, rank, word, pairs) == jacobian_det_formula(
            family, rank, word, pairs)


# the coefficients of the merge tests: zero, 1 and -1, whole, real and complex
SCALARS = [ZERO, ONE, sc(-1), sc(2), Scalar(1, 0, 3), Scalar(2, -1, 3), Scalar(0, 1, 7),
           Scalar(5, 0, 6), Scalar(-3, 1, 2)]


def reduced_jet(val, nums: dict, den: int) -> Jet:
    """The jet val + nums/den in its one stored form, reduced here by hand."""
    nums = {k: ab for k, ab in nums.items() if ab != (0, 0)}
    g = math.gcd(den, *[t for ab in nums.values() for t in ab])
    return Jet(val, {k: (a // g, b // g) for k, (a, b) in nums.items()}, den // g)


def draw_jet(rng) -> Jet:
    """A jet in four variables: up to three partials, real or complex, over
    a denominator of 1, 2, 3 or 6, and sometimes none at all."""
    nums = {k: (rng.randint(-4, 4), rng.choice([0, rng.randint(-4, 4)]))
            for k in rng.sample(range(4), rng.randint(0, 3))}
    return reduced_jet(rng.choice(SCALARS), nums, rng.choice([1, 1, 2, 3, 6]))


def stored(jet: Jet) -> tuple:
    return jet.val, jet.nums, jet.den


def test_jet_addmul_is_self_plus_x_times_y():
    # every Jet/Scalar mix of x and y over a seeded grid: the one merge
    # stores what the product and the sum store, reduced alike
    rng = random.Random("jets/addmul")
    seen = {"JJ": 0, "JS": 0, "SJ": 0, "SS": 0, "den 1": 0, "zero factor": 0}
    for _ in range(300):
        s = draw_jet(rng)
        for kinds in ("JJ", "JS", "SJ", "SS"):
            x, y = (draw_jet(rng) if k == "J" else rng.choice(SCALARS) for k in kinds)
            out = s.addmul(x, y)
            assert type(out) is Jet and stored(out) == stored(s + x * y), (s, x, y)
            assert_reduced(out)
            seen[kinds] += 1
            seen["den 1"] += out.den == 1 and bool(out.nums)
            seen["zero factor"] += any(isinstance(j, Jet) and j.nums and v.is_zero()
                                       for j, v in ((x, y.val), (y, x.val)))
    assert min(seen.values()) > 30, seen


def test_jet_addmul_cancels_drops_and_shares_like_the_rules():
    a, b = Jet.variables([Scalar(1, 0, 2), Scalar(2, 1, 3)])
    p = a * b
    # partials that cancel to an empty gradient store it over 1
    out = (-p).addmul(a, b)
    assert stored(out) == (ZERO, {}, 1) and out.is_zero()
    out = (-p + Scalar(1, 0, 5)).addmul(b, a)
    assert stored(out) == (Scalar(1, 0, 5), {}, 1)
    # a single partial cancels and the other is reduced by one gcd
    out = (-(b.val * a)).addmul(a, b)
    assert stored(out) == (ZERO, (a.val * b).nums, 2) == (ZERO, {1: (1, 0)}, 2)
    # a zero factor drops its term
    zero = Jet(ZERO, {0: (3, 1)}, 4)
    assert stored(b.addmul(a, ZERO)) == stored(b)
    assert stored(b.addmul(zero, a)) == stored(b + zero * a) == (
        Scalar(2, 1, 3), {0: (3, 1), 1: (8, 0)}, 8)
    # a lone term times 1 or -1 keeps its stored numerators, with no gcd
    k = Jet(Scalar(5), {}, 1)
    assert k.addmul(a, ONE).nums is a.nums and k.addmul(ONE, b).nums is b.nums
    assert stored(k.addmul(sc(-1), b)) == (Scalar(13, -1, 3), {1: (-1, 0)}, 1)
    c = Jet(Scalar(1, 0, 3), {2: (2, -1)}, 9)
    assert c.addmul(Scalar(2, 0, 3), ONE).nums is c.nums
    assert stored(c.addmul(a, Scalar(0, 1, 3))) == stored(c + a * Scalar(0, 1, 3))


def test_a_lone_term_times_one_or_minus_one_takes_no_gcd(monkeypatch):
    # its stored numerators are reduced already: negation and a sum with a
    # constant reach neither gcd nor lcm
    x = Jet(Scalar(1, 0, 3), {0: (1, 2), 2: (-4, 0)}, 5)
    monkeypatch.setattr(jets, "math", None)
    assert stored(-x) == (Scalar(-1, 0, 3), {0: (-1, -2), 2: (4, 0)}, 5)
    assert stored(x.addmul(ONE, sc(2))) == (Scalar(7, 0, 3), x.nums, 5)
    assert stored(Jet(ONE, {}, 1).addmul(x, sc(-1))) == stored(-x + 1)


def test_jet_addmul_falls_back_on_other_operands():
    # an int or a Fraction takes self + x * y; a RadicalScalar fails as that does
    a, b = Jet.variables([Scalar(1, 0, 2), Scalar(-3, 2)])
    for x, y in [(a, 3), (2, b), (Fraction(1, 4), a), (a, Fraction(-2, 3)), (2, 3)]:
        assert stored(b.addmul(x, y)) == stored(b + x * y)
    root2 = RadicalScalar(ONE, 2)
    for x, y in [(a, root2), (root2, ONE), (root2, a), (ONE, root2)]:
        with pytest.raises(TypeError):
            b + x * y
        with pytest.raises(TypeError):
            b.addmul(x, y)


def test_three_term_combine_is_two_chained_merges():
    rng = random.Random("jets/combine")
    for _ in range(200):
        terms = [(rng.choice(SCALARS), draw_jet(rng)) for _ in range(3)]
        first = Jet(ZERO, *_combine(*terms[:2]))
        out = _combine(*terms)
        assert out == _combine((ONE, first), terms[2])
        assert_reduced(Jet(ZERO, *out))
    assert _combine() == ({}, 1)
    assert _combine((ZERO, Jet.variables([1])[0]), (ONE, Jet(ONE, {}, 1))) == ({}, 1)


def test_jet_hands_an_operand_it_cannot_lift_to_the_other_side():
    x = Jet.variables([Scalar(1, 0, 2)])[0]
    for method in (x.__sub__, x.__truediv__):
        assert method("1") is NotImplemented and method(RadicalScalar(ONE, 2)) is NotImplemented
    for op in (lambda: x - "1", lambda: x / "1", lambda: x ** 0.5):
        with pytest.raises(TypeError):
            op()
