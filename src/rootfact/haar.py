"""Invariant density and compact-picture coordinate changes.

The invariant density of the factorization coordinates is the even
power product prod_j |1 + z_j^- z_j^+|^(2 (delta(h_tau_j) - 1)), an
exact nonnegative rational.

The compact picture replaces each pair by (y_j^-, y_j^+) subject to
the positive-branch constraint that 1 - y_j^- y_j^+ is real positive;
the bridge scalars a_j = (1 - y_j^- y_j^+)^(-1/2) = (1 + z_j^- z_j^+)^(1/2)
are square roots of rationals, so the conversions, one chain run both ways,
go over RadicalScalar values c * sqrt(q), Gaussian-rational c, integer q > 0.

The pullback section takes det d(l, u)/dy by the chain rule: det d(zeta)/dy
(closed form prod a_j^4) times jacobian_det_ad at its zeta values
(prod a_j^(2 delta_j - 2)), in all prod a_j^(2 delta_j + 2).  Pair j of the
compact change reads y_j and the a_k of k > j only, so d(zeta)/dy taken pair
by pair is block upper triangular and its determinant is exactly the product
of its 2 x 2 diagonal blocks, each from jets in that pair's two coordinates
at Scalar values, the a_k taken as exact square roots.  The unit-ratio
identity |det|^2 = prod (a_j^2)^(2 delta_j + 2) is the volume-preservation
content of the compact picture.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BranchViolationError, InvalidInputError, echo
from .factorization import WordPlan, jacobian_det_ad, word_plan
from .scalar import ONE, Number, Scalar, _coerce, power, power_product, sc


class RadicalScalar(Number):
    """c * sqrt(q) with Scalar c and positive rational radicand q.

    The constructor takes c as ``sc`` does and q only as an int or a
    Fraction.  The radicand a/b is stored as the int a*b, with 1/b moved
    into c, and every result is built by ``_make`` from an int radicand.
    Only an integer that is a whole perfect square collapses, into c with
    radicand 1; no other square factor is pulled out, so equal values can
    print differently ((1)*sqrt(12) and (2)*sqrt(3)), and a zero c keeps
    its radicand.  Values with q == 1 collapse to plain scalars via
    ``to_scalar``.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        if not isinstance(radicand, (int, Fraction)) or isinstance(radicand, bool):
            raise InvalidInputError(f"radicand must be an int or a Fraction, got {echo(radicand)}")
        if radicand <= 0:
            raise InvalidInputError("radicand must be positive")
        # sqrt(a/b) = sqrt(a*b)/b
        out = _make(sc(coeff) / radicand.denominator, radicand.numerator * radicand.denominator)
        self.coeff, self.radicand = out.coeff, out.radicand

    @classmethod
    def sqrt_of(cls, value) -> "RadicalScalar":
        v = sc(value)
        if not v.is_positive_real():
            raise BranchViolationError(f"square root branch needs a positive real, got {v}")
        return _make(ONE / v.d, v.a * v.d)

    def to_scalar(self) -> Scalar:
        if self.radicand != 1:
            raise InvalidInputError(f"irrational value {self} is not a scalar")
        return self.coeff

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return _make(self.coeff * other.coeff, self.radicand * other.radicand)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        if self.coeff.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # 1 / (c sqrt(q)) = (1 / (c q)) sqrt(q)
        return _make(ONE / (self.coeff * self.radicand), self.radicand)

    def __truediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        return power(self, n, _make(ONE, 1))

    def __neg__(self):
        return _make(-self.coeff, self.radicand)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        # sqrt(q2) = sqrt(q1 q2) / q1, rational when q1 q2 is a perfect square
        r = math.isqrt(self.radicand * other.radicand)
        if r * r != self.radicand * other.radicand:
            raise InvalidInputError("cannot add incompatible radicals exactly")
        return _make(self.coeff + other.coeff * Scalar(r, 0, self.radicand), self.radicand)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if self.coeff.is_zero():
            return other.coeff.is_zero()
        if other.coeff.is_zero():
            return False
        t = self.coeff / other.coeff
        if not t.is_positive_real():
            return False
        return t.a * t.a * self.radicand == t.d * t.d * other.radicand

    def __hash__(self):
        # equal values have equal c^2 q, and with q == 1 equal c, as a Scalar has
        if self.radicand == 1:
            return hash(self.coeff)
        return hash(self.coeff * self.coeff * self.radicand)

    def __str__(self):
        if self.radicand == 1:
            return str(self.coeff)
        return f"({self.coeff})*sqrt({self.radicand})"

    __repr__ = __str__


def _make(coeff: Scalar, n: int) -> RadicalScalar:
    """coeff * sqrt(n) for a positive integer n, a whole perfect square
    collapsed into coeff: every result is built here, as Scalar's by _red."""
    if n != 1:
        r = math.isqrt(n)
        if r * r == n:
            coeff, n = coeff * r, 1
    out = object.__new__(RadicalScalar)
    out.coeff, out.radicand = coeff, n
    return out


def _lift(x):
    """x as a RadicalScalar, None when it is no scalar."""
    if isinstance(x, RadicalScalar):
        return x
    s = _coerce(x)
    return None if s is None else _make(s, 1)


def _radical(x) -> RadicalScalar:
    """x as a RadicalScalar; what is no scalar raises as in ``sc``."""
    return x if isinstance(x, RadicalScalar) else _make(sc(x), 1)


# -- invariant density -------------------------------------------------


def haar_density(family: str, rank: int, word, pairs) -> Scalar:
    """prod_j |1 + z_j^- z_j^+|^(2 (delta_j - 1)), exact rational."""
    plan = word_plan(family, rank, word)
    return power_product(((ONE + _radical(zm) * _radical(zp)).to_scalar().abs2(), d - 1)
                         for d, (zm, zp) in zip(plan.deltas, plan.check_pairs(pairs)))


# -- compact picture ---------------------------------------------------


def eta_from_zeta(family: str, rank: int, word, pairs):
    """Compact coordinates from factorization coordinates.

    Every 1 + z_j^- z_j^+ must be real positive (the positive branch);
    returns (eta_pairs, a_squared) where a_j^2 = 1 + z_j^- z_j^+.
    """
    plan = word_plan(family, rank, word)
    pairs = plan.check_pairs(pairs)
    asq = _on_branch(((ONE + _radical(zm) * _radical(zp)).to_scalar() for zm, zp in pairs),
                     "1 + z^- z^+")
    eta = _compact_chain(plan, [(_radical(zm), _radical(zp)) for zm, zp in pairs], asq, -1)[0]
    return [(_simplify(em), _simplify(ep)) for em, ep in eta], asq


def zeta_from_eta(family: str, rank: int, word, eta_pairs):
    """Factorization coordinates from compact coordinates.

    Every 1 - y_j^- y_j^+ must be real positive; returns
    (zeta_pairs, h_shift, a_squared) where h_shift is the torus
    diagonal prod_j a_j^(h_tau_j)."""
    plan = word_plan(family, rank, word)
    pairs = plan.check_pairs(eta_pairs)
    asq = _y_side_asq((ONE - _radical(em) * _radical(ep)).to_scalar() for em, ep in pairs)
    zeta, avals = _compact_chain(plan, [(_radical(em), _radical(ep)) for em, ep in pairs], asq, 1)
    hshift = [_running(_make(ONE, 1), col, avals) for col in plan.torus]
    return [(_simplify(zm), _simplify(zp)) for zm, zp in zeta], [_simplify(v) for v in hshift], asq


def _compact_chain(plan: WordPlan, pairs, asq, sign: int):
    """(image pairs, a_j) of the compact change, y to zeta for sign 1 and zeta
    back to y for sign -1: with a_j = sqrt(asq[j]), asq[j] = 1 + z_j^- z_j^+,
    pair (m, p) at j goes to (m prod_{k>j} a_k^(-sign tau_j(h_tau_k)),
    p a_j^(2 sign) prod_{k>j} a_k^(sign tau_j(h_tau_k)))."""
    a = [RadicalScalar.sqrt_of(v) for v in asq]
    return [(_running(m, row, a, -sign), _running(p * asq[j] ** sign, row, a, sign))
            for j, ((m, p), row) in enumerate(zip(pairs, plan.suffix))], a


def _running(x, terms, vals, sign: int = 1):
    """x * prod vals[j] ** (sign * p) over the (j, p) of terms, factor by factor:
    a radical prints by the order of its products."""
    for j, p in terms:
        x = x * vals[j] ** (sign * p)
    return x


def _y_side_asq(ys) -> list:
    """a_j^2 = 1 / (1 - y_j^- y_j^+) from ys, the values 1 - y^- y^+, each on the branch."""
    return [1 / v for v in _on_branch(ys, "1 - y^- y^+")]


def _on_branch(values, what: str) -> list:
    """The values in order, each required to be real positive."""
    out = []
    for k, v in enumerate(values, start=1):
        if not v.is_positive_real():
            raise BranchViolationError(f"{what} must be real positive at pair {k}, got {v}")
        out.append(v)
    return out


def _simplify(x: RadicalScalar):
    return x.coeff if x.radicand == 1 else x


# -- volume pullback of the compact coordinates --------------------------


def _jet_compact_chain(plan: WordPlan, pairs):
    """(zeta, det d(zeta)/d(y)) of the compact change at the Scalar pairs y:
    the zeta pairs and the determinant of their partials.

    Pair j maps to (y_j^- / C_j, y_j^+ (1 - y_j^- y_j^+)^(-1) C_j) with
    C_j = prod_{k>j} a_k^(tau_j(h_tau_k)), so it reads y_j and the a_k of
    k > j only: taken pair by pair, d(zeta)/dy is block upper triangular and
    its determinant is exactly the product of the 2 x 2 diagonal blocks.
    Each block is the Jacobian of pair j over jets in y_j^- and y_j^+ alone,
    with C_j held constant.  Every 1 - y_j^- y_j^+ must be real positive,
    and its value must be a perfect rational square so each a_j is a
    Gaussian rational.
    """
    from .jets import Jet, jacobian_det

    asq = _y_side_asq(1 - em * ep for em, ep in pairs)
    a = [_exact_sqrt(v) for v in asq]
    zeta, blocks = [], []
    for j, pair in enumerate(pairs):
        c = plan.suffix_product(j, a)
        ym, yp = Jet.variables(pair)
        # y^+ C / (1 - y^- y^+) as (-C y^+) / (y^- y^+ - 1): one jet op fewer
        zm, zp = ym * c.inverse(), yp * -c / (ym * yp - 1)
        zeta.append((zm.val, zp.val))
        blocks.append((jacobian_det([zm, zp], 2), 1))
    return zeta, power_product(blocks)


def _exact_sqrt(v: Scalar) -> Scalar:
    try:
        return v.sqrt_exact()
    except InvalidInputError as exc:
        raise InvalidInputError("the exact jet chain needs every 1 - y^- y^+ to be a perfect "
                                "rational square") from exc


def eta_change_jacobian_det(family: str, rank: int, word, eta_pairs) -> Scalar:
    """det of d(zeta)/d(y) for the compact coordinate change, by jets.

    Equals prod_j a_j^4 on the positive branch: pair j of the change only
    feeds on pairs k >= j, so the matrix is block triangular and the
    determinant is the product of its 2 x 2 diagonal blocks, each a_j^4,
    each taken over jets in that pair's two coordinates.
    """
    plan = word_plan(family, rank, word)
    return _jet_compact_chain(plan, plan.scalar_pairs(eta_pairs))[1]


# [((family, rank, word, point), det)] of the last pullback, one slot read and
# written whole, so unit_jacobian_check at the same point runs no second chain
_last_pullback = [(None, None)]


def lebesgue_pullback_det(family: str, rank: int, word, eta_pairs) -> Scalar:
    """det of d(l, u)/d(y) for the composite map y -> zeta -> (l, u).

    By the chain rule it is det d(zeta)/d(y), from one run of the compact jet
    chain, times jacobian_det_ad at its zeta values (both take all minus
    coordinates first): prod_j a_j^4 times prod_j (a_j^2)^(delta_j - 1) on the
    positive branch, as 1 + z^- z^+ = a^2, so prod_j a_j^(2 delta_j + 2).
    """
    plan = word_plan(family, rank, word).check_longest()
    pairs = plan.scalar_pairs(eta_pairs)
    key = (plan.family, plan.rank, plan.word, pairs)
    last_key, det = _last_pullback[0]
    if last_key != key:
        zeta, change = _jet_compact_chain(plan, pairs)
        det = change * jacobian_det_ad(family, rank, word, zeta)
        _last_pullback[0] = key, det
    return det


def unit_jacobian_check(family: str, rank: int, word, eta_pairs) -> Scalar:
    """Exact ratio of the squared (l, u) pullback to the carried density.

    The numerator is |lebesgue_pullback_det|^2, whose one run of the compact
    jet chain the two share when asked at one point back to back; the
    denominator is the invariant density in compact coordinates
    times the squared determinant of the change, the closed form
    prod_j (a_j^2)^(2 delta_j + 2).  The ratio is exactly one on the positive
    branch: Lebesgue volume in (l, u) matches Lebesgue volume in y once the
    invariant density rides along with the change of coordinates.  The bare
    determinant is not unimodular; lebesgue_pullback_det gives its value.
    """
    det2 = lebesgue_pullback_det(family, rank, word, eta_pairs).abs2()
    plan = word_plan(family, rank, word)
    return power_product([(det2, 1)] + [(ONE - em * ep, 2 * d + 2) for d, (em, ep)
                                        in zip(plan.deltas, plan.scalar_pairs(eta_pairs))])
