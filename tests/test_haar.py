"""Invariant density and the compact coordinate change.

The density at a coordinate point is prod |1 + z^- z^+|^(2(delta-1)).
The compact picture swaps z for y with 1 + z^- z^+ = (1 - y^- y^+)^(-1)
on the positive branch; square roots of those values ride along as
radical scalars until they cancel, and the volume pullback of the
composite map y -> z -> (l, u) has the closed-form determinant
prod a^(2 delta + 2), unit after dividing by the carried density.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from rootfact import (
    BranchViolationError,
    InvalidInputError,
    InvalidWordError,
    Jet,
    RadicalScalar,
    Scalar,
    canonical_word,
    delta,
    eta_change_jacobian_det,
    eta_from_zeta,
    haar_density,
    lebesgue_pullback_det,
    ordering_from_word,
    random_reduced_word,
    unit_jacobian_check,
    word_plan,
    zeta_from_eta,
)
from rootfact import factorization, haar, jets
from rootfact.scalar import ONE, sc

from conftest import branch_pairs, exact_scalar, generic_pairs, pythagorean_pair
from helpers import composite_pullback_det, is_real, wide_compact_chain

A2 = ("A", 2, (1, 2, 1))
B2 = ("B", 2, (1, 2, 1, 2))
C2 = ("C", 2, (1, 2, 1, 2))


def test_haar_density_frozen_value():
    assert haar_density(*A2, [(0, 0), (1, 2), (0, 0)]) == Scalar(9)
    # A2's deltas are (1, 2, 1): a zero 1 + z^- z^+ is a factor 1 at delta 1
    # and makes the density 0 at delta 2
    assert haar_density(*A2, [(1, -1), (1, 2), (Scalar(0, 1), Scalar(0, 1))]) == Scalar(9)
    assert haar_density(*A2, [(0, 0), (2, Scalar(-1, 0, 2)), (0, 0)]) == Scalar(0)


def test_haar_density_formula():
    rng = random.Random(2)
    pairs = generic_pairs(rng, 4)
    taus = ordering_from_word(*B2)
    expected = ONE
    for tau, (zm, zp) in zip(taus, pairs):
        expected = expected * (ONE + zm * zp).abs2() ** (delta("B", 2, tau) - 1)
    assert haar_density(*B2, pairs) == expected


def test_radical_scalar_arithmetic():
    r = RadicalScalar.sqrt_of(sc(2))
    assert (r * r).to_scalar() == sc(2)
    assert RadicalScalar(Scalar(2), 9) == RadicalScalar(Scalar(6), 1)
    assert RadicalScalar(Scalar(2), 9).to_scalar() == sc(6)
    assert (r ** -3) == RadicalScalar(Scalar(1, 0, 4), 2)
    assert r.inverse() * r == RadicalScalar(ONE)
    with pytest.raises(InvalidInputError):
        RadicalScalar(ONE, 2).to_scalar()
    # the reflected forms, other - r and other / r, lift the int or Fraction
    six = RadicalScalar(Scalar(2), 9)
    assert [str(v) for v in (1 - six, Fraction(1, 2) - six, 0 - r)] == ["-5", "-11/2", "(-1)*sqrt(2)"]
    assert [str(v) for v in (2 / r, Fraction(1, 3) / r, 3 / RadicalScalar(ONE, 12), 3 / six)] == [
        "(1)*sqrt(2)", "(1/6)*sqrt(2)", "(1/4)*sqrt(12)", "1/2"]
    assert all(isinstance(v, RadicalScalar) for v in (1 - six, 3 / six))
    with pytest.raises(InvalidInputError, match="incompatible radicals"):
        1 - r
    with pytest.raises(TypeError):
        "1" - r


def reference_sum(c1, q1, c2, q2):
    """(coefficient, radicand) of c1 sqrt(q1) + c2 sqrt(q2) by the root of
    the Fraction q2 / q1; None when that root is irrational."""
    if c2.is_zero() or c1.is_zero():
        return (c1, q1) if c2.is_zero() else (c2, q2)
    ratio = Fraction(q2, q1)
    rn, rd = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
    if (rn * rn, rd * rd) != (ratio.numerator, ratio.denominator):
        return None
    return c1 + c2 * Scalar.from_fraction(Fraction(rn, rd)), q1


def reference_equal(c1, q1, c2, q2) -> bool:
    """c1 sqrt(q1) == c2 sqrt(q2), as (c1 / c2)^2 q1 == q2 over Fractions."""
    if c1.is_zero() or c2.is_zero():
        return c1.is_zero() and c2.is_zero()
    t = c1 / c2
    return t.is_positive_real() and t.real * t.real * q1 == q2


def test_radicals_whose_radicands_differ_by_a_square_add():
    # sqrt(12) = 2 sqrt(3): a sum keeps the left radicand and scales the
    # right coefficient by the rational root of the radicands' ratio
    a, b = RadicalScalar(ONE, 3), RadicalScalar(ONE, 12)
    assert [str(v) for v in (a + b, b + a, a - b, b - a)] == [
        "(3)*sqrt(3)", "(3/2)*sqrt(12)", "(-1)*sqrt(3)", "(1/2)*sqrt(12)"]
    assert a + b == b + a
    # integer radicands against the Fraction reference; p = 2^89 - 1 is prime,
    # so 2 p^2 keeps its radicand and only a product of radicands is a square
    p = 2 ** 89 - 1
    radicands = [(3, 12), (12, 3), (2 * p * p, 2), (2, 2 * p * p), (3, 5), (8, 18), (5, 5)]
    coeffs = [ONE, Scalar(-2, 1, 3), Scalar(0), Scalar(p), Scalar(1, 0, p), Scalar(5, 0, 4)]
    raised = 0
    for q1, q2 in radicands:
        for c1 in coeffs:
            for c2 in coeffs:
                x, y = RadicalScalar(c1, q1), RadicalScalar(c2, q2)
                assert (x == y) is (y == x) is reference_equal(c1, q1, c2, q2)
                expected = reference_sum(c1, q1, c2, q2)
                if expected is None:
                    raised += 1
                    with pytest.raises(InvalidInputError, match="cannot add incompatible radicals"):
                        x + y
                    continue
                out = x + y
                assert (out.coeff, out.radicand) == expected and type(out.radicand) is int
    assert raised == 25
    assert RadicalScalar(ONE, 2 * p * p) == RadicalScalar(Scalar(p), 2)
    assert str(RadicalScalar(ONE, 2 * p * p) + RadicalScalar(ONE, 2)) == (
        f"({p + 1}/{p})*sqrt({2 * p * p})")


def test_radical_divided_by_a_radical_or_a_number():
    r8, r2 = RadicalScalar(ONE, 8), RadicalScalar(ONE, 2)
    assert [str(v) for v in (r8 / r2, r2 / r8, r8 / 2, r2 / Scalar(0, 1))] == [
        "2", "1/2", "(1/2)*sqrt(8)", "(-1*i)*sqrt(2)"]


def test_make_builds_what_the_public_constructor_builds():
    # every internal result comes from _make: it prints, compares and hashes
    # as RadicalScalar(c, n) does, and its radicand is an int
    # and it reads an int or Fraction coefficient as sc does
    for c in (ONE, Scalar(-2, 1, 3), Scalar(0), Scalar(5, 0, 4), 1, -3, Fraction(1, 3)):
        for n in (1, 2, 3, 4, 8, 9, 12, 50):
            made, public = haar._make(sc(c), n), RadicalScalar(c, n)
            assert (str(made), repr(made), hash(made)) == (str(public), repr(public), hash(public))
            assert made == public and public == made
            assert type(made.radicand) is int and type(public.radicand) is int
            assert type(public.coeff) is Scalar
    assert [str(RadicalScalar(1, 2)), str(RadicalScalar(Fraction(1, 3), 3))] == [
        "(1)*sqrt(2)", "(1/3)*sqrt(3)"]
    # sqrt(3/4) = sqrt(12)/4
    assert str(haar._make(Scalar(1, 0, 4), 12)) == str(RadicalScalar(ONE, Fraction(3, 4))) == (
        "(1/4)*sqrt(12)")
    assert RadicalScalar(Scalar(2), Fraction(9, 4)).radicand == 1


def test_product_order_decides_the_printed_radicand():
    # as the power docstring says: only a whole perfect square collapses
    r2, r3 = RadicalScalar(ONE, 2), RadicalScalar(ONE, 3)
    left, right = (r2 * r2) * r3, (r2 * r3) * r2
    assert (str(left), str(right)) == ("(2)*sqrt(3)", "(1)*sqrt(12)")
    assert left == right and hash(left) == hash(right)


@pytest.mark.parametrize("radicand", [0, -4, Fraction(-1, 9)])
def test_radicand_must_be_positive(radicand):
    # a zero radicand would otherwise pass as the perfect square 0
    with pytest.raises(InvalidInputError, match="radicand must be positive"):
        RadicalScalar(ONE, radicand)


@pytest.mark.parametrize("coeff,radicand,message", [
    (0.5, 2, "not a scalar: 0.5"),
    ("1", 2, "not a scalar: '1'"),
    (ONE, 0.5, "radicand must be an int or a Fraction, got 0.5"),
    (ONE, "3", "radicand must be an int or a Fraction, got '3'"),
    (ONE, Scalar(2), "radicand must be an int or a Fraction, got Scalar(2)"),
], ids=["float-coeff", "str-coeff", "float-radicand", "str-radicand", "scalar-radicand"])
def test_constructor_takes_only_scalars_and_rational_radicands(coeff, radicand, message):
    with pytest.raises(InvalidInputError) as info:
        RadicalScalar(coeff, radicand)
    assert str(info.value) == message


def test_equal_radicals_hash_equal():
    # sqrt(12) = 2 sqrt(3), and a radicand of 1 is the Scalar itself
    assert len({RadicalScalar(ONE, 12), RadicalScalar(Scalar(2), 3)}) == 1
    assert len({RadicalScalar(Scalar(2)), Scalar(2)}) == 1
    assert len({RadicalScalar(ONE, 12), RadicalScalar(Scalar(-2), 3)}) == 2


def test_equal_numbers_hash_equal():
    # seeded Scalars, ints, Fractions, radicals built several ways, and
    # jets built along different routes: equal values hash alike
    rng = random.Random("equal-hash")
    x, y = Jet.variables([Scalar(2), Scalar(1, 1, 3)])
    pool = [x * y, y * x, (x + y) - y, x, 2 * x - x, x / y * y, y.inverse().inverse()]
    for _ in range(30):
        c = exact_scalar(rng, 3)
        k, q = rng.randint(1, 3), rng.choice((2, 3, 6))
        pool += [c, RadicalScalar(c), RadicalScalar(c * k, q), RadicalScalar(c, q * k * k),
                 RadicalScalar(c * k, Fraction(q, k * k)) * k]
        if is_real(c):
            pool.append(c.real if c.d > 1 else c.a)
    assert sum(a == b for a in pool for b in pool) > len(pool) + 50
    assert [(a, b) for a in pool for b in pool if a == b and hash(a) != hash(b)] == []


def test_branch_guards():
    with pytest.raises(BranchViolationError):
        eta_from_zeta(*A2, [(0, 0), (1, -2), (0, 0)])  # 1 + z z = -1
    with pytest.raises(BranchViolationError):
        eta_from_zeta(*A2, [(0, 0), (Scalar(0, 1), 1), (0, 0)])  # complex s
    with pytest.raises(BranchViolationError):
        zeta_from_eta(*A2, [(0, 0), (2, 1), (0, 0)])  # 1 - y y = -1


def test_compact_round_trip_rational_chain():
    rng = random.Random(4)
    for family, rank, word in (A2, B2, C2):
        n = len(ordering_from_word(family, rank, word))
        eta = branch_pairs(rng, n)
        zeta, hshift, asq = zeta_from_eta(family, rank, word, eta)
        # engineered points keep every a rational, so no radicals leak
        assert all(isinstance(z, Scalar) for pair in zeta for z in pair)
        assert all(isinstance(v, Scalar) for v in hshift)
        for (ym, yp), s in zip(eta, asq):
            assert (ONE - sc(ym) * sc(yp)) == s.inverse()
        back, back_s = eta_from_zeta(family, rank, word, zeta)
        assert back_s == asq
        assert [(sc(a), sc(b)) for a, b in back] == [(sc(a), sc(b)) for a, b in eta]


def test_compact_round_trip_with_radicals():
    # a generic point needs radical bookkeeping but still returns exactly
    zeta = [(sc(1), sc(1)), (sc(1), sc(1)), (sc(1), sc(1))]
    eta, asq = eta_from_zeta(*A2, zeta)
    assert asq == [Scalar(2), Scalar(2), Scalar(2)]
    assert any(isinstance(v, RadicalScalar) for pair in eta for v in pair)
    back, _, back_asq = zeta_from_eta(*A2, eta)
    assert [(sc(a), sc(b)) for a, b in back] == zeta
    assert back_asq == asq


def test_pythagorean_slice_points():
    for idx in range(5):
        ym, yp = pythagorean_pair(idx)
        zeta, _, asq = zeta_from_eta("A", 1, (1,), [(ym, yp)])
        assert (ONE - ym * yp) == asq[0].inverse()
        assert unit_jacobian_check("A", 1, (1,), [(ym, yp)]) == ONE


def test_change_of_variables_determinant():
    rng = random.Random(12)
    for family, rank, word in (A2, B2):
        n = len(ordering_from_word(family, rank, word))
        eta = branch_pairs(rng, n)
        _, _, asq = zeta_from_eta(family, rank, word, eta)
        expected = ONE
        for s in asq:
            expected = expected * s ** 2
        assert eta_change_jacobian_det(family, rank, word, eta) == expected


def test_pullback_closed_form():
    rng = random.Random(21)
    for family, rank, word in (A2, C2):
        taus = ordering_from_word(family, rank, word)
        eta = branch_pairs(rng, len(taus))
        _, _, asq = zeta_from_eta(family, rank, word, eta)
        expected = ONE
        for tau, s in zip(taus, asq):
            expected = expected * s ** (delta(family, rank, tau) + 1)
        det = lebesgue_pullback_det(family, rank, word, eta)
        assert det == expected
        assert unit_jacobian_check(family, rank, word, eta) == ONE


def test_density_transport_identity():
    rng = random.Random(33)
    for family, rank, word in (A2, B2, C2):
        taus = ordering_from_word(family, rank, word)
        eta = branch_pairs(rng, len(taus))
        zeta, _, asq = zeta_from_eta(family, rank, word, eta)
        change = ONE
        carried = ONE
        for tau, s in zip(taus, asq):
            change = change * s ** 2
            carried = carried * s ** (2 * delta(family, rank, tau))
        assert haar_density(family, rank, word, zeta) * change == carried


def test_jet_chain_requires_perfect_squares():
    with pytest.raises(InvalidInputError):
        # 1 - y^- y^+ = 3/4 is positive but not a rational square
        unit_jacobian_check("A", 1, (1,), [(Scalar(1, 0, 2), Scalar(1, 0, 2))])


def test_complex_branch_point():
    # imaginary pair with real positive 1 - y^- y^+ = 16/25
    ym = Scalar(0, 3, 5)
    yp = Scalar(0, -3, 5)
    assert unit_jacobian_check("A", 1, (1,), [(ym, yp)]) == ONE
    assert unit_jacobian_check(*A2, [(ym, yp), (ym, yp), (ym, yp)]) == ONE


def counting_chain(monkeypatch) -> list:
    """Count the runs of the compact jet chain from here on."""
    runs = []
    chain = haar._jet_compact_chain

    def counted(plan, pairs):
        runs.append(plan.word)
        return chain(plan, pairs)

    monkeypatch.setattr(haar, "_jet_compact_chain", counted)
    monkeypatch.setattr(haar, "_last_pullback", [(None, None)])
    return runs


@pytest.mark.parametrize("first", [lebesgue_pullback_det, unit_jacobian_check])
def test_pullback_and_unit_ratio_share_one_chain(monkeypatch, first):
    runs = counting_chain(monkeypatch)
    eta = branch_pairs(random.Random(5), 4)
    second = unit_jacobian_check if first is lebesgue_pullback_det else lebesgue_pullback_det
    one, two = first(*B2, eta), second(*B2, eta)
    assert len(runs) == 1
    det, unit = (one, two) if first is lebesgue_pullback_det else (two, one)
    assert unit == ONE
    # a different point, word or family runs the chain again
    other = branch_pairs(random.Random(6), 4)
    assert unit_jacobian_check(*B2, other) == ONE
    assert unit_jacobian_check("B", 2, (2, 1, 2, 1), eta) == ONE
    assert unit_jacobian_check(*C2, eta) == ONE
    assert lebesgue_pullback_det(*B2, eta) == det
    assert len(runs) == 5


@pytest.mark.parametrize("point,error", [
    ([(0, 0), (2, 1), (0, 0)], BranchViolationError),  # 1 - y y = -1
    ([(0, 0), (Scalar(1, 0, 2), Scalar(1, 0, 2)), (0, 0)], InvalidInputError),  # 3/4
])
def test_pullback_errors_are_never_stored(monkeypatch, point, error):
    runs = counting_chain(monkeypatch)
    payloads = []
    for call in (lebesgue_pullback_det, unit_jacobian_check) * 2:
        with pytest.raises(error) as info:
            call(*A2, point)
        payloads.append(info.value.payload())
    assert len(runs) == 4
    assert all(p == payloads[0] for p in payloads)
    if error is InvalidInputError:
        assert "perfect rational square" in payloads[0]["message"]


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4)])
def test_pullback_matches_the_composite_jet_chain(monkeypatch, family, rank):
    # det d(zeta)/dy times the Jacobian at zeta equals one determinant of the
    # whole chain y -> zeta -> (l, u), which runs the jet forward on the
    # chain's jets, not on unit seeds
    rng = random.Random(f"haar/composite/{family}{rank}")
    for word in [canonical_word(family, rank)] + [random_reduced_word(family, rank, s) for s in (1, 2)]:
        eta = branch_pairs(rng, len(word))
        monkeypatch.setattr(haar, "_last_pullback", [(None, None)])
        assert lebesgue_pullback_det(family, rank, word, eta) == composite_pullback_det(
            family, rank, word, eta)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_change_det_is_the_product_of_its_diagonal_blocks(family, rank):
    # the library takes det d(zeta)/dy as a product of 2 x 2 blocks; the
    # reference runs the whole change over jets in all 2n coordinates and
    # takes the 2n x 2n determinant, at a real point and at one with an
    # imaginary pair, on the canonical word and two random ones
    rng = random.Random(f"haar/blocks/{family}{rank}")
    for word in [canonical_word(family, rank)] + [random_reduced_word(family, rank, s) for s in (1, 2)]:
        plan = word_plan(family, rank, word)
        n = len(word)
        imaginary = branch_pairs(rng, n)
        imaginary[rng.randrange(n)] = (Scalar(0, 3, 5), Scalar(0, -3, 5))
        for eta in (branch_pairs(rng, n), imaginary):
            zeta, det = wide_compact_chain(plan, eta)
            assert eta_change_jacobian_det(family, rank, word, eta) == det
            assert haar._jet_compact_chain(plan, plan.scalar_pairs(eta))[0] == [
                (zm.val, zp.val) for zm, zp in zeta]
            # the premise: pair j of zeta moves with pair j and only with the
            # pairs k >= j, variables k and n + k, and some pair moves with a
            # later one, so the blocks above the diagonal are not all zero
            reads = [{k % n for z in pair for k in z.nums} for pair in zeta]
            assert all(min(r) == j for j, r in enumerate(reads))
            assert any(len(r) > 1 for r in reads)


@pytest.mark.parametrize("family,rank,word", [("A", 4, (1, 2)), ("A", 3, (1, 3)),
                                              ("D", 3, (1, 2, 3, 2))])
def test_pullback_refuses_a_word_shorter_than_w0(monkeypatch, family, rank, word):
    # jacobian_det_ad's word contract, before the compact chain seeds a jet
    def no_jets(cls, values):
        raise AssertionError("a jet was seeded")

    monkeypatch.setattr(Jet, "variables", classmethod(no_jets))
    eta = branch_pairs(random.Random(f"haar/short/{family}{rank}"), len(word))
    for call in (lebesgue_pullback_det, unit_jacobian_check):
        monkeypatch.setattr(haar, "_last_pullback", [(None, None)])
        with pytest.raises(InvalidWordError, match="not a word of the longest element"):
            call(family, rank, word, eta)
    monkeypatch.undo()
    assert eta_change_jacobian_det(family, rank, word, eta) != 0
    for call in (lebesgue_pullback_det, unit_jacobian_check):
        assert call(family, rank, (), []) == ONE


def test_jet_forward_runs_only_on_unit_seeds(monkeypatch):
    # the pullback and the unit ratio reach the jet forward only through
    # jacobian_det_ad, whose n variables are the unit seeds z^+_1, ..., z^+_n:
    # pair k joins as (l_k - c_k, z^+_k), the partials of its z^- all in
    # later variables, and the determinant has n columns; the compact jet
    # chain before it, the other reader of jets.jacobian_det, takes one
    # 2-column determinant per pair, its diagonal block
    join, jacobian_det = factorization._join_pair, jets.jacobian_det
    joins, widths = [], []

    def unit_seeds_only(t, factors, pair):
        k = ordering_from_word("B", 3, word).index(t.root)
        assert (pair[1].nums, pair[1].den) == ({k: (1, 0)}, 1), f"z^+ {k} is not a unit seed"
        assert all(j > k for j in getattr(pair[0], "nums", {})), f"z^- {k} moves with z^+ {k}"
        joins.append(k)
        return join(t, factors, pair)

    def n_columns(outputs, width):
        widths.append(width)
        return jacobian_det(outputs, width)

    monkeypatch.setattr(factorization, "_join_pair", unit_seeds_only)
    monkeypatch.setattr(jets, "jacobian_det", n_columns)
    word = random_reduced_word("B", 3, 4)
    eta = branch_pairs(random.Random("haar/unit-seeds"), len(word))
    det = ONE
    for tau, s in zip(ordering_from_word("B", 3, word), zeta_from_eta("B", 3, word, eta)[2]):
        det = det * s ** (delta("B", 3, tau) + 1)
    for call, expected in ((lebesgue_pullback_det, det), (unit_jacobian_check, ONE)):
        monkeypatch.setattr(haar, "_last_pullback", [(None, None)])
        assert call("B", 3, word, eta) == expected
    assert widths == ([2] * len(word) + [len(word)]) * 2
    assert joins == list(range(len(word) - 1, -1, -1)) * 2


def test_sqrt_of_off_the_branch_and_the_inverse_of_zero_raise():
    for value in (0, -4, Scalar(4, 1), Scalar(0, 4)):
        with pytest.raises(BranchViolationError, match="needs a positive real"):
            RadicalScalar.sqrt_of(value)
    assert str(RadicalScalar.sqrt_of(Fraction(1, 2))) == "(1/2)*sqrt(2)"
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        RadicalScalar(0, 3).inverse()


def test_radical_hands_an_operand_it_cannot_lift_to_the_other_side():
    r = RadicalScalar(ONE, 2)
    for method in (r.__sub__, r.__truediv__):
        assert method("1") is NotImplemented and method(1.5) is NotImplemented
    for op in (lambda: r - "1", lambda: r / "1", lambda: r ** 0.5, lambda: r ** Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()
