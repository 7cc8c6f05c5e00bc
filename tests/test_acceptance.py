"""Acceptance battery: eight numbered criteria, one test each.

Every check is exact equality of Gaussian-rational scalars; there are
no tolerances anywhere.  Each criterion with a stated time budget
asserts its own wall-clock bound.  The terminal summary prints one
PASS/FAIL line per criterion (see conftest).

  1. GL(3) entry and inverse formulas for the word (1,2,1)
  2. GL(4) coordinate equations and bijection domain for (1,2,1,3,2,1)
  3. inverse o forward round trips across nine configurations
  4. Jacobian determinant three ways, plus the exponent identity
  5. reduced word counts against the closed forms
  6. canonical ordering golden files, byte for byte
  7. structural properties: grading, multilinearity, dependence,
     torus invariance, duality, the (2,1,2) exceptional variety,
     and the two triangular factorizers against each other
  8. compact-picture reformulation and volume identities
"""

from __future__ import annotations

import json
import pathlib
import random
import time

import pytest

from rootfact import (
    ExceptionalSetError,
    StratumError,
    canonical_ordering,
    canonical_word,
    delta,
    delta_identity_check,
    enumerate_reduced_words,
    eta_change_jacobian_det,
    eta_from_zeta,
    forward_map,
    haar_density,
    inverse_dual,
    inverse_map,
    is_reduced,
    jacobian_det_ad,
    jacobian_det_double_product,
    jacobian_det_formula,
    lebesgue_pullback_det,
    longest_element,
    ordering_from_word,
    printed_count_bc,
    random_reduced_word,
    simple_root_coordinates,
    standard_count_a,
    transpose_dual,
    unit_jacobian_check,
    validate_ordering,
    word_evaluate,
    zeta_from_eta,
)
from rootfact.linalg import ldu, ldu_minors, mat_mul
from rootfact.matrices import extract_lower, extract_upper
from rootfact.scalar import ONE, ZERO, Scalar, sc
from rootfact.serialization import dumps_canonical

from conftest import (
    branch_pairs,
    exact_scalar,
    generic_pairs,
    pairs_equal,
    pairs_with_s_zero,
    pythagorean_pair,
    torus_diag,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

ROUND_TRIP_CONFIGS = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 1), ("B", 2), ("C", 1), ("C", 2), ("D", 3),
)

GOLDEN_CONFIGS = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 1), ("B", 2), ("B", 3),
    ("C", 1), ("C", 2), ("C", 3),
    ("D", 3), ("D", 4),
)


def heights(family: str, rank: int, taus) -> list[int]:
    return [sum(simple_root_coordinates(family, rank, t)) for t in taus]


def coords_at(family, rank, word, pairs):
    res = forward_map(family, rank, word, pairs)
    return list(res.l) + list(res.u)


def test_criterion_1():
    started = time.monotonic()
    rng = random.Random(101)
    word = (1, 2, 1)
    for _ in range(25):
        pairs = generic_pairs(rng, 3)
        (z1m, z1p), (z2m, z2p), (z3m, z3p) = pairs
        res = forward_map("A", 2, word, pairs)
        l1, l2, l3 = res.l
        u1, u2, u3 = res.u
        # ordered coordinates in terms of the input pairs
        assert l1 == z1m + z2m * z3p and l2 == z2m and l3 == z3m
        assert u1 == z1p and u2 == z2p and u3 == -z1m * z2p + z3p
        # matrix entries of the unitriangular factors
        lower, _, upper = ldu(res.matrix)
        assert lower[1][0] == l1
        assert lower[2][0] == l2 + l1 * l3
        assert lower[2][1] == l3
        assert upper[0][1] == u1 and upper[0][2] == u2 and upper[1][2] == u3
        # inverse formulas in ordered coordinates
        s2 = ONE + l2 * u2
        assert res.s[1] == s2
        assert (l1 - l2 * u3) / s2 == z1m
        assert (u2 * l1 + u3) / s2 == z3p
        # the six inverse formulas in matrix entries
        a, b, c = lower[1][0], lower[2][0], lower[2][1]
        p, q, r = upper[0][1], upper[0][2], upper[1][2]
        big_p = ONE + b * q - a * c * q
        assert big_p == s2
        formulas = [
            (a - b * r + a * c * r) / big_p,
            b - a * c,
            c,
            p,
            q,
            (q * a + r) / big_p,
        ]
        assert formulas == [z1m, z2m, z3m, z1p, z2p, z3p]
        # the library inverse agrees
        back = inverse_map("A", 2, word, res.l, res.u, h=res.h)
        assert pairs_equal(back, pairs)
    # frozen integer point
    res = forward_map("A", 2, word, [(1, 4), (2, 5), (3, 6)])
    assert list(res.l) == [Scalar(13), Scalar(2), Scalar(3)]
    assert list(res.u) == [Scalar(4), Scalar(5), Scalar(1)]
    assert list(res.s) == [Scalar(5), Scalar(11), Scalar(19)]
    back = inverse_map("A", 2, word, res.l, res.u, h=res.h)
    assert pairs_equal(back, [(1, 4), (2, 5), (3, 6)])
    assert time.monotonic() - started < 1.0


def test_criterion_2():
    started = time.monotonic()
    rng = random.Random(202)
    word = (1, 2, 1, 3, 2, 1)

    def check_equations(pairs):
        zm = [sc(a) for a, _ in pairs]
        zp = [sc(b) for _, b in pairs]
        res = forward_map("A", 3, word, pairs)
        l, u = list(res.l), list(res.u)
        # six trivial equations
        assert u[0] == zp[0] and u[1] == zp[1] and u[3] == zp[3]
        assert l[3] == zm[3] and l[4] == zm[4] and l[5] == zm[5]
        # six nontrivial equations
        assert u[2] == zp[2] - zm[0] * u[1]
        assert u[4] == zp[4] - zm[0] * u[3] - zm[1] * zp[2] * u[3]
        assert u[5] == zp[5] - zm[1] * u[3] - zm[2] * zp[4]
        assert l[0] == zm[0] + zm[1] * zp[2] + l[3] * zp[4]
        assert l[1] == zm[1] + l[3] * zp[5] - zm[2] * l[3] * zp[4]
        assert l[2] == zm[2] + l[4] * zp[5]
        return res

    for _ in range(25):
        check_equations(generic_pairs(rng, 6))

    # bijection domain: the Jacobian vanishes exactly when one of
    # s_2, s_4, s_5 does; the other three factors never matter
    critical = {2, 4, 5}
    boundary_sets = [
        {2}, {4}, {5}, {2, 4}, {2, 5}, {4, 5}, {2, 4, 5}, {1, 2}, {4, 6},
        {1}, {3}, {6}, {1, 3}, {1, 6}, {1, 3, 6},
    ]
    points = [(pairs_with_s_zero(rng, 6, sorted(zs)), zs) for zs in boundary_sets]
    points += [(generic_pairs(rng, 6), set()) for _ in range(10)]
    assert len(points) == 25
    for pairs, zeros in points:
        res = check_equations(pairs)
        for k in range(6):
            assert res.s[k].is_zero() == ((k + 1) in zeros)
        jac = jacobian_det_formula("A", 3, word, pairs)
        assert jac.is_zero() == bool(zeros & critical)
        if not zeros:
            back = inverse_map("A", 3, word, res.l, res.u, h=res.h)
            assert pairs_equal(back, pairs)
        elif zeros & critical:
            with pytest.raises(ExceptionalSetError):
                inverse_map("A", 3, word, res.l, res.u, h=res.h)
    assert time.monotonic() - started < 2.0


def test_criterion_3():
    started = time.monotonic()
    rng = random.Random(303)
    for family, rank in ROUND_TRIP_CONFIGS:
        word = canonical_word(family, rank)
        n = len(word)
        jobs = [(word, 50)]
        jobs += [(random_reduced_word(family, rank, seed), 10) for seed in range(1, 6)]
        for w, count in jobs:
            assert is_reduced(family, rank, w)
            for _ in range(count):
                pairs = generic_pairs(rng, n)
                res = forward_map(family, rank, w, pairs)
                back = inverse_map(family, rank, w, res.l, res.u, h=res.h)
                assert pairs_equal(back, pairs)
    assert time.monotonic() - started < 60.0


def test_criterion_4():
    started = time.monotonic()
    rng = random.Random(404)
    for family, rank in ROUND_TRIP_CONFIGS:
        words = [canonical_word(family, rank)]
        words += [random_reduced_word(family, rank, seed) for seed in range(1, 6)]
        n = len(words[0])
        for i in range(100):
            word = words[i % len(words)]
            pairs = generic_pairs(rng, n, span=3)
            a = jacobian_det_formula(family, rank, word, pairs)
            b = jacobian_det_double_product(family, rank, word, pairs)
            c = jacobian_det_ad(family, rank, word, pairs)
            assert a == b == c
    # exponent identity for every reduced word, exhaustively
    for family, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)):
        for word in enumerate_reduced_words(family, rank):
            assert delta_identity_check(family, rank, word)
    assert time.monotonic() - started < 60.0


def test_criterion_5(acceptance_notes):
    started = time.monotonic()
    for rank, expected in ((2, 2), (3, 16), (4, 768)):
        words = enumerate_reduced_words("A", rank)
        assert len(words) == expected == standard_count_a(rank + 1)
    b_count = len(enumerate_reduced_words("B", 2))
    c_count = len(enumerate_reduced_words("C", 2))
    assert b_count == c_count
    printed = printed_count_bc(2)
    acceptance_notes.append(
        f"criterion 5: rank-2 doubled-family enumeration finds {b_count} "
        f"reduced words; the printed closed form gives {printed} "
        f"(discrepancy reported, not asserted)"
    )
    assert time.monotonic() - started < 30.0


def test_criterion_6():
    started = time.monotonic()
    for family, rank in GOLDEN_CONFIGS:
        word = canonical_word(family, rank)
        assert is_reduced(family, rank, word)
        assert word_evaluate(family, rank, word) == longest_element(family, rank)
        ordering = canonical_ordering(family, rank)
        assert ordering == ordering_from_word(family, rank, word)
        assert validate_ordering(family, rank, ordering) == word
        payload = {"family": family, "ordering": ordering, "rank": rank, "word": word}
        golden = (GOLDEN_DIR / f"{family}{rank}.json").read_bytes()
        assert dumps_canonical(payload).encode("utf-8") == golden
    assert time.monotonic() - started < 5.0


def test_criterion_7():
    started = time.monotonic()
    rng = random.Random(707)

    # weight grading: scaling pair k by the torus character of its
    # root rescales each output coordinate by the character of its own
    for family, rank, t in (("A", 2, Scalar(2)), ("B", 2, Scalar(3))):
        word = canonical_word(family, rank)
        taus = ordering_from_word(family, rank, word)
        hts = heights(family, rank, taus)
        pairs = generic_pairs(rng, len(taus))
        res = forward_map(family, rank, word, pairs)
        scaled = [
            (sc(zm) * t ** h, sc(zp) * t ** (-h))
            for (zm, zp), h in zip(pairs, hts)
        ]
        graded = forward_map(family, rank, word, scaled)
        for j, h in enumerate(hts):
            assert graded.l[j] == res.l[j] * t ** h
            assert graded.u[j] == res.u[j] * t ** (-h)

    # multilinearity: every output coordinate is affine in each slot
    for family, rank in (("A", 3), ("D", 3)):
        word = canonical_word(family, rank)
        n = len(word)
        base = generic_pairs(rng, n)
        for k in range(n):
            for side in (0, 1):
                a, b = exact_scalar(rng), exact_scalar(rng)

                def at(value):
                    pairs = [list(map(sc, p)) for p in base]
                    pairs[k][side] = value
                    return coords_at(family, rank, word, pairs)

                fa, fb = at(a), at(b)
                fsum, fzero = at(a + b), at(ZERO)
                assert [x + y for x, y in zip(fa, fb)] == [
                    x + y for x, y in zip(fsum, fzero)
                ]

    # dependence structure: coordinate j sees pair k only from its
    # own side of the ordering
    for family, rank in (("A", 3), ("B", 2)):
        word = canonical_word(family, rank)
        n = len(word)
        base = generic_pairs(rng, n)
        res = forward_map(family, rank, word, base)
        for k in range(n):
            moved = [list(map(sc, p)) for p in base]
            moved[k] = [exact_scalar(rng), exact_scalar(rng)]
            res2 = forward_map(family, rank, word, moved)
            for j in range(n):
                if j >= k:
                    assert res2.l[j] - moved[j][0] == res.l[j] - sc(base[j][0])
                if j <= k:
                    assert res2.u[j] - moved[j][1] == res.u[j] - sc(base[j][1])

    # torus invariance: the triangular factorization of the product
    # returns exactly the torus diagonal the factorization carries
    for family, rank in (("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)):
        word = canonical_word(family, rank)
        pairs = generic_pairs(rng, len(word))
        res = forward_map(family, rank, word, pairs, h=torus_diag(family, rank, rng))
        lower, d, upper = ldu(res.matrix)
        assert list(d) == list(res.h)
        assert list(extract_lower(family, rank, res.taus, lower)) == list(res.l)
        assert list(extract_upper(family, rank, res.taus, upper)) == list(res.u)

    # duality: the dual coordinates with their torus twist rebuild
    # sigma of the inverse matrix
    for family, rank in (("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)):
        word = canonical_word(family, rank)
        pairs = generic_pairs(rng, len(word))
        eta, hdual = transpose_dual(family, rank, word, pairs)
        g = forward_map(family, rank, word, pairs).matrix
        dual_matrix = forward_map(family, rank, word, eta, h=hdual).matrix
        assert dual_matrix == inverse_dual(family, rank, g)

    # exceptional variety of the word (2,1,2): the inverse denominator
    # is the degree-three entry polynomial below, equal to s_2 on the
    # image, and the inverse fails exactly on its zero set
    word = (2, 1, 2)

    def standard_entries(res):
        l1, l2, l3 = res.l
        u1, u2, u3 = res.u
        return (l3, l2, l1), (u3, u2 + u3 * u1, u1)

    for _ in range(25):
        pairs = generic_pairs(rng, 3)
        res = forward_map("A", 2, word, pairs)
        (l21, l31, l32), (u12, u13, u23) = standard_entries(res)
        lower, _, upper = ldu(res.matrix)
        assert (lower[1][0], lower[2][0], lower[2][1]) == (l21, l31, l32)
        assert (upper[0][1], upper[0][2], upper[1][2]) == (u12, u13, u23)
        p_plus = ONE + l31 * u13 - l31 * u12 * u23
        assert p_plus == res.s[1]
        assert not p_plus.is_zero()
        back = inverse_map("A", 2, word, res.l, res.u, h=res.h)
        assert pairs_equal(back, pairs)
    for _ in range(5):
        pairs = pairs_with_s_zero(rng, 3, [2])
        res = forward_map("A", 2, word, pairs)
        (l21, l31, l32), (u12, u13, u23) = standard_entries(res)
        p_plus = ONE + l31 * u13 - l31 * u12 * u23
        assert p_plus.is_zero()
        with pytest.raises(ExceptionalSetError):
            inverse_map("A", 2, word, res.l, res.u, h=res.h)

    # the two triangular factorizers agree on 50 random products
    for _ in range(50):
        lower = [[ONE if i == j else (exact_scalar(rng) if i > j else ZERO)
                  for j in range(4)] for i in range(4)]
        upper = [[ONE if i == j else (exact_scalar(rng) if i < j else ZERO)
                  for j in range(4)] for i in range(4)]
        d = []
        while len(d) < 4:
            x = exact_scalar(rng)
            if not x.is_zero():
                d.append(x)
        g = mat_mul(mat_mul(lower, [[d[i] if i == j else ZERO for j in range(4)]
                                    for i in range(4)]), upper)
        for factorizer in (ldu, ldu_minors):
            got_l, got_d, got_u = factorizer(g)
            assert got_l == lower and got_u == upper
            assert list(got_d) == d
    singular = [[1, 1, 0], [1, 1, 1], [0, 1, 0]]
    for factorizer in (ldu, ldu_minors):
        with pytest.raises(StratumError):
            factorizer([[sc(x) for x in row] for row in singular])
    assert time.monotonic() - started < 60.0


def test_criterion_8():
    rng = random.Random(808)
    plan = [("A", 1)] * 2 + [("A", 2)] * 4 + [("B", 2)] * 4 + \
           [("C", 2)] * 4 + [("D", 3)] * 3 + [("A", 3)] * 3
    assert len(plan) == 20
    for idx, (family, rank) in enumerate(plan):
        word = canonical_word(family, rank)
        taus = ordering_from_word(family, rank, word)
        n = len(taus)
        kind = idx % 3
        if kind == 0:
            eta = branch_pairs(rng, n)
        elif kind == 1:
            eta = [pythagorean_pair((idx + j) % 5) for j in range(n)]
        else:
            eta = [(Scalar(0, 3, 5), Scalar(0, -3, 5))] * n
        zeta, hshift, asq = zeta_from_eta(family, rank, word, eta)
        # positive-branch identity, position by position
        for (ym, yp), (zm, zp), s in zip(eta, zeta, asq):
            assert (ONE - sc(ym) * sc(yp)).inverse() == s
            assert ONE + sc(zm) * sc(zp) == s
        back, back_asq = eta_from_zeta(family, rank, word,
                                       [(sc(a), sc(b)) for a, b in zeta])
        assert back_asq == asq
        assert pairs_equal([(sc(a), sc(b)) for a, b in back],
                           [(sc(a), sc(b)) for a, b in eta])
        # density transport and the volume identities
        deltas = [delta(family, rank, tau) for tau in taus]
        change = ONE
        carried = ONE
        pullback = ONE
        for s, dl in zip(asq, deltas):
            change = change * s ** 2
            carried = carried * s ** (2 * dl)
            pullback = pullback * s ** (dl + 1)
        zeta_pairs = [(sc(a), sc(b)) for a, b in zeta]
        assert haar_density(family, rank, word, zeta_pairs) * change == carried
        assert eta_change_jacobian_det(family, rank, word, eta) == change
        assert lebesgue_pullback_det(family, rank, word, eta) == pullback
        assert unit_jacobian_check(family, rank, word, eta) == ONE
