"""Root system data: roots, pairings, heights, and coroot weights.

Family A at rank n-1 models GL(n) with weight vectors of length n;
families B/C/D at rank r use length-r weight vectors.  All values are
integers and all identities are asserted exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rootfact import (
    InvalidInputError,
    delta,
    height,
    pairing,
    positive_roots,
    simple_root_coordinates,
    simple_roots,
)
from rootfact.rootsystem import MAX_RANK, _coefficients, check_family_rank

from helpers import coroot, simple_coroot_coordinates

FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
            ("B", 1), ("B", 2), ("B", 3),
            ("C", 1), ("C", 2), ("C", 3),
            ("D", 2), ("D", 3), ("D", 4)]


def expected_count(family: str, rank: int) -> int:
    if family == "A":
        n = rank + 1
        return n * (n - 1) // 2
    if family in ("B", "C"):
        return rank * rank
    return rank * (rank - 1)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_positive_root_count(family, rank):
    roots = positive_roots(family, rank)
    assert len(roots) == expected_count(family, rank)
    assert len(set(roots)) == len(roots)


def test_a2_roots_and_heights():
    roots = set(positive_roots("A", 2))
    assert roots == {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    assert sorted(height("A", 2, r) for r in roots) == [1, 1, 2]


def test_c1_single_long_root():
    roots = positive_roots("C", 1)
    assert roots == ((2,),)
    assert delta("C", 1, (2,)) == 1


def test_b2_roots():
    assert set(positive_roots("B", 2)) == {(1, 0), (1, 1), (0, 1), (-1, 1)}


def test_d_minimum_rank():
    with pytest.raises(InvalidInputError):
        positive_roots("D", 1)
    with pytest.raises(InvalidInputError):
        positive_roots("E", 2)


@pytest.mark.parametrize("family", "ABCD")
def test_rank_cap(family):
    check_family_rank(family, MAX_RANK)
    with pytest.raises(InvalidInputError, match=f"rank must be at most {MAX_RANK}"):
        check_family_rank(family, MAX_RANK + 1)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_self_pairing_is_two(family, rank):
    for alpha in positive_roots(family, rank):
        assert pairing(alpha, alpha) == 2


def test_a2_pairing_values():
    a12 = (1, -1, 0)
    a13 = (1, 0, -1)
    a23 = (0, 1, -1)
    assert pairing(a12, a13) == 1
    assert pairing(a12, a23) == -1


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_cartan_matrix_shape(family, rank):
    gammas = simple_roots(family, rank)
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            value = pairing(gi, gj)
            assert isinstance(value, int)
            if i == j:
                assert value == 2
            else:
                assert value <= 0


def test_delta_examples():
    assert delta("A", 3, (1, 0, 0, -1)) == 3
    assert delta("A", 2, (1, 0, -1)) == 2
    for family, rank in FAMILIES:
        for gamma in simple_roots(family, rank):
            assert delta(family, rank, gamma) == 1


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_delta_two_routes_agree(family, rank):
    # half-sum of pairings == sum of simple-coroot coefficients
    roots = positive_roots(family, rank)
    for alpha in roots:
        half_sum = Fraction(sum(pairing(beta, alpha) for beta in roots), 2)
        coords = simple_coroot_coordinates(family, rank, alpha)
        assert half_sum == sum(coords)
        assert delta(family, rank, alpha) == half_sum


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 3), ("D", 4)])
def test_simply_laced_delta_equals_height(family, rank):
    for alpha in positive_roots(family, rank):
        assert delta(family, rank, alpha) == height(family, rank, alpha)


@pytest.mark.parametrize("family,rank", FAMILIES)
def test_height_additive_on_root_sums(family, rank):
    roots = set(positive_roots(family, rank))
    for alpha in roots:
        for beta in roots:
            total = tuple(x + y for x, y in zip(alpha, beta))
            if total in roots:
                assert height(family, rank, total) == (
                    height(family, rank, alpha) + height(family, rank, beta))


def test_membership_errors():
    from rootfact import is_positive_root

    with pytest.raises(InvalidInputError):
        is_positive_root("A", 2, (5, 5, 5))
    assert is_positive_root("A", 2, (1, 0, -1))
    assert not is_positive_root("A", 2, (-1, 0, 1))
    with pytest.raises(InvalidInputError):
        simple_root_coordinates("A", 2, (1, 0, 0))
    with pytest.raises(InvalidInputError):
        pairing((1, 0), (3, 0))  # non-integral Cartan number


# -- the closed-form coefficients against a general rational solver ----

ORACLE_CONFIGS = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 8)]
                  + [("C", r) for r in range(1, 8)] + [("D", r) for r in range(2, 8)])


def _solve_exact(columns, target):
    # solve sum_k x_k * columns[k] == target over the rationals
    rows = len(target)
    cols = len(columns)
    m = [[Fraction(columns[k][i]) for k in range(cols)] + [Fraction(target[i])]
         for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [v / p for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    x = [Fraction(0)] * cols
    for i, c in enumerate(piv_cols):
        x[c] = m[i][cols]
    for i in range(r, rows):
        if m[i][cols] != 0:
            raise InvalidInputError("vector outside the root lattice span")
    return tuple(x)


def _oracle_integral(coeffs, message):
    if any(c.denominator != 1 for c in coeffs):
        raise InvalidInputError(message)
    return tuple(int(c) for c in coeffs)


def oracle_root_coordinates(family, rank, root):
    coeffs = _solve_exact(list(simple_roots(family, rank)), root)
    return _oracle_integral(coeffs, f"{root!r} is not in the root lattice of {family}{rank}")


def oracle_coroot_coordinates(family, rank, root):
    cols = [coroot(a) for a in simple_roots(family, rank)]
    coeffs = _solve_exact(cols, coroot(root))
    return _oracle_integral(coeffs, f"coroot of {root!r} is outside the coroot lattice")


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInputError as err:
        return type(err), str(err)


def oracle_vectors(family, rank):
    roots = positive_roots(family, rank)
    m = len(roots[0])
    rng = random.Random(f"{family}{rank}")
    randoms = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(60)]
    return list(roots) + [tuple(-c for c in r) for r in roots] + randoms


@pytest.mark.parametrize("family,rank", ORACLE_CONFIGS)
def test_closed_forms_match_solver(family, rank):
    for v in oracle_vectors(family, rank):
        assert outcome(simple_root_coordinates, family, rank, v) == outcome(
            oracle_root_coordinates, family, rank, v)
        if any(v):  # the solver divides by zero here; see the zero-vector test
            assert outcome(simple_coroot_coordinates, family, rank, v) == outcome(
                oracle_coroot_coordinates, family, rank, v)


@pytest.mark.parametrize("family,rank", ORACLE_CONFIGS)
def test_positive_roots_sorted_by_solver_height(family, rank):
    roots = positive_roots(family, rank)
    assert roots == tuple(sorted(roots, key=lambda r: (
        sum(oracle_root_coordinates(family, rank, r)), r)))


def test_wrong_length_vector_too_short():
    with pytest.raises(InvalidInputError, match="has 2 coordinates, A2 needs 3"):
        simple_root_coordinates("A", 2, (1, -1))


def test_wrong_length_vector_too_long():
    with pytest.raises(InvalidInputError, match="has 4 coordinates, B3 needs 3"):
        height("B", 3, (1, 0, 0, 0))


def test_zero_vector_has_no_coroot():
    assert simple_root_coordinates("B", 3, (0, 0, 0)) == (0, 0, 0)
    with pytest.raises(InvalidInputError, match="zero vector"):
        simple_coroot_coordinates("B", 3, (0, 0, 0))
    with pytest.raises(InvalidInputError, match="the zero vector has no coroot"):
        coroot((0, 0))


def test_pairing_with_zero_vector_has_no_coroot():
    with pytest.raises(InvalidInputError, match="the zero vector has no coroot"):
        pairing((1, 0), (0, 0))
    assert pairing((0, 0), (1, -1)) == 0


# -- the C and D halves stay in the integers ----------------------------

HALF_CONFIGS = ([("A", r) for r in range(2, 9)] + [("B", r) for r in range(2, 9)]
                + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)])


@pytest.mark.parametrize("family,rank", HALF_CONFIGS)
def test_root_coefficients_are_plain_ints(family, rank):
    for root in positive_roots(family, rank):
        coeffs = simple_root_coordinates(family, rank, root)
        assert all(type(c) is int for c in _coefficients(family, rank, root)), root
        assert all(type(c) is int for c in coeffs), root
        assert all(c >= 0 for c in coeffs) and any(coeffs), root
        assert type(height(family, rank, root)) is int
        assert height(family, rank, root) == sum(coeffs)


@pytest.mark.parametrize("family,vector,halves", [
    ("C", (1, 0, 2), [Fraction(3, 2), 2, 2]),
    ("D", (1, 0, 2), [Fraction(3, 2), Fraction(1, 2), 2]),
    ("D", (0, -1, 0), [Fraction(-1, 2), Fraction(-1, 2), 0]),
], ids=["C", "D", "D-negative"])
def test_an_odd_half_is_refused_with_the_lattice_message(family, vector, halves):
    assert _coefficients(family, 3, vector) == halves
    message = f"{vector!r} is not in the root lattice of {family}3"
    for fn in (simple_root_coordinates, height):
        with pytest.raises(InvalidInputError) as err:
            fn(family, 3, vector)
        assert str(err.value) == message
