"""Weyl group elements, reduced words, orderings, and counting.

Words list 1-based simple indices with the first letter acting first;
the induced ordering applies the prefix reflections innermost first.
Exhaustive enumerations at small rank double as oracles for the
ordering/validation round trip.
"""

from __future__ import annotations

import math
import types

import pytest

from rootfact import (
    BudgetExceededError,
    InvalidInputError,
    InvalidWordError,
    WeylElement,
    canonical_ordering,
    canonical_word,
    count_reduced_words,
    deterministic_reduced_word,
    enumerate_reduced_words,
    identity_element,
    is_positive_root,
    is_reduced,
    longest_element,
    ordering_from_word,
    pairing,
    positive_roots,
    random_reduced_word,
    simple_reflection,
    simple_roots,
    standard_count_a,
    printed_count_bc,
    validate_ordering,
    word_evaluate,
)
from rootfact import weyl
from rootfact.rootsystem import MAX_RANK
from rootfact.weyl import MAX_COUNTED_ELEMENTS

from helpers import length

A2_ORDERING = ((1, -1, 0), (1, 0, -1), (0, 1, -1))
A3_ORDERING = ((1, -1, 0, 0), (1, 0, -1, 0), (0, 1, -1, 0),
               (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))
C3_WORD = (1, 2, 1, 2, 3, 2, 1, 2, 3)


def test_simple_reflection_action():
    s1 = simple_reflection("A", 2, 1)
    assert s1.act_root((0, 1, -1)) == (1, 0, -1)
    assert identity_element("A", 2).act_root((1, 0, -1)) == (1, 0, -1)
    assert simple_reflection("B", 2, 1).act_root((1, 0)) == (-1, 0)


def test_length():
    assert length(identity_element("A", 2)) == 0
    assert length(longest_element("A", 2)) == 3
    assert length(longest_element("B", 2)) == 4


def test_longest_element():
    assert longest_element("A", 2).images == (3, 2, 1)
    assert length(longest_element("A", 1)) == 1
    w0 = longest_element("C", 2)
    for alpha in positive_roots("C", 2):
        assert w0.act_root(alpha) == tuple(-c for c in alpha)
    for family, rank in [("A", 3), ("B", 2), ("D", 3)]:
        w0 = longest_element(family, rank)
        flips = sum(
            not any(w0.act_root(a) == b for b in positive_roots(family, rank))
            for a in positive_roots(family, rank))
        assert flips == len(positive_roots(family, rank))


def test_ordering_from_word_examples():
    assert ordering_from_word("A", 2, (1, 2, 1)) == A2_ORDERING
    assert ordering_from_word("A", 2, (2,)) == ((0, 1, -1),)
    assert ordering_from_word("A", 3, (1, 2, 1, 3, 2, 1)) == A3_ORDERING


def test_ordering_rejects_non_reduced():
    with pytest.raises(InvalidWordError):
        ordering_from_word("A", 2, (1, 1, 2))
    with pytest.raises(InvalidWordError):
        ordering_from_word("A", 2, (3,))  # index out of range


def test_validate_ordering():
    assert validate_ordering("A", 2, A2_ORDERING) == (1, 2, 1)
    assert validate_ordering("C", 3, ordering_from_word("C", 3, C3_WORD)) == C3_WORD
    with pytest.raises(InvalidWordError) as info:
        validate_ordering("A", 2, ((1, 0, -1), (1, -1, 0), (0, 1, -1)))
    assert info.value.index == 1


def test_canonical_words():
    assert canonical_word("A", 3) == (1, 2, 1, 3, 2, 1)
    assert canonical_word("A", 1) == (1,)
    assert canonical_word("B", 2) == (1, 2, 1, 2)
    assert canonical_word("C", 3) == C3_WORD
    assert canonical_word("D", 3) == (1, 2, 3, 2, 1, 3)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 1), ("B", 2), ("B", 3),
    ("C", 1), ("C", 2), ("C", 3), ("D", 3), ("D", 4)])
def test_canonical_word_reduced_and_longest(family, rank):
    word = canonical_word(family, rank)
    assert is_reduced(family, rank, word)
    assert word_evaluate(family, rank, word).images == longest_element(family, rank).images
    taus = canonical_ordering(family, rank)
    assert taus == ordering_from_word(family, rank, word)
    assert validate_ordering(family, rank, taus) == word


def test_enumeration_small():
    assert enumerate_reduced_words("A", 2) == [(1, 2, 1), (2, 1, 2)]
    assert enumerate_reduced_words("A", 2, w=identity_element("A", 2)) == [()]
    words = enumerate_reduced_words("A", 3)
    assert len(words) == 16
    assert words == sorted(words)
    assert len(set(words)) == 16
    for word in words:
        assert is_reduced("A", 3, word)
        assert word_evaluate("A", 3, word).images == longest_element("A", 3).images


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(weyl, "WORD_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        enumerate_reduced_words("A", 4)
    monkeypatch.setattr(weyl, "WORD_BUDGET", 16)
    assert len(enumerate_reduced_words("A", 3)) == 16
    monkeypatch.setattr(weyl, "WORD_BUDGET", 15)
    with pytest.raises(BudgetExceededError):
        enumerate_reduced_words("A", 3)


def test_element_bound_is_exact(monkeypatch):
    # counting the words of w_0 meets every element of the group, 24 for
    # A3, and refuses only more than the bound
    monkeypatch.setattr(weyl, "MAX_COUNTED_ELEMENTS", 24)
    assert count_reduced_words(longest_element("A", 3)) == 16
    monkeypatch.setattr(weyl, "MAX_COUNTED_ELEMENTS", 23)
    with pytest.raises(InvalidInputError, match="meets more than 23 group elements"):
        count_reduced_words(longest_element("A", 3))


@pytest.mark.parametrize("family,rank,letters", [("A", 44, 990), ("B", 32, 1024), ("A", 7, 28)])
def test_enumeration_above_the_cap(family, rank, letters):
    # A44 ran past 30 s in process before the library had a bound of its
    # own; past the old 25-letter cap the element bound refuses A44 and B32,
    # and the count refuses the 48,608,795,688,960 words of A7 up front
    assert length(longest_element(family, rank)) == letters > 25
    if (family, rank) == ("A", 7):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_reduced_words(family, rank)
        assert str(err.value) == "48608795688960 reduced words, more than 500000"
        return
    with pytest.raises(InvalidInputError) as err:
        enumerate_reduced_words(family, rank)
    assert str(err.value) == (f"counting the reduced words of this {family}{rank} element meets "
                              f"more than {MAX_COUNTED_ELEMENTS} group elements")


def test_enumeration_of_a_short_element_at_a_high_rank():
    w = word_evaluate("A", 44, (1, 2))
    assert enumerate_reduced_words("A", 44, w=w) == [(1, 2)]


def test_standard_counts():
    assert standard_count_a(2) == 1
    assert standard_count_a(3) == 2
    assert standard_count_a(4) == 16
    assert standard_count_a(5) == 768


def test_standard_count_of_one_symbol_and_the_refusal_below():
    # one symbol: the order-reversing permutation is the identity, whose
    # one reduced word is the empty word
    assert standard_count_a(1) == 1
    with pytest.raises(InvalidInputError, match="^need n >= 1$"):
        standard_count_a(0)


def test_printed_count_values():
    # the printed hyperoctahedral formula, evaluated exactly, is an int at
    # every rank here, even where it is not the count of reduced words
    expected = {1: 1, 2: 24, 3: 30240, 4: 2421619200, 5: 17810306946432000}
    for rank, value in expected.items():
        out = printed_count_bc(rank)
        assert type(out) is int and out == value


def test_printed_count_divides_exactly_up_to_max_rank(monkeypatch):
    # (n^2)! is a multiple of the printed denominator at every rank the
    # library takes; a remainder raises, never floors
    for rank in range(1, MAX_RANK + 1):
        out = printed_count_bc(rank)
        assert type(out) is int and out > 0
    factorial = math.factorial
    monkeypatch.setattr(weyl, "math", types.SimpleNamespace(
        prod=math.prod, factorial=lambda n: factorial(n) + 1))
    with pytest.raises(ArithmeticError, match="^the printed count is not an integer at rank 3$"):
        printed_count_bc(3)


def group(family: str, rank: int) -> list[WeylElement]:
    """Every element of the Weyl group, by closing the identity under the
    simple reflections."""
    seen = {identity_element(family, rank)}
    todo = list(seen)
    while todo:
        w = todo.pop()
        for i in range(1, rank + 1):
            v = w * simple_reflection(family, rank, i)
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return sorted(seen, key=lambda w: w.images)


@pytest.mark.parametrize("family,rank,order", [("A", 3, 24), ("B", 3, 48), ("C", 3, 48),
                                               ("D", 4, 192)])
def test_count_equals_the_enumeration_on_every_element(family, rank, order):
    elements = group(family, rank)
    assert len(elements) == order
    for w in elements:
        words = enumerate_reduced_words(family, rank, w=w)
        assert len(set(words)) == len(words) == count_reduced_words(w)
        assert all(len(word) == length(w) and word_evaluate(family, rank, word) == w
                   for word in words)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("D", 5)])
def test_right_descents_are_the_simple_roots_sent_negative(family, rank):
    simples = simple_roots(family, rank)
    for w in group(family, rank):
        assert weyl._descents(family, rank, w.images) == [
            i for i, a in enumerate(simples, start=1)
            if not is_positive_root(family, rank, w.act_root(a))]


@pytest.mark.parametrize("rank", range(1, 8))
def test_count_of_the_longest_element_a(rank):
    assert count_reduced_words(longest_element("A", rank)) == standard_count_a(rank + 1)


@pytest.mark.parametrize("family,rank,count", [
    ("B", 5, 701149020), ("C", 5, 701149020), ("D", 5, 12985968), ("D", 6, 4814069133600),
    ("B", 6, 1671643033734960), ("C", 6, 1671643033734960)])
def test_count_of_the_longest_element_bcd(family, rank, count):
    assert count_reduced_words(longest_element(family, rank)) == count


@pytest.mark.parametrize("family", "ABCD")
def test_simple_reflections_act_by_the_cartan_matrix(family):
    # s_i(a_j) = a_j - a_j(h_i) a_i on every simple root
    for rank in range(2 if family == "D" else 1, 13):
        simples = simple_roots(family, rank)
        for i, a in enumerate(simples, start=1):
            s = simple_reflection(family, rank, i)
            for b in simples:
                assert s.act_root(b) == tuple(x - pairing(b, a) * y for x, y in zip(b, a))


@pytest.mark.parametrize("family", "ABCD")
def test_longest_element_closed_form_is_the_top_of_the_climb(family):
    # w0 is the one element with no right ascent: it sends every simple root negative
    for rank in range(2 if family == "D" else 1, 13):
        w0 = longest_element(family, rank)
        assert not any(is_positive_root(family, rank, w0.act_root(a))
                       for a in simple_roots(family, rank))


@pytest.mark.parametrize("family,rank", [("A", 44), ("A", 100), ("D", 99)])
def test_count_refuses_large_groups(family, rank):
    # the count walks a length at a time, so no recursion depth grows with
    # the rank; the element bound refuses before the walk gets long
    with pytest.raises(InvalidInputError) as err:
        count_reduced_words(longest_element(family, rank))
    assert str(err.value).endswith(f"more than {MAX_COUNTED_ELEMENTS} group elements")


def test_bc_share_words_but_not_orderings():
    words_b = enumerate_reduced_words("B", 2)
    words_c = enumerate_reduced_words("C", 2)
    assert words_b == words_c == [(1, 2, 1, 2), (2, 1, 2, 1)]
    assert printed_count_bc(2) != len(words_b)  # reported elsewhere, never asserted equal
    assert canonical_ordering("B", 2) != canonical_ordering("C", 2)


def square_tableaux(n: int) -> int:
    """Standard Young tableaux of the n x n square by the hook-length
    formula; the cell (i, j) has hook length i + j - 1."""
    hooks = math.prod(i + j - 1 for i in range(1, n + 1) for j in range(1, n + 1))
    return math.factorial(n * n) // hooks


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("B", 3), ("C", 3), ("B", 4)])
def test_bc_longest_word_count_is_square_tableaux(family, rank):
    # Haiman 1992: reduced words of the B_n / C_n longest element are
    # equinumerous with standard Young tableaux of the n x n square
    assert [square_tableaux(n) for n in (2, 3, 4)] == [2, 42, 24024]
    assert len(enumerate_reduced_words(family, rank)) == square_tableaux(rank)


def test_deterministic_and_random_words():
    w0 = longest_element("A", 3)
    det = deterministic_reduced_word(w0)
    assert is_reduced("A", 3, det)
    assert word_evaluate("A", 3, det).images == w0.images
    first = random_reduced_word("A", 3, 7)
    assert first == random_reduced_word("A", 3, 7)  # seed-stable
    assert is_reduced("A", 3, first)
    assert word_evaluate("A", 3, first).images == w0.images
    assert len({random_reduced_word("B", 2, seed) for seed in range(8)}) > 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 2)])
def test_every_longest_word_round_trips_through_ordering(family, rank):
    roots = set(positive_roots(family, rank))
    for word in enumerate_reduced_words(family, rank):
        taus = ordering_from_word(family, rank, word)
        assert set(taus) == roots and len(taus) == len(roots)
        assert validate_ordering(family, rank, taus) == word


def test_doubling_chain_admits_two_completions():
    # two reduced words for the rank-5 longest element sharing the
    # 6-letter middle-block prefix, differing by one braid segment
    first = (3, 2, 3, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2, 1)
    second = first[:9] + (5, 4, 5) + first[12:]
    assert first != second
    assert first[:6] == second[:6]
    assert is_reduced("A", 5, first[:6])  # the embedded-block prefix
    for word in (first, second):
        assert is_reduced("A", 5, word)
        assert word_evaluate("A", 5, word).images == longest_element("A", 5).images
    taus_first = ordering_from_word("A", 5, first)
    taus_second = ordering_from_word("A", 5, second)
    assert taus_first[:9] == taus_second[:9]
    assert taus_first[12:] == taus_second[12:]
    assert set(taus_first[9:12]) == set(taus_second[9:12])
    assert taus_first[9:12] != taus_second[9:12]


def test_weyl_element_basics():
    s1 = simple_reflection("D", 3, 1)
    assert isinstance(s1, WeylElement)
    assert s1 != identity_element("D", 3)
    assert s1 * s1 == identity_element("D", 3)  # involution
    assert s1.act_root(s1.act_root((0, 1, 1))) == (0, 1, 1)


def test_composing_elements_of_different_groups_is_refused():
    for left, right in [(simple_reflection("A", 2, 1), simple_reflection("A", 3, 1)),
                        (simple_reflection("B", 2, 1), simple_reflection("C", 2, 1))]:
        with pytest.raises(InvalidInputError, match="cannot compose elements of different groups"):
            left * right
    s1 = simple_reflection("B", 2, 1)
    assert s1 * s1 == identity_element("B", 2)
