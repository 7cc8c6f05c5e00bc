"""The word plan behind the coordinate maps, on random reduced words.

Every map reads one WordPlan per (family, rank, word), and the maps
take their root data from it alone: the ordering, the root triple of
each tau, the nonzero pairings tau_k(h_tau_j) and coroot entries
h_tau_j[a], read off the triples' coroot diagonals, and the closed-form
exponents delta.  These tests pin
the plan against the direct definitions, count that a cached plan's
maps look up no triple, and run the exact identities at B3, C3, D4 and
D5 on seeded random reduced words rather than the canonical ones.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rootfact import (
    InvalidInputError,
    InvalidWordError,
    canonical_ordering,
    canonical_word,
    coroot_diag,
    delta,
    delta_identity_check,
    eta_change_jacobian_det,
    form_matrix,
    eta_from_zeta,
    forward_map,
    haar_density,
    inverse_dual,
    inverse_map,
    is_positive_root,
    is_reduced,
    jacobian_det_ad,
    jacobian_det_double_product,
    jacobian_det_formula,
    lebesgue_pullback_det,
    longest_element,
    ordering_from_word,
    pairing,
    positive_roots,
    random_reduced_word,
    root_triple,
    simple_reflection,
    simple_roots,
    stratum_data,
    transpose_dual,
    unit_jacobian_check,
    validate_ordering,
    word_evaluate,
    word_plan,
    zeta_from_eta,
)
from rootfact import factorization, matrices
from rootfact.factorization import _word_plan
from rootfact.haar import _running
from rootfact.linalg import identity, mat_mul
from rootfact.matrices import dim, sigma, sigma_diag
from rootfact.serialization import dumps_canonical
from rootfact.scalar import ONE, Scalar, power_product, sc

from conftest import branch_pairs, generic_pairs, pairs_equal, torus_diag
from helpers import length, simple_coroot_coordinates

WIDE = [("B", 3), ("C", 3), ("D", 4), ("D", 5)]
COMPACT = [("B", 3), ("C", 3), ("D", 4)]
EVERY_FAMILY = [("A", 1), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("C", 2), ("C", 3), ("D", 2), ("D", 3), ("D", 4)]


@pytest.mark.parametrize("family,rank", EVERY_FAMILY)
def test_plan_matches_direct_definitions(family, rank):
    word = random_reduced_word(family, rank, seed=rank)
    plan = word_plan(family, rank, list(word))
    taus = ordering_from_word(family, rank, word)
    assert plan.word == word and plan.taus == taus
    n = len(taus)
    # every nonzero exponent once, ascending in j, and no zero stored
    assert len(plan.suffix) == n
    for k, row in enumerate(plan.suffix):
        pairings = [(j, pairing(taus[k], taus[j])) for j in range(k + 1, n)]
        assert row == tuple((j, p) for j, p in pairings if p)
    coroots = [coroot_diag(family, rank, tau) for tau in taus]
    assert len(plan.torus) == dim(family, rank)
    for a, col in enumerate(plan.torus):
        assert col == tuple((j, h[a]) for j, h in enumerate(coroots) if h[a])
    assert all(p for rows in (plan.suffix, plan.torus) for row in rows for _, p in row)
    for tau, d, t in zip(taus, plan.deltas, plan.triples):
        assert d == delta(family, rank, tau) == sum(
            simple_coroot_coordinates(family, rank, tau))
        assert t == root_triple(family, rank, tau) and t.root == tau
        assert list(t.h) == coroot_diag(family, rank, tau)


def test_plan_suffix_mul_and_torus_power():
    # haar's factor-by-factor product over plan.suffix and plan.torus, and
    # suffix_product, against the pairings and coroot diagonals
    family, rank = "B", 3
    plan = word_plan(family, rank, random_reduced_word(family, rank, seed=3))
    rng = random.Random(8)
    vals = [sc(rng.randint(2, 9)) for _ in plan.taus]
    for k in range(len(plan.taus)):
        for sign in (1, -1):
            expected = Scalar(3)
            for j in range(k + 1, len(plan.taus)):
                expected = expected * vals[j] ** (sign * pairing(plan.taus[k], plan.taus[j]))
            assert _running(Scalar(3), plan.suffix[k], vals, sign) == expected
        # the one power_product of inverse_map and transpose_dual
        assert plan.suffix_product(k, vals) * 3 == _running(Scalar(3), plan.suffix[k], vals)
    torus = [_running(ONE, col, vals) for col in plan.torus]
    assert len(torus) == dim(family, rank)
    for a in range(len(torus)):
        expected = ONE
        for tau, v in zip(plan.taus, vals):
            expected = expected * v ** coroot_diag(family, rank, tau)[a]
        assert torus[a] == expected


class Unused:
    """A suffix factor that no product may touch."""

    def __pow__(self, n):
        raise AssertionError(f"a factor with exponent {n} was used")

    __mul__ = __rmul__ = __pow__


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("D", 4), ("B", 4), ("C", 4),
                                         ("D", 5)])
def test_suffix_mul_skips_zero_exponents(family, rank):
    # a factor whose pairing is 0 contributes the identity, so it is never
    # raised to the power 0 nor multiplied in; suffix_product, the one
    # power_product of inverse_map and transpose_dual, is the product with
    # sign 1, here over Gaussian rationals against the factor-by-factor one
    plan = word_plan(family, rank, random_reduced_word(family, rank, seed=5))
    rng = random.Random(f"suffix/{family}{rank}")
    gaussian = random.Random(f"suffix-product/{family}{rank}")
    n = len(plan.taus)
    skipped = 0
    for k in range(n):
        row = [pairing(plan.taus[k], plan.taus[j]) if j > k else 0 for j in range(n)]
        vals = [sc(rng.randint(2, 9)) if row[j] else Unused() for j in range(n)]
        skipped += sum(1 for j in range(k + 1, n) if not row[j])
        expected = Scalar(3)
        for j in range(k + 1, n):
            if row[j]:
                expected = expected * vals[j] ** -row[j]
        assert _running(Scalar(3), plan.suffix[k], vals, -1) == expected
        vals = [Scalar(gaussian.randint(1, 9), gaussian.randint(-9, 9), gaussian.randint(1, 9))
                if row[j] else Unused() for j in range(n)]
        expected = ONE
        for j in range(k + 1, n):
            if row[j]:
                expected = expected * vals[j] ** row[j]
        assert plan.suffix_product(k, vals) == expected
    assert skipped
    # B and C pair a short root against a long one to +-2
    assert {p for row in plan.suffix for _, p in row} == (
        {-2, -1, 1, 2} if family in "BC" else {-1, 1})


@pytest.mark.parametrize("family,rank", [("B", 10), ("A", 16)])
def test_sparse_products_match_the_dense_pairings(family, rank):
    # the double product and the delta identity against every k < j of
    # the pairings, zeros included, at canonical words where most are 0
    word = canonical_word(family, rank)
    taus = ordering_from_word(family, rank, word)
    n = len(taus)
    pairs = generic_pairs(random.Random(f"dense/{family}{rank}"), n)
    svals = [ONE + sc(zm) * sc(zp) for zm, zp in pairs]
    dense = [[pairing(taus[k], taus[j]) for k in range(j)] for j in range(n)]
    assert jacobian_det_double_product(family, rank, word, pairs) == power_product(
        (s, p) for s, col in zip(svals, dense) for p in col)
    assert delta_identity_check(family, rank, word) is all(
        delta(family, rank, tau) - 1 == sum(col) for tau, col in zip(taus, dense))


def test_plan_cache_is_bounded():
    assert 0 < _word_plan.cache_info().maxsize <= 16
    for seed in range(40):
        word_plan("A", 5, random_reduced_word("A", 5, seed))
    assert _word_plan.cache_info().currsize <= _word_plan.cache_info().maxsize


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 3), ("D", 3)])
def test_stratum_roots_are_the_plan_of_the_gammas(family, rank):
    # the taus are the positive roots w keeps positive, each once, and
    # their order is the ordering of the gammas, whose word
    # validate_ordering recovers from the roots alone
    positive = set(positive_roots(family, rank))
    w0_word = random_reduced_word(family, rank, seed=5)
    for cut in range(len(w0_word) + 1):
        w = word_evaluate(family, rank, w0_word[:cut])
        gammas, taus = stratum_data(family, rank, w)
        assert len(set(taus)) == len(taus)
        assert set(taus) == {t for t in positive if w.act_root(t) in positive}
        assert validate_ordering(family, rank, taus) == gammas


@pytest.mark.parametrize("family,rank", WIDE)
def test_maps_on_random_reduced_words(family, rank):
    rng = random.Random(f"maps/{family}{rank}")
    word = random_reduced_word(family, rank, seed=rank)
    assert delta_identity_check(family, rank, word)
    pairs = generic_pairs(rng, len(word))
    h = torus_diag(family, rank, rng)
    res = forward_map(family, rank, word, pairs, h=h)
    assert pairs_equal(inverse_map(family, rank, word, res.l, res.u, h=res.h), pairs)
    eta, hdual = transpose_dual(family, rank, word, pairs, h=h)
    dual = forward_map(family, rank, word, eta, h=hdual).matrix
    assert dual == inverse_dual(family, rank, res.matrix)
    formula = jacobian_det_formula(family, rank, word, pairs)
    assert jacobian_det_double_product(family, rank, word, pairs) == formula
    assert jacobian_det_ad(family, rank, word, pairs) == formula


@pytest.mark.parametrize("family,rank", [("A", 12), ("B", 8), ("C", 8), ("D", 8)])
def test_canonical_ladder(family, rank):
    # the maps at ranks the other tests leave out, one torus point each;
    # the dual identity as sigma(g) forward(eta, h_dual) == I, as sigma
    # inverts with g, so that no inverse of g is needed
    word = canonical_word(family, rank)
    rng = random.Random(1)
    pairs = generic_pairs(rng, len(word))
    h = torus_diag(family, rank, rng)
    res = forward_map(family, rank, word, pairs, h=h)
    assert pairs_equal(inverse_map(family, rank, word, res.l, res.u, h=res.h), pairs)
    eta, hdual = transpose_dual(family, rank, word, pairs, h=h)
    dual = forward_map(family, rank, word, eta, h=hdual).matrix
    assert mat_mul(sigma(family, rank, res.matrix), dual) == identity(len(h))
    formula = jacobian_det_formula(family, rank, word, pairs)
    assert jacobian_det_double_product(family, rank, word, pairs) == formula
    assert jacobian_det_ad(family, rank, word, pairs) == formula


def test_cached_plan_maps_look_up_no_triple(monkeypatch):
    # the maps take every root triple from the plan, so once the plan is
    # cached a forward, an inverse, a dual and a Jacobian look up none
    family, rank = "A", 8
    word = random_reduced_word(family, rank, 11)
    rng = random.Random("plan/lookups")
    pairs = generic_pairs(rng, len(word))
    h = torus_diag(family, rank, rng)
    res = forward_map(family, rank, word, pairs, h=h)
    lookups = []

    def counted(*args):
        lookups.append(args)
        return root_triple(*args)

    for module in (factorization, matrices):
        monkeypatch.setattr(module, "root_triple", counted)
    assert forward_map(family, rank, word, pairs, h=h) == res
    assert pairs_equal(inverse_map(family, rank, word, res.l, res.u, h=h), pairs)
    transpose_dual(family, rank, word, pairs, h=h)
    assert jacobian_det_ad(family, rank, word, pairs) == jacobian_det_formula(family, rank,
                                                                              word, pairs)
    assert lookups == []
    # the wrapper does see lookups: the public extraction still makes one per tau
    matrices.extract_lower(family, rank, res.taus, identity(len(h)))
    assert len(lookups) == len(word)


@pytest.mark.parametrize("family,rank,h,message", [
    ("A", 2, [1, 1], "torus diagonal needs 3 entries, got 2"),
    ("A", 2, [1, 0, 1], "torus entries must be nonzero"),
    ("B", 2, [2, 1, -1, 1, Fraction(1, 2)], "the middle torus entry must be 1 in family B"),
], ids=["length", "zero", "b-middle"])
def test_check_torus_refuses_each_bad_diagonal(family, rank, h, message):
    plan = word_plan(family, rank, canonical_word(family, rank))
    with pytest.raises(InvalidInputError, match=message):
        plan.check_torus(h)


@pytest.mark.parametrize("family,rank", COMPACT)
def test_compact_chain_on_random_reduced_words(family, rank):
    rng = random.Random(f"compact/{family}{rank}")
    word = random_reduced_word(family, rank, seed=rank + 1)
    eta = branch_pairs(rng, len(word))
    zeta, _, asq = zeta_from_eta(family, rank, word, eta)
    back, back_asq = eta_from_zeta(family, rank, word, zeta)
    assert back_asq == asq
    assert pairs_equal(back, eta)
    assert unit_jacobian_check(family, rank, word, eta) == ONE


def test_eta_from_zeta_radical_forms_pinned():
    # the printed form of a radical depends on how its product is grouped
    word = (1, 2, 1, 2)
    zeta = [(Scalar(1), Scalar(2)), (Scalar(1, 0, 2), Scalar(3)),
            (Scalar(2), Scalar(1, 0, 3)), (Scalar(1), Scalar(1))]
    eta, asq = eta_from_zeta("B", 2, word, zeta)
    assert [str(v) for pair in eta for v in pair] == [
        "(1/4)*sqrt(20)", "(2/15)*sqrt(20)", "5/6", "18/25",
        "(2)*sqrt(2)", "(1/10)*sqrt(2)", "1", "1/2",
    ]
    assert [str(v) for v in asq] == ["3", "5/2", "5/3", "2"]
    back, hshift, _ = zeta_from_eta("B", 2, word, eta)
    assert pairs_equal(back, zeta)
    assert [str(v) for v in hshift] == [
        "(5/6)*sqrt(20)", "(3/4)*sqrt(20)", "1", "(1/15)*sqrt(20)", "(3/50)*sqrt(20)",
    ]


@pytest.mark.parametrize("family,rank,word", [("A", 2, (1, 1)), ("B", 3, (1, 2, 1, 2, 1))])
def test_non_reduced_word_same_payload_everywhere(family, rank, word):
    n = len(word)
    pairs = [(ONE, ONE)] * n
    coords = [ONE] * n
    calls = [
        lambda: ordering_from_word(family, rank, word),
        lambda: word_plan(family, rank, word),
        lambda: forward_map(family, rank, word, pairs),
        lambda: inverse_map(family, rank, word, coords, coords),
        lambda: transpose_dual(family, rank, word, pairs),
        lambda: jacobian_det_formula(family, rank, word, pairs),
        lambda: jacobian_det_double_product(family, rank, word, pairs),
        lambda: jacobian_det_ad(family, rank, word, pairs),
        lambda: delta_identity_check(family, rank, word),
        lambda: haar_density(family, rank, word, pairs),
        lambda: eta_from_zeta(family, rank, word, pairs),
        lambda: zeta_from_eta(family, rank, word, pairs),
        lambda: eta_change_jacobian_det(family, rank, word, pairs),
        lambda: lebesgue_pullback_det(family, rank, word, pairs),
        lambda: unit_jacobian_check(family, rank, word, pairs),
    ]
    expected = {"kind": "invalid-word", "message": f"word {word!r} is not reduced", "index": None}
    for call in calls:
        with pytest.raises(InvalidWordError) as info:
            call()
        assert info.value.payload() == expected


def test_bool_letters_and_ranks_are_refused():
    # True == 1 with the same hash, so a bool word let into the plan cache
    # would answer the int word after it with its own letters
    _word_plan.cache_clear()
    pairs = [(ONE, ONE)] * 3
    with pytest.raises(InvalidWordError) as info:
        forward_map("A", 2, (True, 2, 1), pairs)
    assert info.value.index == 1
    word = forward_map("A", 2, (1, 2, 1), pairs).word
    assert [type(i) for i in word] == [int] * 3
    assert dumps_canonical({"word": word}) == '{"word":[1,2,1]}\n'
    with pytest.raises(InvalidWordError) as info:
        word_evaluate("B", 2, (2, True))
    assert info.value.index == 2
    for rank in (True, False):
        with pytest.raises(InvalidInputError, match=f"rank must be a positive integer, got {rank}"):
            forward_map("A", rank, (), [])


# each public entry point that is or reads a cache, with an int argument,
# the same call with True in its place, and the error that call raises:
# the int call runs first, so a cache keyed by value alone would answer
# the bool call with the int call's result
CACHED_CALLS = {
    "simple_reflection-letter": (simple_reflection, ("A", 2, 1), ("A", 2, True),
                                 InvalidWordError),
    "simple_reflection-rank": (simple_reflection, ("B", 1, 1), ("B", True, 1),
                               InvalidInputError),
    "simple_roots": (simple_roots, ("C", 1), ("C", True), InvalidInputError),
    "positive_roots": (positive_roots, ("A", 1), ("A", True), InvalidInputError),
    "longest_element": (longest_element, ("B", 1), ("B", True), InvalidInputError),
    "canonical_ordering": (canonical_ordering, ("A", 1), ("A", True), InvalidInputError),
    "canonical_word": (canonical_word, ("C", 1), ("C", True), InvalidInputError),
    "root_triple": (root_triple, ("A", 1, (1, -1)), ("A", True, (1, -1)), InvalidInputError),
    "sigma_diag": (sigma_diag, ("B", 1), ("B", True), InvalidInputError),
    "form_matrix": (form_matrix, ("C", 1), ("C", True), InvalidInputError),
    "is_positive_root": (is_positive_root, ("A", 1, (1, -1)), ("A", True, (1, -1)),
                         InvalidInputError),
    "delta": (delta, ("A", 1, (1, -1)), ("A", True, (1, -1)), InvalidInputError),
}


@pytest.mark.parametrize("call,args,bool_args,error", CACHED_CALLS.values(), ids=CACHED_CALLS)
def test_bool_is_refused_after_the_int_is_cached(call, args, bool_args, error):
    call(*args)
    with pytest.raises(error):
        call(*bool_args)


@pytest.mark.parametrize("family,rank", EVERY_FAMILY)
def test_is_reduced_matches_length_definition(family, rank):
    rng = random.Random(f"reduced/{family}{rank}")
    top = len(positive_roots(family, rank))
    words = [random_reduced_word(family, rank, seed) for seed in range(3)]
    words += [tuple(rng.randint(1, rank) for _ in range(rng.randint(0, top + 2)))
              for _ in range(40)]
    seen = set()
    for word in words:
        old = length(word_evaluate(family, rank, word)) == len(word)
        assert is_reduced(family, rank, word) == old
        seen.add(old)
    assert seen == {True, False}
    assert length(longest_element(family, rank)) == top
