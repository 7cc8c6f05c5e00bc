"""The join kernel of the inverse map and the jet forward against
explicit products.

inverse_map carries the tail G_n *** G_(k+1) = L U and its dual as
(Q L, U), Q = exp(-l_(k+1) f_(k+1)) *** exp(-l_n f_n), reads coordinate
k of each tail as one entry of Q L with the anchor read of
extract_lower, then joins pair k and peels l_k with its left peel.  It
checks its answer on its own tails: after pair 1 the Q L of the primal
and of the dual tail must each be exactly I, and the u of the
completed tail's U, each times a torus character, must be the given
ones.  The 2n-variable jet forward of the tests joins all n pairs from
(I, I) and extracts (l, u) from L and U; jacobian_det_ad walks the
primal tail at fixed l instead.  These tests check, at every step, the
carried pair against the LDU of the explicitly multiplied tails and the
reads against full extractions, check one join on general Q L, over
Scalars and over jets, against the explicit product and its unit-pivot
guard, check the jet forward against the dense product and LDU it
replaced and the fixed-l Jacobian against its 2n x 2n determinant, check
that the inverse runs no second forward map and one dense ldu, that the
closing checks reject a faulty join, read or peel as an internal
ArithmeticError, and that a
moved u names its first coordinate, and pin the exceptional-set payloads
of non-generic integer points.
"""

from __future__ import annotations

import random

import pytest

from rootfact import (
    ExceptionalSetError,
    Jet,
    StratumError,
    canonical_word,
    dim,
    exp_e,
    exp_f,
    forward_map,
    identity,
    inverse_dual,
    inverse_map,
    jacobian_det_ad,
    jacobian_det_formula,
    lebesgue_pullback_det,
    ldu,
    mat_mul,
    ordering_from_word,
    positive_roots,
    random_reduced_word,
    root_triple,
    word_plan,
    zeta_from_eta,
)
from rootfact import factorization, haar
from rootfact.jets import jacobian_det
from rootfact.linalg import scale_cols
from rootfact.matrices import assemble_lower, assemble_upper, extract_lower, extract_upper
from rootfact.scalar import ONE, ZERO, Scalar, sc

from conftest import (
    branch_pairs,
    exact_scalar,
    generic_pairs,
    pairs_equal,
    pairs_with_s_zero,
    torus_diag,
)
from helpers import constant, forward_coords_jets, jet_pairs


def dual_lower_coords(family, rank, taus, l, u, h):
    """Lower coordinates of sigma(h g_0^-1) = sigma(g_0^-1) h, g_0 = L h U;
    None where that has no LDU."""
    g0 = mat_mul(scale_cols(assemble_lower(family, rank, taus, l), h),
                 assemble_upper(family, rank, taus, u))
    try:
        return extract_lower(family, rank, taus, ldu(inverse_dual(family, rank, g0))[0])
    except StratumError:
        return None


def peel(family, rank, taus, given, k):
    """Q = exp(-given_(k+1) f_(k+1)) *** exp(-given_n f_n), 0-based k."""
    q = identity(dim(family, rank))
    for tau, c in zip(taus[k + 1:], given[k + 1:]):
        q = exp_f(family, rank, tau, -c, q)
    return q


def unit_lower(rng, n):
    x = identity(n)
    for i in range(n):
        for j in range(i):
            x[i][j] = exact_scalar(rng, 2)
    return x


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5)])
def test_carried_factors_match_explicit_tails(monkeypatch, family, rank):
    word = random_reduced_word(family, rank, 11)
    rng = random.Random(f"kernel/{family}{rank}")
    pairs = generic_pairs(rng, len(word))
    h = torus_diag(family, rank, rng)
    res = forward_map(family, rank, word, pairs, h=h)
    taus = res.taus
    given = (res.l, dual_lower_coords(family, rank, taus, res.l, res.u, h))

    # the tail and the dual tail take their pairs alternately; before the
    # join of tau_k, Q has peeled the given coordinates after k
    explicit = [identity(len(h)), identity(len(h))]
    joins = []
    join = factorization._join_pair

    def carried(tail, k):
        lower, d, upper = ldu(tail)
        assert d == [ONE] * len(h)
        return mat_mul(peel(family, rank, taus, given[len(joins) % 2], k), lower), upper

    def checked_join(t, factors, pair):
        k = taus.index(t.root)
        assert t == root_triple(family, rank, t.root)
        tail = explicit[len(joins) % 2]
        assert carried(tail, k) == factors
        step = exp_f(family, rank, t.root, pair[0], identity(len(h)))
        step = exp_e(family, rank, t.root, pair[1], step)
        tail = explicit[len(joins) % 2] = mat_mul(tail, step)
        out = join(t, factors, pair)
        assert carried(tail, k) == out
        joins.append(t.root)
        return out

    monkeypatch.setattr(factorization, "_join_pair", checked_join)
    zeta = inverse_map(family, rank, word, res.l, res.u, h=h)
    assert pairs_equal(zeta, pairs)
    # pairs n, ..., 1 once per tail
    assert joins == [t for t in reversed(taus) for _ in range(2)]


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5)])
def test_tail_reads_match_full_extraction(monkeypatch, family, rank):
    word = random_reduced_word(family, rank, 11)
    rng = random.Random(f"reads/{family}{rank}")
    h = torus_diag(family, rank, rng)
    res = forward_map(family, rank, word, generic_pairs(rng, len(word)), h=h)
    taus = res.taus
    # the image point, then integer points with a unit torus, some rejected
    points = [(res.l, res.u, h)] + [
        ([sc(rng.choice((-1, 0, 1))) for _ in word], [sc(rng.choice((-1, 0, 1))) for _ in word],
         [ONE] * len(h))
        for _ in range(12)
    ]
    read = factorization.anchor_coordinate
    reads = []

    # the tail and the dual tail are read alternately, k = n, ..., 1; Q L
    # has no coordinates after k, and is Q times the tail's L, whose
    # coordinates after k are the given l (the dual's: those of
    # sigma(h g_0^-1))
    def checked_read(entries, lower):
        k = len(taus) - 1 - len(reads) // 2
        assert entries == root_triple(family, rank, taus[k]).f
        coords = extract_lower(family, rank, taus, lower)
        assert coords[k + 1:] == [ZERO] * (len(taus) - k - 1)
        side = given[len(reads) % 2]
        tail_lower = assemble_lower(family, rank, taus, coords[:k + 1] + side[k + 1:])
        assert lower == mat_mul(peel(family, rank, taus, side, k), tail_lower)
        reads.append(read(entries, lower))
        assert reads[-1] == coords[k]
        return reads[-1]

    monkeypatch.setattr(factorization, "anchor_coordinate", checked_read)
    counts = []
    for l, u, hd in points:
        given = (l, dual_lower_coords(family, rank, taus, l, u, hd))
        reads.clear()
        try:
            inverse_map(family, rank, word, l, u, h=hd)
        except ExceptionalSetError:
            pass
        counts.append(len(reads))
    assert counts[0] == 2 * len(word)
    assert sum(counts[1:]) > 0


@pytest.mark.parametrize("side", [0, 1], ids=["tail", "dual-tail"])
def test_corrupted_tail_raises_from_closing_check(monkeypatch, side):
    # the first join of one tail leaves a Q L outside the group; the reads
    # go on, and that tail's check after the loop finds its Q L is not I:
    # an internal fault, an ArithmeticError, never a refusal of the input
    word = random_reduced_word("D", 4, 11)
    res = forward_map("D", 4, word, generic_pairs(random.Random("kernel/corrupted"), len(word)))
    join = factorization._join_pair
    joins = []

    def corrupting_join(t, factors, pair):
        lower, upper = join(t, factors, pair)
        if len(joins) == side:
            lower[-1][0] = lower[-1][0] + 1  # weight -2 l_4, not a root of D4
        joins.append(t.root)
        return lower, upper

    monkeypatch.setattr(factorization, "_join_pair", corrupting_join)
    with pytest.raises(ArithmeticError, match=f"^completed tail {side + 1} does not close"):
        inverse_map("D", 4, word, res.l, res.u)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_dual_tail_closes_on_its_own_check(monkeypatch, family, rank):
    # the last join is the dual tail's pair 1, and it takes z^- + 1: that
    # dual Q L is then exp(f_tau_1), a group element whose one coordinate
    # is 1, which only the dual's closing check sees, after the primal
    # tail's has passed
    word = random_reduced_word(family, rank, 11)
    pairs = generic_pairs(random.Random(f"kernel/dual-close/{family}{rank}"), len(word))
    res = forward_map(family, rank, word, pairs)
    join, extract = factorization._join_pair, factorization._extract_checked
    joins, extractions = [], []

    def moved_last_join(t, factors, pair):
        joins.append(t.root)
        if len(joins) == 2 * len(word):
            pair = (pair[0] + 1, pair[1])
        return join(t, factors, pair)

    def counted(*args):
        extractions.append(args)
        return extract(*args)

    monkeypatch.setattr(factorization, "_join_pair", moved_last_join)
    monkeypatch.setattr(factorization, "_extract_checked", counted)
    with pytest.raises(ArithmeticError, match="^completed tail 2 does not close"):
        inverse_map(family, rank, word, res.l, res.u)
    # only the dual element's extraction ran: the closing check reads no u
    assert joins[-1] == res.taus[0] and len(extractions) == 1
    monkeypatch.undo()
    assert pairs_equal(inverse_map(family, rank, word, res.l, res.u), pairs)


def test_read_that_misses_the_tail_raises(monkeypatch):
    # the closing check must also see a read that misses its tail
    word = random_reduced_word("B", 3, 11)
    res = forward_map("B", 3, word, generic_pairs(random.Random("kernel/missed"), len(word)))
    read = factorization.anchor_coordinate
    first = root_triple("B", 3, res.taus[0]).f

    def off_by_one(entries, lower):
        c = read(entries, lower)
        return c + 1 if entries == first else c

    monkeypatch.setattr(factorization, "anchor_coordinate", off_by_one)
    with pytest.raises(ArithmeticError, match="^completed tail 1 does not close"):
        inverse_map("B", 3, word, res.l, res.u)


def test_peel_that_misses_the_tail_raises(monkeypatch):
    # the peels of tau_2 take l_2 + 1: the last read Q L of each tail is
    # then exp(-f_2) exp(c f_1), whose anchor read is still c, so the pairs
    # come out right; after the join of pair 1 and the peel of l_1 the
    # primal Q L is exp(-l_1 f_1) exp(-f_2) exp(l_1 f_1), not I, and only
    # the closing check sees it
    word = random_reduced_word("B", 3, 11)
    pairs = generic_pairs(random.Random("kernel/missed-peel"), len(word))
    res = forward_map("B", 3, word, pairs)
    peel_left = factorization.peel_left
    second = root_triple("B", 3, res.taus[1]).f
    peels = []

    def off_by_one(entries, squares, c, lower):
        peels.append(entries)
        return peel_left(entries, squares, c + 1 if entries == second else c, lower)

    monkeypatch.setattr(factorization, "peel_left", off_by_one)
    with pytest.raises(ArithmeticError, match="^completed tail 1 does not close"):
        inverse_map("B", 3, word, res.l, res.u)
    # both tails peel tau_2, then both peel tau_1
    assert peels[-4:] == [second, second] + [root_triple("B", 3, res.taus[0]).f] * 2
    monkeypatch.undo()
    assert pairs_equal(inverse_map("B", 3, word, res.l, res.u), pairs)


def lifted(x):
    """x with every entry a Jet, so that == compares values and partials
    whichever type an exact constant entry happens to have."""
    if isinstance(x, (list, tuple)):
        return [lifted(v) for v in x]
    return x if isinstance(x, Jet) else constant(x)


# the short roots of B3 give f_tau^2 entries spanning rows a, ..., N-1-a
@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("C", 3), ("D", 4), ("B", 3)])
def test_join_pair_on_general_factors(family, rank):
    # a real tail T = L U of a random reduced word takes its next pair
    # while carried as (X L, U) for an arbitrary unit lower X; the join
    # must give (X L', U') for L' U' = T exp(z^- f_tau) exp(z^+ e_tau),
    # with the pairs as Scalars and then as jet variables
    rng = random.Random(f"join/{family}{rank}")
    n = dim(family, rank)
    taus = ordering_from_word(family, rank, random_reduced_word(family, rank, 5))
    pairs = generic_pairs(rng, len(taus))
    jets = Jet.variables([v for pair in pairs for v in pair])
    for case in (pairs, list(zip(jets[::2], jets[1::2]))):
        tail = identity(n)
        for tau, pair in zip(reversed(taus), reversed(case)):
            lower, d, upper = ldu(tail)
            x = unit_lower(rng, n)
            tail = exp_e(family, rank, tau, pair[1], exp_f(family, rank, tau, pair[0], tail))
            lower_next, d_next, upper_next = ldu(tail)
            assert lifted(d) == lifted(d_next) == lifted([ONE] * n)
            out = factorization._join_pair(root_triple(family, rank, tau),
                                           (mat_mul(x, lower), upper), pair)
            assert lifted(out) == lifted((mat_mul(x, lower_next), upper_next))
            # the pivot guard compares with the Scalar ONE, which no Jet
            # equals; the join answers over jets only because the diagonal
            # it hands on stays that exact ONE
            assert all(type(row[i]) is Scalar and row[i] == ONE for i, row in enumerate(out[1]))
    assert constant(ONE) != ONE


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("B", 4), ("C", 3), ("D", 4)])
def test_join_hands_its_lower_factor_in_an_order_mul_right_i_plus_takes(monkeypatch, family,
                                                                          rank):
    # a join multiplies P's rows from the first it moves by I + L_M in
    # place, with no copy of a row, so L_M's terms come by ascending pivot
    # column; every such update, over Scalars in inverse_map and over jets
    # in jacobian_det_ad, must equal the dense product P (I + L_M)
    update, sizes = factorization.mul_right_i_plus, []

    def dense_checked(g, terms):
        before, m = [row[:] for row in g], identity(len(g[0]))
        for r, c, w in terms:
            m[r][c] = m[r][c] + w
        out = update(g, terms)
        assert lifted(out) == lifted(mat_mul(before, m))
        sizes.append(len(terms))
        return out

    monkeypatch.setattr(factorization, "mul_right_i_plus", dense_checked)
    word = random_reduced_word(family, rank, 7)
    pairs = generic_pairs(random.Random(f"join-order/{family}{rank}"), len(word))
    res = forward_map(family, rank, word, pairs)
    assert pairs_equal(inverse_map(family, rank, word, res.l, res.u), pairs)
    assert jacobian_det_ad(family, rank, word, pairs) == jacobian_det_formula(family, rank, word,
                                                                              pairs)
    assert max(sizes) > 1


def dense_jet_forward(plan, pairs):
    """The jet forward the joins replaced: the dense product over jets,
    its dense ldu, whose middle factor is I, and the two extractions."""
    family, rank, taus = plan.family, plan.rank, plan.taus
    unit = [ONE] * dim(family, rank)
    lower, d, upper = ldu(factorization._product_matrix(plan.triples, pairs, unit))
    assert lifted(d) == lifted(unit)
    return extract_lower(family, rank, taus, lower), extract_upper(family, rank, taus, upper)


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5)])
def test_jet_forward_matches_the_dense_path(family, rank):
    # the canonical word and two random ones, each at a generic point, at
    # the all-zero point and at a point where one 1 + z^- z^+ vanishes;
    # == on jets compares the values and every partial
    rng = random.Random(f"jet-forward/{family}{rank}")
    for word in [canonical_word(family, rank)] + [random_reduced_word(family, rank, s) for s in (1, 2)]:
        plan = word_plan(family, rank, word)
        n = len(word)
        points = [generic_pairs(rng, n), [(ZERO, ZERO)] * n,
                  pairs_with_s_zero(rng, n, {rng.randint(1, n)})]
        for pairs in points:
            jets = jet_pairs(plan, pairs)
            assert forward_coords_jets(plan, jets) == dense_jet_forward(plan, jets)


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5)])
def test_jacobian_at_fixed_l_matches_the_2n_determinant(family, rank):
    # jacobian_det_ad takes det du/dz^+ at fixed l with n jet variables;
    # the reference differentiates (l, u) in all 2n and takes the 2n x 2n
    # determinant, at the kinds of point of the dense-path comparison above
    rng = random.Random(f"fixed-l/{family}{rank}")
    for word in [canonical_word(family, rank)] + [random_reduced_word(family, rank, s) for s in (1, 2)]:
        plan = word_plan(family, rank, word)
        n = len(word)
        points = [generic_pairs(rng, n), [(ZERO, ZERO)] * n,
                  pairs_with_s_zero(rng, n, {rng.randint(1, n)})]
        for pairs in points:
            lcoords, ucoords = forward_coords_jets(plan, jet_pairs(plan, pairs))
            assert jacobian_det_ad(family, rank, word, pairs) == jacobian_det(
                lcoords + ucoords, 2 * n)


def test_jacobian_runs_no_dense_ldu(monkeypatch):
    # the jet forward joins its pairs; with ldu refusing every call, the
    # Jacobian at A8 and B4 and the compact pullback at B3 still answer
    word = random_reduced_word("B", 3, 11)
    eta = branch_pairs(random.Random("kernel/no-ldu/pullback"), len(word))
    expected = ONE
    for d, asq in zip(word_plan("B", 3, word).deltas, zeta_from_eta("B", 3, word, eta)[2]):
        expected = expected * asq ** (d + 1)

    def no_ldu(g):
        raise AssertionError("a dense ldu ran")

    monkeypatch.setattr(factorization, "ldu", no_ldu)
    monkeypatch.setattr(haar, "_last_pullback", [(None, None)])
    assert lebesgue_pullback_det("B", 3, word, eta) == expected
    for family, rank in (("A", 8), ("B", 4)):
        word = random_reduced_word(family, rank, 11)
        pairs = generic_pairs(random.Random(f"kernel/no-ldu/{family}{rank}"), len(word))
        assert jacobian_det_ad(family, rank, word, pairs) == jacobian_det_formula(
            family, rank, word, pairs)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_join_pair_raises_where_a_pivot_is_not_one(family, rank):
    # a U carrying the tau-weight entry is no tail's: M = U exp(z^- f_tau)
    # then has a pivot 1 + (u z^- times an anchor product), zero or not,
    # other than 1, and the join refuses it
    rng = random.Random(f"join-pivot/{family}{rank}")
    n = dim(family, rank)
    for tau in positive_roots(family, rank):
        for zm, u in ((exact_scalar(rng) + 5, exact_scalar(rng) + 5), (ONE, -ONE), (ONE, ONE)):
            upper = exp_e(family, rank, tau, u, identity(n))
            with pytest.raises(ArithmeticError, match=r"join pivot \d+ is .*, not 1"):
                factorization._join_pair(root_triple(family, rank, tau),
                                         (unit_lower(rng, n), upper), (zm, exact_scalar(rng)))


@pytest.mark.parametrize("family,rank", [("A", 8), ("B", 4)])
def test_inverse_runs_one_dense_ldu(monkeypatch, family, rank):
    # the joins factor only the rows f_tau reaches, and the answer is
    # checked on the completed tails, with no second forward map or
    # product: the one dense ldu is that of the dual element
    word = random_reduced_word(family, rank, 11)
    rng = random.Random(f"kernel/one-ldu/{family}{rank}")
    pairs = generic_pairs(rng, len(word))
    h = torus_diag(family, rank, rng)
    res = forward_map(family, rank, word, pairs, h=h)
    dense = factorization.ldu
    calls = []

    def counting_ldu(g):
        calls.append(g)
        return dense(g)

    def refused(*args):
        raise AssertionError("a second forward map ran")

    monkeypatch.setattr(factorization, "ldu", counting_ldu)
    monkeypatch.setattr(factorization, "_forward", refused)
    monkeypatch.setattr(factorization, "_product_matrix", refused)
    assert pairs_equal(inverse_map(family, rank, word, res.l, res.u, h=h), pairs)
    g0 = mat_mul(scale_cols(assemble_lower(family, rank, res.taus, res.l), h),
                 assemble_upper(family, rank, res.taus, res.u))
    assert calls == [inverse_dual(family, rank, g0)]


# (value, index) of the ExceptionalSetError, or None where the point
# inverts, for twelve seeded integer points (l, u) in {-1, 0, 1}
PINNED = {
    ("A", 3): [("pivot", 1), ("pivot", 1), ("pivot", 1), None, None, ("pivot", 3),
               None, None, ("pivot", 1), None, None, None],
    ("B", 3): [None, ("pivot", 1), ("pivot", 2), None, None, None,
               None, ("pivot", 1), None, ("pivot", 3), None, ("pivot", 3)],
    ("C", 3): [("denominator", 4), None, None, None, ("denominator", 8), ("pivot", 2),
               None, ("pivot", 1), ("pivot", 2), ("pivot", 2), None, ("pivot", 2)],
    ("D", 4): [("pivot", 2), ("pivot", 3), None, ("pivot", 2), ("pivot", 1),
               ("denominator", 11), ("pivot", 1), None, None, None, ("pivot", 1), ("pivot", 2)],
    ("D", 5): [None, None, None, ("pivot", 2), None, None,
               ("denominator", 18), ("pivot", 3), ("pivot", 1), None, ("pivot", 1), ("pivot", 4)],
}

MESSAGES = {
    "pivot": "dual element has no triangular factorization (pivot {})",
    "denominator": "exceptional set at pair {}",
}


@pytest.mark.parametrize("family,rank", list(PINNED))
def test_exceptional_payloads_pinned(family, rank):
    word = random_reduced_word(family, rank, 7)
    rng = random.Random(f"exceptional/{family}{rank}")
    for expected in PINNED[(family, rank)]:
        l = [rng.choice((-1, 0, 1)) for _ in word]
        u = [rng.choice((-1, 0, 1)) for _ in word]
        if expected is None:
            zeta = inverse_map(family, rank, word, l, u)
            assert forward_map(family, rank, word, zeta).l == [sc(v) for v in l]
            continue
        value, index = expected
        with pytest.raises(ExceptionalSetError) as err:
            inverse_map(family, rank, word, l, u)
        assert err.value.payload() == {
            "kind": "exceptional-set",
            "message": MESSAGES[value].format(index),
            "index": index,
            "value": value,
        }


@pytest.mark.parametrize("moved,index,name", [
    ({"l": [4], "u": [1]}, None, None),
    ({"u": [2, 6]}, 3, "u_3"),
], ids=["l-before-u", "u-only"])
def test_image_rejection_names_first_coordinate(monkeypatch, moved, index, name):
    # no point found reaches the closing u comparison with a difference,
    # so the primal tail's reads of l and the extraction of u are moved at
    # some coordinates: a moved u is outside the image, and names the
    # first one; a moved l cannot come from a point, since each z^-_k is
    # l_k minus its read, and is a fault, caught by the primal tail's
    # closing check before any u is read
    word = random_reduced_word("B", 3, 5)
    pairs = generic_pairs(random.Random("kernel/image"), len(word))
    res = forward_map("B", 3, word, pairs)
    read, extract = factorization.anchor_coordinate, factorization._extract_checked
    reads, extractions = [], []

    def moved_read(entries, lower):
        # the tail and the dual tail are read alternately, k = n, ..., 1
        k, side = len(word) - 1 - len(reads) // 2, len(reads) % 2
        reads.append(k)
        c = read(entries, lower)
        return c + 1 if side == 0 and k in moved.get("l", ()) else c

    def moved_extract(roots, g):
        out = extract(roots, g)
        # the dual element's l comes first and stays
        extractions.append("u" if extractions else "l")
        if extractions[-1] == "u":
            for k in moved.get("u", ()):
                out[k] += 1
        return out

    monkeypatch.setattr(factorization, "anchor_coordinate", moved_read)
    monkeypatch.setattr(factorization, "_extract_checked", moved_extract)
    if index is None:
        with pytest.raises(ArithmeticError, match="^completed tail 1 does not close"):
            inverse_map("B", 3, word, res.l, res.u)
        assert extractions == ["l"]
        return
    with pytest.raises(ExceptionalSetError) as err:
        inverse_map("B", 3, word, res.l, res.u)
    assert err.value.payload() == {
        "kind": "exceptional-set",
        "message": f"coordinates are outside the image of the factorization map ({name} differs)",
        "index": index,
        "value": "image",
    }
    monkeypatch.undo()
    assert pairs_equal(inverse_map("B", 3, word, res.l, res.u), pairs)


def test_inverse_divides_no_exact_zero(monkeypatch):
    # ldu and extract_lower keep an exact zero entry as it is, and the
    # pair update multiplies by 1 / den; dividing every entry divided
    # about 4200 zeros during this A8 inverse
    word = random_reduced_word("A", 8, 3)
    rng = random.Random("kernel/zero-divisions")
    pairs = generic_pairs(rng, len(word))
    res = forward_map("A", 8, word, pairs)
    divide = Scalar.__truediv__
    zero_numerators = []

    def counting(self, other):
        if self.is_zero():
            zero_numerators.append(other)
        return divide(self, other)

    monkeypatch.setattr(Scalar, "__truediv__", counting)
    out = inverse_map("A", 8, word, res.l, res.u)
    monkeypatch.undo()
    assert pairs_equal(out, pairs)
    assert len(zero_numerators) == 0
