"""Matrix realizations: generators, brackets, exponentials, representatives.

Families realize as GL(rank+1), O(2r+1), Sp(2r), O(2r); generator
triples satisfy the standard bracket relations and group elements
preserve the family's bilinear form.  All entries are exact scalars.
"""

from __future__ import annotations

import random

import pytest

from rootfact import (
    InvalidInputError,
    Scalar,
    coroot_diag,
    dim,
    e_matrix,
    exp_e,
    exp_f,
    f_matrix,
    form_matrix,
    h_matrix,
    identity,
    longest_element,
    mat_inverse,
    mat_mul,
    pairing,
    positive_roots,
    simple_reflection,
    simple_roots,
    weyl_representative,
)
from rootfact.jets import Jet
from rootfact.matrices import anchor_coordinate, exp_terms, peel_left, root_triple
from rootfact.scalar import I, MINUS_ONE, ONE, ZERO, sc
from rootfact.selfcheck import run_self_check

from conftest import exact_scalar
from helpers import mat_transpose

REALIZATIONS = [("A", 2), ("A", 3), ("B", 1), ("B", 2), ("C", 2), ("D", 3)]


def commutator(x, y):
    return [[a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(mat_mul(x, y), mat_mul(y, x))]


def scale(c, x):
    return [[sc(c) * v for v in row] for row in x]


def unit_matrix(n, i, j, value=1):
    out = [[ZERO] * n for _ in range(n)]
    out[i][j] = sc(value)
    return out


def test_a1_standard_sl2():
    gamma = simple_roots("A", 1)[0]
    assert f_matrix("A", 1, gamma) == [[ZERO, ZERO], [ONE, ZERO]]
    assert e_matrix("A", 1, gamma) == [[ZERO, ONE], [ZERO, ZERO]]
    assert h_matrix("A", 1, gamma) == [[ONE, ZERO], [ZERO, -ONE]]


def test_a2_simple_generators_are_elementary():
    g1, g2 = simple_roots("A", 2)
    assert e_matrix("A", 2, g1) == unit_matrix(3, 0, 1)
    assert e_matrix("A", 2, g2) == unit_matrix(3, 1, 2)


@pytest.mark.parametrize("family,rank", REALIZATIONS)
def test_sl2_triples(family, rank):
    for alpha in positive_roots(family, rank):
        e = e_matrix(family, rank, alpha)
        f = f_matrix(family, rank, alpha)
        h = h_matrix(family, rank, alpha)
        assert commutator(h, e) == scale(2, e)
        assert commutator(h, f) == scale(-2, f)
        assert commutator(e, f) == h


@pytest.mark.parametrize("family,rank", REALIZATIONS)
def test_cartan_acts_by_pairing(family, rank):
    for gamma in simple_roots(family, rank):
        h = h_matrix(family, rank, gamma)
        for alpha in positive_roots(family, rank):
            e = e_matrix(family, rank, alpha)
            assert commutator(h, e) == scale(pairing(alpha, gamma), e)


@pytest.mark.parametrize("family,rank", REALIZATIONS)
def test_triangularity_and_coroot_diagonal(family, rank):
    n = dim(family, rank)
    for alpha in positive_roots(family, rank):
        e = e_matrix(family, rank, alpha)
        f = f_matrix(family, rank, alpha)
        h = h_matrix(family, rank, alpha)
        assert all(e[i][j].is_zero() for i in range(n) for j in range(i + 1))
        assert all(f[i][j].is_zero() for i in range(n) for j in range(i, n))
        diag = coroot_diag(family, rank, alpha)
        assert h == [[sc(diag[i]) if i == j else ZERO for j in range(n)]
                     for i in range(n)]


@pytest.mark.parametrize("family,rank", [("B", 1), ("B", 2), ("C", 2), ("D", 3)])
def test_form_preservation(family, rank):
    J = form_matrix(family, rank)
    n = dim(family, rank)
    rng = random.Random(11)
    for alpha in positive_roots(family, rank):
        # exp(i e) exp(i f) exp(i e) represents the reflection in alpha
        r = exp_e(family, rank, alpha, I,
                  exp_f(family, rank, alpha, I, exp_e(family, rank, alpha, I, identity(n))))
        for g in (exp_e(family, rank, alpha, exact_scalar(rng), identity(n)),
                  exp_f(family, rank, alpha, exact_scalar(rng), identity(n)),
                  r):
            assert mat_mul(mat_transpose(g), mat_mul(J, g)) == J


def test_b1_frozen_values():
    gamma = (1,)
    assert weyl_representative("B", 1, simple_reflection("B", 1, 1)) == [
        [ZERO, ZERO, Scalar(1, 0, 2)],
        [ZERO, -ONE, ZERO],
        [Scalar(2), ZERO, ZERO],
    ]
    J = form_matrix("B", 1)
    g = exp_e("B", 1, gamma, Scalar(3), identity(3))
    assert mat_mul(mat_transpose(g), mat_mul(J, g)) == J


def test_representative_normalizes_torus():
    for family, rank in REALIZATIONS:
        w0 = longest_element(family, rank)
        rep = weyl_representative(family, rank, w0)
        n = dim(family, rank)
        diag = [[sc(0)] * n for _ in range(n)]
        for k in range(n):
            diag[k][k] = sc(k + 2)
        conj = mat_mul(rep, mat_mul(diag, mat_inverse(rep)))
        assert all(conj[i][j].is_zero() for i in range(n) for j in range(n) if i != j)


def test_ad_torus_grading():
    for family, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]:
        n = dim(family, rank)
        c = Scalar(3, 0, 2)
        for gamma in simple_roots(family, rank):
            powers = coroot_diag(family, rank, gamma)
            t = [[c ** powers[i] if i == j else ZERO for j in range(n)]
                 for i in range(n)]
            tinv = mat_inverse(t)
            for tau in positive_roots(family, rank):
                e = e_matrix(family, rank, tau)
                assert mat_mul(t, mat_mul(e, tinv)) == scale(
                    c ** pairing(tau, gamma), e)


# -- the sparse root-vector kernels against dense products -------------

ORDER_CONFIGS = [("A", 4), ("B", 3), ("B", 4), ("C", 3), ("D", 4)]


def dense_exp(x, c):
    """exp(c x) = I + c x + c^2 x^2 / 2, densely, for a root vector x (x^3 = 0)."""
    x2 = mat_mul(x, x)
    return [[(ONE if i == j else ZERO) + c * v + c * c * Scalar(1, 0, 2) * w
             for j, (v, w) in enumerate(zip(r1, r2))] for i, (r1, r2) in enumerate(zip(x, x2))]


def jet_matrix(rng, n):
    """An n x n matrix whose entries are n * n distinct jet variables."""
    jets = Jet.variables([exact_scalar(rng) for _ in range(n * n)])
    return [jets[i * n:(i + 1) * n] for i in range(n)]


@pytest.mark.parametrize("family,rank", ORDER_CONFIGS)
def test_exp_and_peel_match_dense_products(family, rank):
    # exp_e and exp_f update the columns of g in place, one term after
    # another with no copy, so their terms must come in the order the
    # triple keeps; B's short roots chain a -> z -> N-1-a and catch any
    # other order; peel_left is g := exp(-c x) g
    rng = random.Random(f"order/{family}{rank}")
    n = dim(family, rank)
    for g, c in [([[exact_scalar(rng) for _ in range(n)] for _ in range(n)], exact_scalar(rng)),
                 (jet_matrix(rng, n), Jet.variables([exact_scalar(rng)])[0])]:
        for tau in positive_roots(family, rank):
            t = root_triple(family, rank, tau)
            for exp, x, entries, squares in [(exp_e, e_matrix, t.e, t.e2),
                                             (exp_f, f_matrix, t.f, t.f2)]:
                dense_x = x(family, rank, tau)
                assert exp(family, rank, tau, c, [row[:] for row in g]) == mat_mul(
                    g, dense_exp(dense_x, c))
                peeled = g[:]
                peel_left(entries, squares, c, peeled)
                assert peeled == mat_mul(dense_exp(dense_x, -c), g)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5)])
def test_triples_store_what_a_join_reads(family, rank):
    # the rows, first pivot and upper cut of a join, once per root: as
    # derived from f, and as what exp(z f) and exp(z e) do to a unit upper
    # triangular U, which every tail's U is
    rng = random.Random(f"join-fields/{family}{rank}")
    n = dim(family, rank)
    upper = [[ONE if i == j else exact_scalar(rng) + 5 if i < j else ZERO for j in range(n)]
             for i in range(n)]
    for tau in positive_roots(family, rank):
        t = root_triple(family, rank, tau)
        assert t.f_rows == tuple(sorted({i for r, c, _ in t.f for i in range(c + 1, r + 1)}))
        assert t.f_pivot == min(c for _, c, _ in t.f)
        assert t.e_end == max(c for _, c, _ in t.f) + 1
        m = exp_f(family, rank, tau, Scalar(3, 1), [row[:] for row in upper])
        below = {(i, j) for i in range(n) for j in range(i) if not m[i][j].is_zero()}
        assert {i for i, _ in below} == set(t.f_rows)
        assert min(j for _, j in below) == t.f_pivot
        moved = exp_e(family, rank, tau, Scalar(3, 1), [row[:] for row in upper])
        assert max(i for i in range(n) if moved[i] != upper[i]) == t.e_end - 1


@pytest.mark.parametrize("family,rank", ORDER_CONFIGS)
def test_triples_keep_the_order_mul_right_i_plus_needs(family, rank):
    # e by descending column, f by ascending, squares last: no term reads
    # (as its row) a column that an earlier term wrote
    chains = 0
    for tau in positive_roots(family, rank):
        t = root_triple(family, rank, tau)
        assert sorted(t.xe) == list(t.e) and sorted(t.xf) == list(t.f)
        for terms in (t.xe + t.e2, t.xf + t.f2):
            written = set()
            for r, col, _ in terms:
                assert r not in written
                written.add(col)
            chains += any(col == r for _, col, _ in terms for r, _, _ in terms)
    assert chains == (2 * rank if family == "B" else 0)


class Coefficient:
    """A coefficient that a unit entry must pass on, or negate, unmultiplied."""

    def __init__(self, sign=1):
        self.sign = sign

    def __neg__(self):
        return Coefficient(-self.sign)

    def __mul__(self, other):
        assert not (isinstance(other, Scalar) and other in (ONE, -ONE)), "multiplied by a unit"
        return Coefficient(self.sign * (other.sign if isinstance(other, Coefficient) else 1))

    def is_zero(self):
        return False


@pytest.mark.parametrize("family,rank", ORDER_CONFIGS)
def test_unit_entries_pass_the_coefficient_through(family, rank):
    units = 0
    for tau in positive_roots(family, rank):
        t = root_triple(family, rank, tau)
        for entries, squares in [(t.xe, t.e2), (t.xf, t.f2), (t.e, t.e2), (t.f, t.f2)]:
            c = Coefficient()
            terms = exp_terms(entries, squares, c)
            for k, ((_, _, v), (_, _, w)) in enumerate(zip(entries + squares, terms)):
                if v == ONE or v == -ONE:
                    units += 1
                    assert v is ONE or v is MINUS_ONE  # the shared objects
                    assert isinstance(w, Coefficient) and w.sign == v.a
                    assert w is c or v is MINUS_ONE or k >= len(entries)
        # every anchor is 1, or in B one of 1/2 and 2; a unit anchor is read
        # with no division
        for entries in (t.e, t.f):
            anchor = entries[0][2]
            assert anchor is ONE or family == "B" and anchor in (Scalar(1, 0, 2), Scalar(2))
            if anchor is ONE:
                c = Coefficient()
                g = [[c] * dim(family, rank) for _ in range(dim(family, rank))]
                assert anchor_coordinate(entries, g) is c
    assert units


def test_form_matrix_is_a_fresh_matrix_per_call():
    # a caller that writes into its form changes no later caller's
    form = form_matrix("C", 2)
    expected = [row[:] for row in form]
    form[0][3] = ZERO
    assert form_matrix("C", 2) == expected and form_matrix("C", 2) is not form
    assert run_self_check()["ok"] is True


def test_root_triple_refuses_a_root_that_is_not_positive():
    for family, rank, root in [("A", 2, (-1, 1, 0)), ("B", 2, (0, 0)), ("C", 2, (0, -2))]:
        with pytest.raises(InvalidInputError, match=f"not a positive root of {family}{rank}"):
            root_triple(family, rank, root)


def test_mat_inverse_refuses_a_singular_matrix():
    with pytest.raises(InvalidInputError, match="matrix is singular"):
        mat_inverse([[ONE, sc(2)], [sc(2), sc(4)]])
    assert mat_inverse([[ZERO, ONE], [ONE, ZERO]]) == [[ZERO, ONE], [ONE, ZERO]]
