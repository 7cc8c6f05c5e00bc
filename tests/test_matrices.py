"""Matrix realizations: generators, brackets, exponentials, representatives.

Families realize as GL(rank+1), O(2r+1), Sp(2r), O(2r); generator
triples satisfy the standard bracket relations and group elements
preserve the family's bilinear form.  All entries are exact scalars.
"""

from __future__ import annotations

import random

import pytest

from rootfact import (
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
from rootfact.scalar import I, ONE, ZERO, sc

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
