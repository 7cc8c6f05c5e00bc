"""Triangular factorization and the coordinate maps, unit level.

Covers exact LDU (elimination and minor formulas), ordered product
extraction, the forward product, the transpose dual, the rational
inverse on frozen points and on the empty word, stratum detection, and
the error taxonomy.  The stratum map is checked against
``stratum_permutation`` and its ``matrix_rank``, a reference kept here:
it reads the permutation off northwest-submatrix ranks, independently
of how the stratum map builds its product.  The broad randomized
identities live in the acceptance suite.
"""

from __future__ import annotations

import math
import random
import types

import pytest

from rootfact import (
    ExceptionalSetError,
    InvalidInputError,
    InvalidWordError,
    Jet,
    Scalar,
    StratumError,
    canonical_word,
    det_exact,
    exp_f,
    forward_map,
    forward_map_stratum,
    haar_density,
    identity,
    identity_element,
    inverse_map,
    jacobian_det_ad,
    jacobian_det_double_product,
    jacobian_det_formula,
    ldu,
    ldu_minors,
    longest_element,
    mat_inverse,
    mat_mul,
    ordering_from_word,
    principal_minor,
    random_reduced_word,
    simple_reflection,
    stratum_data,
    transpose_dual,
    weyl_representative,
)
from rootfact import linalg
from rootfact.matrices import assemble_lower, assemble_upper, extract_lower, extract_upper
from rootfact.factorization import word_plan
from rootfact.scalar import ONE, ZERO, power_product

from conftest import exact_scalar, generic_pairs, pairs_equal
from helpers import mat_transpose


def matrix_rank(x) -> int:
    m = [row[:] for row in x]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, rows) if not m[i][col].is_zero()), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for i in range(row + 1, rows):
            f = m[i][col]
            if f.is_zero():
                continue
            m[i] = [u - (f / p) * v for u, v in zip(m[i], m[row])]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def stratum_permutation(g) -> tuple[int, ...]:
    """The permutation w with g in N- w T N+ (invertible g, family A).

    Northwest submatrix ranks are invariant under left lower and right
    upper unipotent factors, so w(j) is the first row index at which
    appending column j raises rank(g[:i, :j])."""
    n = len(g)

    def nw_rank(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        return matrix_rank([row[:j] for row in g[:i]])

    images = []
    for j in range(1, n + 1):
        val = next(
            (
                i
                for i in range(1, n + 1)
                if nw_rank(i, j) == nw_rank(i, j - 1) + 1
            ),
            None,
        )
        if val is None:
            raise InvalidInputError("matrix is singular")
        images.append(val)
    return tuple(images)


def rational_matrix(rng: random.Random, n: int):
    return [[exact_scalar(rng) for _ in range(n)] for _ in range(n)]


def unitriangular(rng: random.Random, n: int, lower: bool):
    out = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                out[i][j] = exact_scalar(rng)
    return out


def test_ldu_identity():
    lower, d, upper = ldu(identity(3))
    assert lower == identity(3) and upper == identity(3)
    assert d == [ONE, ONE, ONE]


def test_ldu_two_by_two_formulas():
    a, b, c, d = Scalar(2), Scalar(3), Scalar(5), Scalar(7)
    lower, diag, upper = ldu([[a, b], [c, d]])
    assert lower[1][0] == c / a
    assert upper[0][1] == b / a
    assert diag == [a, (a * d - b * c) / a]


def test_ldu_multiply_back():
    rng = random.Random(5)
    for _ in range(10):
        lower = unitriangular(rng, 4, lower=True)
        upper = unitriangular(rng, 4, lower=False)
        diag = []
        for _ in range(4):
            while True:
                v = exact_scalar(rng)
                if not v.is_zero():
                    diag.append(v)
                    break
        g = mat_mul(lower, mat_mul([[diag[i] if i == j else ZERO for j in range(4)]
                                    for i in range(4)], upper))
        got_l, got_d, got_u = ldu(g)
        assert got_l == lower and got_u == upper and got_d == diag
        assert ldu_minors(g) == (got_l, got_d, got_u)


def test_ldu_stratum_failures():
    antidiag = [[ZERO, ONE], [ONE, ZERO]]
    with pytest.raises(StratumError) as info:
        ldu(antidiag)
    assert info.value.index == 1
    # invertible but with a vanishing second principal minor
    g = [[ONE, ONE, ZERO], [ONE, ONE, ONE], [ZERO, ONE, ZERO]]
    assert not det_exact(g).is_zero()
    for fn in (ldu, ldu_minors):
        with pytest.raises(StratumError) as info:
            fn(g)
        assert info.value.index == 2


@pytest.mark.parametrize("fn", [det_exact, ldu, mat_inverse])
@pytest.mark.parametrize("shape", ["wide", "tall", "ragged"])
def test_a_matrix_that_is_not_square_is_refused(fn, shape):
    # each of them would otherwise read the leading square block, or run
    # off a short row, and answer for a matrix that has no determinant
    g = {
        "wide": [[ONE, Scalar(2), ONE], [Scalar(3), ONE, ZERO]],
        "tall": [[ONE, Scalar(2)], [Scalar(3), ONE], [ONE, ZERO]],
        "ragged": [[ONE, Scalar(2)], [Scalar(3)]],
    }[shape]
    with pytest.raises(InvalidInputError, match="matrix is not square"):
        fn(g)


def test_principal_minors_and_rank():
    g = [[Scalar(2), ONE, ZERO], [ONE, Scalar(2), ONE], [ZERO, ONE, Scalar(2)]]
    assert principal_minor(g, 1) == Scalar(2)
    assert principal_minor(g, 2) == Scalar(3)
    assert principal_minor(g, 3) == det_exact(g) == Scalar(4)
    assert matrix_rank(g) == 3
    assert matrix_rank([[ONE, ONE], [ONE, ONE]]) == 1


def elimination_det(x):
    """Reference determinant: Gaussian elimination over Scalars."""
    m = [row[:] for row in x]
    n = len(m)
    det = ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [u - f * v for u, v in zip(m[i], m[k])]
    return det


def sparse_matrix(rng: random.Random, n: int, density: float):
    """Random entries at the given density, and a nonzero one at (i, perm(i))
    for a random permutation, so that most are invertible."""
    g = [[exact_scalar(rng) if rng.random() < density else ZERO for _ in range(n)]
         for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        g[i][j] = exact_scalar(rng) + Scalar(5)
    return g


def parity(perm) -> int:
    """(-1) to the number of inversions."""
    n = len(perm)
    return (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))


def permuted(rng: random.Random, g, odd: bool):
    """g with its rows and columns shuffled, the two together odd or even."""
    n = len(g)
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    if n > 1 and (parity(rows) * parity(cols) == -1) != odd:
        rows[0], rows[1] = rows[1], rows[0]
    return [[g[i][j] for j in cols] for i in rows]


def block_triangular(rng: random.Random, sizes, density: float):
    """Block lower-triangular: sparse diagonal blocks of the given sizes,
    whose patterns all admit a perfect matching, and entries below them
    at the given density."""
    n = sum(sizes)
    g = [[ZERO] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i, row in enumerate(sparse_matrix(rng, size, density)):
            g[start + i][start:start + size] = row
            for j in range(start):
                if rng.random() < density:
                    g[start + i][j] = exact_scalar(rng)
        start += size
    return g


@pytest.mark.parametrize("density", [0.15, 0.3, 0.6, 1.0])
def test_det_exact_matches_elimination(density):
    # sparse matrices leave rows untouched for many steps and need row
    # swaps; one case in five has a zero leading pivot, two are singular
    rng = random.Random(f"det/{density}")
    assert det_exact([]) == ONE
    for trial in range(50):
        n = 1 + trial % 12
        g = sparse_matrix(rng, n, density)
        case = trial % 5
        if case == 1:
            g[0][0] = ZERO
        elif case == 2 and n > 2:
            # the last row is a combination of the first two
            c = exact_scalar(rng)
            g[n - 1] = [u + c * v for u, v in zip(g[0], g[1])]
            assert det_exact(g) == ZERO
        elif case == 3:
            g[rng.randrange(n)] = [ZERO] * n
        assert det_exact(g) == elimination_det(g)
    # shuffled block-triangular matrices: 1x1 and larger diagonal blocks,
    # odd and even shuffles, a pattern with no perfect matching and a
    # fully matched block that is singular in value
    for trial in range(40):
        sizes = [rng.choice([1, 1, 2, 3, 5]) for _ in range(rng.randint(1, 6))]
        g = block_triangular(rng, sizes, density)
        n = len(g)
        case = trial % 4
        if case == 2 and n > 2:
            # three rows with nonzeros in two columns only
            for i in range(3):
                g[i] = [exact_scalar(rng) + Scalar(5) if j < 2 else ZERO for j in range(n)]
        elif case == 3:
            # a last, dense 2 x 2 block of rank one
            a, b, c = (exact_scalar(rng) + Scalar(5) for _ in range(3))
            g = block_triangular(rng, sizes + [2], density)
            n = len(g)
            g[n - 2][n - 2:], g[n - 1][n - 2:] = [a, b], [c * a, c * b]
        g = permuted(rng, g, odd=trial % 2 == 1)
        if case == 3 or (case == 2 and n > 2):
            assert det_exact(g) == ZERO
        assert det_exact(g) == elimination_det(g)
    # triangular chains, shuffled: row i with one entry outside columns
    # 0 .. i - 1, the same for columns, both chains around one dense
    # core, dense 2 x 2 diagonal blocks, and a chain whose rows 0 .. k
    # have their nonzeros in k columns, so the det is zero
    for trial in range(40):
        k, case = 1 + trial % 4, trial % 5
        core = [[exact_scalar(rng) + Scalar(5) for _ in range(2 + trial % 3)]
                for _ in range(2 + trial % 3)]
        g = [
            row_chain(rng, k, core),
            mat_transpose(row_chain(rng, k, core)),
            row_chain(rng, k, mat_transpose(row_chain(rng, k, core))),
            block_diagonal_pairs(rng, k),
            row_chain(rng, k + 1, core),
        ][case]
        if case == 4:
            # row k then has nonzeros only in the columns of rows 0 .. k - 1
            g[k][k] = ZERO
            if trial % 2:
                g = mat_transpose(g)
        g = permuted(rng, g, odd=trial % 2 == 1)
        det = det_exact(g)
        assert det == elimination_det(g)
        if case == 4:
            assert det == ZERO


def core_sizes(monkeypatch) -> list:
    """The sizes of the matrices ``_eliminate`` receives from now on."""
    sizes = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda x: sizes.append(len(x)) or eliminate(x))
    return sizes


def row_chain(rng: random.Random, k: int, core):
    """Block lower-triangular: k 1 x 1 blocks, then core, with every entry
    below the diagonal blocks nonzero, so that row i has one entry outside
    columns 0 .. i - 1, and no column outside the core fewer than two."""
    n = k + len(core)
    g = [[exact_scalar(rng) + Scalar(5) if j <= i else ZERO for j in range(n)]
         for i in range(n)]
    for i, row in enumerate(core):
        g[k + i][k:] = row
    return g


def block_diagonal_pairs(rng: random.Random, k: int):
    """k dense 2 x 2 diagonal blocks: every row and column has two entries."""
    g = [[ZERO] * (2 * k) for _ in range(2 * k)]
    for b in range(0, 2 * k, 2):
        for i in (b, b + 1):
            g[i][b:b + 2] = [exact_scalar(rng) + Scalar(5) for _ in range(2)]
    return g


def test_det_exact_of_a_deep_shuffled_bidiagonal():
    # a chain of 1500 one-by-one blocks, shuffled: a large sparse matrix
    # whose det, the product of its diagonal, elimination reaches by row
    # swaps
    rng = random.Random("det/deep")
    n = 1500
    g = [[ZERO] * n for _ in range(n)]
    expected = ONE
    for i in range(n):
        g[i][i] = exact_scalar(rng) + Scalar(5)
        expected = expected * g[i][i]
        if i:
            g[i][i - 1] = exact_scalar(rng) + Scalar(5)
    order = rng.sample(range(n), n)
    assert det_exact([[g[i][j] for j in order] for i in order]) == expected


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
def test_det_exact_reduces_the_peeled_product_once(odd):
    # diagonal entries whose numerators and denominators cancel across
    # entries, 2/3 against 3/2 and (1+i)/5 against 5(1-i)/2, and 6/5
    # against a 2 x 2 block of det -5/6: the product of the pivots is
    # carried unreduced, so only its one reduction at the end gives the
    # canonical -1 or 1
    rng = random.Random(f"det/cancel/{odd}")
    core = [[Scalar(1, 0, 3), ONE], [ONE, Scalar(1, 0, 2)]]
    peeled = [Scalar(2, 0, 3), Scalar(3, 0, 2), Scalar(1, 1, 5), Scalar(5, -5, 2), Scalar(6, 0, 5)]
    n = len(peeled) + 2
    g = [[ZERO] * n for _ in range(n)]
    for i, v in enumerate(peeled):
        g[i][i] = v
    for i, row in enumerate(core):
        g[n - 2 + i][n - 2:] = row
    g = permuted(rng, g, odd)
    det = det_exact(g)
    assert (det.a, det.b, det.d) == (1 if odd else -1, 0, 1)
    assert det == elimination_det(g)


def integer_matrix(rng: random.Random, n: int):
    return [[Scalar(rng.randint(-9, 9), rng.randint(-9, 9) * (rng.random() < 0.4))
             for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("case", ["zero", "imaginary", "negative", "whole", "rational"])
def test_det_exact_scales_with_each_columns_content(case):
    # scaling column j by c_j scales the det by the product of the c_j,
    # whatever the kind of content
    rng = random.Random(f"det/content/{case}")
    for trial in range(12):
        n = 1 + trial % 6
        base = integer_matrix(rng, n)
        if case == "zero":
            # an all-zero column has gcd 0 and is left as it is
            scales, j = [ONE] * n, rng.randrange(n)
            for row in base:
                row[j] = ZERO
        elif case == "imaginary":
            # real entries times 3i or -10i: content only in the imaginary parts
            base = [[Scalar(v.a) for v in row] for row in base]
            scales = [rng.choice([Scalar(0, 3), Scalar(0, -10), ONE]) for _ in range(n)]
        elif case == "negative":
            scales = [Scalar(rng.choice([-2, -6, -15, 1])) for _ in range(n)]
        elif case == "whole":
            scales = [Scalar(12)] * n
        else:
            # rational entries times Gaussian-rational scales
            base = [[exact_scalar(rng) + Scalar(5) for _ in range(n)] for _ in range(n)]
            scales = [rng.choice([Scalar(4, 6), Scalar(1, 7, 3), Scalar(-21)]) for _ in range(n)]
        g = [[v * c for v, c in zip(row, scales)] for row in base]
        det = det_exact(g)
        assert det == elimination_det(g)
        assert det == math.prod(scales, start=ONE) * elimination_det(base)
        if case == "zero":
            assert det == ZERO
    # a 1 x 1 matrix is its own pivot, passed on as it is
    assert linalg._eliminate([[Scalar(6, -4, 5)]]) == (6, -4, 5)
    assert linalg._eliminate([[Scalar(0, -8)]]) == (0, -8, 1)


@pytest.mark.parametrize("swaps", [1, 2], ids=["odd", "even"])
def test_det_exact_pivots_on_the_smallest_entry(monkeypatch, swaps):
    # five dense 2 x 2 diagonal blocks: each column pivots on its block's
    # entry with fewer bits, a lower one by a row swap: `swaps` of the
    # first four blocks swap rows, where the first nonzero as pivot would
    # swap none, and the fifth block is a tie
    small, big, tie = Scalar(2, -1, 3), Scalar(1000, 999, 7), Scalar(-3)
    firsts = [(big, small)] * swaps + [(small, big)] * (4 - swaps) + [(tie, Scalar(3))]
    g = [[ZERO] * 10 for _ in range(10)]
    expected = ONE
    for b, (upper, lower) in enumerate(firsts):
        x, y = Scalar(b + 1, 1), Scalar(5, -b, 2)
        g[2 * b][2 * b:2 * b + 2] = [upper, x]
        g[2 * b + 1][2 * b:2 * b + 2] = [lower, y]
        expected = expected * (upper * y - x * lower)
    sizes = core_sizes(monkeypatch)
    assert det_exact(g) == elimination_det(g) == expected
    assert sizes == [10]


def test_eliminate_breaks_a_pivot_tie_by_the_lowest_row():
    # 3 and 1/2 both have 3 bits: the upper row's 3 is the pivot, then
    # 1 - 1/6 = 5/6, an unreduced 15/6; the lower row's 1/2 would give 5/2
    assert linalg._eliminate([[Scalar(3), ONE], [Scalar(1, 0, 2), ONE]]) == (15, 0, 6)


@pytest.mark.parametrize(
    "family,rank,bound", [("A", 8, 160), ("D", 5, 135), ("B", 4, 100)])
def test_jacobian_det_ad_eliminates_small_integers(monkeypatch, family, rank, bound):
    # the largest integer the elimination reduces: 108, 118 and 76 bits
    # with the entry of fewest bits as pivot, 231, 151 and 136 with the
    # first nonzero one
    largest = [0]

    def gcd(*parts):
        largest[0] = max(largest[0], *(p.bit_length() for p in parts))
        return math.gcd(*parts)

    monkeypatch.setattr(linalg, "math", types.SimpleNamespace(gcd=gcd))
    word = random_reduced_word(family, rank, 1)
    pairs = generic_pairs(random.Random(f"peel/{family}{rank}/1"), len(word))
    jacobian_det_ad(family, rank, word, pairs)
    assert 0 < largest[0] <= bound


def ldu_outcome(fn, g):
    try:
        return fn(g)
    except StratumError as err:
        return ("stratum", err.payload())
    except InvalidInputError as err:
        return ("singular", err.payload())


@pytest.mark.parametrize("density", [0.3, 1.0])
def test_ldu_matches_ldu_minors(density):
    # elimination against quotients of minors: the same factors, or the
    # same first vanishing leading minor, or both singular
    rng = random.Random(f"ldu/{density}")
    kinds = set()
    for trial in range(60):
        n = 1 + trial % 7
        g = sparse_matrix(rng, n, density)
        case = trial % 4
        if case == 1 and n > 1:
            # row k - 1 of the leading k x k block is a combination of those above
            k = rng.randrange(1, n)
            cs = [exact_scalar(rng) for _ in range(k - 1)]
            g[k - 1][:k] = [sum((c * g[i][j] for i, c in enumerate(cs)), ZERO) for j in range(k)]
        elif case == 2 and n > 1:
            # the last row is a multiple of an earlier one
            c = exact_scalar(rng)
            g[n - 1] = [c * v for v in g[rng.randrange(n - 1)]]
        got = ldu_outcome(ldu, g)
        assert got == ldu_outcome(ldu_minors, g)
        kinds.add(got[0] if isinstance(got[0], str) else "factors")
    assert kinds == {"factors", "stratum", "singular"}


def test_extraction_round_trip():
    word = (1, 2, 1, 3, 2, 1)
    taus = ordering_from_word("A", 3, word)
    rng = random.Random(9)
    coeffs = [exact_scalar(rng) for _ in taus]
    lower = assemble_lower("A", 3, taus, coeffs)
    assert extract_lower("A", 3, taus, lower) == coeffs
    upper = assemble_upper("A", 3, taus, coeffs)
    assert extract_upper("A", 3, taus, upper) == coeffs


def test_extraction_edge_cases():
    word = (1, 2, 1)
    taus = ordering_from_word("A", 2, word)
    assert extract_lower("A", 2, taus, identity(3)) == [ZERO, ZERO, ZERO]
    z = Scalar(4, 1, 3)
    g = exp_f("A", 2, taus[1], z, identity(3))
    assert extract_lower("A", 2, taus, g) == [ZERO, z, ZERO]
    with pytest.raises(InvalidInputError):
        extract_lower("A", 2, taus, [[ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])


def test_forward_zero_is_identity():
    res = forward_map("A", 2, (1, 2, 1), [(0, 0), (0, 0), (0, 0)])
    assert res.matrix == identity(3)
    assert res.l == [ZERO, ZERO, ZERO] and res.u == [ZERO, ZERO, ZERO]
    assert res.h == [ONE, ONE, ONE]


def test_forward_frozen_gl3_point():
    res = forward_map("A", 2, (1, 2, 1), [(1, 4), (2, 5), (3, 6)])
    assert res.l == [Scalar(13), Scalar(2), Scalar(3)]
    assert res.u == [Scalar(4), Scalar(5), Scalar(1)]
    assert res.s == [Scalar(5), Scalar(11), Scalar(19)]
    got = inverse_map("A", 2, (1, 2, 1), res.l, res.u)
    assert pairs_equal(got, [(1, 4), (2, 5), (3, 6)])


def test_forward_validates_input():
    with pytest.raises(InvalidInputError):
        forward_map("A", 2, (1, 2, 1), [(1, 1)])
    with pytest.raises(InvalidWordError):
        forward_map("A", 2, (1, 1, 2), [(0, 0), (0, 0), (0, 0)])


@pytest.mark.parametrize("bad", [(1,), (1, 2, 3)])
@pytest.mark.parametrize("call", [forward_map, transpose_dual, jacobian_det_ad, haar_density])
def test_pairs_need_exactly_two_entries(call, bad):
    # neither a bare IndexError for a short pair nor a long one read as its first two
    with pytest.raises(InvalidInputError, match=f"coordinate pair 2 has {len(bad)} entries, not 2"):
        call("A", 2, (1, 2, 1), [(1, 1), bad, (0, 0)])


def test_inverse_exceptional_point():
    with pytest.raises(ExceptionalSetError) as info:
        inverse_map("A", 2, (1, 2, 1), [0, 1, 0], [0, -1, 0])
    assert info.value.payload()["kind"] == "exceptional-set"
    assert info.value.index == 1


def test_inverse_empty_word():
    # no pairs: the walk does not run, the tails stay I and close at once,
    # so only the coordinate counts and the torus are checked
    assert inverse_map("A", 2, (), [], []) == []
    assert inverse_map("A", 2, (), [], [], h=[Scalar(2), Scalar(3), Scalar(1, 0, 6)]) == []
    assert inverse_map("C", 2, (), [], [], h=[Scalar(2), Scalar(-3), Scalar(-1, 0, 3),
                                              Scalar(1, 0, 2)]) == []
    with pytest.raises(InvalidInputError):
        inverse_map("A", 2, (), [ONE], [ONE])
    with pytest.raises(InvalidInputError):
        inverse_map("C", 2, (), [], [], h=[Scalar(2)] * 4)


@pytest.mark.parametrize("nl,nu", [(3, 2), (2, 3), (3, 4), (4, 3)])
def test_inverse_counts_each_coordinate_list(nl, nu):
    # one list of the right length does not excuse the other
    with pytest.raises(InvalidInputError, match="^expected 3 lower and upper coordinates$"):
        inverse_map("A", 2, (1, 2, 1), [1] * nl, [1] * nu)


def test_transpose_dual_frozen_gl2():
    eta, hdual = transpose_dual("A", 1, (1,), [(1, 2)])
    assert pairs_equal(eta, [(Scalar(-2, 0, 3), Scalar(-3))])
    assert hdual == [Scalar(3), Scalar(1, 0, 3)]


def test_jacobian_triple_value_gl3():
    point = [(1, 4), (2, 5), (3, 6)]
    expected = Scalar(11)  # the lone weight-two root contributes s^1
    assert jacobian_det_formula("A", 2, (1, 2, 1), point) == expected
    assert jacobian_det_double_product("A", 2, (1, 2, 1), point) == expected
    assert jacobian_det_ad("A", 2, (1, 2, 1), point) == expected


def test_closed_form_products_reduce_once():
    # at the canonical A3 word the double product takes s_3, s_5 and s_6 to
    # the powers -1 and +1 in separate terms, and s_2 = 2/3 cancels s_5 = 3/2
    # in both products; each is carried unreduced, so only its one reduction
    # at the end gives the canonical 1
    word = canonical_word("A", 3)
    point = [(2, 3), (1, Scalar(-1, 0, 3)), (Scalar(1, 1, 2), Scalar(2, -1, 5)), (0, 7),
             (1, Scalar(1, 0, 2)), (Scalar(0, 1, 3), Scalar(3, 2, 7))]
    assert [dict(row)[2] for row in word_plan("A", 3, word).suffix[:2]] == [-1, 1]
    for f in (jacobian_det_double_product, jacobian_det_formula, jacobian_det_ad):
        det = f("A", 3, word, point)
        assert (det.a, det.b, det.d) == (1, 0, 1), f.__name__
    s = Scalar(1, 2, 3)
    for terms in ([(s, 1), (s, -1)], [(s, -2), (Scalar(2, 0, 3), 1), (s, 2), (Scalar(3, 0, 2), 1)]):
        out = power_product(terms)
        assert (out.a, out.b, out.d) == (1, 0, 1)
    with pytest.raises(ZeroDivisionError):
        power_product([(s, 1), (ZERO, -1)])


# reduced words of some w < w_0, whose lower factor at a generic point
# may or may not be an ordered product over their roots
SHORT_WORDS = [("A", 4, (1, 2)), ("A", 3, (1, 3)), ("D", 3, (1, 2, 3, 2))]


@pytest.mark.parametrize("family,rank,word", SHORT_WORDS)
def test_jacobian_refuses_a_word_shorter_than_w0(monkeypatch, family, rank, word):
    # the refusal comes before any jet is made
    def no_jets(cls, values):
        raise AssertionError("a jet was seeded")

    monkeypatch.setattr(Jet, "variables", classmethod(no_jets))
    for pairs in (generic_pairs(random.Random(f"short/{family}{rank}"), len(word)),
                  [(0, 0)] * len(word)):
        with pytest.raises(InvalidWordError, match="not a word of the longest element"):
            jacobian_det_ad(family, rank, word, pairs)
    # the closed forms take any reduced word
    assert jacobian_det_formula(family, rank, word, pairs) == ONE


def test_jacobian_of_the_empty_word_is_one():
    assert jacobian_det_ad("B", 3, (), []) == ONE
    assert jacobian_det_ad("A", 1, [], []) == ONE


def test_stratum_map_longest_element():
    w0 = longest_element("A", 2)
    res = forward_map_stratum("A", 2, w0, [])
    assert res.matrix == weyl_representative("A", 2, w0)
    assert res.taus == ()


def test_stratum_map_identity_matches_forward():
    rng = random.Random(31)
    pairs = generic_pairs(rng, 3)
    w1 = identity_element("A", 2)
    res = forward_map_stratum("A", 2, w1, pairs)
    assert res.matrix == forward_map("A", 2, (1, 2, 1), pairs).matrix


def test_stratum_map_detection():
    rng = random.Random(43)
    w = simple_reflection("A", 2, 1)
    res = forward_map_stratum("A", 2, w, generic_pairs(rng, 2))
    assert stratum_permutation(res.matrix) == (2, 1, 3)
    assert len(res.taus) == 2
    with pytest.raises(InvalidInputError):
        forward_map_stratum("A", 2, w, generic_pairs(rng, 3))
    # every element of A3, B3, C3 and D4, reached by a search from the
    # identity, lands at a generic point in the stratum of its
    # representative (for A, w itself), and distinct elements in distinct ones
    for family, rank, order in (("A", 3, 24), ("B", 3, 48), ("C", 3, 48), ("D", 4, 192)):
        seen = [identity_element(family, rank)]
        for v in seen:
            for i in range(1, rank + 1):
                u = v * simple_reflection(family, rank, i)
                if u not in seen:
                    seen.append(u)
        assert len(seen) == order
        perms = set()
        for w in seen:
            pairs = generic_pairs(rng, len(stratum_data(family, rank, w)[1]))
            perm = stratum_permutation(forward_map_stratum(family, rank, w, pairs).matrix)
            assert perm == stratum_permutation(weyl_representative(family, rank, w))
            assert family != "A" or perm == w.images
            perms.add(perm)
        assert len(perms) == order


def test_stratum_permutation_generic():
    rng = random.Random(17)
    pairs = generic_pairs(rng, 3)
    g = forward_map("A", 2, (1, 2, 1), pairs).matrix
    assert stratum_permutation(g) == (1, 2, 3)
    flip = weyl_representative("A", 2, longest_element("A", 2))
    perm = stratum_permutation(flip)
    assert perm == (3, 2, 1)
    with pytest.raises(InvalidInputError):
        stratum_permutation([[ONE, ONE], [ONE, ONE]])


def test_mat_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(5):
        g = rational_matrix(rng, 3)
        if det_exact(g).is_zero():
            continue
        assert mat_mul(g, mat_inverse(g)) == identity(3)
