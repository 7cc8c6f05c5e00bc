"""Matrix realizations of the classical families and root-group tools.

Realization sizes: A at rank r acts on N = r + 1, B on N = 2r + 1,
C and D on N = 2r.  For B, C, D the basis rows carry the weights
l_r, ..., l_1 (top to bottom), then 0 for the middle row of B, then
-l_1, ..., -l_r, so row a and row N + 1 - a carry opposite weights
and the positive root spaces sit strictly above the diagonal.

Every positive root tau gets one canonical triple (e, f, h) with
[e, f] = h, tau(h) = 2, and sigma(e) = f for the anti-automorphism
sigma(X) = S X^T S^{-1} whose diagonal S is the identity except in
family B.  The triples drive ordered exponential products, their
coordinate extraction, and the Weyl representatives, products of
exp(i e) exp(i f) exp(i e) over simple roots.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import InvalidInputError
from .linalg import identity, mat_inverse, mul_right_i_plus
from .rootsystem import ambient_dim, check_family_rank, pairing, positive_roots
from .scalar import I as IMAG
from .scalar import MINUS_ONE, ONE, ZERO, Scalar, sc
from .weyl import WeylElement, deterministic_reduced_word, simple_roots

HALF = Scalar(1, 0, 2)
TWO = Scalar(2)


def dim(family: str, rank: int) -> int:
    check_family_rank(family, rank)
    if family == "A":
        return rank + 1
    if family == "B":
        return 2 * rank + 1
    return 2 * rank


def row_weight(family: str, rank: int, row: int) -> tuple:
    """Weight of basis row ``row`` (0-based) as a coordinate tuple."""
    n = dim(family, rank)
    m = ambient_dim(family, rank)
    out = [0] * m
    if family == "A":
        out[row] = 1
        return tuple(out)
    r = rank
    if row < r:
        out[r - 1 - row] = 1
    elif family == "B" and row == r:
        pass
    else:
        offset = r + 1 if family == "B" else r
        out[row - offset] = -1
    return tuple(out)


def coroot_diag(family: str, rank: int, root: tuple) -> list[int]:
    """Diagonal of h_root: each row weight paired against the root."""
    return [
        pairing(row_weight(family, rank, a), root) for a in range(dim(family, rank))
    ]


# Sparse canonical (e, f, h) data for one positive root: e and f are
# ((row, col, Scalar), ...) sorted by (row, col), whose first entry is the
# anchor that coordinate extraction reads; h is the diagonal as ints; e2 and
# f2 are e^2 and f^2, empty but for a short root of B: e^2 = -E(a, N-1-a).
# xe and xf order e by descending and f by ascending column, as exp_e and
# exp_f hand them to mul_right_i_plus, so that no entry reads a column an
# earlier one wrote; the squares read only columns no entry writes, as
# X^3 = 0 and the rows carry distinct weights.  Every entry 1 or -1 is ONE
# or MINUS_ONE.  A join by the root reads f_rows, the rows c + 1, ..., r an
# entry (r, c) of f reaches, ascending; f_pivot = min c, its first pivot; and
# e_end = max c + 1: exp(z e) moves an upper triangular factor's rows before
# it.
RootTriple = namedtuple("RootTriple", "root e f h e2 f2 xe xf f_rows f_pivot e_end")


def _entries(entries):
    """The (row, col, v) sorted, zeros left out and each unit v the shared one."""
    return tuple(sorted((r, c, ONE if v == ONE else MINUS_ONE if v == MINUS_ONE else v)
                        for r, c, v in entries if not v.is_zero()))


@lru_cache(maxsize=None, typed=True)
def root_triple(family: str, rank: int, root: tuple) -> RootTriple:
    if root not in set(positive_roots(family, rank)):
        raise InvalidInputError(f"not a positive root of {family}{rank}: {root!r}")
    n = dim(family, rank)
    nz = [(k + 1, c) for k, c in enumerate(root) if c]

    def mir(x: int) -> int:
        return n - 1 - x

    e2 = ()  # e^2, nonzero only for a short root of B
    if family == "A":
        i = root.index(1)
        j = root.index(-1)
        e = ((i, j, ONE),)
    else:
        r = rank

        def row(k: int) -> int:
            return r - k

        if len(nz) == 1:
            k, c = nz[0]
            a = row(k)
            if c == 1:  # short root of B
                z = r
                e = ((a, z, ONE), (z, mir(a), -ONE))
                e2 = ((a, mir(a), MINUS_ONE),)
            else:  # long root of C
                e = ((a, mir(a), ONE),)
        else:
            (m_idx, cm), (k_idx, ck) = nz
            ak, am = row(k_idx), row(m_idx)
            if cm == -1:  # l_k - l_m
                e = ((ak, am, ONE), (mir(am), mir(ak), -ONE))
            elif family == "B":  # l_k + l_m
                e = ((ak, mir(am), HALF), (am, mir(ak), -HALF))
            elif family == "C":
                e = ((ak, mir(am), ONE), (am, mir(ak), ONE))
            else:
                e = ((ak, mir(am), ONE), (am, mir(ak), -ONE))
    s = sigma_diag(family, rank)
    e = _entries(e)
    # f = sigma(e) = S e^T S^{-1}, and f^2 = sigma(e^2)
    f, f2 = (_entries((y, x, s[y] * v / s[x]) for x, y, v in xs) for xs in (e, e2))
    h = tuple(coroot_diag(family, rank, root))
    return RootTriple(root, e, f, h, e2, f2,
                      xe=tuple(sorted(e, key=lambda t: -t[1])),
                      xf=tuple(sorted(f, key=lambda t: t[1])),
                      f_rows=tuple(sorted({i for r, c, _ in f for i in range(c + 1, r + 1)})),
                      f_pivot=min(c for _, c, _ in f), e_end=max(c for _, c, _ in f) + 1)


def dense(entries, n: int):
    out = [[ZERO] * n for _ in range(n)]
    for (r, c, v) in entries:
        out[r][c] = out[r][c] + v
    return out


def e_matrix(family: str, rank: int, root: tuple):
    return dense(root_triple(family, rank, root).e, dim(family, rank))


def f_matrix(family: str, rank: int, root: tuple):
    return dense(root_triple(family, rank, root).f, dim(family, rank))


def h_matrix(family: str, rank: int, root: tuple):
    n = dim(family, rank)
    t = root_triple(family, rank, root)
    return [[sc(t.h[i]) if i == j else ZERO for j in range(n)] for i in range(n)]


# -- exponentials -----------------------------------------------------


def exp_terms(triple_entries, square_entries, c):
    """Sparse terms of exp(c X) - I for a root vector X (X^3 = 0), in the
    order of the entries, squares last: c v for an entry v of X and
    (c^2 / 2) v for one of X^2, where the shared ONE passes the coefficient
    on and MINUS_ONE negates it, with no product."""
    terms = [(r, col, _times(c, v)) for (r, col, v) in triple_entries]
    if square_entries:
        cc = c * c * HALF
        terms.extend((r, col, _times(cc, v)) for (r, col, v) in square_entries)
    return terms


def _times(c, v):
    return c if v is ONE else -c if v is MINUS_ONE else c * v


def exp_f(family: str, rank: int, root: tuple, c, g):
    """Multiply g on the right by exp(c * f_root)."""
    t = root_triple(family, rank, root)
    return mul_right_i_plus(g, exp_terms(t.xf, t.f2, c))


def exp_e(family: str, rank: int, root: tuple, c, g):
    t = root_triple(family, rank, root)
    return mul_right_i_plus(g, exp_terms(t.xe, t.e2, c))


# -- structural maps --------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def sigma_diag(family: str, rank: int) -> tuple:
    n = dim(family, rank)
    if family != "B":
        return (ONE,) * n
    r = rank
    out = []
    for a in range(n):
        if a < r:
            out.append(ONE)
        elif a == r:
            out.append(TWO)
        else:
            out.append(Scalar(4))
    return tuple(out)


def sigma(family: str, rank: int, x):
    """The transpose-like anti-automorphism S X^T S^{-1}."""
    s = sigma_diag(family, rank)
    n = dim(family, rank)
    return [[s[u] * x[v][u] / s[v] for v in range(n)] for u in range(n)]


def inverse_dual(family: str, rank: int, g):
    """sigma(g^{-1}), the group-level dual of g."""
    return sigma(family, rank, mat_inverse(g))


def form_matrix(family: str, rank: int):
    """Invariant bilinear form, a fresh matrix per call; None for family A."""
    if family == "A":
        return None
    n = dim(family, rank)
    out = [[ZERO] * n for _ in range(n)]
    for u in range(n):  # the antidiagonal, its lower half -1 in family C
        out[u][n - 1 - u] = MINUS_ONE if family == "C" and u > n - 1 - u else ONE
    return out


# -- Weyl representatives ---------------------------------------------


def weyl_representative(family: str, rank: int, w: WeylElement):
    """Product of the representatives exp(i e) exp(i f) exp(i e) of the
    simple reflections along the deterministic reduced word of w (first
    letter rightmost), each put on the right factor by factor."""
    g = identity(dim(family, rank))
    simples = simple_roots(family, rank)
    for i in reversed(deterministic_reduced_word(w)):
        for exp in (exp_e, exp_f, exp_e):
            g = exp(family, rank, simples[i - 1], IMAG, g)
    return g


# -- ordered exponential coordinates ----------------------------------


def assemble_lower(family: str, rank: int, taus, coeffs):
    """exp(c_n f_n) *** exp(c_1 f_1) for the given root sequence."""
    g = identity(dim(family, rank))
    for tau, c in zip(reversed(taus), reversed(list(coeffs))):
        g = exp_f(family, rank, tau, c, g)
    return g


def assemble_upper(family: str, rank: int, taus, coeffs):
    g = identity(dim(family, rank))
    for tau, c in zip(reversed(taus), reversed(list(coeffs))):
        g = exp_e(family, rank, tau, c, g)
    return g


def extract_lower(family: str, rank: int, taus, g):
    """Read off c_j from a product exp(c_n f_n) *** exp(c_1 f_1).

    The final residue must be the identity; anything else means g is
    not such a product.
    """
    return _extract_checked([(t.f, t.f2) for t in (root_triple(family, rank, r) for r in taus)], g)


def extract_upper(family: str, rank: int, taus, g):
    return _extract_checked([(t.e, t.e2) for t in (root_triple(family, rank, r) for r in taus)], g)


def _extract_checked(roots, g):
    """c_1, ..., c_n of g = exp(c_n x_n) *** exp(c_1 x_1), each x_k as (entries, squares)."""
    g = g[:]  # the peels replace rows and change none
    coeffs = [ZERO] * len(roots)
    for k in range(len(roots) - 1, -1, -1):
        entries, squares = roots[k]
        coeffs[k] = anchor_coordinate(entries, g)
        peel_left(entries, squares, coeffs[k], g)
    if not _is_identity(g):
        raise InvalidInputError("matrix is not an ordered product over the given roots")
    return coeffs


def _is_identity(g) -> bool:
    """Whether g is exactly I, entry by entry, over Scalars or jets."""
    return all((v - ONE if i == j else v).is_zero() for i, row in enumerate(g)
               for j, v in enumerate(row))


def anchor_coordinate(entries, g):
    """c_k of g = exp(c_k x_k) *** exp(c_1 x_1), the x_j all f_tau_j or
    all e_tau_j, read at the anchor entries[0] of x_k.  tau_1, ...,
    tau_(k-1) are the inversions of a prefix of a reduced word, a set
    closed under root sums, so no product of their root vectors has
    weight -tau_k (+tau_k for e), and that entry of g is c_k times x_k's.
    An exact zero, and the entry at an anchor ONE, is c_k with no division.
    """
    row, col, a0 = entries[0]
    c = g[row][col]
    return c if c.is_zero() or a0 is ONE else c / a0


def peel_left(entries, squares, c, g):
    """g := exp(-c x) g for the root vector x of these entries and this
    square.  Changed rows are replaced, not mutated, so each ``src`` row
    stays as it was before the peel."""
    terms = exp_terms(entries, squares, -c)
    for (r, _, w), src in zip(terms, [g[col] for _, col, _ in terms]):
        g[r] = [a if b.is_zero() else a.addmul(w, b) for a, b in zip(g[r], src)]
