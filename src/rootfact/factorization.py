"""Coordinate maps between root-group parameters and triangular data.

The forward map sends pairs z_j = (z_j^-, z_j^+), one per root of the
ordering of a reduced word, through per-root SL(2) pictures

    g(z) = [[1, z^+], [z^-, 1 + z^- z^+]]

to the group element g = G_n *** G_1 * h, where G_j is the image of
g(z_j) under the j-th root embedding and h is a torus element.  The
LDU middle factor of g is exactly h, and the unipotent factors are
ordered exponentials whose coefficient lists (l, u) are the other
coordinate system this module converts to and from.

A pure pair product G_n *** G_1 has middle factor I at every point,
and its L U takes one pair at a time by a Gauss update of only the rows
the pair's root vector reaches (Bennett 1965).  The inverse recovers z
from (l, u, h) through the dual element sigma(g_0^{-1}) and a downward
recursion over the tails G_n *** G_(k+1) and their duals, each carried
as (Q L, U), Q undoing its known lower coordinates: a step reads c_k,
the k-th lower coordinate, as one entry of Q L (Humphreys, Linear
Algebraic Groups, 28.1), l_k = z^-_k + c_k, then takes pair k by the
same join and peels l_k, and each Q L ends at I.  Points where the
recursion degenerates form the exceptional set and raise
ExceptionalSetError.  As c_k depends on the pairs after k alone, dl/dz^-
is unit triangular and the Jacobian determinant of (l, u) is det du/dz^+
at fixed l: jets in the n z^+ walked through the primal tail give it
exactly, beside two closed product forms.

Every map here and in the compact picture reads one cached WordPlan
per (family, rank, word), its only source of root data: the checked
word, its taus and their root triples, the nonzero exponents of its
products, tau_k(h_tau_j) for j > k and h_tau_j[a], and delta(h_tau_j),
with the shared pair and torus checks and the suffix products
prod_{j>k} s_j^(tau_k(h_tau_j)) as its methods.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import ExceptionalSetError, InvalidInputError, InvalidWordError, StratumError
from .linalg import identity, ldu, mul_right_i_plus, scale_cols
from .matrices import (
    _extract_checked,
    _is_identity,
    anchor_coordinate,
    dim,
    exp_terms,
    peel_left,
    root_triple,
    weyl_representative,
)
from .rootsystem import delta, positive_roots
from .scalar import ONE, ZERO, Scalar, power_product, sc
from .weyl import (
    WeylElement,
    check_word,
    deterministic_reduced_word,
    longest_element,
    ordering_from_word,
)


class WordPlan(namedtuple("WordPlan", "family rank word taus triples suffix torus deltas")):
    """What every coordinate map reads off one reduced word.

    ``taus`` is the ordering of the word, ``triples`` the RootTriple of
    each tau (whose ``h`` is the diagonal of the coroot h_tau), ``suffix[k]``
    the (j, tau_k(h_tau_j)) of j > k and ``torus[a]`` the (j, h_tau_j[a]),
    each nonzero and ascending in j, and ``deltas`` the exponents delta(h_tau_j).
    """

    __slots__ = ()

    def check_pairs(self, pairs) -> list[tuple]:
        if len(pairs) != len(self.taus):
            raise InvalidInputError(f"expected {len(self.taus)} coordinate pairs, got {len(pairs)}")
        for k, p in enumerate(pairs, start=1):
            if len(p) != 2:
                raise InvalidInputError(f"coordinate pair {k} has {len(p)} entries, not 2")
        return [(p[0], p[1]) for p in pairs]

    def scalar_pairs(self, pairs) -> list[tuple]:
        return [(sc(a), sc(b)) for a, b in self.check_pairs(pairs)]

    def check_longest(self) -> "WordPlan":
        """The plan itself if its word is empty or a reduced word of w_0."""
        if self.taus and len(self.taus) != len(positive_roots(self.family, self.rank)):
            raise InvalidWordError(f"word {self.word!r} is not a word of the longest element")
        return self

    def check_torus(self, h) -> list:
        """Validate diagonal torus entries for the family's realization."""
        n = dim(self.family, self.rank)
        if h is None:
            return [ONE] * n
        entries = [sc(v) for v in h]
        if len(entries) != n:
            raise InvalidInputError(f"torus diagonal needs {n} entries, got {len(entries)}")
        if any(v.is_zero() for v in entries):
            raise InvalidInputError("torus entries must be nonzero")
        if self.family != "A":
            if any(entries[a] * entries[n - 1 - a] != ONE for a in range(n // 2)):
                raise InvalidInputError("torus entries must satisfy h[a] * h[N+1-a] == 1")
            if self.family == "B" and entries[self.rank] != ONE:
                raise InvalidInputError("the middle torus entry must be 1 in family B")
        return entries

    def suffix_product(self, k: int, vals) -> Scalar:
        """prod_{j > k} vals[j] ** tau_k(h_tau_j) over Scalars, one power_product."""
        return power_product((vals[j], p) for j, p in self.suffix[k])


def word_plan(family: str, rank: int, word) -> WordPlan:
    """The plan of a reduced word; raises InvalidWordError otherwise."""
    return _word_plan(family, rank, check_word(family, rank, word))


# an A8 plan is about 50 KB and callers draw fresh words, so keep few
@lru_cache(maxsize=16)
def _word_plan(family: str, rank: int, word: tuple) -> WordPlan:
    taus = ordering_from_word(family, rank, word)
    triples = tuple(root_triple(family, rank, t) for t in taus)
    hs = [t.h for t in triples]
    # e_tau_k's anchor (r, c) has weight tau_k, so tau_k(h_tau_j) = h_tau_j[r] - h_tau_j[c]
    suffix = tuple(tuple((j, p) for j in range(k + 1, len(hs)) if (p := hs[j][r] - hs[j][c]))
                   for k, (r, c, _) in enumerate(t.e[0] for t in triples))
    torus = tuple(tuple((j, p) for j, h in enumerate(hs) if (p := h[a]))
                  for a in range(dim(family, rank)))
    deltas = tuple(delta(family, rank, t) for t in taus)
    return WordPlan(family, rank, word, taus, triples, suffix, torus, deltas)


# s lists s_j = 1 + z_j^- z_j^+
ForwardResult = namedtuple("ForwardResult", "family rank word taus matrix l u h s")


def _product_matrix(triples, pairs, h, g=None):
    """g (default I) times the pair product over the triples, times the torus h."""
    if g is None:
        g = identity(len(h))
    for t, (zm, zp) in zip(reversed(triples), reversed(pairs)):
        g = mul_right_i_plus(g, exp_terms(t.xf, t.f2, zm))
        g = mul_right_i_plus(g, exp_terms(t.xe, t.e2, zp))
    return scale_cols(g, h)


def forward_map(family: str, rank: int, word, pairs, h=None) -> ForwardResult:
    """Evaluate the factorization product and its (l, u, h) coordinates."""
    return _forward(word_plan(family, rank, word), pairs, h)


def _forward(plan: WordPlan, pairs, h) -> ForwardResult:
    pairs = plan.scalar_pairs(pairs)
    hd = plan.check_torus(h)
    g = _product_matrix(plan.triples, pairs, hd)
    lower, d, upper = ldu(g)
    if d != hd:
        raise ArithmeticError("middle factor differs from the torus input")
    return ForwardResult(
        family=plan.family, rank=plan.rank, word=plan.word, taus=plan.taus, matrix=g,
        l=_extract_checked([(t.f, t.f2) for t in plan.triples], lower),
        u=_extract_checked([(t.e, t.e2) for t in plan.triples], upper),
        h=hd, s=[ONE + zm * zp for zm, zp in pairs],
    )


def inverse_map(family: str, rank: int, word, lcoords, ucoords, h=None):
    """Recover the coordinate pairs from (l, u, h).

    The dual element sigma(g_0^{-1}), g_0 = L h U, is built directly as
    a product of factors exp(-c e), exp(-c f) and the torus.  The pairs
    then come out downward, k = n, ..., 1, each from the k-th lower
    coordinate of the tail G_n *** G_(k+1) and of the dual tail, carried
    as (Q L, U), Q peeling off l_(k+1), ..., l_n, so Q L = exp(c_k f_k)
    *** exp(c_1 f_1) and c_k is one entry, read as in ``extract_lower``.
    Each tail then takes pair k by ``_take``, the join and the peel of
    its l_k.  After pair 1 each Q L must be exactly I, or a fault raises
    ArithmeticError.  The completed tail is L U = G_n *** G_1, and
    forward(zeta, h) = L h (h^{-1} U h), so the u of the answer are those
    of U, each times a torus character.

    Raises ExceptionalSetError when the point lies outside the open
    image of the forward map.
    """
    plan = word_plan(family, rank, word)
    triples = plan.triples
    n = len(triples)
    lcoords = [sc(v) for v in lcoords]
    ucoords = [sc(v) for v in ucoords]
    if len(lcoords) != n or len(ucoords) != n:
        raise InvalidInputError(f"expected {n} lower and upper coordinates")
    hd = plan.check_torus(h)
    size = len(hd)

    # dual element sigma(g_0^{-1}), g_0 = L h U, as the product it is:
    # exp(-l_n e_n) *** exp(-l_1 e_1) h^{-1} exp(-u_n f_n) *** exp(-u_1 f_1)
    ghat = identity(size)
    for t, c in zip(reversed(triples), reversed(lcoords)):
        ghat = mul_right_i_plus(ghat, exp_terms(t.xe, t.e2, -c))
    ghat = scale_cols(ghat, [ONE / v for v in hd])
    for t, c in zip(reversed(triples), reversed(ucoords)):
        ghat = mul_right_i_plus(ghat, exp_terms(t.xf, t.f2, -c))
    try:
        lprime = _extract_checked([(t.f, t.f2) for t in triples], ldu(ghat)[0])
    except StratumError as err:
        raise ExceptionalSetError(
            f"dual element has no triangular factorization (pivot {err.index})",
            index=err.index, value="pivot") from err

    zeta: list[tuple] = [None] * n
    svals: list = [None] * n
    tail, tail_dual = [(identity(size), identity(size)) for _ in range(2)]
    for k in range(n - 1, -1, -1):
        t = triples[k]
        zm = lcoords[k] - anchor_coordinate(t.f, tail[0])
        em = lprime[k] - anchor_coordinate(t.f, tail_dual[0])
        acc = plan.suffix_product(k, svals)
        den = ONE + em * zm * acc
        if den.is_zero():
            raise ExceptionalSetError(
                f"exceptional set at pair {k + 1}", index=k + 1, value="denominator"
            )
        sk = ONE / den
        zeta[k] = (zm, -(em * acc * sk))
        _take(t, tail, zeta[k], lcoords[k])
        _take(t, tail_dual, (em, -(zm * sk * acc)), lprime[k])
        svals[k] = sk
    _check_closed(tail, tail_dual)
    tail_u = _extract_checked([(t.e, t.e2) for t in triples], tail[1])
    # h^-1 e_tau h is e_tau times h[col] / h[row] at its anchor (row, col)
    for k, (t, v) in enumerate(zip(triples, tail_u)):
        row, col, _ = t.e[0]
        if v * (hd[col] / hd[row]) != ucoords[k]:
            raise ExceptionalSetError("coordinates are outside the image of the factorization "
                                      f"map (u_{k + 1} differs)", index=k + 1, value="image")
    return zeta


def _take(t, tail, pair, lcoord):
    """The tail (Q L, U) takes its pair by the join on t, and Q peels its l, in place."""
    _join_pair(t, tail, pair)
    peel_left(t.f, t.f2, lcoord, tail[0])


def _check_closed(*tails):
    """Each completed tail's Q L must be exactly I; else a read, join or peel was wrong."""
    for i, (lower, _) in enumerate(tails, start=1):
        if not _is_identity(lower):
            raise ArithmeticError(f"completed tail {i} does not close: its Q L is not I")


def _join_pair(t, factors, pair):
    """(P L_M, U_M exp(z^+ e_tau)) from (P, U) of a tail T = L U, P = Q L, in place.

    M = U exp(z^- f_tau) = L_M U_M is factored in place of U (Bennett
    1965) with every pivot 1: T exp(z^- f_tau) is the forward product of
    a reduced word (one of w < w_0 extends to one of w_0) at a point
    whose other pairs are zero, and ``_forward`` checks that its middle
    factor is that torus, I.  M is upper triangular but in the rows c+1,
    ..., r an entry (r, c) of f_tau reaches (f_tau^2 lies inside them),
    so only those are eliminated, at the pivots min c, ..., max r, and
    only P's rows from the first move; U_M moves up to row max c, as
    e_tau has f_tau's pattern transposed.  A pivot is compared with the
    Scalar ONE, which no Jet equals, even of value 1; over jets the
    diagonal of M stays that exact ONE, as the join tests pin.
    """
    (lower, upper), (zm, zp) = factors, pair
    rows = t.f_rows
    m = mul_right_i_plus(upper[:rows[-1] + 1], exp_terms(t.xf, t.f2, zm))
    terms = []
    for k in range(t.f_pivot, rows[-1] + 1):
        if m[k][k] != ONE:
            raise ArithmeticError(f"join pivot {k + 1} is {m[k][k]}, not 1")
        for i in rows:
            mi = m[i]
            if i > k and not mi[k].is_zero():
                terms.append((i, k, mi[k]))
                w = -mi[k]
                mi[k:] = [ZERO] + [a if b.is_zero() else a.addmul(w, b)
                                   for a, b in zip(mi[k + 1:], m[k][k + 1:])]
    mul_right_i_plus(lower[rows[0]:], terms)
    mul_right_i_plus(upper[:t.e_end], exp_terms(t.xe, t.e2, zp))
    return lower, upper


def transpose_dual(family: str, rank: int, word, pairs, h=None):
    """Dual coordinates: forward(eta) * h_dual == sigma(g^{-1}).

    Returns (eta_pairs, h_dual_diagonal).
    """
    plan = word_plan(family, rank, word)
    pairs = plan.scalar_pairs(pairs)
    hd = plan.check_torus(h)
    svals = [ONE + zm * zp for zm, zp in pairs]
    for k, v in enumerate(svals):
        if v.is_zero():
            raise ExceptionalSetError(
                f"dual undefined where 1 + z^- z^+ vanishes at pair {k + 1}",
                index=k + 1,
                value="denominator",
            )
    eta = []
    for k, (zm, zp) in enumerate(pairs):
        acc = plan.suffix_product(k, svals)
        eta.append((-zp / (svals[k] * acc), -zm * svals[k] * acc))
    hdual = (power_product((svals[j], p) for j, p in col) for col in plan.torus)
    return eta, [hv / hh for hv, hh in zip(hdual, hd)]


# -- Jacobians ---------------------------------------------------------


def jacobian_det_formula(family: str, rank: int, word, pairs) -> Scalar:
    """prod_j s_j^(delta(h_tau_j) - 1)."""
    plan = word_plan(family, rank, word)
    return power_product((ONE + zm * zp, d - 1)
                         for d, (zm, zp) in zip(plan.deltas, plan.scalar_pairs(pairs)))


def jacobian_det_double_product(family: str, rank: int, word, pairs) -> Scalar:
    """prod_{k<j} s_j^(tau_k(h_tau_j)), termwise."""
    plan = word_plan(family, rank, word)
    svals = [ONE + zm * zp for zm, zp in plan.scalar_pairs(pairs)]
    terms = [(svals[j], p) for row in plan.suffix for j, p in row]
    if any(p < 0 and s.is_zero() for s, p in terms):
        raise InvalidInputError("double product undefined: zero base with negative exponent")
    return power_product(terms)


def jacobian_det_ad(family: str, rank: int, word, pairs) -> Scalar:
    """det of d(l, u)/d(z^-, z^+) = det du/dz^+ at fixed l, by exact jets
    in the n z^+ along the primal tail of ``inverse_map``: after its read c_k,
    pair k enters as (l_k - c_k, z^+_k), of value the given z^-_k, and l_k =
    z^-_k + c_k is peeled as a constant.  The word is empty (det 1) or one of
    w_0."""
    from .jets import Jet, jacobian_det

    plan = word_plan(family, rank, word).check_longest()
    triples, pairs = plan.triples, plan.scalar_pairs(pairs)
    zplus = Jet.variables([zp for _, zp in pairs])
    tail = [identity(dim(family, rank)) for _ in range(2)]
    for k in range(len(triples) - 1, -1, -1):
        c = anchor_coordinate(triples[k].f, tail[0])
        lk = pairs[k][0] + c.val
        _take(triples[k], tail, (lk - c, zplus[k]), lk)
    _check_closed(tail)
    return jacobian_det(_extract_checked([(t.e, t.e2) for t in triples], tail[1]), len(triples))


def delta_identity_check(family: str, rank: int, word) -> bool:
    """delta(h_tau_j) - 1 == sum_{k<j} tau_k(h_tau_j) for every j."""
    plan = word_plan(family, rank, word)
    sums = [0] * len(plan.deltas)
    for row in plan.suffix:
        for j, p in row:
            sums[j] += p
    return all(d - 1 == s for d, s in zip(plan.deltas, sums))


# -- Bruhat strata ------------------------------------------------------


def stratum_data(family: str, rank: int, w: WeylElement):
    """Deterministic root sequence for the stratum of w.

    Returns (gammas, taus): gammas is the deterministic reduced word of
    w0 * w, whose letters are the smallest right ascents that take w up
    to w0; taus lists the positive roots kept positive by w, in the
    order the factorization consumes them.
    """
    gammas = deterministic_reduced_word(longest_element(family, rank) * w)
    return gammas, word_plan(family, rank, gammas).taus


StratumResult = namedtuple("StratumResult", "family rank w gammas taus matrix")


def forward_map_stratum(family: str, rank: int, w: WeylElement, pairs, h=None) -> StratumResult:
    """Factorization product for the Bruhat stratum of w: the fixed
    representative of w times the pair product over the stratum roots
    times the torus element."""
    gammas = stratum_data(family, rank, w)[0]
    plan = word_plan(family, rank, gammas)  # the plan stratum_data built
    pairs = plan.scalar_pairs(pairs)
    hd = plan.check_torus(h)
    wmat = weyl_representative(family, rank, w)
    g = _product_matrix(plan.triples, pairs, hd, wmat)
    return StratumResult(
        family=family, rank=rank, w=w, gammas=gammas, taus=plan.taus, matrix=g
    )
