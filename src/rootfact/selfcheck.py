"""Built-in identity battery behind the self-check subcommand.

Each check exercises one load-bearing exact identity on small fixed
data.  A failure raises InvalidInputError naming the check, so a
passing run certifies the arithmetic, the matrix realizations, and
the coordinate maps together.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .factorization import (
    delta_identity_check,
    forward_map,
    inverse_map,
    jacobian_det_ad,
    jacobian_det_double_product,
    jacobian_det_formula,
    transpose_dual,
)
from .haar import (
    eta_from_zeta,
    haar_density,
    lebesgue_pullback_det,
    unit_jacobian_check,
    zeta_from_eta,
)
from .linalg import mat_mul, scale_cols
from .matrices import e_matrix, f_matrix, form_matrix, h_matrix, inverse_dual, sigma
from .rootsystem import delta, positive_roots
from .scalar import ONE, Scalar, power_product
from .weyl import (
    canonical_word,
    count_reduced_words,
    longest_element,
    ordering_from_word,
    standard_count_a,
)


def _point(n: int):
    # small fixed pairs with every 1 + z^- z^+ nonzero
    return [(Scalar(1 + (k % 3)), Scalar(1, 1, 2 + k % 2)) for k in range(n)]


def _check_triples(family: str, rank: int) -> None:
    j = form_matrix(family, rank)
    for root in positive_roots(family, rank):
        e = e_matrix(family, rank, root)
        f = f_matrix(family, rank, root)
        h = h_matrix(family, rank, root)
        ef = mat_mul(e, f)
        fe = mat_mul(f, e)
        br = [[u - v for u, v in zip(ru, rv)] for ru, rv in zip(ef, fe)]
        if br != h:
            raise InvalidInputError(f"[e, f] != h for {family}{rank} root {root}")
        if sigma(family, rank, e) != f:
            raise InvalidInputError(f"sigma(e) != f for {family}{rank} root {root}")
        if j is not None:
            for x in (e, f):
                xt = [[x[b][a] for b in range(len(x))] for a in range(len(x))]
                s = [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(mat_mul(xt, j), mat_mul(j, x))]
                if any(not v.is_zero() for row in s for v in row):
                    raise InvalidInputError(
                        f"form invariance fails for {family}{rank} root {root}"
                    )


def _check_round_trip(family: str, rank: int) -> None:
    word = canonical_word(family, rank)
    pairs = _point(len(word))
    res = forward_map(family, rank, word, pairs)
    back = inverse_map(family, rank, word, res.l, res.u, h=res.h)
    if back != pairs:
        raise InvalidInputError(f"round trip failed for {family}{rank}")


def _check_dual(family: str, rank: int) -> None:
    word = canonical_word(family, rank)
    pairs = _point(len(word))
    eta, hdual = transpose_dual(family, rank, word, pairs)
    res = forward_map(family, rank, word, pairs)
    dual_res = forward_map(family, rank, word, eta)
    if scale_cols(dual_res.matrix, hdual) != inverse_dual(family, rank, res.matrix):
        raise InvalidInputError(f"dual identity failed for {family}{rank}")


def _check_jacobian(family: str, rank: int) -> None:
    word = canonical_word(family, rank)
    pairs = _point(len(word))
    a = jacobian_det_formula(family, rank, word, pairs)
    b = jacobian_det_double_product(family, rank, word, pairs)
    c = jacobian_det_ad(family, rank, word, pairs)
    if not (a == b == c) or not delta_identity_check(family, rank, word):
        raise InvalidInputError(f"jacobian identities failed for {family}{rank}")


def _check_compact(family: str, rank: int) -> None:
    word = canonical_word(family, rank)
    n = len(word)
    pairs = [(Scalar(1, 0, 2), Scalar(1, 0, 3 + k)) for k in range(n)]
    eta, asq = eta_from_zeta(family, rank, word, pairs)
    zeta, _, asq2 = zeta_from_eta(family, rank, word, eta)
    if zeta != pairs or asq != asq2:
        raise InvalidInputError(f"compact round trip failed for {family}{rank}")
    dens = haar_density(family, rank, word, pairs)
    if dens != jacobian_det_formula(family, rank, word, pairs).abs2():
        raise InvalidInputError(f"density mismatch for {family}{rank}")


def _check_pullback(family: str, rank: int) -> None:
    word = canonical_word(family, rank)
    taus = ordering_from_word(family, rank, word)
    pairs = []
    for k in range(len(taus)):
        # 1 - y^- y^+ = 1/(k+2)^2, a perfect square, so the chain is rational
        p = Scalar(k + 1, 0, k + 3)
        pairs.append((p, (ONE - Scalar(1, 0, (k + 2) ** 2)) / p))
    if unit_jacobian_check(family, rank, word, pairs) != ONE:
        raise InvalidInputError(f"unit pullback ratio failed for {family}{rank}")
    closed = power_product((Scalar((k + 2) ** 2), delta(family, rank, tau) + 1)
                           for k, tau in enumerate(taus))
    if lebesgue_pullback_det(family, rank, word, pairs) != closed:
        raise InvalidInputError(f"pullback closed form failed for {family}{rank}")


def _check_counts(family: str, rank: int) -> None:
    if count_reduced_words(longest_element(family, rank)) != standard_count_a(rank + 1):
        raise InvalidInputError(f"reduced word count mismatch for {family}{rank}")


_CHECKS = (
    ("triples-A2", _check_triples, "A", 2),
    ("triples-B2", _check_triples, "B", 2),
    ("triples-C2", _check_triples, "C", 2),
    ("triples-D3", _check_triples, "D", 3),
    ("round-trip-A2", _check_round_trip, "A", 2),
    ("round-trip-B2", _check_round_trip, "B", 2),
    ("dual-A2", _check_dual, "A", 2),
    ("dual-C2", _check_dual, "C", 2),
    ("jacobian-A2", _check_jacobian, "A", 2),
    ("jacobian-B2", _check_jacobian, "B", 2),
    ("compact-A2", _check_compact, "A", 2),
    ("compact-C2", _check_compact, "C", 2),
    ("pullback-A2", _check_pullback, "A", 2),
    ("pullback-C2", _check_pullback, "C", 2),
    ("counts-A3", _check_counts, "A", 3),
    ("counts-A4", _check_counts, "A", 4),
)


def run_self_check() -> dict:
    names = []
    for name, fn, family, rank in _CHECKS:
        fn(family, rank)
        names.append(name)
    return {"checks": names, "ok": True}
