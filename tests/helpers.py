"""Oracles that only the tests call: coroots and their coefficients over
the simple coroots, the length of a Weyl element, the matrix transpose,
the Scalar views of a jet's partials, constant jets, the real part
test and conjugate of a Scalar, jets in all 2n coordinates of a word's
pairs, the jet forward (l, u) in all of them, an exact jet square root,
the compact change over those 2n-wide jets with its full 2n x 2n
determinant, and the compact pullback as one determinant of the whole
jet chain.  The library computes none of these on its own paths, so
they live here, built on its closed forms and stored forms.
"""

from __future__ import annotations

from fractions import Fraction

from rootfact.factorization import _join_pair, word_plan
from rootfact.jets import Jet, jacobian_det
from rootfact.linalg import identity
from rootfact.matrices import dim, extract_lower, extract_upper
from rootfact.rootsystem import _coefficients, _coroot_norm2, _integral, norm2, simple_roots
from rootfact.scalar import Scalar, sc
from rootfact.weyl import deterministic_reduced_word


def coroot(root: tuple) -> tuple[Fraction, ...]:
    n = _coroot_norm2(root)
    return tuple(Fraction(2 * c, n) for c in root)


def simple_coroot_coordinates(family: str, rank: int, root: tuple) -> tuple[int, ...]:
    """Coefficients of the coroot of ``root`` over the simple coroots:
    root = sum c_i a_i gives root^vee = sum c_i (|a_i|^2 / |root|^2) a_i^vee."""
    coeffs = _coefficients(family, rank, root)
    n = _coroot_norm2(root)
    simples = simple_roots(family, rank)
    return _integral([Fraction(c * norm2(a), n) for c, a in zip(coeffs, simples)],
                     f"coroot of {root!r} is outside the coroot lattice")


def length(w) -> int:
    return len(deterministic_reduced_word(w))


def mat_transpose(x):
    return [list(col) for col in zip(*x)]


def partials(jet: Jet) -> dict:
    """The nonzero partials of a jet as Scalars, by variable index."""
    return {k: Scalar(a, b, jet.den) for k, (a, b) in jet.nums.items()}


def grad(jet: Jet, width: int) -> tuple[Scalar, ...]:
    """The dense gradient row of a jet in ``width`` variables."""
    return tuple(Scalar(*jet.nums.get(k, (0, 0)), jet.den) for k in range(width))


def constant(value) -> Jet:
    """A jet with the value and no partials."""
    return Jet(sc(value), {}, 1)


def is_real(x: Scalar) -> bool:
    return x.b == 0


def conjugate(x: Scalar) -> Scalar:
    return Scalar(x.a, -x.b, x.d)


def forward_coords_jets(plan, pairs):
    """(l, u) of the pure pair product as functions of all 2n coordinates:
    its middle factor is I at every point, so (L, U) = (I, I) takes the
    pairs n, ..., 1 by the join, and both extractions follow."""
    family, rank, taus = plan.family, plan.rank, plan.taus
    factors = [identity(dim(family, rank)) for _ in range(2)]
    for t, pair in zip(reversed(plan.triples), reversed(pairs)):
        factors = _join_pair(t, factors, pair)
    return extract_lower(family, rank, taus, factors[0]), extract_upper(family, rank, taus, factors[1])


def jet_pairs(plan, pairs) -> list[tuple]:
    """One jet variable per coordinate, all z^- first, then all z^+."""
    pairs = plan.check_pairs(pairs)
    n = len(pairs)
    jets = Jet.variables([sc(p[0]) for p in pairs] + [sc(p[1]) for p in pairs])
    return [(jets[k], jets[n + k]) for k in range(n)]


def jet_sqrt(x: Jet) -> Jet:
    """The exact square root of a jet whose value is a perfect rational
    square r^2: (x + r^2) / (2r) has the value r and the partials dx / (2r)."""
    r = x.val.sqrt_exact()
    return (x + r * r) / (2 * r)


def wide_compact_chain(plan, eta_pairs):
    """(zeta jets, det d(zeta)/dy) of the compact change y -> zeta run whole
    over jets in all 2n coordinates, with the full 2n x 2n determinant: the
    reference for the library's product of 2 x 2 diagonal blocks.  Pair j
    goes to (y_j^- / C_j, y_j^+ a_j^2 C_j), C_j = prod_{k>j} a_k^(tau_j(h_tau_k)),
    a_k = sqrt(1 / (1 - y_k^- y_k^+))."""
    pairs = jet_pairs(plan, eta_pairs)
    asq = [1 / (1 - em * ep) for em, ep in pairs]
    a = [jet_sqrt(v) for v in asq]
    zeta = []
    for (m, p), v, row in zip(pairs, asq, plan.suffix):
        for k, e in row:
            m, p = m * a[k] ** -e, p * a[k] ** e
        zeta.append((m, p * v))
    return zeta, jacobian_det([z[0] for z in zeta] + [z[1] for z in zeta], 2 * len(zeta))


def composite_pullback_det(family: str, rank: int, word, eta_pairs) -> Scalar:
    """det d(l, u)/dy of the composite y -> zeta -> (l, u) as one determinant:
    the wide compact chain's zeta jets, whose seeds are not unit seeds, go
    through the jet forward whole."""
    plan = word_plan(family, rank, word)
    zeta = wide_compact_chain(plan, eta_pairs)[0]
    lcoords, ucoords = forward_coords_jets(plan, zeta)
    return jacobian_det(lcoords + ucoords, 2 * len(zeta))
