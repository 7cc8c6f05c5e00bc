"""Oracles that only the tests call: coroots and their coefficients over
the simple coroots, the length of a Weyl element, and the matrix
transpose.  The library computes none of these on its own paths, so they
live here, built on its closed forms.
"""

from __future__ import annotations

from fractions import Fraction

from rootfact.rootsystem import _coefficients, _coroot_norm2, _integral, norm2, simple_roots
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
