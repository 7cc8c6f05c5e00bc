"""Seeded inputs: Gaussian-rational points, torus elements, branch points.

Every value is a pair (re, im) of Fractions with numerators in
[-SPAN, SPAN] and denominators in [1, DEN].  The generators only
resample to stay off loci the maps exclude by definition: a pair with
1 + z^- z^+ == 0, and a zero torus entry.
"""

from __future__ import annotations

from fractions import Fraction

SPAN = 9
DEN = 6


def gaussian(rng) -> tuple:
    return (
        Fraction(rng.randint(-SPAN, SPAN), rng.randint(1, DEN)),
        Fraction(rng.randint(-SPAN, SPAN), rng.randint(1, DEN)),
    )


def _nonzero(rng) -> tuple:
    while True:
        v = gaussian(rng)
        if v[0] or v[1]:
            return v


def generic_pairs(rng, n: int) -> list:
    """n pairs (z^-, z^+) with every s = 1 + z^- z^+ nonzero."""
    out = []
    for _ in range(n):
        zm = gaussian(rng)
        while True:
            zp = gaussian(rng)
            re = 1 + zm[0] * zp[0] - zm[1] * zp[1]
            im = zm[0] * zp[1] + zm[1] * zp[0]
            if re or im:
                break
        out.append((zm, zp))
    return out


def torus(rng, family: str, rank: int) -> list:
    """A diagonal torus element of the family's realization: any nonzero
    entries for A; for B, C, D entry a times entry N+1-a is 1, and the
    middle entry of B is 1."""
    if family == "A":
        return [_nonzero(rng) for _ in range(rank + 1)]
    top = [_nonzero(rng) for _ in range(rank)]
    bottom = []
    for re, im in reversed(top):
        n = re * re + im * im
        bottom.append((re / n, -im / n))
    middle = [(Fraction(1), Fraction(0))] if family == "B" else []
    return top + middle + bottom


def branch_pairs(rng, n: int) -> tuple[list, list]:
    """n pairs (y^-, y^+) with 1 - y^- y^+ = q^2 for a rational q in (0, 1).

    Returns (pairs, qs).  Every a_j^2 = 1 / q_j^2 is then a rational
    square, so the compact coordinate change stays rational.
    """
    pairs, qs = [], []
    for _ in range(n):
        den = rng.randint(2, DEN + 1)
        q = Fraction(rng.randint(1, den - 1), den)
        ym = _nonzero(rng)
        norm = ym[0] * ym[0] + ym[1] * ym[1]
        c = 1 - q * q  # y^+ = c / y^-
        pairs.append((ym, (c * ym[0] / norm, -c * ym[1] / norm)))
        qs.append(q)
    return pairs, qs


def to_text(v) -> str:
    """A scalar string the program's parser accepts, e.g. '1/2-3/4*i'."""
    re, im = v
    return f"{re}{'+' if im >= 0 else ''}{im}*i"
