"""Root systems of the four classical families in orthonormal coordinates.

Roots are integer tuples over an orthonormal basis (l_1, ..., l_m) of
weight space; family A at rank r uses m = r + 1 coordinates, families
B, C, D use m = r.  Simple roots:

- A: a_k = l_k - l_{k+1}
- B: a_1 = l_1 (short), a_k = l_k - l_{k-1}
- C: a_1 = 2*l_1 (long), a_k = l_k - l_{k-1}
- D: a_1 = l_1 + l_2, a_2 = l_2 - l_1, a_k = l_k - l_{k-1} (k >= 3)

Positive roots have a positive leading coordinate: the first nonzero
coordinate for family A, the last nonzero coordinate for B, C, D.

The exponent delta(root) = rho(h_root) has the closed form
(2 rho, root) / (root, root), 2 rho being the sum of the positive roots,
and the simple-root coefficients are closed forms too (see _coefficients).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import InvalidInputError, echo

FAMILIES = ("A", "B", "C", "D")
# a one-letter ordering takes 0.2 s and 25 MB at rank 100, 3.8 s and 279 MB at rank 400
MAX_RANK = 100

Root = tuple  # integer coordinate tuple


def check_family_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise InvalidInputError(f"rank must be a positive integer, got {rank!r}")
    if rank > MAX_RANK:
        raise InvalidInputError(f"rank must be at most {MAX_RANK}, got {echo(rank)}")
    if family == "D" and rank < 2:
        raise InvalidInputError("family D needs rank >= 2")


def ambient_dim(family: str, rank: int) -> int:
    check_family_rank(family, rank)
    return rank + 1 if family == "A" else rank


def root_vector(m: int, *entries) -> Root:
    """The length-m integer vector with the given (index, value) entries."""
    out = [0] * m
    for k, c in entries:
        out[k] = c
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def simple_roots(family: str, rank: int) -> tuple[Root, ...]:
    m = ambient_dim(family, rank)
    if family == "A":
        return tuple(root_vector(m, (k, 1), (k + 1, -1)) for k in range(rank))
    first = {"B": ((0, 1),), "C": ((0, 2),), "D": ((0, 1), (1, 1))}[family]
    return (root_vector(m, *first),
            *(root_vector(m, (k, 1), (k - 1, -1)) for k in range(1, rank)))


@lru_cache(maxsize=None, typed=True)
def positive_roots(family: str, rank: int) -> tuple[Root, ...]:
    m = ambient_dim(family, rank)
    if family == "A":
        roots = [root_vector(m, (i, 1), (j, -1)) for i in range(m) for j in range(i + 1, m)]
    else:
        roots = [root_vector(m, (i, sign), (j, 1))
                 for j in range(m) for i in range(j) for sign in (1, -1)]
        if family != "D":
            roots += [root_vector(m, (k, 1 if family == "B" else 2)) for k in range(m)]
    roots.sort(key=lambda r: (height(family, rank, r), r))
    return tuple(roots)


@lru_cache(maxsize=None, typed=True)
def _positive_set(family: str, rank: int) -> frozenset:
    return frozenset(positive_roots(family, rank))


def is_positive_root(family: str, rank: int, root: Root) -> bool:
    pos = _positive_set(family, rank)
    if root in pos:
        return True
    if tuple(-c for c in root) in pos:
        return False
    raise InvalidInputError(f"not a root of {family}{rank}: {root!r}")


def norm2(root: Root) -> int:
    """Squared length; coordinates are orthonormal."""
    return sum(c * c for c in root)


def pairing(beta: Root, alpha: Root) -> int:
    """beta(h_alpha) = 2 (beta, alpha) / (alpha, alpha), always an integer."""
    num = 2 * sum(b * a for b, a in zip(beta, alpha))
    den = _coroot_norm2(alpha)
    if num % den:
        raise InvalidInputError(f"non-integral pairing of {beta!r} with {alpha!r}")
    return num // den


def _coefficients(family: str, rank: int, vector: Root) -> list:
    """Rational coefficients of ``vector`` over the simple roots.

    From the fundamental coweights (Bourbaki, Lie Groups and Lie
    Algebras, Ch. VI, Plates I-IV): for A the prefix sums of the
    coordinates, whose total must be 0; for B, C, D the suffix sums
    S_k, except c_1 = S_1 / 2 for C and c_1, c_2 = (S_2 +- x_1) / 2 for D.
    """
    m = ambient_dim(family, rank)
    if len(vector) != m:
        raise InvalidInputError(
            f"{vector!r} has {len(vector)} coordinates, {family}{rank} needs {m}")
    if family == "A":
        sums = list(accumulate(vector))
        if sums.pop():
            raise InvalidInputError("vector outside the root lattice span")
        return sums
    sums = list(accumulate(reversed(vector)))[::-1]
    if family == "C":
        sums[0] = Fraction(sums[0], 2)
    elif family == "D":
        sums[0], sums[1] = Fraction(sums[1] + vector[0], 2), Fraction(sums[1] - vector[0], 2)
    return sums


def _integral(coeffs, message: str) -> tuple[int, ...]:
    if any(c.denominator != 1 for c in coeffs):
        raise InvalidInputError(message)
    return tuple(int(c) for c in coeffs)


def simple_root_coordinates(family: str, rank: int, root: Root) -> tuple[int, ...]:
    """Coefficients of a root over the simple roots."""
    return _integral(_coefficients(family, rank, root),
                     f"{root!r} is not in the root lattice of {family}{rank}")


def height(family: str, rank: int, root: Root) -> int:
    return sum(simple_root_coordinates(family, rank, root))


def _coroot_norm2(root: Root) -> int:
    n = norm2(root)
    if not n:
        raise InvalidInputError("the zero vector has no coroot")
    return n


@lru_cache(maxsize=None, typed=True)
def _two_rho(family: str, rank: int) -> Root:
    return tuple(map(sum, zip(*positive_roots(family, rank))))


def delta(family: str, rank: int, root: Root) -> int:
    """Sum of the simple-coroot coefficients of the coroot of ``root``,
    taken in closed form as (2 rho, root) / (root, root)."""
    is_positive_root(family, rank, root)  # rejects vectors that are not roots
    return sum(r * c for r, c in zip(_two_rho(family, rank), root)) // norm2(root)
