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
(2 rho, root) / (root, root), 2 rho being the sum of the positive roots;
simple_coroot_coordinates is the solver route to the same value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError

FAMILIES = ("A", "B", "C", "D")

Root = tuple  # integer coordinate tuple


def check_family_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    if not isinstance(rank, int) or rank < 1:
        raise InvalidInputError(f"rank must be a positive integer, got {rank!r}")
    if family == "D" and rank < 2:
        raise InvalidInputError("family D needs rank >= 2")


def ambient_dim(family: str, rank: int) -> int:
    check_family_rank(family, rank)
    return rank + 1 if family == "A" else rank


def _unit(m: int, k: int, c: int = 1) -> Root:
    return tuple(c if j == k else 0 for j in range(m))


@lru_cache(maxsize=None)
def simple_roots(family: str, rank: int) -> tuple[Root, ...]:
    check_family_rank(family, rank)
    m = ambient_dim(family, rank)
    out = []
    if family == "A":
        for k in range(rank):
            root = [0] * m
            root[k] = 1
            root[k + 1] = -1
            out.append(tuple(root))
        return tuple(out)
    for k in range(1, rank + 1):
        root = [0] * m
        if k == 1:
            if family == "B":
                root[0] = 1
            elif family == "C":
                root[0] = 2
            else:
                root[0] = 1
                root[1] = 1
        elif k == 2 and family == "D":
            root[0] = -1
            root[1] = 1
        else:
            root[k - 1] = 1
            root[k - 2] = -1
        out.append(tuple(root))
    return tuple(out)


@lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> tuple[Root, ...]:
    check_family_rank(family, rank)
    m = ambient_dim(family, rank)
    roots = []
    if family == "A":
        for i in range(m):
            for j in range(i + 1, m):
                root = [0] * m
                root[i] = 1
                root[j] = -1
                roots.append(tuple(root))
    else:
        for j in range(m):
            for i in range(j):
                for sign in (1, -1):
                    root = [0] * m
                    root[j] = 1
                    root[i] = sign
                    roots.append(tuple(root))
        if family == "B":
            roots.extend(_unit(m, k) for k in range(m))
        elif family == "C":
            roots.extend(_unit(m, k, 2) for k in range(m))
    roots.sort(key=lambda r: (height(family, rank, r), r))
    return tuple(roots)


@lru_cache(maxsize=None)
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
    den = norm2(alpha)
    if num % den:
        raise InvalidInputError(f"non-integral pairing of {beta!r} with {alpha!r}")
    return num // den


def _solve_exact(columns: list[tuple], target: tuple) -> tuple[Fraction, ...]:
    # solve sum_k x_k * columns[k] == target over the rationals
    rows = len(target)
    cols = len(columns)
    m = [[Fraction(columns[k][i]) for k in range(cols)] + [Fraction(target[i])] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [v / p for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    x = [Fraction(0)] * cols
    for i, c in enumerate(piv_cols):
        x[c] = m[i][cols]
    for i in range(r, rows):
        if m[i][cols] != 0:
            raise InvalidInputError("vector outside the root lattice span")
    return tuple(x)


def _integral(coeffs, message: str) -> tuple[int, ...]:
    if any(c.denominator != 1 for c in coeffs):
        raise InvalidInputError(message)
    return tuple(int(c) for c in coeffs)


@lru_cache(maxsize=None)
def simple_root_coordinates(family: str, rank: int, root: Root) -> tuple[int, ...]:
    """Coefficients of a root over the simple roots."""
    coeffs = _solve_exact(list(simple_roots(family, rank)), root)
    return _integral(coeffs, f"{root!r} is not in the root lattice of {family}{rank}")


def height(family: str, rank: int, root: Root) -> int:
    return sum(simple_root_coordinates(family, rank, root))


def coroot(root: Root) -> tuple[Fraction, ...]:
    n = norm2(root)
    return tuple(Fraction(2 * c, n) for c in root)


@lru_cache(maxsize=None)
def simple_coroot_coordinates(family: str, rank: int, root: Root) -> tuple[int, ...]:
    """Coefficients of the coroot of ``root`` over the simple coroots."""
    cols = [coroot(a) for a in simple_roots(family, rank)]
    coeffs = _solve_exact(cols, coroot(root))
    return _integral(coeffs, f"coroot of {root!r} is outside the coroot lattice")


@lru_cache(maxsize=None)
def _two_rho(family: str, rank: int) -> Root:
    return tuple(map(sum, zip(*positive_roots(family, rank))))


def delta(family: str, rank: int, root: Root) -> int:
    """Sum of the simple-coroot coefficients of the coroot of ``root``,
    taken in closed form as (2 rho, root) / (root, root)."""
    is_positive_root(family, rank, root)  # rejects vectors that are not roots
    return sum(r * c for r, c in zip(_two_rho(family, rank), root)) // norm2(root)


def reflect(beta: Root, alpha: Root) -> Root:
    """Reflection of beta in the hyperplane orthogonal to alpha."""
    p = pairing(beta, alpha)
    return tuple(b - p * a for b, a in zip(beta, alpha))
