"""Independent references the benchmark checks rootfact against.

Nothing here imports rootfact.  Root systems, Weyl group walks, root
orderings, the exponents delta, reduced-word counts and
Gaussian-rational matrix products are written from their definitions,
so a fault in the program cannot hide behind the same fault in its
check.

Roots live in the orthonormal coordinates the program documents:
family A at rank r uses r + 1 coordinates, B, C and D use r.  A Weyl
group element is an integer matrix (a tuple of rows) acting on root
coordinate columns.  Gaussian rationals are pairs (re, im) of Fractions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- root systems and Weyl groups ---------------------------------------


@lru_cache(maxsize=None)
def simple_roots(family: str, rank: int) -> tuple:
    """A: a_k = l_k - l_(k+1).  B: a_1 = l_1, C: a_1 = 2 l_1,
    D: a_1 = l_1 + l_2, a_2 = l_2 - l_1; otherwise a_k = l_k - l_(k-1)."""
    m = rank + 1 if family == "A" else rank
    out = []
    for k in range(1, rank + 1):
        v = [0] * m
        if family == "A":
            v[k - 1], v[k] = 1, -1
        elif k == 1 and family == "D":
            v[0] = v[1] = 1
        elif k == 1:
            v[0] = 2 if family == "C" else 1
        elif k == 2 and family == "D":
            v[0], v[1] = -1, 1
        else:
            v[k - 1], v[k - 2] = 1, -1
        out.append(tuple(v))
    return tuple(out)


def is_positive(family: str, root) -> bool:
    """A root is positive when its leading coordinate is: the first
    nonzero one in family A, the last nonzero one in B, C and D."""
    coords = root if family == "A" else reversed(root)
    return next(c for c in coords if c) > 0


@lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> frozenset:
    """A: l_i - l_j (i < j).  B, C, D: l_j +- l_i (i < j), plus l_k in B
    and 2 l_k in C."""
    m = rank + 1 if family == "A" else rank

    def vec(entries):
        v = [0] * m
        for k, c in entries:
            v[k] = c
        return tuple(v)

    if family == "A":
        return frozenset(vec([(i, 1), (j, -1)]) for i in range(m) for j in range(i + 1, m))
    out = {vec([(j, 1), (i, s)]) for j in range(m) for i in range(j) for s in (1, -1)}
    if family in ("B", "C"):
        out |= {vec([(k, 1 if family == "B" else 2)]) for k in range(m)}
    return frozenset(out)


def _apply(w, v) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in w)


def _compose(w, s) -> tuple:
    cols = list(zip(*s))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in w)


def _identity(m: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


@lru_cache(maxsize=None)
def _reflections(family: str, rank: int) -> tuple:
    # s_a = I - 2 a a^T / (a, a); integral for every simple root here
    out = []
    for a in simple_roots(family, rank):
        n2 = sum(c * c for c in a)
        out.append(
            tuple(
                tuple(int(i == j) - 2 * a[i] * a[j] // n2 for j in range(len(a)))
                for i in range(len(a))
            )
        )
    return tuple(out)


def descents(family: str, rank: int, w) -> list[int]:
    """1-based right descents: the letters i with w(a_i) negative."""
    return [
        i
        for i, a in enumerate(simple_roots(family, rank), start=1)
        if not is_positive(family, _apply(w, a))
    ]


@lru_cache(maxsize=None)
def longest_element(family: str, rank: int) -> tuple:
    """Climb from the identity along ascents until none is left."""
    refl = _reflections(family, rank)
    w = _identity(len(refl[0]))
    while True:
        up = [i for i in range(1, rank + 1) if i not in descents(family, rank, w)]
        if not up:
            return w
        w = _compose(w, refl[up[0] - 1])


def random_reduced_word(family: str, rank: int, rng) -> tuple:
    """A reduced word of the longest element from a random walk down the
    weak order: each step takes a uniformly chosen right descent."""
    refl = _reflections(family, rank)
    w = longest_element(family, rank)
    ident = _identity(len(w))
    word = []
    while w != ident:
        i = rng.choice(descents(family, rank, w))
        word.append(i)
        w = _compose(w, refl[i - 1])
    return tuple(word)


def ordering(family: str, rank: int, word) -> tuple:
    """tau_j = s_(i_1) ... s_(i_(j-1)) (a_(i_j)) for the word (i_1, ...)."""
    simples = simple_roots(family, rank)
    refl = _reflections(family, rank)
    p = _identity(len(simples[0]))
    taus = []
    for i in word:
        taus.append(_apply(p, simples[i - 1]))
        p = _compose(p, refl[i - 1])
    return tuple(taus)


@lru_cache(maxsize=None)
def _two_rho(family: str, rank: int) -> tuple:
    return tuple(map(sum, zip(*positive_roots(family, rank))))


def delta(family: str, rank: int, root) -> int:
    """Sum of the simple-coroot coefficients of the coroot of ``root``.

    rho pairs to 1 with every simple coroot, so that sum is
    rho(root^v) = (2 rho, root) / (root, root).
    """
    num = sum(a * b for a, b in zip(_two_rho(family, rank), root))
    den = sum(c * c for c in root)
    if num % den:
        raise ArithmeticError(f"non-integral delta for {root}")
    return num // den


# -- reduced-word counts --------------------------------------------------


def stanley_count_a(rank: int) -> int:
    """Stanley (1984): reduced words of the longest permutation of n
    letters number C(n,2)! / (1^(n-1) 3^(n-2) ... (2n-3)^1)."""
    n = rank + 1
    den = math.prod((2 * k - 1) ** (n - k) for k in range(1, n))
    return math.factorial(n * (n - 1) // 2) // den


def square_tableaux_count(n: int) -> int:
    """Haiman (1992): reduced words of the longest element of B_n / C_n
    are counted by the standard Young tableaux of the n x n square; the
    hook-length formula gives (n^2)! / prod of hooks."""
    hooks = math.prod((n - i) + (n - j) - 1 for i in range(n) for j in range(n))
    return math.factorial(n * n) // hooks


def descent_count(family: str, rank: int) -> int:
    """count(w) = sum over right descents i of count(w s_i), memoized
    over group elements, from the longest element down to 1."""
    refl = _reflections(family, rank)
    w0 = longest_element(family, rank)
    ident = _identity(len(w0))
    memo = {ident: 1}

    def count(w):
        if w not in memo:
            memo[w] = sum(count(_compose(w, refl[i - 1])) for i in descents(family, rank, w))
        return memo[w]

    return count(w0)


def reduced_word_count(family: str, rank: int) -> int:
    if family == "A":
        return stanley_count_a(rank)
    if family in ("B", "C"):
        return square_tableaux_count(rank)
    return descent_count(family, rank)


# -- Gaussian-rational matrices -------------------------------------------


def cmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def cdiv(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return cmul(p, (q[0] / n, -q[1] / n))


def cpow(p, k: int):
    """p**k for k >= 0."""
    out = ONE
    for _ in range(k):
        out = cmul(out, p)
    return out


def mat_mul(x, y) -> list:
    n, p = len(x), len(y[0])
    out = []
    for row in x:
        acc = [ZERO] * p
        for k, a in enumerate(row):
            if a == ZERO:
                continue
            for j, b in enumerate(y[k]):
                if b != ZERO:
                    t = cmul(a, b)
                    acc[j] = (acc[j][0] + t[0], acc[j][1] + t[1])
        out.append(acc)
    return out


def is_unit_lower(m) -> bool:
    return all(v == (ONE if i == j else ZERO) for i, row in enumerate(m) for j, v in enumerate(row) if j >= i)


def is_unit_upper(m) -> bool:
    return is_unit_lower([list(col) for col in zip(*m)])


def is_identity(m) -> bool:
    return all(v == (ONE if i == j else ZERO) for i, row in enumerate(m) for j, v in enumerate(row))


def sigma_diag(family: str, rank: int) -> list:
    """Diagonal S of the anti-automorphism sigma(X) = S X^T S^-1: the
    identity, except 1 above, 2 at and 4 below the middle row of B."""
    if family == "A":
        return [ONE] * (rank + 1)
    if family != "B":
        return [ONE] * (2 * rank)
    return [(Fraction(1 if a < rank else 2 if a == rank else 4), Fraction(0)) for a in range(2 * rank + 1)]


def sigma(family: str, rank: int, x) -> list:
    s = sigma_diag(family, rank)
    n = len(x)
    return [[cdiv(cmul(s[u], x[v][u]), s[v]) for v in range(n)] for u in range(n)]


# -- canonical scalar strings ----------------------------------------------

_PART = r"[+-]?\d+(?:/\d+)?"
_SCALAR = re.compile(rf"^(?:({_PART})(?:([+-]\d+(?:/\d+)?)\*i)?|({_PART})\*i)$")


def parse_scalar(text: str):
    """(re, im) of a canonical scalar string such as '1/2-3/4*i'."""
    m = _SCALAR.match(text)
    if m is None:
        raise ValueError(f"not a scalar string: {text!r}")
    re_part, im_part, im_only = m.groups()
    return (Fraction(re_part or 0), Fraction(im_part or im_only or 0))
