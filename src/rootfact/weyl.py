"""Weyl groups as signed permutations, words, and root orderings.

A WeylElement stores the signed images of the basis weights: entry k
(0-based) is +-(j+1) meaning l_{k+1} maps to +-l_{j+1}.  Family A
elements carry no signs, family D elements flip an even number.

Words are 1-based tuples of simple-reflection indices and are read
left to right in application order: the first letter acts first, so a
word (i1, ..., iN) evaluates to s_{iN} o ... o s_{i1}.

The ordering attached to a reduced word lists tau_j, the image of the
j-th simple root under the composite of the first j-1 reflections in
application order.  Orderings determine their word uniquely, which
validate_ordering recovers.

enumerate_reduced_words lists the reduced words of elements of length at
most COUNT_WORDS_CAP = 25 and refuses a longer one with invalid-input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, InvalidInputError, InvalidWordError
from .rootsystem import (
    ambient_dim,
    check_family_rank,
    is_positive_root,
    positive_roots,
    simple_roots,
)

Word = tuple


@dataclass(frozen=True)
class WeylElement:
    family: str
    rank: int
    images: tuple[int, ...]

    def act_index(self, k: int) -> int:
        """Signed image of basis index k (1-based)."""
        if k > 0:
            return self.images[k - 1]
        return -self.images[-k - 1]

    def act_root(self, root: tuple) -> tuple:
        out = [0] * len(root)
        for k, c in enumerate(root):
            if c == 0:
                continue
            v = self.images[k]
            if v > 0:
                out[v - 1] += c
            else:
                out[-v - 1] -= c
        return tuple(out)

    def is_identity(self) -> bool:
        return all(v == k + 1 for k, v in enumerate(self.images))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition self o other (other acts first)."""
        if (self.family, self.rank) != (other.family, other.rank):
            raise InvalidInputError("cannot compose elements of different groups")
        return WeylElement(
            self.family,
            self.rank,
            tuple(self.act_index(v) for v in other.images),
        )

    def inverse(self) -> "WeylElement":
        out = [0] * len(self.images)
        for k, v in enumerate(self.images):
            if v > 0:
                out[v - 1] = k + 1
            else:
                out[-v - 1] = -(k + 1)
        return WeylElement(self.family, self.rank, tuple(out))


def identity_element(family: str, rank: int) -> WeylElement:
    m = ambient_dim(family, rank)
    return WeylElement(family, rank, tuple(range(1, m + 1)))


@lru_cache(maxsize=None)
def simple_reflection(family: str, rank: int, i: int) -> WeylElement:
    check_family_rank(family, rank)
    if not 1 <= i <= rank:
        raise InvalidWordError(f"letter {i} outside 1..{rank}", index=None)
    m = ambient_dim(family, rank)
    images = list(range(1, m + 1))
    if family == "A":
        images[i - 1], images[i] = images[i], images[i - 1]
    elif family in ("B", "C"):
        if i == 1:
            images[0] = -1
        else:
            images[i - 1], images[i - 2] = images[i - 2], images[i - 1]
    else:
        if i == 1:
            images[0], images[1] = -2, -1
        elif i == 2:
            images[0], images[1] = 2, 1
        else:
            images[i - 1], images[i - 2] = images[i - 2], images[i - 1]
    return WeylElement(family, rank, tuple(images))


def check_word(family: str, rank: int, word: Word) -> tuple[int, ...]:
    check_family_rank(family, rank)
    out = []
    for pos, i in enumerate(word, start=1):
        if not isinstance(i, int) or not 1 <= i <= rank:
            raise InvalidWordError(
                f"letter {i!r} at position {pos} outside 1..{rank}", index=pos
            )
        out.append(i)
    return tuple(out)


def word_evaluate(family: str, rank: int, word: Word) -> WeylElement:
    word = check_word(family, rank, word)
    w = identity_element(family, rank)
    for i in word:
        w = simple_reflection(family, rank, i) * w
    return w


def length(w: WeylElement) -> int:
    return sum(
        0 if is_positive_root(w.family, w.rank, w.act_root(b)) else 1
        for b in positive_roots(w.family, w.rank)
    )


def is_reduced(family: str, rank: int, word: Word) -> bool:
    return _taus_if_reduced(family, rank, check_word(family, rank, word)) is not None


def right_descents(w: WeylElement) -> list[int]:
    simples = simple_roots(w.family, w.rank)
    return [
        i + 1
        for i, a in enumerate(simples)
        if not is_positive_root(w.family, w.rank, w.act_root(a))
    ]


def climb_to_top(w: WeylElement) -> tuple[Word, WeylElement]:
    """(letters, w0): w followed by the letters is the longest element w0,
    each letter the smallest right ascent of the element reached so far;
    w0 is the one element with none."""
    family, rank = w.family, w.rank
    simples = simple_roots(family, rank)
    letters = []
    while True:
        i = next((i for i, a in enumerate(simples, start=1)
                  if is_positive_root(family, rank, w.act_root(a))), None)
        if i is None:
            return tuple(letters), w
        letters.append(i)
        w = w * simple_reflection(family, rank, i)


@lru_cache(maxsize=None)
def longest_element(family: str, rank: int) -> WeylElement:
    return climb_to_top(identity_element(family, rank))[1]


def deterministic_reduced_word(w: WeylElement) -> Word:
    """Reduced word of w picking the smallest right descent at each step."""
    out = []
    v = w
    while not v.is_identity():
        i = right_descents(v)[0]
        out.append(i)
        v = v * simple_reflection(v.family, v.rank, i)
    return tuple(out)


def random_reduced_word(family: str, rank: int, seed: int, w: WeylElement | None = None) -> Word:
    if w is None:
        w = longest_element(family, rank)
    rng = random.Random(seed)
    out = []
    v = w
    while not v.is_identity():
        i = rng.choice(right_descents(v))
        out.append(i)
        v = v * simple_reflection(family, rank, i)
    return tuple(out)


# the longest element enumerated has this many letters: the reduced words of
# w_0 at A6 to C5 (21-25 letters) reach the default budget in about 10 s, at
# A10 in 19 s, at A40 in over 60 s, and A44 and B32 ran out of recursion depth
COUNT_WORDS_CAP = 25


def enumerate_reduced_words(
    family: str, rank: int, w: WeylElement | None = None, budget: int = 500000
) -> list[Word]:
    """All reduced words of w (default: the longest element), in
    lexicographic order.  Raises InvalidInputError, before any
    enumeration, when w is longer than COUNT_WORDS_CAP letters, and
    BudgetExceededError when the output would exceed ``budget`` words."""
    if w is None:
        w = longest_element(family, rank)
    letters = length(w)
    if letters > COUNT_WORDS_CAP:
        raise InvalidInputError(f"reduced words are enumerated for elements of length at most "
                                f"{COUNT_WORDS_CAP}; this one has length {letters}")
    count = 0

    def rec(v: WeylElement) -> list[Word]:
        nonlocal count
        if v.is_identity():
            count += 1
            if count > budget:
                raise BudgetExceededError(f"more than {budget} reduced words")
            return [()]
        out = []
        for i in right_descents(v):
            tail = rec(v * simple_reflection(family, rank, i))
            out.extend((i,) + t for t in tail)
        return out

    return rec(w)


def _taus_if_reduced(family: str, rank: int, word: Word) -> tuple[tuple, ...] | None:
    """The taus of a checked word, or None when it is not reduced: a word
    is reduced iff every tau it generates is positive, as appending letter
    i lengthens a prefix p iff p(a_i) > 0 (Humphreys 1990, 1.6-1.7)."""
    simples = simple_roots(family, rank)
    taus = []
    p = identity_element(family, rank)
    for i in word:
        tau = p.act_root(simples[i - 1])
        if not is_positive_root(family, rank, tau):
            return None
        taus.append(tau)
        p = p * simple_reflection(family, rank, i)
    return tuple(taus)


def ordering_from_word(family: str, rank: int, word: Word) -> tuple[tuple, ...]:
    """The root sequence tau_j attached to a reduced word."""
    word = check_word(family, rank, word)
    taus = _taus_if_reduced(family, rank, word)
    if taus is None:
        raise InvalidWordError(f"word {word!r} is not reduced", index=None)
    return taus


def validate_ordering(family: str, rank: int, roots) -> Word:
    """Recover the unique reduced word whose ordering is ``roots``.

    Raises InvalidWordError carrying the 1-based index of the first
    root at which the sequence fails to extend.
    """
    check_family_rank(family, rank)
    simples = simple_roots(family, rank)
    index_of = {a: i + 1 for i, a in enumerate(simples)}
    v = identity_element(family, rank)
    out = []
    seen = set()
    for j, tau in enumerate(map(tuple, roots), start=1):
        if tau in seen or not is_positive_root(family, rank, tau):
            raise InvalidWordError(f"root {tau!r} at position {j} is invalid", index=j)
        seen.add(tau)
        gamma = v.act_root(tau)
        i = index_of.get(gamma)
        if i is None:
            raise InvalidWordError(
                f"root {tau!r} at position {j} does not extend the ordering", index=j
            )
        out.append(i)
        v = simple_reflection(family, rank, i) * v
    return tuple(out)


# -- canonical words and orderings -----------------------------------


def _basis_root(m: int, entries: dict) -> tuple:
    root = [0] * m
    for k, c in entries.items():
        root[k - 1] = c
    return tuple(root)


@lru_cache(maxsize=None)
def canonical_ordering(family: str, rank: int) -> tuple[tuple, ...]:
    """The lexicographic-by-level root ordering fixed per family."""
    check_family_rank(family, rank)
    m = ambient_dim(family, rank)
    taus = []
    if family == "A":
        for j in range(2, m + 1):
            for i in range(1, j):
                taus.append(_basis_root(m, {i: 1, j: -1}))
        return tuple(taus)
    for k in range(1, rank + 1):
        if family == "D" and k == 1:
            continue
        for mm in range(k - 1, 0, -1):
            taus.append(_basis_root(m, {k: 1, mm: 1}))
        if family == "B":
            taus.append(_basis_root(m, {k: 1}))
        elif family == "C":
            taus.append(_basis_root(m, {k: 2}))
        for mm in range(1, k):
            taus.append(_basis_root(m, {k: 1, mm: -1}))
    return tuple(taus)


@lru_cache(maxsize=None)
def canonical_word(family: str, rank: int) -> Word:
    return validate_ordering(family, rank, canonical_ordering(family, rank))


# -- reduced word counts ---------------------------------------------


def standard_count_a(n: int) -> int:
    """Number of reduced words of the order-reversing permutation of n
    symbols: C(n,2)! / (1^(n-1) 3^(n-2) ... (2n-3)^1)."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    num = math.factorial(n * (n - 1) // 2)
    den = 1
    for k in range(1, n):
        den *= (2 * k - 1) ** (n - k)
    return num // den


def printed_count_bc(rank: int):
    """The hyperoctahedral count formula evaluated exactly as printed.

    The printed formula is internally inconsistent for small ranks, so
    callers report its value next to the enumerated count instead of
    asserting equality.  Returns an int when integral else a Fraction.
    """
    from fractions import Fraction

    n = rank
    num = math.factorial(n * n)
    den = 1
    for i in range(1, n + 1):
        den *= (2 * i - 1) ** (n - i)
    for j in range(0, n - 2):
        for k in range(1, n - j - 1):
            den *= 2 * (j + 2 * k)
    q = Fraction(num, den)
    return int(q) if q.denominator == 1 else q
