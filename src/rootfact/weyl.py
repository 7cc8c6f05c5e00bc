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

Every walk that steps from w to w s_i rewrites only the images s_i moves.
One walk down by right descents gives single words: the smallest at each
step for deterministic_reduced_word, a seeded choice for
random_reduced_word.  A stratum word walks from w0 w, whose descents are w's ascents.

count_reduced_words counts the reduced words of an element without
listing them, and enumerate_reduced_words lists them once that count is
within its budget; both refuse an element whose words reach more than
MAX_COUNTED_ELEMENTS group elements with invalid-input.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import BudgetExceededError, InvalidInputError, InvalidWordError
from .rootsystem import (
    ambient_dim,
    check_family_rank,
    is_positive_root,
    pairing,
    simple_roots,
    root_vector,
)

Word = tuple


class WeylElement(namedtuple("WeylElement", "family rank images")):
    __slots__ = ()

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

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition self o other (other acts first)."""
        if (self.family, self.rank) != (other.family, other.rank):
            raise InvalidInputError("cannot compose elements of different groups")
        x = self.images
        return WeylElement(self.family, self.rank,
                           tuple(x[v - 1] if v > 0 else -x[-v - 1] for v in other.images))


def identity_element(family: str, rank: int) -> WeylElement:
    m = ambient_dim(family, rank)
    return WeylElement(family, rank, tuple(range(1, m + 1)))


@lru_cache(maxsize=None, typed=True)
def simple_reflection(family: str, rank: int, i: int) -> WeylElement:
    """s_i from a = a_i by s_a(l_k) = l_k - (2 (l_k, a) / (a, a)) a, which
    moves only the l_k with a_k nonzero."""
    check_family_rank(family, rank)
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= rank:
        raise InvalidWordError(f"letter {i!r} outside 1..{rank}", index=None)
    a = simple_roots(family, rank)[i - 1]
    images = list(range(1, len(a) + 1))
    for k in (k for k, c in enumerate(a) if c):
        p = pairing(root_vector(len(a), (k, 1)), a)
        image = [int(j == k) - p * c for j, c in enumerate(a)]
        j = next(j for j, v in enumerate(image) if v)
        images[k] = (j + 1) * image[j]
    return WeylElement(family, rank, tuple(images))


@lru_cache(maxsize=None)
def _moves(family: str, rank: int, i: int) -> tuple:
    """(k, u) for each l_k that s_i moves, u its signed image."""
    return tuple((k, u) for k, u in enumerate(simple_reflection(family, rank, i).images)
                 if u != k + 1)


def _step(family: str, rank: int, x: tuple, i: int) -> tuple:
    """The images of w s_i from the images x of w: as in __mul__, but only
    the l_k that s_i moves change."""
    y = list(x)
    for k, u in _moves(family, rank, i):
        y[k] = x[u - 1] if u > 0 else -x[-u - 1]
    return tuple(y)


def check_word(family: str, rank: int, word: Word) -> tuple[int, ...]:
    check_family_rank(family, rank)
    out = []
    for pos, i in enumerate(word, start=1):
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= rank:
            raise InvalidWordError(
                f"letter {i!r} at position {pos} outside 1..{rank}", index=pos
            )
        out.append(i)
    return tuple(out)


def word_evaluate(family: str, rank: int, word: Word) -> WeylElement:
    """s_iN o ... o s_i1 as ((1 s_iN) ...) s_i1."""
    x = identity_element(family, rank).images
    for i in reversed(check_word(family, rank, word)):
        x = _step(family, rank, x, i)
    return WeylElement(family, rank, x)


def is_reduced(family: str, rank: int, word: Word) -> bool:
    return _taus_if_reduced(family, rank, check_word(family, rank, word)) is not None


def _descents(family: str, rank: int, x: tuple) -> list[int]:
    """The right descents of w, the letters i with w(a_i) negative, in
    closed form over its signed images x (Bjorner and Brenti,
    Combinatorics of Coxeter Groups, 2005, sections 1.5, 8.1 and 8.2):
    x_i > x_(i+1) for A, and y_i < y_(i-1) over y = (y_0, x_1, ..., x_r)
    for B, C and D, y_0 = -x_2 for D and 0 otherwise."""
    if family == "A":
        return [i for i in range(1, rank + 1) if x[i - 1] > x[i]]
    y = (-x[1] if family == "D" else 0,) + x
    return [i for i in range(1, rank + 1) if y[i] < y[i - 1]]


@lru_cache(maxsize=None, typed=True)
def longest_element(family: str, rank: int) -> WeylElement:
    """w0 in closed form (Bourbaki, Plates I-IV): the reversal of l_1, ...,
    l_(r+1) for A, and -1 for B, C and even-rank D; for odd-rank D, -1
    except on l_1."""
    m = ambient_dim(family, rank)
    if family == "A":
        return WeylElement(family, rank, tuple(range(m, 0, -1)))
    keep = family == "D" and rank % 2
    return WeylElement(family, rank, tuple(1 if k == 1 and keep else -k for k in range(1, m + 1)))


def _walk_down(w: WeylElement, pick) -> Word:
    """A reduced word of w, each letter pick(right descents) of what is left."""
    family, rank, x = w.family, w.rank, w.images
    top = identity_element(family, rank).images
    out = []
    while x != top:
        out.append(pick(_descents(family, rank, x)))
        x = _step(family, rank, x, out[-1])
    return tuple(out)


def deterministic_reduced_word(w: WeylElement) -> Word:
    """Reduced word of w picking the smallest right descent at each step."""
    return _walk_down(w, min)


def random_reduced_word(family: str, rank: int, seed: int) -> Word:
    import random

    return _walk_down(longest_element(family, rank), random.Random(seed).choice)


# the most group elements a count meets: w0 at A7, B6, C6 and D6 (at most 46,080
# elements) counts in 0.12-0.4 s, and the groups past them, D7, A8 and up to rank
# 100, are refused in 0.25-0.75 s (Python 3.11, one core of a 2-CPU x86-64 machine)
MAX_COUNTED_ELEMENTS = 50000
# the most reduced words enumerate_reduced_words lists
WORD_BUDGET = 500000


def _fold_down(w: WeylElement, start, extend):
    """Fold over the reduced words of w, a length at a time from w down to
    the identity: each level maps an element v to the value of the words
    from w to v, and v s_i, for each right descent i of v, gets
    extend(value, i), the values of every v reaching it added up.  Raises
    InvalidInputError once more than MAX_COUNTED_ELEMENTS elements have
    been met."""
    family, rank = w.family, w.rank
    # levels are keyed by the images alone: they hash faster than the element
    top = identity_element(family, rank).images
    level, met = {w.images: start}, 1
    while top not in level:
        below = {}
        for x, value in level.items():
            for i in _descents(family, rank, x):
                y, step = _step(family, rank, x, i), extend(value, i)
                met += y not in below
                below[y] = below[y] + step if y in below else step
            if met > MAX_COUNTED_ELEMENTS:
                raise InvalidInputError(f"counting the reduced words of this {family}{rank} element"
                                        f" meets more than {MAX_COUNTED_ELEMENTS} group elements")
        level = below
    return level[top]


def count_reduced_words(w: WeylElement) -> int:
    """The number of reduced words of w, as count(w) = sum over the right
    descents s of w of count(w s) (Stanley 1984; Bjorner and Brenti,
    Combinatorics of Coxeter Groups, 2005, section 3)."""
    return _fold_down(w, 1, lambda value, i: value)


def enumerate_reduced_words(family: str, rank: int, w: WeylElement | None = None) -> list[Word]:
    """All reduced words of w (default: the longest element), in
    lexicographic order.  Raises BudgetExceededError, before any word
    is listed, when w has more than WORD_BUDGET of them."""
    if w is None:
        w = longest_element(family, rank)
    count = count_reduced_words(w)
    if count > WORD_BUDGET:
        raise BudgetExceededError(f"{count} reduced words, more than {WORD_BUDGET}")
    return sorted(_fold_down(w, [()], lambda words, i: [word + (i,) for word in words]))


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
        p = WeylElement(family, rank, _step(family, rank, p.images, i))
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


@lru_cache(maxsize=None, typed=True)
def canonical_ordering(family: str, rank: int) -> tuple[tuple, ...]:
    """The lexicographic-by-level root ordering fixed per family."""
    check_family_rank(family, rank)
    m = ambient_dim(family, rank)
    taus = []
    if family == "A":
        for j in range(1, m):
            for i in range(j):
                taus.append(root_vector(m, (i, 1), (j, -1)))
        return tuple(taus)
    for k in range(rank):
        if family == "D" and k == 0:
            continue
        for mm in range(k - 1, -1, -1):
            taus.append(root_vector(m, (k, 1), (mm, 1)))
        if family == "B":
            taus.append(root_vector(m, (k, 1)))
        elif family == "C":
            taus.append(root_vector(m, (k, 2)))
        for mm in range(k):
            taus.append(root_vector(m, (k, 1), (mm, -1)))
    return tuple(taus)


@lru_cache(maxsize=None, typed=True)
def canonical_word(family: str, rank: int) -> Word:
    return validate_ordering(family, rank, canonical_ordering(family, rank))


# -- reduced word counts ---------------------------------------------


def standard_count_a(n: int) -> int:
    """Number of reduced words of the order-reversing permutation of n
    symbols: C(n,2)! / (1^(n-1) 3^(n-2) ... (2n-3)^1)."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    return math.factorial(n * (n - 1) // 2) // math.prod((2 * k - 1) ** (n - k)
                                                         for k in range(1, n))


def printed_count_bc(rank: int):
    """The hyperoctahedral count formula evaluated exactly as printed.

    The printed formula is internally inconsistent for small ranks, so
    callers report its value next to the enumerated count instead of
    asserting equality.  It is an int at every rank up to MAX_RANK; a
    remainder raises ArithmeticError rather than being floored.
    """
    n = rank
    den = math.prod((2 * i - 1) ** (n - i) for i in range(1, n + 1))
    den *= math.prod(2 * (j + 2 * k) for j in range(n - 2) for k in range(1, n - j - 1))
    q, r = divmod(math.factorial(n * n), den)
    if r:
        raise ArithmeticError(f"the printed count is not an integer at rank {n}")
    return q
