"""Canonical JSON forms for scalars, words, roots, and matrices.

Payloads are emitted with sorted keys, compact separators, and one
trailing newline, so equal data always serializes to equal bytes.
Scalars travel as canonical strings ("p/q+r/s*i"); plain JSON
integers are accepted on input.  Floats are rejected everywhere:
this package has no inexact numbers.
"""

from __future__ import annotations

import json

from .errors import InvalidInputError, echo
from .scalar import Scalar


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def scalar_to_json(x) -> str:
    return str(x)


def scalar_from_json(v) -> Scalar:
    if isinstance(v, bool):
        raise InvalidInputError(f"not a scalar: {v!r}")
    if isinstance(v, int):
        return Scalar(v)
    if isinstance(v, str):
        return Scalar.parse(v)
    raise InvalidInputError(f"not a scalar: {echo(v)}")


def diag_to_json(entries) -> list:
    return [scalar_to_json(x) for x in entries]


def diag_from_json(v) -> list:
    if not isinstance(v, list):
        raise InvalidInputError("a diagonal must be a list of scalars")
    return [scalar_from_json(x) for x in v]


def matrix_to_json(m) -> list:
    return [[scalar_to_json(x) for x in row] for row in m]


def matrix_from_json(v) -> list:
    if (
        not isinstance(v, list)
        or not v
        or not all(isinstance(row, list) and len(row) == len(v) for row in v)
    ):
        raise InvalidInputError("a matrix must be a square list of scalar lists")
    return [[scalar_from_json(x) for x in row] for row in v]


def pairs_to_json(pairs) -> list:
    return [[scalar_to_json(a), scalar_to_json(b)] for a, b in pairs]


def pairs_from_json(v) -> list:
    if not isinstance(v, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in v
    ):
        raise InvalidInputError("pairs must be a list of [minus, plus] scalar pairs")
    return [(scalar_from_json(p[0]), scalar_from_json(p[1])) for p in v]


def word_to_json(word) -> list:
    return [int(i) for i in word]


def root_to_json(root) -> list:
    return [int(c) for c in root]


def roots_to_json(roots) -> list:
    return [root_to_json(r) for r in roots]


def roots_from_json(v) -> list:
    if not isinstance(v, list) or not all(
        isinstance(r, list)
        and all(isinstance(c, int) and not isinstance(c, bool) for c in r)
        for r in v
    ):
        raise InvalidInputError("roots must be lists of integer coordinates")
    return [tuple(r) for r in v]
