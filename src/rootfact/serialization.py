"""Canonical JSON: the one encoder of every CLI payload, and the readers
of its inputs.

``dumps_canonical`` prints any payload built from dicts, lists, tuples,
strings, ints, None, booleans and Scalars: sorted keys, compact
separators, one trailing newline, so equal data always serializes to
equal bytes.  A Scalar prints as its canonical string ("p/q+r/s*i"), a
tuple as a list; any other value is a TypeError.  Plain JSON integers
are accepted on input.  Floats are rejected everywhere: this package
has no inexact numbers.

Scalar is imported where it is first needed, in the encoder's hook for
non-JSON values and in the scalar readers, so a payload of plain JSON
data is encoded and read without loading ``rootfact.scalar`` and the
``fractions`` module behind it.
"""

from __future__ import annotations

import json

from .errors import InvalidInputError, echo


def _scalar(x) -> str:
    from .scalar import Scalar

    if isinstance(x, Scalar):
        return str(x)
    raise TypeError(f"cannot encode {type(x).__name__} as canonical JSON")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_scalar) + "\n"


def scalar_from_json(v):
    from .scalar import Scalar

    if isinstance(v, bool):
        raise InvalidInputError(f"not a scalar: {v!r}")
    if isinstance(v, int):
        return Scalar(v)
    if isinstance(v, str):
        return Scalar.parse(v)
    raise InvalidInputError(f"not a scalar: {echo(v)}")


def diag_from_json(v) -> list:
    if not isinstance(v, list):
        raise InvalidInputError("a diagonal must be a list of scalars")
    return [scalar_from_json(x) for x in v]


def matrix_from_json(v) -> list:
    if (
        not isinstance(v, list)
        or not v
        or not all(isinstance(row, list) and len(row) == len(v) for row in v)
    ):
        raise InvalidInputError("a matrix must be a square list of scalar lists")
    return [[scalar_from_json(x) for x in row] for row in v]


def pairs_from_json(v) -> list:
    if not isinstance(v, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in v
    ):
        raise InvalidInputError("pairs must be a list of [minus, plus] scalar pairs")
    return [(scalar_from_json(p[0]), scalar_from_json(p[1])) for p in v]


def roots_from_json(v) -> list:
    if not isinstance(v, list) or not all(
        isinstance(r, list)
        and all(isinstance(c, int) and not isinstance(c, bool) for c in r)
        for r in v
    ):
        raise InvalidInputError("roots must be lists of integer coordinates")
    return [tuple(r) for r in v]
