"""Round trips and byte determinism for the JSON layer.

Everything that crosses the CLI boundary goes through the one encoder
and these readers, so the tests pin the wire format: scalar strings,
[minus, plus] pair lists, square matrices, integer words and roots,
and the canonical dump (sorted keys, compact separators, one trailing
newline) of library values, which refuses every other number type.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from rootfact import InvalidInputError, RadicalScalar, Scalar
from rootfact.cli import _parse_word_flag
from rootfact.serialization import (
    diag_from_json,
    dumps_canonical,
    matrix_from_json,
    pairs_from_json,
    roots_from_json,
    scalar_from_json,
)

from conftest import exact_scalar
from helpers import constant


def wire(value):
    """value as the CLI prints it, parsed back."""
    return json.loads(dumps_canonical(value))


def test_scalar_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        x = exact_scalar(rng)
        assert scalar_from_json(wire(x)) == x


def test_scalar_accepts_plain_integers():
    assert scalar_from_json(-3) == Scalar(-3)
    assert scalar_from_json("1/2-3/4*i") == Scalar(2, -3, 4)


def test_scalar_rejects_non_scalars():
    for bad in (True, 2.5, None, [1], "1 + i"):
        with pytest.raises(InvalidInputError):
            scalar_from_json(bad)


def test_matrix_round_trip():
    rng = random.Random(9)
    m = [[exact_scalar(rng) for _ in range(3)] for _ in range(3)]
    assert matrix_from_json(wire(m)) == m


def test_matrix_shape_guards():
    with pytest.raises(InvalidInputError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(InvalidInputError):
        matrix_from_json([])
    with pytest.raises(InvalidInputError):
        matrix_from_json({"rows": []})


def test_pairs_round_trip():
    rng = random.Random(11)
    pairs = [(exact_scalar(rng), exact_scalar(rng)) for _ in range(6)]
    assert pairs_from_json(wire(pairs)) == pairs


def test_pairs_shape_guards():
    with pytest.raises(InvalidInputError):
        pairs_from_json([[1, 2, 3]])
    with pytest.raises(InvalidInputError):
        pairs_from_json("pairs")


def test_diag_round_trip():
    d = [Scalar(5), Scalar(1, 0, 5), Scalar(-2, 3, 7)]
    assert diag_from_json(wire(d)) == d
    with pytest.raises(InvalidInputError):
        diag_from_json("3")


def test_word_round_trip():
    # words leave as JSON integer lists and come back as --word flags
    for word in [(1, 2, 1), ()]:
        assert _parse_word_flag(",".join(map(str, wire(word)))) == word
    with pytest.raises(InvalidInputError):
        _parse_word_flag("1,x")


def test_roots_round_trip():
    roots = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    assert roots_from_json(wire(roots)) == roots
    with pytest.raises(InvalidInputError):
        roots_from_json([[1, 0.5]])


def test_dumps_canonical_bytes():
    payload = {"b": [1, 2], "a": "x"}
    text = dumps_canonical(payload)
    assert text == '{"a":"x","b":[1,2]}\n'
    assert dumps_canonical({"a": "x", "b": [1, 2]}) == text


def test_dumps_canonical_prints_library_values():
    # tuples print as lists and Scalars as their canonical strings
    payload = {"taus": ((1, -1, 0),), "word": (2, 1), "l": [Scalar(2, -3, 4), Scalar(0)]}
    assert dumps_canonical(payload) == '{"l":["1/2-3/4*i","0"],"taus":[[1,-1,0]],"word":[2,1]}\n'


@pytest.mark.parametrize("value", [constant(1), RadicalScalar(Scalar(1), 2),
                                   Fraction(1, 2), object()],
                         ids=["jet", "radical", "fraction", "object"])
def test_dumps_canonical_refuses_other_values(value):
    with pytest.raises(TypeError, match="cannot encode"):
        dumps_canonical({"value": [value]})


def test_dumps_canonical_refuses_oversized_scalars():
    with pytest.raises(InvalidInputError, match="digits"):
        dumps_canonical({"value": Scalar(10 ** 5000)})
