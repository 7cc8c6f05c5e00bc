"""Command line interface over the factorization library.

Every subcommand prints exactly one canonical JSON object (sorted
keys, compact separators, trailing newline) to stdout.  Coordinate
and matrix data arrives as a JSON object through --input PATH, with
"-" meaning stdin; small parameters travel as flags.  Scalars are
canonical strings like "1/2-3/4*i"; plain integers are also accepted.
Each handler returns the library's own values, and main prints them
through serialization.dumps_canonical inside its error handling, so a
value the encoder refuses is still answered with one error object.
A handler imports the library modules it runs when it is dispatched,
so a request loads only those: ordering, validate-ordering,
canonical-word and count-words never load the matrix code, nor the
scalars and the fractions module behind them, and forward, invert and
dual never load the jets.

count-words counts the reduced words of the longest element without
listing them; past weyl.MAX_COUNTED_ELEMENTS group elements it answers
invalid-input.

Exit codes: 0 on success; 2 for malformed requests (invalid-input,
invalid-word, and budget-exceeded and branch-violation, which no
subcommand raises), malformed or unknown flags included; 3 when a
well-formed point lies where the requested map is undefined
(exceptional-set, stratum-failure); 4 for any other exception, a fault
of this program rather than of the request, reported as kind
internal-error without a traceback.  Only --help prints usage text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate
from operator import mul

from .errors import (
    ExceptionalSetError,
    InvalidInputError,
    LibError,
    StratumError,
    digit_limit_error,
    echo,
)
from .serialization import (
    diag_from_json,
    dumps_canonical,
    matrix_from_json,
    pairs_from_json,
    roots_from_json,
)
from .weyl import (
    canonical_ordering,
    canonical_word,
    count_reduced_words,
    longest_element,
    ordering_from_word,
    printed_count_bc,
    standard_count_a,
    validate_ordering,
    word_evaluate,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


def _parse_word_flag(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(
            f"a word flag must be comma-separated integers, got {echo(text)}"
        ) from None


def _read_input(args) -> dict:
    path = getattr(args, "input", None)
    if path is None:
        raise InvalidInputError("this subcommand needs --input PATH (or - for stdin)")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidInputError(f"cannot read input: {err}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"input is not valid JSON: {err}") from None
    except ValueError:  # a bare integer past the int/str digit limit
        raise digit_limit_error() from None
    except RecursionError:
        raise InvalidInputError("input JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise InvalidInputError("input must be a JSON object")
    return obj


def _optional_diag(obj: dict):
    return diag_from_json(obj["h"]) if "h" in obj else None


# -- subcommands -------------------------------------------------------


def cmd_forward(args) -> dict:
    from .factorization import forward_map, forward_map_stratum

    obj = _read_input(args)
    pairs = pairs_from_json(obj.get("pairs", []))
    h = _optional_diag(obj)
    if args.stratum_word is not None:
        if args.word is not None:
            raise InvalidInputError("give either --word or --stratum-word, not both")
        w = word_evaluate(args.family, args.rank, _parse_word_flag(args.stratum_word))
        res = forward_map_stratum(args.family, args.rank, w, pairs, h=h)
        return {"gammas": res.gammas, "matrix": res.matrix, "taus": res.taus}
    if args.word is None:
        raise InvalidInputError("forward needs --word or --stratum-word")
    res = forward_map(args.family, args.rank, _parse_word_flag(args.word), pairs, h=h)
    return {"h": res.h, "l": res.l, "matrix": res.matrix, "s": res.s, "taus": res.taus,
            "u": res.u}


def cmd_invert(args) -> dict:
    from .factorization import inverse_map

    obj = _read_input(args)
    if "l" not in obj or "u" not in obj:
        raise InvalidInputError('invert needs "l" and "u" coordinate lists')
    pairs = inverse_map(
        args.family,
        args.rank,
        _parse_word_flag(args.word),
        diag_from_json(obj["l"]),
        diag_from_json(obj["u"]),
        h=_optional_diag(obj),
    )
    return {"pairs": pairs}


def cmd_dual(args) -> dict:
    from .factorization import transpose_dual

    obj = _read_input(args)
    pairs, hdual = transpose_dual(
        args.family,
        args.rank,
        _parse_word_flag(args.word),
        pairs_from_json(obj.get("pairs", [])),
        h=_optional_diag(obj),
    )
    return {"h_dual": hdual, "pairs": pairs}


def cmd_ldu(args) -> dict:
    from .linalg import ldu

    obj = _read_input(args)
    if "matrix" not in obj:
        raise InvalidInputError('ldu needs a "matrix"')
    g = matrix_from_json(obj["matrix"])
    lower, d, upper = ldu(g)
    out = {"d": d, "lower": lower, "upper": upper}
    if args.minors:  # the k-th leading principal minor is d_1 ... d_k
        out["minors"] = list(accumulate(d, mul))
    return out


def cmd_ordering(args) -> dict:
    taus = ordering_from_word(args.family, args.rank, _parse_word_flag(args.word))
    return {"ordering": taus}


def cmd_validate_ordering(args) -> dict:
    obj = _read_input(args)
    if "ordering" not in obj:
        raise InvalidInputError('validate-ordering needs an "ordering" root list')
    word = validate_ordering(
        args.family, args.rank, roots_from_json(obj["ordering"])
    )
    return {"word": word}


def cmd_canonical_word(args) -> dict:
    return {"ordering": canonical_ordering(args.family, args.rank),
            "word": canonical_word(args.family, args.rank)}


def cmd_count_words(args) -> dict:
    count = count_reduced_words(longest_element(args.family, args.rank))
    if args.family == "A":
        formula = str(standard_count_a(args.rank + 1))
    elif args.family in ("B", "C"):
        formula = str(printed_count_bc(args.rank))
    else:
        formula = None
    return {"count": count, "formula": formula}


def cmd_jacobian(args) -> dict:
    from .factorization import jacobian_det_ad, jacobian_det_double_product, jacobian_det_formula

    obj = _read_input(args)
    word = _parse_word_flag(args.word)
    pairs = pairs_from_json(obj.get("pairs", []))
    return {
        "ad": jacobian_det_ad(args.family, args.rank, word, pairs),
        "double_product": jacobian_det_double_product(args.family, args.rank, word, pairs),
        "formula": jacobian_det_formula(args.family, args.rank, word, pairs),
    }


def cmd_haar_density(args) -> dict:
    from .haar import haar_density

    obj = _read_input(args)
    density = haar_density(
        args.family, args.rank, _parse_word_flag(args.word), pairs_from_json(obj.get("pairs", []))
    )
    return {"density": density}


def cmd_self_check(args) -> dict:
    from .selfcheck import run_self_check

    return run_self_check()


# -- parser ------------------------------------------------------------

_WORD_HELP = "comma-separated 1-based simple reflection indices, e.g. 1,2,1"

# the options a subcommand can take, each a list of (flag, add_argument keywords)
_OPTIONS = {
    "family": [("--family", dict(required=True, choices=("A", "B", "C", "D"))),
               ("--rank", dict(required=True, type=int))],
    "word": [("--word", dict(required=True, default=None, help=_WORD_HELP))],
    "optional-word": [("--word", dict(required=False, default=None, help=_WORD_HELP))],
    "stratum-word": [("--stratum-word", dict(
        default=None, help="word for the stratum element w; replaces --word"))],
    "input": [("--input", dict(default=None, help="JSON input path, - for stdin"))],
    "minors": [("--minors", dict(action="store_true", help="also print principal minors"))],
}

# subcommand: (handler, help, its options in order)
_COMMANDS = {
    "forward": (cmd_forward, "evaluate the factorization product",
                ("family", "optional-word", "stratum-word", "input")),
    "invert": (cmd_invert, "recover pairs from (l, u, h)", ("family", "word", "input")),
    "dual": (cmd_dual, "transpose-dual coordinates and torus", ("family", "word", "input")),
    "ldu": (cmd_ldu, "exact triangular factorization of a matrix", ("minors", "input")),
    "ordering": (cmd_ordering, "root ordering of a reduced word", ("family", "word")),
    "validate-ordering": (cmd_validate_ordering, "recover the word of an ordering",
                          ("family", "input")),
    "canonical-word": (cmd_canonical_word, "the fixed per-family word and ordering",
                       ("family",)),
    "count-words": (cmd_count_words, "count reduced words of the longest element",
                    ("family",)),
    "jacobian": (cmd_jacobian, "Jacobian determinant, three exact ways",
                 ("family", "word", "input")),
    "haar-density": (cmd_haar_density, "invariant density at a coordinate point",
                     ("family", "word", "input")),
    "self-check": (cmd_self_check, "run the built-in identity battery", ()),
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed flag as invalid-input instead of usage text."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rootfact",
        description="exact root subgroup factorization on the classical groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option in options:
            for flag, keywords in _OPTIONS[option]:
                p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = dumps_canonical(args.func(args))
    except LibError as err:
        sys.stdout.write(dumps_canonical({"error": err.payload()}))
        degenerate = isinstance(err, (ExceptionalSetError, StratumError))
        return EXIT_DEGENERATE if degenerate else EXIT_INVALID
    except Exception as err:  # the last resort: keep the one-object contract
        import traceback

        frame = traceback.extract_tb(err.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        sys.stdout.write(dumps_canonical({"error": {
            "kind": "internal-error", "message": f"{type(err).__name__} at {where}: {err}"}}))
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
