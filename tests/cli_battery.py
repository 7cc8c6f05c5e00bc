"""A seeded battery of command-line requests and the script that pins it.

Each case is one request, argv plus the text on stdin, run in process
through ``rootfact.cli.main`` with stdin substituted.  Every subcommand
meets successes at seeded random reduced words, points and matrices,
and the faults it can answer: malformed flags, a missing ``--input``,
an absent file, broken JSON, an input that is not an object,
missing keys, floats and overlong numbers where scalars belong, a
result past the interpreter's digit limit, invalid words and
orderings, the removed ``--budget`` flag and groups too large to count,
points on the exceptional set (denominator and pivot) and a matrix off
the open stratum.  The group
"no-command" holds the requests that name no known subcommand.

A case's outcome is its exit code and stdout, and the battery keeps
one SHA-256 of ``f"{rc}\\n{stdout}"`` per case, grouped by subcommand,
in tests/golden/cli_battery.json.  The digit-limit messages quote the
interpreter's limit, so the digests hold at its default of 4300 digits.

Running this module as a script regenerates that file:

    PYTHONPATH=src python tests/cli_battery.py

Do it only for a deliberate change of output, and say why in
CHANGES.md; the test never writes the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from rootfact import cli, forward_map, ordering_from_word, positive_roots, random_reduced_word

from conftest import exact_scalar, generic_pairs, pairs_with_s_zero, torus_diag

BATTERY_PATH = Path(__file__).parent / "golden" / "cli_battery.json"

GROUPS = [*cli._COMMANDS, "no-command"]

# the configs of the map requests, and the larger ones of the word requests
SMALL = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 3), ("D", 4)]
MIDDLE = [("A", 6), ("B", 5), ("C", 5), ("D", 5)]


def _flags(family, rank, word=None, key="--word"):
    out = ["--family", family, "--rank", str(rank)]
    return out if word is None else out + [key, ",".join(map(str, word))]


def _text(values):
    """JSON-ready copy of values with every scalar as its string."""
    if isinstance(values, (list, tuple)):
        return [_text(v) for v in values]
    return values if isinstance(values, (int, str)) else str(values)


def _body(**fields) -> str:
    return json.dumps({k: _text(v) for k, v in fields.items()})


def _faults(name, flags):
    """Requests every subcommand that reads --input answers alike."""
    yield [name, *flags], ""
    yield [name, *flags, "--input", "no-such-dir/absent.json"], ""
    yield [name, *flags, "--input", "-"], "not json {"
    yield [name, *flags, "--input", "-"], "[1]"
    yield [name, *flags, "--input", "-"], "9" * 5000
    yield [name, *flags, "--input", "-"], "[" * 5000 + "]" * 5000


def _word_faults(name, rest=("--input", "-"), stdin=""):
    """Word, family and rank flags a word subcommand refuses."""
    for flags in (_flags("A", 2, (1, 2, 5)), _flags("A", 2, (1, 1)),
                  _flags("A", 2, (0,)), ["--family", "A", "--rank", "2", "--word", "1,x"],
                  _flags("E", 2, (1,)), ["--family", "A", "--rank", "x", "--word", "1"],
                  _flags("A", 0, ()), _flags("A", 101, (1,)), ["--family", "A", "--rank", "2"],
                  [*_flags("A", 2, (1,)), "--bogus"]):
        yield [name, *flags, *rest], stdin


def cases(group: str):
    """The battery's (argv, stdin) requests for one group, in order."""
    rng = random.Random(f"cli-battery/{group}")
    words = [(f, r, random_reduced_word(f, r, seed)) for f, r in SMALL for seed in (1, 2)]
    if group == "forward":
        for family, rank, word in words:
            pairs = generic_pairs(rng, len(word))
            yield ["forward", *_flags(family, rank, word), "--input", "-"], _body(pairs=pairs)
            yield (["forward", *_flags(family, rank, word), "--input", "-"],
                   _body(pairs=pairs, h=torus_diag(family, rank, rng)))
        for family, rank, word in words[::3]:
            stratum = word[:rng.randint(0, len(word))]
            n = len(positive_roots(family, rank)) - len(stratum)
            yield (["forward", *_flags(family, rank, stratum, "--stratum-word"), "--input", "-"],
                   _body(pairs=generic_pairs(rng, n)))
        flags = _flags("A", 2, (1, 2, 1))
        yield ["forward", *flags, "--input", "-"], _body(pairs=[["7" * 3000, "7" * 3000]] * 3)
        yield ["forward", *flags, "--input", "-"], _body(pairs=[["9" * 5000, "1"]] + [[1, 1]] * 2)
        yield ["forward", *flags, "--input", "-"], json.dumps({"pairs": [[0.5, 1]] * 3})
        yield ["forward", *flags, "--input", "-"], json.dumps({"pairs": [["x" * 500, 1]] * 3})
        yield ["forward", *flags, "--input", "-"], json.dumps({"pairs": [[1, 2]] * 2})
        yield ["forward", *flags, "--input", "-"], json.dumps({"pairs": [[1, 2, 3]] * 3})
        yield ["forward", *flags, "--input", "-"], json.dumps({"pairs": [[1, "1/0"]] * 3})
        yield ["forward", *flags, "--input", "-"], json.dumps({"pairs": [], "h": ["2", "1"]})
        yield ["forward", *flags, "--input", "-"], json.dumps({"pairs": [[0, 0]] * 3,
                                                               "h": ["2", "1", "1"]})
        yield (["forward", *flags, "--stratum-word", "1", "--input", "-"],
               json.dumps({"pairs": []}))
        yield ["forward", *_flags("A", 2), "--input", "-"], json.dumps({"pairs": []})
        yield from _faults("forward", flags)
        yield from _word_faults("forward", stdin=json.dumps({"pairs": []}))
    elif group == "invert":
        for family, rank, word in words:
            flags = ["invert", *_flags(family, rank, word), "--input", "-"]
            h = torus_diag(family, rank, rng)
            res = forward_map(family, rank, word, generic_pairs(rng, len(word)), h=h)
            yield flags, _body(l=res.l, u=res.u, h=h)
            for span in (1, 2):
                yield flags, _body(l=[rng.randint(-span, span) for _ in word],
                                   u=[rng.randint(-span, span) for _ in word])
            yield flags, _body(l=[exact_scalar(rng) for _ in word],
                               u=[exact_scalar(rng) for _ in word])
            prefix = word[:rng.randint(1, len(word) - 1)]
            yield (["invert", *_flags(family, rank, prefix), "--input", "-"],
                   _body(l=[rng.randint(-1, 1) for _ in prefix],
                         u=[rng.randint(-1, 1) for _ in prefix]))
        flags = ["invert", *_flags("A", 2, (1, 2, 1)), "--input", "-"]
        yield flags, json.dumps({"l": [-1, -1, -1], "u": [-1, 1, -1]})  # denominator
        yield flags, json.dumps({"l": [-1, -1, -1], "u": [-1, -1, 1]})  # pivot
        yield flags, json.dumps({"l": [0, 1, 0], "u": [0, -1, 0]})
        yield ["invert", *_flags("A", 2, (1, 2)), "--input", "-"], json.dumps(
            {"l": [-1, -1], "u": [-1, -1]})  # not an ordered product
        yield ["invert", *_flags("A", 2, ()), "--input", "-"], json.dumps({"l": [], "u": []})
        yield flags, json.dumps({"l": [1, 2, 3]})
        yield flags, json.dumps({"l": [1, 2], "u": [1, 2]})
        yield flags, json.dumps({"l": "1", "u": [1, 2, 3]})
        yield from _faults("invert", flags[1:-2])
        yield from _word_faults("invert", stdin=json.dumps({"l": [], "u": []}))
    elif group == "dual":
        for family, rank, word in words:
            flags = ["dual", *_flags(family, rank, word), "--input", "-"]
            yield flags, _body(pairs=generic_pairs(rng, len(word)), h=torus_diag(family, rank, rng))
            yield flags, _body(pairs=pairs_with_s_zero(rng, len(word), {rng.randint(1, len(word))}))
        flags = _flags("A", 1, (1,))
        yield ["dual", *flags, "--input", "-"], json.dumps({"pairs": [["1", "2"]]})
        yield from _faults("dual", flags)
    elif group == "ldu":
        for size in (1, 2, 3, 4, 5):
            m = [[exact_scalar(rng) for _ in range(size)] for _ in range(size)]
            yield ["ldu", "--input", "-"], _body(matrix=m)
            yield ["ldu", "--minors", "--input", "-"], _body(matrix=m)
        for m in ([[0, 1], [1, 0]], [[1, 2, 3], [2, 4, 5], [3, 5, 6]], [[1, 2], [2, 4]],
                  [[0, 0], [0, 0]], [["1/2", "1*i"], ["-1*i", "1/2"]]):
            yield ["ldu", "--input", "-"], json.dumps({"matrix": m})
            yield ["ldu", "--minors", "--input", "-"], json.dumps({"matrix": m})
        for m in ([[1, 2], [3]], [], {"rows": []}, [[1.5]], [["9" * 5000]]):
            yield ["ldu", "--input", "-"], json.dumps({"matrix": m})
        yield ["ldu", "--input", "-"], json.dumps({"matrix": [["7" * 3000, 1], [1, 1]]})
        yield ["ldu", "--input", "-"], json.dumps({"pairs": []})
        yield from _faults("ldu", [])
    elif group == "ordering":
        for family, rank in SMALL + MIDDLE:
            for seed in (1, 2):
                yield ["ordering", *_flags(family, rank, random_reduced_word(family, rank, seed))], ""
            yield ["ordering", *_flags(family, rank, ())], ""
        yield from _word_faults("ordering", rest=())
    elif group == "validate-ordering":
        for family, rank in SMALL + MIDDLE:
            word = random_reduced_word(family, rank, rng.randint(1, 10**6))
            ordering = [list(t) for t in ordering_from_word(family, rank, word)]
            yield ["validate-ordering", *_flags(family, rank), "--input", "-"], json.dumps(
                {"ordering": ordering})
            k = rng.randrange(len(ordering))
            for bad in (ordering[:k] + ordering[k + 1:], ordering + [ordering[k]],
                        ordering[:k] + [[-c for c in ordering[k]]] + ordering[k + 1:]):
                yield ["validate-ordering", *_flags(family, rank), "--input", "-"], json.dumps(
                    {"ordering": bad})
        flags = _flags("A", 2)
        for bad in ([[1, 0.5]], [[True, 0, -1]], "roots", [[1, -1, 0], [1, -1, 0]], [[1, 1, 1]],
                    [[1, -1]]):
            yield ["validate-ordering", *flags, "--input", "-"], json.dumps({"ordering": bad})
        yield ["validate-ordering", *flags, "--input", "-"], json.dumps({"word": [1]})
        yield from _faults("validate-ordering", flags)
    elif group == "canonical-word":
        for family in "ABCD":
            for rank in range(2 if family == "D" else 1, 8):
                yield ["canonical-word", *_flags(family, rank)], ""
        for flags in (_flags("A", 0), _flags("D", 1), _flags("E", 3), ["--family", "A"],
                      [*_flags("A", 2), "--word", "1"]):
            yield ["canonical-word", *flags], ""
    elif group == "count-words":
        for family, rank in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                             ("C", 2), ("C", 3), ("D", 3), ("D", 4)):
            yield ["count-words", *_flags(family, rank)], ""
        for budget in ("10", "1", "0", "-1", "y"):
            yield ["count-words", *_flags("A", 4), "--budget", budget], ""
        for family, rank in (("A", 7), ("B", 6), ("D", 8), ("A", 44)):
            yield ["count-words", *_flags(family, rank)], ""
        yield ["count-words", *_flags("B", 5), "--budget", "10"], ""
    elif group == "jacobian":
        for family, rank, word in words:
            flags = ["jacobian", *_flags(family, rank, word), "--input", "-"]
            yield flags, _body(pairs=generic_pairs(rng, len(word)))
            yield flags, _body(pairs=pairs_with_s_zero(rng, len(word), {rng.randint(1, len(word))}))
        flags = _flags("A", 2, (1, 2, 1))
        yield ["jacobian", *flags, "--input", "-"], json.dumps({"pairs": [[-1, 1]] * 3})
        yield ["jacobian", *flags, "--input", "-"], json.dumps({"pairs": [[0.5, 1]] * 3})
        yield from _faults("jacobian", flags)
        yield from _word_faults("jacobian", stdin=json.dumps({"pairs": []}))
    elif group == "haar-density":
        for family, rank, word in words:
            flags = ["haar-density", *_flags(family, rank, word), "--input", "-"]
            yield flags, _body(pairs=generic_pairs(rng, len(word)))
            yield flags, _body(pairs=pairs_with_s_zero(rng, len(word), {rng.randint(1, len(word))}))
        flags = _flags("A", 2, (1, 2, 1))
        yield ["haar-density", *flags, "--input", "-"], json.dumps({"pairs": [[0.5, 1]] * 3})
        yield ["haar-density", *flags, "--input", "-"], json.dumps({"pairs": [[1, 2]]})
        yield from _faults("haar-density", flags)
    elif group == "self-check":
        yield ["self-check"], ""
        yield ["self-check", "--family", "A"], ""
    elif group == "no-command":
        for argv in ([], ["bogus"], ["--family", "A"], ["--bogus"]):
            yield argv, ""
    else:
        raise KeyError(group)


def outcome(argv, stdin: str) -> str:
    """f"{rc}\\n{stdout}" of one request run in process."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return f"{rc}\n{out.getvalue()}"


def digests(group: str) -> list[str]:
    return [hashlib.sha256(outcome(argv, stdin).encode("utf-8")).hexdigest()
            for argv, stdin in cases(group)]


def main() -> None:
    battery = {group: digests(group) for group in GROUPS}
    BATTERY_PATH.write_text(json.dumps(battery, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print("wrote", BATTERY_PATH, sum(map(len, battery.values())), "cases")


if __name__ == "__main__":
    main()
