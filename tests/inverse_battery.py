"""A seeded battery of inverse_map cases and the script that pins it.

Each config (family, rank) takes three seeded random reduced words of the
longest element and a seeded prefix of each, which is a reduced word of
a shorter element.  Each full word meets two image points with a random
torus, and every word meets integer points (l, u) with entries in
{-1, 0, 1} and in {-2, ..., 2} and a unit torus, and Gaussian-rational
points with a random torus.  A case's outcome is the canonical JSON of its pairs, or
of the full error payload where the point is rejected, and the battery
keeps one SHA-256 of it per case, grouped by config, in
tests/golden/inverse_battery.json.

Running this module as a script regenerates that file:

    PYTHONPATH=src python tests/inverse_battery.py

Do it only for a deliberate change of output, and say why in
CHANGES.md; the test never writes the file.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from rootfact import LibError, forward_map, inverse_map, random_reduced_word
from rootfact.serialization import dumps_canonical

from conftest import exact_scalar, generic_pairs, torus_diag

BATTERY_PATH = Path(__file__).parent / "golden" / "inverse_battery.json"

CONFIGS = [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4), ("D", 5),
]


def config_key(family: str, rank: int) -> str:
    return f"{family}{rank}"


def cases(family: str, rank: int):
    """The battery's (word, l, u, h) cases for one config, in order.

    The forward map has no image point to offer for most prefixes, so
    only the full words take one.
    """
    rng = random.Random(f"inverse-battery/{family}{rank}")
    for seed in (1, 2, 3):
        word = random_reduced_word(family, rank, seed)
        for _ in range(2):
            h = torus_diag(family, rank, rng)
            res = forward_map(family, rank, word, generic_pairs(rng, len(word)), h=h)
            yield word, res.l, res.u, h
        for w in (word, word[:rng.randint(1, len(word) - 1)]):
            for span in (1, 1, 1, 1, 2, 2, 2):
                yield (w, [rng.randint(-span, span) for _ in w],
                       [rng.randint(-span, span) for _ in w], None)
            for _ in range(3):
                yield (w, [exact_scalar(rng) for _ in w], [exact_scalar(rng) for _ in w],
                       torus_diag(family, rank, rng))


def outcome(family: str, rank: int, word, l, u, h) -> str:
    """Canonical JSON of the pairs, or of the error payload."""
    try:
        return dumps_canonical({"pairs": inverse_map(family, rank, word, l, u, h=h)})
    except LibError as err:
        return dumps_canonical({"error": err.payload()})


def digests(family: str, rank: int) -> list[str]:
    return [hashlib.sha256(outcome(family, rank, *case).encode("utf-8")).hexdigest()
            for case in cases(family, rank)]


def main() -> None:
    battery = {config_key(f, r): digests(f, r) for f, r in CONFIGS}
    BATTERY_PATH.write_text(json.dumps(battery, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print("wrote", BATTERY_PATH, sum(map(len, battery.values())), "cases")


if __name__ == "__main__":
    main()
