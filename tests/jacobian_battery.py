"""A seeded battery of Jacobian and compact-picture cases and the script
that pins it.

Each config (family, rank) takes three seeded random reduced words of
the longest element, and each word meets five points:

- generic Gaussian-rational pairs with a random torus: the Jacobian
  three ways, the density, the transpose dual, and eta_from_zeta,
  which rejects a complex 1 + z^- z^+;
- pairs with 1 + z^- z^+ = 0 at a seeded position: the same maps, where
  the double product may meet a zero base and the dual is undefined;
- real branch pairs whose 1 - y^- y^+ are perfect rational squares: the
  compact change both ways, the density on its image, and the jet
  chain's three determinants;
- real branch pairs whose 1 - y^- y^+ are not squares: the same, with
  radical coordinates, where the jet chain refuses the point;
- real pairs whose 1 + z^- z^+ are positive non-squares: eta_from_zeta
  with radical coordinates, zeta_from_eta back, and the density.

Each word also meets the error payloads the maps raise on bad pairs: a
branch violation, a float and a string in place of a scalar, both a
violation and a string, a radical coordinate whose 1 + z^- z^+ adds
incompatible radicals, and the double product's zero base.  A case's outcome is the canonical JSON of every
map's printed result or full error payload, and the battery keeps one
SHA-256 of it per case, grouped by config, in
tests/golden/jacobian_battery.json.

Running this module as a script regenerates that file:

    PYTHONPATH=src python tests/jacobian_battery.py

Do it only for a deliberate change of output, and say why in
CHANGES.md; the test never writes the file.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from rootfact import (
    LibError,
    RadicalScalar,
    eta_change_jacobian_det,
    eta_from_zeta,
    haar_density,
    jacobian_det_ad,
    jacobian_det_double_product,
    jacobian_det_formula,
    lebesgue_pullback_det,
    random_reduced_word,
    transpose_dual,
    unit_jacobian_check,
    zeta_from_eta,
)
from rootfact.scalar import Scalar
from rootfact.serialization import dumps_canonical

from conftest import branch_pairs, generic_pairs, pairs_with_s_zero, torus_diag

BATTERY_PATH = Path(__file__).parent / "golden" / "jacobian_battery.json"

CONFIGS = [
    ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3),
    ("C", 2), ("C", 3),
    ("D", 3), ("D", 4),
]

# positive non-square values of 1 - y^- y^+, so each a_j is a radical
_RADICANDS = [Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(5, 7), Fraction(6, 5)]


def config_key(family: str, rank: int) -> str:
    return f"{family}{rank}"


def radical_pairs(rng: random.Random, n: int) -> list[tuple]:
    """Real pairs on the positive branch with non-square 1 - y^- y^+."""
    pairs = []
    for _ in range(n):
        p = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        q = rng.choice(_RADICANDS)
        pairs.append((Scalar.from_fraction(p), Scalar.from_fraction((1 - q) / p)))
    return pairs


def _printed(x):
    if isinstance(x, (list, tuple)):
        return [_printed(v) for v in x]
    return str(x)


def _run(fn, *args):
    try:
        return {"value": _printed(fn(*args))}
    except LibError as err:
        return {"error": err.payload()}


def _compact(cfg, pairs) -> dict:
    """The compact change both ways and the density on its image."""
    out = {"zeta_from_eta": _run(zeta_from_eta, *cfg, pairs)}
    try:
        zeta = zeta_from_eta(*cfg, pairs)[0]
    except LibError:
        return out
    out["eta_from_zeta"] = _run(eta_from_zeta, *cfg, zeta)
    out["density_of_zeta"] = _run(haar_density, *cfg, zeta)
    return out


def _compact_back(cfg, pairs) -> dict:
    """eta_from_zeta, zeta_from_eta on its image, and the density."""
    out = {"eta_from_zeta": _run(eta_from_zeta, *cfg, pairs),
           "density": _run(haar_density, *cfg, pairs)}
    try:
        eta = eta_from_zeta(*cfg, pairs)[0]
    except LibError:
        return out
    out["zeta_from_eta"] = _run(zeta_from_eta, *cfg, eta)
    return out


def cases(family: str, rank: int):
    """The battery's (name, thunk) cases for one config, in order."""
    rng = random.Random(f"jacobian-battery/{family}{rank}")
    for seed in (1, 2, 3):
        word = random_reduced_word(family, rank, seed)
        cfg, n = (family, rank, word), len(word)
        generic = generic_pairs(rng, n)
        h = torus_diag(family, rank, rng)
        zero = pairs_with_s_zero(rng, n, {rng.randint(1, n)})
        square = branch_pairs(rng, n)
        radical = radical_pairs(rng, n)
        for name, pairs in (("generic", generic), ("s-zero", zero)):
            yield name, lambda pairs=pairs: {
                "ad": _run(jacobian_det_ad, *cfg, pairs),
                "formula": _run(jacobian_det_formula, *cfg, pairs),
                "double": _run(jacobian_det_double_product, *cfg, pairs),
                "density": _run(haar_density, *cfg, pairs),
                "dual": _run(transpose_dual, *cfg, pairs, h),
                "eta_from_zeta": _run(eta_from_zeta, *cfg, pairs),
            }
        for name, pairs in (("square", square), ("radical", radical)):
            yield name, lambda pairs=pairs: {
                **_compact(cfg, pairs),
                "change": _run(eta_change_jacobian_det, *cfg, pairs),
                "pullback": _run(lebesgue_pullback_det, *cfg, pairs),
                "unit": _run(unit_jacobian_check, *cfg, pairs),
            }
        yield "radical-zeta", lambda: _compact_back(cfg, [(a, -b) for a, b in radical])
        k = rng.randrange(n)
        far = [(Scalar(2), Scalar(1))] * n  # 1 - y^- y^+ = -1
        floats = [(p if j != k else (0.5, p[1])) for j, p in enumerate(generic)]
        strings = [(p if j != k else (p[0], "1")) for j, p in enumerate(square)]
        surd = [(p if j != k else (RadicalScalar.sqrt_of(2), p[1]))
                for j, p in enumerate(generic)]
        # a branch violation at pair 1 and a string at pair n: the pairs are
        # checked in order, so the violation is the one reported
        far_string = far[:-1] + [(Scalar(2), "1")]
        near_string = [(Scalar(1), Scalar(-2))] * (n - 1) + [(Scalar(1), "1")]
        yield "errors", lambda: {
            "branch": _run(zeta_from_eta, *cfg, far),
            "branch-first-zeta": _run(zeta_from_eta, *cfg, far_string),
            "branch-first-eta": _run(eta_from_zeta, *cfg, near_string),
            "string-density": _run(haar_density, *cfg, near_string),
            "float-density": _run(haar_density, *cfg, floats),
            "float-eta": _run(eta_from_zeta, *cfg, floats),
            "string-zeta": _run(zeta_from_eta, *cfg, strings),
            "string-pullback": _run(lebesgue_pullback_det, *cfg, strings),
            "surd-density": _run(haar_density, *cfg, surd),
            "surd-eta": _run(eta_from_zeta, *cfg, surd),
            "zero-base": _run(jacobian_det_double_product, *cfg,
                              [(Scalar(-1), Scalar(1))] * n),
        }


def digests(family: str, rank: int) -> list[str]:
    return [hashlib.sha256(dumps_canonical({name: thunk()}).encode("utf-8")).hexdigest()
            for name, thunk in cases(family, rank)]


def main() -> None:
    battery = {config_key(f, r): digests(f, r) for f, r in CONFIGS}
    BATTERY_PATH.write_text(json.dumps(battery, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print("wrote", BATTERY_PATH, sum(map(len, battery.values())), "cases")


if __name__ == "__main__":
    main()
