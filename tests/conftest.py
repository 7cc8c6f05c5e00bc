"""Shared fixtures, exact point generators, and the acceptance summary.

Test points are Gaussian rationals drawn from seeded random.Random
instances so every run sees the same exact values.  Generators resample
until the factorization coordinates stay clear of the loci the maps
exclude: generic_pairs keeps every 1 + z^- z^+ nonzero, branch_pairs
builds real pairs whose 1 - y^- y^+ is a perfect rational square so
square-root chains stay inside the rationals.

Acceptance tests are named test_criterion_<n>; a terminal-summary hook
prints one PASS/FAIL line per criterion after the run, plus any notes
the tests recorded (values reported but deliberately not asserted).

When the package runs from a source tree (PYTHONPATH=src) rather than
an install, no console script is on PATH; a session fixture then writes
the wrapper an install would, from pyproject.toml's [project.scripts].
"""

from __future__ import annotations

import os
import random
import re
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rootfact
from rootfact import Scalar
from rootfact.scalar import ONE, ZERO, sc

# the script an install writes for a "module:attr" entry point
_WRAPPER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


@pytest.fixture(scope="session", autouse=True)
def console_scripts(tmp_path_factory):
    """Put the [project.scripts] wrappers on PATH when none is installed."""
    try:
        import tomllib
    except ImportError:  # Python 3.10: without a TOML reader, rely on an install
        yield
        return
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    missing = {name: spec for name, spec in scripts.items() if shutil.which(name) is None}
    if not missing:
        yield
        return
    bindir = tmp_path_factory.mktemp("bin")
    for name, spec in missing.items():
        module, _, attr = spec.partition(":")
        path = bindir / name
        path.write_text(_WRAPPER.format(python=sys.executable, module=module,
                                        name=attr.split(".")[0], attr=attr))
        path.chmod(0o755)
    # the wrappers import the package under test, wherever the run found it
    source = str(Path(rootfact.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", str(bindir) + os.pathsep + os.environ.get("PATH", ""))
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (source, os.environ.get("PYTHONPATH")) if p))
        yield

ACCEPTANCE_NOTES: list[str] = []

_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.fixture
def acceptance_notes() -> list[str]:
    """Sink for report-only values surfaced in the terminal summary."""
    return ACCEPTANCE_NOTES


def exact_scalar(rng: random.Random, span: int = 4, imag_rate: float = 0.4) -> Scalar:
    """Small random Gaussian rational, occasionally purely real."""
    re_part = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    im_part = Fraction(0)
    if rng.random() < imag_rate:
        im_part = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    return Scalar.from_fraction(re_part, im_part)


def generic_pairs(rng: random.Random, n: int, span: int = 4) -> list[tuple]:
    """n coordinate pairs with every 1 + z^- z^+ nonzero."""
    pairs = []
    for _ in range(n):
        while True:
            zm = exact_scalar(rng, span)
            zp = exact_scalar(rng, span)
            if not (ONE + zm * zp).is_zero():
                pairs.append((zm, zp))
                break
    return pairs


def pairs_with_s_zero(rng: random.Random, n: int, zero_at: set[int]) -> list[tuple]:
    """Pairs where 1 + z^- z^+ = 0 exactly at the 1-based indices given."""
    pairs = []
    for k in range(1, n + 1):
        if k in zero_at:
            while True:
                zm = exact_scalar(rng, 3)
                if not zm.is_zero():
                    break
            pairs.append((zm, -zm.inverse()))  # forces 1 + z^- z^+ = 0
        else:
            while True:
                zm = exact_scalar(rng, 3)
                zp = exact_scalar(rng, 3)
                if not (ONE + zm * zp).is_zero():
                    pairs.append((zm, zp))
                    break
    return pairs


# real (y^-, y^+) with 1 - y^- y^+ = (num/den)^2: y^- = p, y^+ = (1 - r^2)/p
_BRANCH_SEEDS = [
    (Fraction(1, 2), Fraction(3, 5)),
    (Fraction(-2, 3), Fraction(4, 5)),
    (Fraction(3, 4), Fraction(5, 13)),
    (Fraction(1, 3), Fraction(12, 13)),
    (Fraction(-1, 2), Fraction(8, 17)),
    (Fraction(2, 5), Fraction(15, 17)),
    (Fraction(5, 2), Fraction(7, 25)),
    (Fraction(-3, 5), Fraction(24, 25)),
    (Fraction(1, 4), Fraction(20, 29)),
    (Fraction(-4, 3), Fraction(21, 29)),
]


def branch_pairs(rng: random.Random, n: int) -> list[tuple]:
    """Real pairs on the positive branch with perfect-square 1 - y^- y^+."""
    pairs = []
    for _ in range(n):
        p, r = _BRANCH_SEEDS[rng.randrange(len(_BRANCH_SEEDS))]
        if rng.random() < 0.5:
            p = -p
        ym = Scalar.from_fraction(p)
        yp = Scalar.from_fraction((1 - r * r) / p)
        pairs.append((ym, yp))
    return pairs


def pythagorean_pair(index: int) -> tuple:
    """Slice point (p, -p) with 1 + p^2 a perfect rational square."""
    slope = [Fraction(3, 4), Fraction(5, 12), Fraction(8, 15),
             Fraction(20, 21), Fraction(7, 24)][index % 5]
    p = Scalar.from_fraction(slope)
    return (p, -p)


def torus_diag(family: str, rank: int, rng: random.Random) -> list[Scalar]:
    """Random exact torus element as one-parameter coroot products."""
    from rootfact import coroot_diag, dim, simple_roots

    diag = [ONE] * dim(family, rank)
    for gamma in simple_roots(family, rank):
        while True:
            c = exact_scalar(rng, 3, imag_rate=0.2)
            if not c.is_zero():
                break
        for row, power in enumerate(coroot_diag(family, rank, gamma)):
            if power:
                diag[row] = diag[row] * c ** power
    return diag


def pairs_equal(left, right) -> bool:
    """Exact equality of coordinate pair lists after coercion."""
    if len(left) != len(right):
        return False
    return all(sc(a) == sc(c) and sc(b) == sc(d)
               for (a, b), (c, d) in zip(left, right))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcome: dict[int, bool] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                num = int(match.group(1))
                outcome[num] = outcome.get(num, True) and status == "passed"
    if not outcome:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for num in sorted(outcome):
        verdict = "PASS" if outcome[num] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE criterion {num}: {verdict}")
    for note in ACCEPTANCE_NOTES:
        terminalreporter.write_line(note)
