"""Per-config reference figures from the benchmark's own inputs.

    python3 perfbench/reference.py

Prints the median time of forward_map, inverse_map and jacobian_det_ad
at A4, B4, D5 and A8, over REPEATS inputs drawn with SEED, and of one
command-line call, in the shape of the baseline table of ROADMAP.md.  Inputs come from the benchmark's seeded
generators (random reduced words, not canonical ones), and every time is
scaled to the reference speed the way workloads.py scales it.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import inputs
import oracles
from gauges import ARITHMETIC
from workloads import _ENV, ROOT, STARTUP, _sc, rf

CONFIGS = (("A", 4), ("B", 4), ("D", 5), ("A", 8))
SEED = 1
REPEATS = 5


def _time(fn, gauge=ARITHMETIC) -> float:
    before = gauge.reading()
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    return gauge.scaled([dt], [before, gauge.reading()])[0]


def main() -> None:
    rng = random.Random(f"reference/{SEED}")
    print("| config (pairs n, matrix N) | forward | inverse | jacobian (jets) |")
    print("| --- | --- | --- | --- |")
    for family, rank in CONFIGS:
        times = {"forward": [], "inverse": [], "jacobian": []}
        for _ in range(REPEATS):
            word = oracles.random_reduced_word(family, rank, rng)
            pairs = [(_sc(a), _sc(b)) for a, b in inputs.generic_pairs(rng, len(word))]
            res = rf.forward_map(family, rank, word, pairs)
            times["forward"].append(_time(lambda: rf.forward_map(family, rank, word, pairs)))
            times["inverse"].append(_time(lambda: rf.inverse_map(family, rank, word, res.l, res.u)))
            times["jacobian"].append(_time(lambda: rf.jacobian_det_ad(family, rank, word, pairs)))
        ms = {k: 1e3 * statistics.median(v) for k, v in times.items()}
        size = f"({len(word)}, {len(res.matrix)})"
        print(f"| {family}{rank} {size} | {ms['forward']:.2g} ms | {ms['inverse']:.3g} ms "
              f"| {ms['jacobian']:.3g} ms |")
    calls = []
    for _ in range(REPEATS):
        cmd = [sys.executable, "-m", "rootfact", "canonical-word", "--family", "B", "--rank", "4"]
        calls.append(_time(lambda: subprocess.run(cmd, capture_output=True, check=True,
                                                  cwd=ROOT, env=_ENV), STARTUP))
    print(f"\nCLI canonical-word B4, spawn to exit: {1e3 * statistics.median(calls):.0f} ms")
    print(f"gauges: Fraction kernel {1e3 * ARITHMETIC.ref_s:.1f} ms, "
          f"bare interpreter start {1e3 * STARTUP.ref_s:.0f} ms")


if __name__ == "__main__":
    main()
