"""rootfact benchmark: one run of one workload.

    python3 perfbench/run.py --workload maps|jacobian|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones, measured with no spans installed;
with --trace 1 they are the per-layer ones of spans.py.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "rootfact")


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("maps", "jacobian", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(PACKAGE):
        print(f"no rootfact sources at {PACKAGE}; run from a checkout root", file=sys.stderr)
        return 2

    import workloads

    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes or workloads.FULL
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
