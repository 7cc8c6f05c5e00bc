"""Child processes the benchmark spawns; run from the checkout root.

    python perfbench/child.py setup A4,B4,...
        Prints the seconds from just before ``import rootfact`` until a
        first forward_map has run at every listed config, scaled by the
        ARITHMETIC gauge read just before and just after.

    python perfbench/child.py cli-trace <rootfact arguments>
        Replays one request through ``rootfact.cli.main`` with the spans
        of spans.Tracer installed.  Standard output and the exit code
        are the request's own; the raw span record follows the request's
        standard error as one last line after TRACE_MARK.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gauges  # noqa: E402
import oracles  # noqa: E402

TRACE_MARK = "\nperfbench-trace "


def warm_up_words(configs) -> list:
    """(family, rank, word) per config, the word from the benchmark's
    own walk, so that building it is not timed with the warm-up."""
    return [(f, r, oracles.random_reduced_word(f, r, random.Random(0))) for f, r in configs]


def warm_up(rf, triples) -> None:
    """One forward_map per (family, rank, word): fills the root-system,
    Weyl and root-triple caches a first call pays for."""
    for family, rank, word in triples:
        rf.forward_map(family, rank, word, [(1, 1)] * len(word))


def parse_configs(text: str) -> list:
    return [(c[0], int(c[1:])) for c in text.split(",")]


def _setup(configs) -> None:
    triples = warm_up_words(configs)
    gauge = gauges.ARITHMETIC
    gauge.reading()  # the first reading of a fresh process runs cold
    readings = [gauge.reading() for _ in range(3)]
    t0 = time.perf_counter()
    import rootfact

    warm_up(rootfact, triples)
    dt = time.perf_counter() - t0
    readings += [gauge.reading() for _ in range(3)]
    print(gauge.scale(dt, readings))


def _cli_trace(argv) -> int:
    import spans

    t0 = time.perf_counter()
    import rootfact.cli

    tracer = spans.Tracer()
    tracer.record["import_s"].append(time.perf_counter() - t0)
    tracer.install()
    try:
        rc = rootfact.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a request this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what an uncaught fault does under python -m rootfact
        traceback.print_exc()
        rc = 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps(tracer.record) + "\n")
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        _setup(parse_configs(sys.argv[2]))
    elif mode == "cli-trace":
        sys.exit(_cli_trace(sys.argv[2:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
