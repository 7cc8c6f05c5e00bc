"""Hand-run mutant sampler: how many one-operator changes do the tests catch?

    python tests/mutants.py --module factorization --count 40 --seed 21 \\
        tests/test_inverse_kernel.py tests/test_factorization.py

Run from the root of a checkout.  The checkout, without .git, is copied
to a temporary directory once; every mutant is written into that copy's
``src/rootfact``, never into the checkout.  A site is one operator token
of the module's code (not of a string or a comment), swapped as

    +  -    -  +    *  //    //  *    <  <=    <=  <    >  >=    >=  >
    ==  !=    !=  ==

or one boolean operator, ``and`` for ``or`` and ``or`` for ``and``.

The sites of the chosen modules are shuffled by ``random.Random(seed)``
and the first ``count`` that still compile are run, one at a time, each
by one ``python -m pytest -x -q`` child process in the copy, never in
parallel.  A mutant is killed when the tests fail or time out, and
survives when they pass; a run is cut after five minutes, and each
child may map at most 512 MiB, so a mutant that makes the tests grow
without bound fails on a MemoryError instead of filling the machine.  The
unmutated copy runs first and must pass.  Standard error first says how
many mutants were drawn against how many were asked for, and how many
compilable sites the chosen modules have, as a count above that number
is cut to it.  One line per mutant goes to
standard output, then the kill rate per module, and apart for its
operator sites and its boolean sites.  Pytest does not
collect this file; a sweep takes minutes.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "rootfact")
TIMEOUT_S = 300
# an unmutated run of all of tests peaks at about 245 MB of address space and
# 239 MB resident (VmPeak and VmHWM, Python 3.11.7)
MEMORY_LIMIT_B = 512 * 2**20
SWAPS = {"+": "-", "-": "+", "*": "//", "//": "*", "<": "<=", "<=": "<",
         ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
BOOLEAN_SWAPS = {"and": "or", "or": "and"}


def sites(module: str):
    """(module, line, col, old, new) for every swappable operator or boolean token."""
    text = (ROOT / PACKAGE / f"{module}.py").read_text()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        swaps = {tokenize.OP: SWAPS, tokenize.NAME: BOOLEAN_SWAPS}.get(tok.type, {})
        if tok.string in swaps:
            yield module, tok.start[0], tok.start[1], tok.string, swaps[tok.string]


def mutate(text: str, line: int, col: int, old: str, new: str) -> str:
    lines = text.splitlines(keepends=True)
    src = lines[line - 1]
    assert src[col:col + len(old)] == old
    lines[line - 1] = src[:col] + new + src[col + len(old):]
    return "".join(lines)


def sample(modules, count: int, seed: int):
    """(the first ``count`` shuffled sites whose mutant compiles, each with
    its text; how many of all the sites compile)."""
    pool = [s for m in modules for s in sites(m)]
    random.Random(seed).shuffle(pool)
    texts = {m: (ROOT / PACKAGE / f"{m}.py").read_text() for m in modules}
    out, compilable = [], 0
    for site in pool:
        module, line, col, old, new = site
        text = mutate(texts[module], line, col, old, new)
        try:
            compile(text, f"{module}.py", "exec")
        except SyntaxError:  # say, *args turned into //args
            continue
        compilable += 1
        if len(out) < count:
            out.append((site, text))
    return out, compilable


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_B, MEMORY_LIMIT_B))


def run_tests(copy: Path, tests) -> str:
    """'passed', 'failed' or 'timeout' for one pytest child in the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its own src first
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    child = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True,
                             preexec_fn=_limit_memory)
    try:
        return "passed" if child.wait(timeout=TIMEOUT_S) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tests", nargs="*", default=["tests"],
                        help="pytest arguments, relative to the checkout root")
    parser.add_argument("--module", action="append", dest="modules",
                        help="a module of src/rootfact, by name; repeatable (default: all)")
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    modules = args.modules or sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py"))
    mutants, compilable = sample(modules, args.count, args.seed)
    print(f"drew {len(mutants)} of the {args.count} mutants asked for; the chosen modules "
          f"({', '.join(modules)}) have {compilable} compilable sites", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="rootfact-mutants-") as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if run_tests(copy, args.tests) != "passed":
            print("the unmutated copy fails these tests", file=sys.stderr)
            return 2
        tally = {}
        for (module, line, col, old, new), text in mutants:
            target = copy / PACKAGE / f"{module}.py"
            original = target.read_text()
            target.write_text(text)
            start = time.perf_counter()
            try:
                status = run_tests(copy, args.tests)
            finally:
                target.write_text(original)
            verdict = "survived" if status == "passed" else f"killed ({status})"
            source = original.splitlines()[line - 1].strip()
            print(f"{module}.py:{line}:{col + 1} {old} -> {new} {verdict} "
                  f"{time.perf_counter() - start:.1f}s | {source}", flush=True)
            for kind in ("", "boolean" if old in BOOLEAN_SWAPS else "operator"):
                killed, total = tally.get((module, kind), (0, 0))
                tally[(module, kind)] = (killed + (status != "passed"), total + 1)
    for (module, kind), (killed, total) in sorted(tally.items()):
        name = f"{module} {kind} sites" if kind else module
        print(f"{name}: {killed}/{total} killed ({100 * killed / total:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
