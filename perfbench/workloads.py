"""The maps, jacobian and cli workloads and the closed loop that runs them.

A workload is a fixed list of operations per round.  One caller issues
one operation at a time; a run repeats whole rounds until ``seconds``
have passed and at least ``min_ops`` operations were attempted.  The
inputs of round k come from random.Random(f"{workload}/{seed}/{k}"),
so a seed fixes every input whatever the run length, and every round
attempts the same operations.

Each operation's output is checked after its round, outside the timed
calls, against the independent references in oracles.py.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import child
import gauges
import inputs
import oracles
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rootfact as rf  # noqa: E402
from rootfact import matrices as rf_matrices  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Sizes:
    """What one round holds, and how much a run measures at least."""

    maps: tuple  # (family, rank) per operation
    # ("jac" | "compact", family, rank) per operation; the compact
    # chain's jets grow fast with rank, about 0.7 s at B4, 1.5 s at D5
    # and 9 s at A8 per operation, so it runs at ranks 3 and 4
    jacobian: tuple
    cli: tuple  # request specs, see _cli_request
    min_ops: int
    setup_probes: int


A4, B4, C4, D4, D5, A8 = ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("D", 5), ("A", 8)
_SMALL = (("A", 3), ("B", 3), ("C", 3), ("D", 4))
_MIDDLE = (("A", 6), ("B", 5), ("C", 5), ("D", 5))

# Fifteen operations a round, ordered here by cost.  The median falls
# in the middle of a group of one kind (maps: operations 6-10, jacobian:
# 7-9) and the 90th percentile in the middle of operations 13-15, so
# neither sits on a boundary between kinds of different cost.
FULL = Sizes(
    maps=(A4, A4, A4, D4, D4, C4, C4, C4, C4, C4, B4, D5, A8, A8, A8),
    jacobian=(
        ("jac",) + A4, ("compact", "D", 3), ("jac",) + D4, ("compact",) + A4,
        ("compact", "C", 3), ("jac",) + C4,
        ("compact", "B", 3), ("compact", "B", 3), ("compact", "B", 3),
        ("jac",) + B4, ("jac",) + D5, ("compact",) + D4,
        ("jac",) + A8, ("jac",) + A8, ("jac",) + A8,
    ),
    cli=(
        ("canonical-word", "A", (6, 7, 8)),
        ("canonical-word", "B", (4, 5, 6)),
        ("canonical-word", "C", (4, 5, 6)),
        ("canonical-word", "D", (4, 5, 6)),
        ("ordering", _MIDDLE),
        ("validate-ordering", _MIDDLE),
        # B4 and C4 enumerate 24024 words each, about a second apiece
        # against 0.1 s for every other request; they stay out of rounds
        ("count-words", "A", 4),
        ("count-words", "B", 3),
        ("count-words", "D", 4),
        ("forward", _SMALL),
        ("invert", _SMALL),
        ("jacobian", _SMALL),
        ("haar-density", _SMALL),
        ("self-check",),
        ("oversized-forward",),
    ),
    min_ops=100,
    setup_probes=9,
)

TINY = Sizes(
    maps=(("A", 2), ("B", 2)),
    jacobian=(("jac", "A", 2), ("compact", "C", 2)),
    cli=(
        ("canonical-word", "D", (3,)),
        ("ordering", (("B", 2),)),
        ("validate-ordering", (("A", 3),)),
        ("count-words", "C", 2),
        ("forward", (("A", 2),)),
        ("invert", (("B", 2),)),
        ("jacobian", (("C", 2),)),
        ("haar-density", (("D", 3),)),
        ("oversized-forward",),
    ),
    min_ops=1,
    setup_probes=1,
)


# -- conversions ------------------------------------------------------------


def _sc(v):
    return rf.Scalar.from_fraction(*v)


def _frac(x):
    if not isinstance(x, rf.Scalar):
        raise TypeError(f"expected a Gaussian-rational scalar, got {x!r}")
    return (x.real, x.imag)


def _frac_mat(m) -> list:
    return [[_frac(x) for x in row] for row in m]


def _s_values(pairs) -> list:
    """s_j = 1 + z_j^- z_j^+."""
    return [(re + 1, im) for re, im in (oracles.cmul(zm, zp) for zm, zp in pairs)]


def _jacobian_closed_form(family, rank, word, pairs):
    """prod_j s_j^(delta_j - 1) with s_j = 1 + z_j^- z_j^+."""
    out = oracles.ONE
    for tau, s in zip(oracles.ordering(family, rank, word), _s_values(pairs)):
        out = oracles.cmul(out, oracles.cpow(s, oracles.delta(family, rank, tau) - 1))
    return out


# -- checks shared by the library and command-line operations -------------


def _check_forward(family, rank, word, zs, h, taus, l, u, h_out, s_out, matrix) -> bool:
    """taus, h and s are what they must be, L is unit lower and U unit
    upper triangular, and L * diag(h) * U is the returned matrix, all in
    the benchmark's own Fraction arithmetic."""
    if tuple(map(tuple, taus)) != oracles.ordering(family, rank, word) or h_out != h:
        return False
    if s_out != _s_values(zs):
        return False
    taus = oracles.ordering(family, rank, word)
    lower = _frac_mat(rf_matrices.assemble_lower(family, rank, taus, [_sc(v) for v in l]))
    upper = _frac_mat(rf_matrices.assemble_upper(family, rank, taus, [_sc(v) for v in u]))
    if not (oracles.is_unit_lower(lower) and oracles.is_unit_upper(upper)):
        return False
    lower_d = [[oracles.cmul(v, h[j]) for j, v in enumerate(row)] for row in lower]
    return oracles.mat_mul(lower_d, upper) == matrix


def _check_dual(family, rank, word, g, eta, hdual) -> bool:
    """forward(eta) * diag(h_dual) == sigma(g^-1), checked as
    sigma(g) * forward(eta) * diag(h_dual) == I."""
    f = _frac_mat(rf.forward_map(family, rank, word, eta).matrix)
    hd = [_frac(v) for v in hdual]
    y = [[oracles.cmul(v, hd[j]) for j, v in enumerate(row)] for row in f]
    return oracles.is_identity(oracles.mat_mul(oracles.sigma(family, rank, g), y))


# -- in-process operations --------------------------------------------------


@dataclass
class Op:
    run: object  # () -> output; raising counts the operation as failed
    check: object  # output -> True when correct


def _maps_op(rng, family, rank) -> Op:
    word = oracles.random_reduced_word(family, rank, rng)
    zs = inputs.generic_pairs(rng, len(word))
    h = inputs.torus(rng, family, rank)
    pairs = [(_sc(a), _sc(b)) for a, b in zs]
    hs = [_sc(v) for v in h]

    def run():
        res = rf.forward_map(family, rank, word, pairs, h=hs)
        back = rf.inverse_map(family, rank, word, res.l, res.u, h=res.h)
        return res, back, rf.transpose_dual(family, rank, word, pairs, h=hs)

    def check(out):
        res, back, (eta, hdual) = out
        g = _frac_mat(res.matrix)
        return (
            [(_frac(a), _frac(b)) for a, b in back] == zs
            and _check_forward(
                family, rank, word, zs, h, res.taus, [_frac(v) for v in res.l],
                [_frac(v) for v in res.u], [_frac(v) for v in res.h],
                [_frac(v) for v in res.s], g,
            )
            and _check_dual(family, rank, word, g, eta, hdual)
        )

    return Op(run, check)


def _jac_op(rng, family, rank) -> Op:
    word = oracles.random_reduced_word(family, rank, rng)
    zs = inputs.generic_pairs(rng, len(word))
    pairs = [(_sc(a), _sc(b)) for a, b in zs]

    def run():
        return (
            rf.jacobian_det_ad(family, rank, word, pairs),
            rf.jacobian_det_formula(family, rank, word, pairs),
            rf.jacobian_det_double_product(family, rank, word, pairs),
        )

    def check(out):
        expected = _jacobian_closed_form(family, rank, word, zs)
        return all(_frac(v) == expected for v in out)

    return Op(run, check)


def _compact_op(rng, family, rank) -> Op:
    word = oracles.random_reduced_word(family, rank, rng)
    ys, qs = inputs.branch_pairs(rng, len(word))
    y = [(_sc(a), _sc(b)) for a, b in ys]

    def run():
        zeta, _, asq = rf.zeta_from_eta(family, rank, word, y)
        eta, asq2 = rf.eta_from_zeta(family, rank, word, zeta)
        det = rf.lebesgue_pullback_det(family, rank, word, y)
        return eta, asq, asq2, det, rf.unit_jacobian_check(family, rank, word, y)

    def check(out):
        eta, asq, asq2, det, unit = out
        a2 = [(1 / (q * q), 0) for q in qs]  # a_j^2 = 1 / (1 - y^- y^+)
        closed = oracles.ONE
        for tau, v in zip(oracles.ordering(family, rank, word), a2):
            closed = oracles.cmul(closed, oracles.cpow(v, oracles.delta(family, rank, tau) + 1))
        return (
            [(_frac(a), _frac(b)) for a, b in eta] == ys
            and [_frac(v) for v in asq] == a2
            and [_frac(v) for v in asq2] == a2
            and _frac(det) == closed
            and _frac(unit) == oracles.ONE
        )

    return Op(run, check)


# -- command-line operations ------------------------------------------------

_ENV = {**os.environ, "PYTHONPATH": SRC}
_TIMEOUT_S = 120
# forward at A2 with every coordinate a 3000-digit integer: the product
# outgrows the interpreter's int-to-str digit limit while serializing
_OVERSIZED = [(Fraction(10**2999 + j), Fraction(0)) for j in range(6)]


def _spawn(argv, stdin, record):
    """Run one request; with a record, replay it in a traced child and
    merge that child's spans into the record."""
    if record is None:
        cmd = [sys.executable, "-m", "rootfact", *argv]
    else:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "cli-trace", *argv]
    proc = subprocess.run(
        cmd, input=stdin or "", capture_output=True, text=True, cwd=ROOT, env=_ENV,
        timeout=_TIMEOUT_S,
    )
    stderr = proc.stderr
    if record is not None:
        stderr, _, raw = stderr.rpartition(child.TRACE_MARK)
        spans.merge(record, json.loads(raw))
    return proc.returncode, proc.stdout, stderr


def _contract(rc, stdout, stderr):
    """The parsed object when stdout is one canonical JSON object, the
    exit code is 0, 2 or 3 and no traceback was printed; else None."""
    if rc not in (0, 2, 3) or "Traceback" in stderr:
        return None
    try:
        obj = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(obj, dict):
        return None
    if json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" != stdout:
        return None
    if (rc != 0) != ("error" in obj):
        return None
    return obj


def _pairs_text(zs) -> list:
    return [[inputs.to_text(a), inputs.to_text(b)] for a, b in zs]


def _forward_request(family, rank, word, zs, h):
    argv = ["forward", "--family", family, "--rank", str(rank),
            "--word", ",".join(map(str, word)), "--input", "-"]
    stdin = json.dumps({"pairs": _pairs_text(zs), "h": [inputs.to_text(v) for v in h]})

    def check(rc, obj):
        if rc != 0:
            return False
        parse = oracles.parse_scalar
        l = [parse(v) for v in obj["l"]]
        u = [parse(v) for v in obj["u"]]
        back = rf.inverse_map(family, rank, word, [_sc(v) for v in l], [_sc(v) for v in u],
                              h=[_sc(v) for v in h])
        return [(_frac(a), _frac(b)) for a, b in back] == zs and _check_forward(
            family, rank, word, zs, h, obj["taus"], l, u, [parse(v) for v in obj["h"]],
            [parse(v) for v in obj["s"]], [[parse(v) for v in row] for row in obj["matrix"]],
        )

    return argv, stdin, check


def _cli_request(rng, spec):
    """(argv, stdin, check) for one request; check(rc, obj) -> bool."""
    kind = spec[0]
    if kind == "canonical-word":
        family, rank = spec[1], rng.choice(spec[2])
        pos = oracles.positive_roots(family, rank)

        def check(rc, obj):
            ordering = tuple(map(tuple, obj["ordering"]))
            word = tuple(obj["word"])
            return (
                rc == 0
                and len(ordering) == len(pos)
                and set(ordering) == pos
                and oracles.ordering(family, rank, word) == ordering
                and rf.validate_ordering(family, rank, ordering) == word
            )

        return [kind, "--family", family, "--rank", str(rank)], None, check
    if kind == "count-words":
        family, rank = spec[1], spec[2]
        expected = oracles.reduced_word_count(family, rank)
        return (
            [kind, "--family", family, "--rank", str(rank)],
            None,
            lambda rc, obj: rc == 0 and obj["count"] == expected,
        )
    if kind == "self-check":
        return [kind], None, lambda rc, obj: rc == 0 and obj["ok"] is True and bool(obj["checks"])
    if kind == "oversized-forward":
        zs = list(zip(_OVERSIZED[0::2], _OVERSIZED[1::2]))
        one = (Fraction(1), Fraction(0))
        argv, stdin, forward_check = _forward_request("A", 2, (1, 2, 1), zs, [one] * 3)
        # a refusal with exit 2 or 3 keeps the contract; a result must be right
        return argv, stdin, lambda rc, obj: rc != 0 or forward_check(rc, obj)

    family, rank = rng.choice(spec[1])
    word = oracles.random_reduced_word(family, rank, rng)
    flags = ["--family", family, "--rank", str(rank), "--word", ",".join(map(str, word))]
    if kind == "ordering":
        expected = [list(t) for t in oracles.ordering(family, rank, word)]
        return [kind, *flags], None, lambda rc, obj: rc == 0 and obj["ordering"] == expected
    if kind == "validate-ordering":
        stdin = json.dumps({"ordering": [list(t) for t in oracles.ordering(family, rank, word)]})
        return (
            [kind, *flags[:4], "--input", "-"],
            stdin,
            lambda rc, obj: rc == 0 and tuple(obj["word"]) == word,
        )
    if kind == "forward":
        zs = inputs.generic_pairs(rng, len(word))
        return _forward_request(family, rank, word, zs, inputs.torus(rng, family, rank))
    if kind == "invert":
        n = len(word)
        l = [inputs.gaussian(rng) for _ in range(n)]
        u = [inputs.gaussian(rng) for _ in range(n)]
        h = inputs.torus(rng, family, rank)
        stdin = json.dumps({"l": [inputs.to_text(v) for v in l],
                            "u": [inputs.to_text(v) for v in u],
                            "h": [inputs.to_text(v) for v in h]})

        def check(rc, obj):
            if rc == 3:  # a point off the open image is a legitimate answer
                return obj["error"]["kind"] == "exceptional-set"
            pairs = [(_sc(oracles.parse_scalar(a)), _sc(oracles.parse_scalar(b)))
                     for a, b in obj["pairs"]]
            res = rf.forward_map(family, rank, word, pairs, h=[_sc(v) for v in h])
            return rc == 0 and [_frac(v) for v in res.l] == l and [_frac(v) for v in res.u] == u

        return [kind, *flags, "--input", "-"], stdin, check
    zs = inputs.generic_pairs(rng, len(word))
    stdin = json.dumps({"pairs": _pairs_text(zs)})
    expected = _jacobian_closed_form(family, rank, word, zs)
    if kind == "jacobian":
        keys = ("ad", "double_product", "formula")
        return (
            [kind, *flags, "--input", "-"],
            stdin,
            lambda rc, obj: rc == 0 and all(oracles.parse_scalar(obj[k]) == expected for k in keys),
        )
    if kind == "haar-density":
        density = (expected[0] ** 2 + expected[1] ** 2, 0)
        return (
            [kind, *flags, "--input", "-"],
            stdin,
            lambda rc, obj: rc == 0 and oracles.parse_scalar(obj["density"]) == density,
        )
    raise ValueError(f"unknown request kind {kind!r}")


@dataclass
class CliOp:
    argv: list
    stdin: str | None
    accept: object  # (rc, obj) -> bool
    record: dict | None  # span record of a traced replay

    def run(self):
        return _spawn(self.argv, self.stdin, self.record)

    def check(self, out):
        rc, stdout, stderr = out
        obj = _contract(rc, stdout, stderr)
        if obj is None:
            return _FAILED
        return self.accept(rc, obj)


# -- rounds and the closed loop --------------------------------------------

# scales cli requests and their set-up; see gauges.py
STARTUP = gauges.Gauge(
    0.045,
    # output captured like a request's: with a timeout and no pipes to
    # read, subprocess would poll for the exit in sleeps of up to 50 ms
    lambda: subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True,
                           cwd=ROOT, env=_ENV, timeout=_TIMEOUT_S),
)

_FAILED = "failed"


def _round(name, sizes, seed, k, record=None) -> list:
    rng = random.Random(f"{name}/{seed}/{k}")
    if name == "maps":
        return [_maps_op(rng, *c) for c in sizes.maps]
    if name == "jacobian":
        make = {"jac": _jac_op, "compact": _compact_op}
        return [make[kind](rng, *c) for kind, *c in sizes.jacobian]
    return [CliOp(*_cli_request(rng, spec), record) for spec in sizes.cli]


def _run_round(ops, gauge, tracer=None) -> list:
    """Time each operation, then check every output; returns one
    (status, reference seconds) per operation, status 'ok', 'wrong' or
    'failed'."""
    timed = []
    try:
        if tracer is not None:
            tracer.install()
        readings = [gauge.reading()]
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a fault of the program: count it, go on
                out = _FAILED
            timed.append((out, time.perf_counter() - t0))
            readings.append(gauge.reading())
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = gauge.scaled([dt for _, dt in timed], readings)
    results = []
    for op, (out, _), dt in zip(ops, timed, seconds):
        if out is _FAILED:
            status = _FAILED
        else:
            try:
                verdict = op.check(out)
            except Exception:  # output of the wrong shape
                verdict = False
            status = _FAILED if verdict is _FAILED else "ok" if verdict else "wrong"
        results.append((status, dt))
    return results


def _grid(sizes) -> list:
    configs = list(sizes.maps) + [c[1:] for c in sizes.jacobian]
    return sorted(set(configs))


def _setup_samples(name, sizes) -> list:
    """Seconds of set-up, measured in fresh processes; the first, which
    may write bytecode caches, is not kept.  A cli sample is a spawn,
    scaled by STARTUP here; an in-process sample is timed and scaled by
    the ARITHMETIC gauge inside its child, since it is that kind of work."""

    def spawn(cmd):
        return subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT,
                              env=_ENV, timeout=_TIMEOUT_S)

    if name != "cli":
        grid = ",".join(f"{f}{r}" for f, r in _grid(sizes))
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), "setup", grid]
        return [float(spawn(cmd).stdout) for _ in range(sizes.setup_probes + 1)][1:]
    samples, readings = [], [STARTUP.reading()]
    for _ in range(sizes.setup_probes + 1):
        t0 = time.perf_counter()
        spawn([sys.executable, "-c", "import rootfact.cli"])
        samples.append(time.perf_counter() - t0)
        readings.append(STARTUP.reading())
    return STARTUP.scaled(samples, readings)[1:]


def _summary(results) -> tuple:
    attempted = len(results)
    failed = sum(1 for status, _ in results if status == _FAILED)
    correct = all(status != "wrong" for status, _ in results)
    return correct, attempted, failed


def run(name, seed, seconds, trace, sizes=FULL) -> dict:
    """One benchmark run; returns the result object the driver prints."""
    if name not in ("maps", "jacobian", "cli"):
        raise ValueError(f"unknown workload {name!r}")
    # one CPU for this process and the children it spawns, so the gauge
    # runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = STARTUP if name == "cli" else gauges.ARITHMETIC
    if name != "cli":
        child.warm_up(rf, child.warm_up_words(_grid(sizes)))
    elif hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the checks read outputs of any size

    if trace:
        # the same rounds untraced and then traced; the counts repeat
        # exactly for a seed, and the time difference is the overhead
        rounds = max(1, seconds // 10)
        plain, traced = [], []
        for k in range(rounds):
            plain += _run_round(_round(name, sizes, seed, k), gauge)
        tracer = spans.Tracer()
        in_process = None if name == "cli" else tracer  # cli children trace themselves
        for k in range(rounds):
            traced += _run_round(_round(name, sizes, seed, k, tracer.record), gauge, in_process)
        overhead = sum(dt for _, dt in traced) - sum(dt for _, dt in plain)
        metrics = spans.layer_metrics(tracer.record, overhead)
        correct, attempted, failed = _summary(plain + traced)
        return _result(correct, attempted, failed,
                       {k: (v, spans.unit_of(k)) for k, v in metrics.items()})

    setup = _setup_samples(name, sizes)
    results = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds or len(results) < sizes.min_ops:
        results += _run_round(_round(name, sizes, seed, k), gauge)
        k += 1
    done_ms = sorted(1e3 * dt for status, dt in results if status != _FAILED)
    busy_s = sum(dt for _, dt in results)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(done_ms) / busy_s,
        "latency_p50_ms": statistics.median(done_ms),
        "latency_p90_ms": statistics.quantiles(done_ms, n=10)[8] if len(done_ms) > 1 else done_ms[0],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    correct, attempted, failed = _summary(results)
    return _result(correct, attempted, failed, {k: (v, END_TO_END[k]) for k, v in values.items()})


def _result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
