"""Spans around every call into rootfact's layers, from outside the program.

A Tracer replaces each public function and each arithmetic method of
the classes a layer module defines with a wrapper that records a span:
its layer, its duration, and the part of that duration covered by
nested spans.  A layer's self time is the sum over its spans of
duration minus nested time.  Module-level names are patched in every
loaded rootfact module that refers to the original object, so calls
through ``from .x import f`` are seen too.  ``uninstall`` restores
everything.

The raw record (``Tracer.record``) is plain JSON, so spans gathered in child
processes merge into one; ``layer_metrics`` turns it into the reported
per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = (
    "scalar",
    "rootsystem",
    "weyl",
    "matrices",
    "linalg",
    "factorization",
    "jets",
    "haar",
    "serialization",
    "cli",
    # spanned so its checks are not booked as cli self time; not reported
    "selfcheck",
)

# dunder methods that do arithmetic work; the rest (init, hash, repr,
# bool) are bookkeeping and stay unwrapped
_ARITH = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__", "__str__",
}

_SCALAR_OPS = {
    "add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__", "inverse"),
}


def empty_record() -> dict:
    return {
        "self": {layer: 0.0 for layer in LAYERS},
        "fn": {},  # "layer.name" -> [calls, inclusive seconds]
        "max_bits": 0,
        "bytes_out": 0,
        "import_s": [],
    }


def merge(into: dict, rec: dict) -> dict:
    for layer, s in rec["self"].items():
        into["self"][layer] += s
    for name, (calls, total) in rec["fn"].items():
        acc = into["fn"].setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += total
    into["max_bits"] = max(into["max_bits"], rec["max_bits"])
    into["bytes_out"] += rec["bytes_out"]
    into["import_s"] += rec["import_s"]
    return into


class Tracer:
    def __init__(self):
        self.record = empty_record()
        self._stack = [0.0]  # nested-span time of each open span
        self._patched = []  # (owner, name, original)

    def install(self) -> None:
        # load every layer first, so lazily imported ones are spanned too
        layers = {layer: importlib.import_module(f"rootfact.{layer}") for layer in LAYERS}
        loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rootfact"]
        replace = {}
        for layer, mod in layers.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    replace[id(obj)] = self._span(obj, layer, f"{layer}.{name}")
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls) -> None:
        is_scalar = layer == "scalar"
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _ARITH:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._span(attr.__func__, layer, key)))
            elif callable(attr) and not isinstance(attr, (staticmethod, type)):
                self._patch(cls, name, self._span(attr, layer, key, measure_bits=is_scalar))

    def _span(self, fn, layer: str, key: str, measure_bits: bool = False):
        rec = self.record
        stats = rec["fn"].setdefault(key, [0, 0.0])
        self_time = rec["self"]
        stack = self._stack
        clock = time.perf_counter
        counts_bytes = key == "serialization.dumps_canonical"

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                nested = stack.pop()
                stack[-1] += dur
                self_time[layer] += dur - nested
                stats[0] += 1
                stats[1] += dur
            if measure_bits and hasattr(out, "d"):
                bits = max(abs(out.a).bit_length(), abs(out.b).bit_length(), out.d.bit_length())
                if bits > rec["max_bits"]:
                    rec["max_bits"] = bits
            elif counts_bytes:
                rec["bytes_out"] += len(out.encode())
            return out

        return span


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return {"scalar.output_max_bits": "bits", "serialization.bytes_out": "B"}.get(name, "count")


def layer_metrics(rec: dict, overhead_s: float) -> dict:
    """Per-layer metric values from a raw record.  ``<layer>.self_s``
    is the layer's self time; the ``_s`` metrics named after a function
    (``linalg.ldu_s``, ``weyl.canonical_word_s``, ...) are its inclusive
    time, nested spans counted, summed over its calls."""
    fn = rec["fn"]

    def calls(*keys):
        return sum(fn.get(k, (0, 0.0))[0] for k in keys)

    def total_s(*keys):
        return sum(fn.get(k, (0, 0.0))[1] for k in keys)

    def mean_ms(key):
        n = calls(key)
        return 1e3 * total_s(key) / n if n else 0.0

    def layer_calls(layer):
        return sum(c for k, (c, _) in fn.items() if k.split(".")[0] == layer)

    scalar_calls = {
        op: calls(*(f"scalar.Scalar.{m}" for m in methods)) for op, methods in _SCALAR_OPS.items()
    }
    imports = sorted(rec["import_s"])
    s = rec["self"]
    return {
        "scalar.mul": scalar_calls["mul"],
        "scalar.add": scalar_calls["add"],
        "scalar.div": scalar_calls["div"],
        "scalar.self_s": s["scalar"],
        "scalar.output_max_bits": rec["max_bits"],
        "rootsystem.calls": layer_calls("rootsystem"),
        "rootsystem.self_s": s["rootsystem"],
        "weyl.calls": layer_calls("weyl"),
        "weyl.self_s": s["weyl"],
        "weyl.ordering_from_word_ms": mean_ms("weyl.ordering_from_word"),
        "weyl.canonical_word_s": total_s("weyl.canonical_word"),
        "weyl.enumerate_reduced_words_s": total_s("weyl.enumerate_reduced_words"),
        "matrices.exp_calls": calls("matrices.exp_f", "matrices.exp_e"),
        "matrices.extract_calls": calls("matrices.extract_lower", "matrices.extract_upper"),
        "matrices.self_s": s["matrices"],
        "linalg.ldu_calls": calls("linalg.ldu"),
        "linalg.ldu_s": total_s("linalg.ldu"),
        "linalg.mat_mul_calls": calls("linalg.mat_mul"),
        "linalg.mat_inverse_s": total_s("linalg.mat_inverse"),
        "linalg.det_exact_s": total_s("linalg.det_exact"),
        "linalg.self_s": s["linalg"],
        "factorization.forward_map_ms": mean_ms("factorization.forward_map"),
        "factorization.inverse_map_ms": mean_ms("factorization.inverse_map"),
        "factorization.transpose_dual_ms": mean_ms("factorization.transpose_dual"),
        "factorization.jacobian_det_ad_ms": mean_ms("factorization.jacobian_det_ad"),
        "factorization.self_s": s["factorization"],
        "jets.ops": layer_calls("jets"),
        "jets.self_s": s["jets"],
        "haar.unit_jacobian_check_ms": mean_ms("haar.unit_jacobian_check"),
        "haar.compact_round_trip_ms": mean_ms("haar.eta_from_zeta") + mean_ms("haar.zeta_from_eta"),
        "haar.self_s": s["haar"],
        "serialization.self_s": s["serialization"],
        "serialization.bytes_out": rec["bytes_out"],
        "cli.import_s": imports[len(imports) // 2] if imports else 0.0,
        "cli.self_s": s["cli"],
        "trace.overhead_s": overhead_s,
    }
