"""Smoke test of the benchmark itself, at a tiny size with every check on.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs one round of small configs, untraced and traced; the
test asserts that the printed result names every metric BENCHMARK.json
lists, with its unit, next to the attempted and failed counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _tiny_run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        assert run.main(argv, sizes=workloads.TINY) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    attempted, failed = result["attempted"], result["failed"]
    assert isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1
    # only the oversized forward request of cli may fail, once a round
    per_round = len(workloads.TINY.cli) if workload == "cli" else None
    assert failed <= (attempted // per_round if per_round else 0)

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = result["metrics"]
    assert {k: v["unit"] for k, v in printed.items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in printed.values())
        return
    layer = {k: v["value"] for k, v in printed.items()}
    assert layer["scalar.mul"] > 0 and layer["linalg.ldu_calls"] > 0
    assert (layer["jets.ops"] > 0) == (workload != "maps")
    assert (layer["cli.import_s"] > 0) == (workload == "cli")


def test_only_the_oversized_request_may_fail():
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as a run does, so large results are checked
    specs = workloads.TINY.cli
    results = workloads._run_round(workloads._round("cli", workloads.TINY, 7, 0),
                                   workloads.STARTUP)
    for spec, (status, _) in zip(specs, results):
        assert status == "ok" or (spec[0] == "oversized-forward" and status == "failed"), spec


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
