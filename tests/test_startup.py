"""What a request loads, the package's lazy exports, and the records.

``import rootfact`` loads none of the package's modules; each exported
name loads its defining module on first access, and a command-line
handler imports the modules it runs when it is dispatched.  So the
word requests never load the matrix code, nor ``rootfact.scalar`` and
the ``fractions`` module behind it; the maps load ``rootfact.jets``
only for a Jacobian; and nothing on a start-up path loads
``dataclasses`` (with ``inspect`` and ``ast`` behind it):
the five record classes are named tuples, which keep the dataclasses'
fields, keyword construction, equality, hashing and immutability.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootfact
from rootfact import (
    ForwardResult,
    StratumResult,
    WeylElement,
    identity_element,
    root_triple,
    simple_reflection,
    word_evaluate,
    word_plan,
)

SOURCE = str(Path(rootfact.__file__).resolve().parent.parent)

# runs one request through cli.main in a fresh interpreter, then prints
# the exit code and the loaded modules as the last line of stdout
PROBE = """
import json, sys
from rootfact.cli import main
rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(sys.modules)]))
"""

# modules no word request needs
MATRIX_CODE = {"rootfact.factorization", "rootfact.linalg", "rootfact.matrices",
               "rootfact.jets", "rootfact.haar", "rootfact.selfcheck", "dataclasses"}
# the exact numbers, which no word request needs either
NUMBER_CODE = {"rootfact.scalar", "fractions", "decimal"}


def loaded_modules(code: str, argv=(), stdin: str = "") -> tuple[int, set]:
    proc = subprocess.run([sys.executable, "-c", code, *argv], input=stdin,
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SOURCE})
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(modules)


def test_importing_the_package_loads_none_of_its_modules():
    _, modules = loaded_modules("import json, sys, rootfact\n"
                                "print(json.dumps([0, sorted(sys.modules)]))")
    assert {m for m in modules if m.startswith("rootfact")} == {"rootfact"}
    assert "dataclasses" not in modules


@pytest.mark.parametrize("argv,stdin", [
    (["canonical-word", "--family", "B", "--rank", "4"], ""),
    (["ordering", "--family", "D", "--rank", "4", "--word", "1,2,3,4"], ""),
    (["validate-ordering", "--family", "A", "--rank", "2", "--input", "-"],
     '{"ordering": [[1, -1, 0], [1, 0, -1], [0, 1, -1]]}'),
    (["count-words", "--family", "C", "--rank", "3"], ""),
], ids=["canonical-word", "ordering", "validate-ordering", "count-words"])
def test_word_requests_load_no_matrix_code(argv, stdin):
    rc, modules = loaded_modules(PROBE, argv, stdin)
    assert rc == 0
    assert modules & MATRIX_CODE == set()
    assert modules & NUMBER_CODE == set()


def test_forward_loads_neither_haar_nor_selfcheck():
    rc, modules = loaded_modules(
        PROBE, ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"],
        '{"pairs": [[1, 2], [0, 1], [1, 0]]}')
    assert rc == 0
    assert "rootfact.factorization" in modules
    assert modules & {"rootfact.haar", "rootfact.selfcheck", "dataclasses"} == set()


A2_PAIRS = '{"pairs": [[1, 2], [3, 1], [1, 5]]}'


@pytest.mark.parametrize("argv,stdin", [
    (["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"], A2_PAIRS),
    (["invert", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"],
     '{"l": [1, 0, 1], "u": [2, 1, -1]}'),
    (["dual", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"], A2_PAIRS),
], ids=["forward", "invert", "dual"])
def test_map_requests_load_no_jets(argv, stdin):
    rc, modules = loaded_modules(PROBE, argv, stdin)
    assert rc == 0
    assert {"rootfact.factorization", "rootfact.scalar"} <= modules
    assert "rootfact.jets" not in modules


def test_jacobian_loads_jets():
    rc, modules = loaded_modules(
        PROBE, ["jacobian", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"],
        A2_PAIRS)
    assert rc == 0
    assert "rootfact.jets" in modules
    assert modules & {"rootfact.haar", "rootfact.selfcheck"} == set()


# the names the package exported when it imported every module eagerly
EXPORTS = {
    "BranchViolationError", "BudgetExceededError", "ExceptionalSetError",
    "InvalidInputError", "InvalidWordError", "LibError", "StratumError",
    "ForwardResult", "StratumResult", "WordPlan", "delta_identity_check",
    "forward_map", "forward_map_stratum", "inverse_map",
    "jacobian_det_ad", "jacobian_det_double_product", "jacobian_det_formula",
    "stratum_data", "transpose_dual", "word_plan",
    "RadicalScalar", "eta_change_jacobian_det", "eta_from_zeta", "haar_density",
    "lebesgue_pullback_det", "unit_jacobian_check", "zeta_from_eta",
    "Jet",
    "det_exact", "identity", "ldu", "ldu_minors", "mat_inverse", "mat_mul",
    "principal_minor",
    "coroot_diag", "dim", "e_matrix", "exp_e", "exp_f", "f_matrix", "form_matrix",
    "h_matrix", "inverse_dual", "root_triple", "row_weight", "sigma",
    "weyl_representative",
    "delta", "height", "is_positive_root", "norm2", "pairing", "positive_roots",
    "simple_root_coordinates", "simple_roots",
    "Scalar",
    "WeylElement", "canonical_ordering", "canonical_word", "count_reduced_words",
    "deterministic_reduced_word", "enumerate_reduced_words", "identity_element",
    "is_reduced", "longest_element", "ordering_from_word", "printed_count_bc",
    "random_reduced_word", "simple_reflection", "standard_count_a",
    "validate_ordering", "word_evaluate",
}


def test_lazy_exports_are_the_defining_modules_objects():
    assert len(EXPORTS) == 73
    assert len(rootfact.__all__) == 73 and set(rootfact.__all__) == EXPORTS
    for name in sorted(EXPORTS):
        obj = getattr(rootfact, name)
        assert obj.__module__.startswith("rootfact."), name
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
    assert EXPORTS <= set(dir(rootfact))
    namespace = {}
    exec("from rootfact import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert all(namespace[name] is getattr(rootfact, name) for name in EXPORTS)


@pytest.mark.parametrize("name", ["no_such_name", "_MODULE_OF_", "forward_mpa"])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(rootfact, name)
    with pytest.raises(ImportError):
        exec(f"from rootfact import {name}", {})


FORWARD_FIELDS = ("family", "rank", "word", "taus", "matrix", "l", "u", "h", "s")
STRATUM_FIELDS = ("family", "rank", "w", "gammas", "taus", "matrix")


def test_weyl_elements_hash_and_compare_by_value():
    s1, s2 = simple_reflection("A", 3, 1), simple_reflection("A", 3, 2)
    again = WeylElement(family="A", rank=3, images=tuple(s1.images))
    assert again == s1 and hash(again) == hash(s1)
    assert {s1: "s1"}[again] == "s1"
    assert word_evaluate("A", 3, (1, 2)) == s2 * s1
    assert s1 != s2 and s1 * s2 != s2 * s1 and s1 != identity_element("A", 3)
    assert WeylElement("B", 2, (1, 2)) != WeylElement("C", 2, (1, 2))
    assert len({s1, s2, again, s1 * s1, identity_element("A", 3)}) == 3


@pytest.mark.parametrize("record,fields", [
    (simple_reflection("B", 2, 1), ("family", "rank", "images")),
    (root_triple("A", 2, (1, -1, 0)), ("root", "e", "f", "h", "e2", "f2")),
    (word_plan("A", 2, (1, 2, 1)), ("family", "rank", "word", "taus", "triples", "suffix",
                                    "torus", "deltas")),
], ids=["WeylElement", "RootTriple", "WordPlan"])
def test_frozen_records_refuse_assignment(record, fields):
    before = [getattr(record, field) for field in fields]
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert [getattr(record, field) for field in fields] == before


@pytest.mark.parametrize("cls,fields", [(ForwardResult, FORWARD_FIELDS),
                                        (StratumResult, STRATUM_FIELDS)])
def test_results_build_from_keywords(cls, fields):
    record = cls(**{field: k for k, field in enumerate(fields)})
    assert [getattr(record, field) for field in fields] == list(range(len(fields)))
    assert record == cls(*range(len(fields)))
    with pytest.raises(TypeError):
        cls(**{field: 0 for field in fields[1:]})
    with pytest.raises(TypeError):
        cls(**{field: 0 for field in fields}, extra=0)

