"""End-to-end coverage of the rootfact command line.

Most tests drive main(argv) in process and read canonical JSON off
capsys; one subprocess smoke test proves the console script itself
is wired.  Exit codes: 0 success, 2 malformed request, 3 well-formed
point where the requested map is undefined, 4 internal error.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfact import (
    LibError,
    canonical_word,
    cli,
    dim,
    enumerate_reduced_words,
    factorization,
    forward_map,
    linalg,
    ordering_from_word,
    positive_roots,
    selfcheck,
)
from rootfact.cli import main
from rootfact.weyl import MAX_COUNTED_ELEMENTS

from helpers import constant

IDENTITY4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]


def run_cli(capsys, argv):
    """Invoke main, return (exit code, parsed stdout JSON, raw text)."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def write_json(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_console_script_smoke():
    proc = subprocess.run(
        ["rootfact", "canonical-word", "--family", "B", "--rank", "2"],
        capture_output=True,
        text=True,
        check=True,
    )
    payload = json.loads(proc.stdout)
    assert payload["word"] == [1, 2, 1, 2]
    assert payload["ordering"] == [[1, 0], [1, 1], [0, 1], [-1, 1]]


def test_ordering_a3_canonical_word(capsys):
    code, payload, _ = run_cli(
        capsys,
        ["ordering", "--family", "A", "--rank", "3", "--word", "1,2,1,3,2,1"],
    )
    assert code == 0
    assert payload == {
        "ordering": [
            [1, -1, 0, 0],
            [1, 0, -1, 0],
            [0, 1, -1, 0],
            [1, 0, 0, -1],
            [0, 1, 0, -1],
            [0, 0, 1, -1],
        ]
    }


def test_forward_zero_point_is_identity(capsys, tmp_path):
    src = write_json(tmp_path, "zeros.json", {"pairs": [[0, 0]] * 6})
    argv = ["forward", "--family", "A", "--rank", "3", "--word", "1,2,1,3,2,1",
            "--input", src]
    code, payload, first = run_cli(capsys, argv)
    assert code == 0
    assert payload["matrix"] == IDENTITY4
    assert payload["l"] == ["0"] * 6
    assert payload["u"] == ["0"] * 6
    assert payload["s"] == ["1"] * 6
    assert payload["h"] == ["1"] * 4
    # byte determinism: the same request always prints the same bytes
    _, _, second = run_cli(capsys, argv)
    assert second == first
    assert first.endswith("\n")


def test_forward_stratum_of_longest_element(capsys, tmp_path):
    src = write_json(tmp_path, "empty.json", {"pairs": []})
    code, payload, _ = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "2", "--stratum-word", "1,2,1",
         "--input", src],
    )
    assert code == 0
    assert payload["gammas"] == []
    assert payload["taus"] == []
    assert len(payload["matrix"]) == 3


def test_count_words(capsys):
    code, payload, _ = run_cli(capsys, ["count-words", "--family", "A", "--rank", "3"])
    assert code == 0
    assert payload == {"count": 16, "formula": "16"}
    code, payload, _ = run_cli(capsys, ["count-words", "--family", "B", "--rank", "2"])
    assert code == 0
    # the closed-form count over-counts the rank-2 doubled family
    assert payload == {"count": 2, "formula": "24"}
    code, payload, _ = run_cli(capsys, ["count-words", "--family", "D", "--rank", "3"])
    assert code == 0
    assert payload["formula"] is None


def test_count_words_budget(capsys):
    # the count meets group elements, not words, so a word budget has no
    # place on the command line: --budget is an unknown flag
    code, payload, _ = run_cli(
        capsys, ["count-words", "--family", "A", "--rank", "4", "--budget", "10"]
    )
    assert code == 2
    assert payload == {"error": {"kind": "invalid-input",
                                 "message": "unrecognized arguments: --budget 10"}}


@pytest.mark.parametrize("family,rank,length", [("A", 44, 990), ("B", 32, 1024), ("A", 40, 820),
                                                ("A", 7, 28), ("D", 7, 42), ("A", 8, 36),
                                                ("B", 100, 10000)])
def test_count_words_above_the_cap(capsys, family, rank, length):
    # longest words past the old 25-letter cap: A44 and B32 ran out of
    # recursion depth and A40 ran past a minute; the one bound now is on the
    # group elements the count meets, so A7 (8! of them) gets its count and
    # the groups past the bound are refused, each within two seconds
    assert len(positive_roots(family, rank)) == length > 25
    started = time.monotonic()
    code, payload, _ = run_cli(capsys, ["count-words", "--family", family, "--rank", str(rank)])
    assert time.monotonic() - started < 2.0
    if (family, rank) == ("A", 7):
        assert (code, payload) == (0, {"count": 48608795688960, "formula": "48608795688960"})
    else:
        assert code == 2
        assert payload == {"error": {"kind": "invalid-input", "message": (
            f"counting the reduced words of this {family}{rank} element meets more than "
            f"{MAX_COUNTED_ELEMENTS} group elements")}}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("family,rank", [("B", 5), ("C", 5), ("A", 6), ("B", 6), ("C", 6),
                                         ("D", 6)])
def test_count_words_at_the_cap_enumerates(capsys, family, rank):
    # the longest words of 25 letters or fewer, which reached the word
    # budget when they were enumerated, and the largest groups under the
    # element bound are counted without listing, each within two seconds
    started = time.monotonic()
    code, payload, _ = run_cli(capsys, ["count-words", "--family", family, "--rank", str(rank)])
    assert time.monotonic() - started < 2.0
    assert code == 0
    assert payload["count"] == {
        "B5": 701149020, "C5": 701149020, "A6": 1100742656, "B6": 1671643033734960,
        "C6": 1671643033734960, "D6": 4814069133600}[f"{family}{rank}"]


def test_ldu_minors_run_no_determinant(capsys, tmp_path, monkeypatch):
    # the leading principal minors are the prefix products of d
    def refuse(*args):
        raise AssertionError("a determinant was run")

    monkeypatch.setattr(linalg, "det_exact", refuse)
    matrix = [["2", "1", "0"], ["1", "2", "1"], ["0", "1", "2"]]
    src = write_json(tmp_path, "m.json", {"matrix": matrix})
    code, payload, _ = run_cli(capsys, ["ldu", "--minors", "--input", src])
    assert code == 0
    assert payload["d"] == ["2", "3/2", "4/3"]
    assert payload["minors"] == ["2", "3", "4"]


def test_every_option_has_a_command():
    # a flag whose last subcommand went away must go with it
    used = {option for _, _, options in cli._COMMANDS.values() for option in options}
    assert set(cli._OPTIONS) <= used


def test_invert_forward_round_trip(capsys, tmp_path):
    pairs = [["1", "2"], ["1/2", "-3"], ["0", "1"], ["2", "1/3"], ["-1", "2"], ["1", "1"]]
    src = write_json(tmp_path, "pairs.json", {"pairs": pairs})
    word = ["--family", "A", "--rank", "3", "--word", "1,2,1,3,2,1"]
    code, fwd, _ = run_cli(capsys, ["forward", *word, "--input", src])
    assert code == 0
    back_src = write_json(
        tmp_path, "coords.json", {"l": fwd["l"], "u": fwd["u"], "h": fwd["h"]}
    )
    code, payload, _ = run_cli(capsys, ["invert", *word, "--input", back_src])
    assert code == 0
    assert payload == {"pairs": pairs}


def test_invert_empty_word(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"l": [], "u": []})))
    code, payload, _ = run_cli(
        capsys, ["invert", "--family", "A", "--rank", "2", "--word", "", "--input", "-"])
    assert code == 0
    assert payload == {"pairs": []}


def test_dual_frozen_gl2(capsys, tmp_path):
    src = write_json(tmp_path, "one.json", {"pairs": [["1", "2"]]})
    code, payload, _ = run_cli(
        capsys, ["dual", "--family", "A", "--rank", "1", "--word", "1", "--input", src]
    )
    assert code == 0
    assert payload == {"h_dual": ["3", "1/3"], "pairs": [["-2/3", "-3"]]}


def test_jacobian_frozen_gl3(capsys, tmp_path):
    src = write_json(
        tmp_path, "jac.json", {"pairs": [["1", "4"], ["2", "5"], ["3", "6"]]}
    )
    code, payload, _ = run_cli(
        capsys,
        ["jacobian", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", src],
    )
    assert code == 0
    assert payload == {"ad": "11", "double_product": "11", "formula": "11"}


@pytest.mark.parametrize("family,rank,word,code,ad", [
    ("A", 4, "1,2", 2, None), ("A", 3, "1,3", 2, None), ("D", 3, "1,2,3,2", 2, None),
    ("D", 3, "", 0, "1")])
def test_jacobian_takes_only_words_of_w0(family, rank, word, code, ad):
    # a nonempty word shorter than w_0 is an invalid word, whatever the point;
    # the empty word has the determinant 1
    n = len(word.split(",")) if word else 0
    pairs = [[str(2 * k + 3), f"{k}-{k + 2}*i"] for k in range(n)]
    proc = subprocess.run(
        [sys.executable, "-m", "rootfact", "jacobian", "--family", family, "--rank", str(rank),
         "--word", word, "--input", "-"],
        input=json.dumps({"pairs": pairs}), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})
    payload = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert (proc.returncode, proc.stderr) == (code, "")
    if ad is None:
        assert payload["error"]["kind"] == "invalid-word"
        assert "not a word of the longest element" in payload["error"]["message"]
    else:
        assert payload == {"ad": ad, "double_product": ad, "formula": ad}


def test_haar_density_reads_stdin(capsys, monkeypatch):
    text = json.dumps({"pairs": [[0, 0], [1, 2], [0, 0]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, payload, _ = run_cli(
        capsys,
        ["haar-density", "--family", "A", "--rank", "2", "--word", "1,2,1",
         "--input", "-"],
    )
    assert code == 0
    assert payload == {"density": "9"}


def test_validate_ordering_round_trip(capsys, tmp_path):
    ordering = [[1, -1, 0], [1, 0, -1], [0, 1, -1]]
    src = write_json(tmp_path, "ord.json", {"ordering": ordering})
    code, payload, _ = run_cli(
        capsys, ["validate-ordering", "--family", "A", "--rank", "2", "--input", src]
    )
    assert code == 0
    assert payload == {"word": [1, 2, 1]}


def test_ldu_with_minors(capsys, tmp_path):
    src = write_json(
        tmp_path, "mat.json", {"matrix": [["1", "2"], ["3", "10"]]}
    )
    code, payload, _ = run_cli(capsys, ["ldu", "--minors", "--input", src])
    assert code == 0
    assert payload == {
        "d": ["1", "4"],
        "lower": [["1", "0"], ["3", "1"]],
        "upper": [["1", "2"], ["0", "1"]],
        "minors": ["1", "4"],
    }


def test_exit_3_exceptional_point(capsys, tmp_path):
    src = write_json(
        tmp_path, "bad.json",
        {"l": ["0", "1", "0"], "u": ["0", "-1", "0"]},
    )
    code, payload, _ = run_cli(
        capsys,
        ["invert", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", src],
    )
    assert code == 3
    assert payload["error"]["kind"] == "exceptional-set"
    assert payload["error"]["index"] == 1


def test_exit_3_stratum_failure(capsys, tmp_path):
    src = write_json(tmp_path, "anti.json", {"matrix": [["0", "1"], ["1", "0"]]})
    code, payload, _ = run_cli(capsys, ["ldu", "--input", src])
    assert code == 3
    assert payload["error"]["kind"] == "stratum-failure"
    assert payload["error"]["index"] == 1


def test_exit_2_invalid_word(capsys):
    code, payload, _ = run_cli(
        capsys, ["ordering", "--family", "A", "--rank", "2", "--word", "5"]
    )
    assert code == 2
    assert payload["error"]["kind"] == "invalid-word"


def test_exit_2_bad_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json {", encoding="utf-8")
    code, payload, _ = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1",
         "--input", str(path)],
    )
    assert code == 2
    assert payload["error"]["kind"] == "invalid-input"


def test_exit_2_missing_input_file(capsys, tmp_path):
    code, payload, _ = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1",
         "--input", str(tmp_path / "absent.json")],
    )
    assert code == 2
    assert payload["error"]["kind"] == "invalid-input"


def test_exit_2_non_utf8_input_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"pairs": [["\xe9", "1"]]}'.encode("latin-1"))
    code, payload, _ = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "1", "--word", "1", "--input", str(path)],
    )
    assert code == 2
    assert payload["error"]["kind"] == "invalid-input"
    assert payload["error"]["message"].startswith("cannot read input: 'utf-8' codec")


def test_self_check(capsys):
    code, payload, _ = run_cli(capsys, ["self-check"])
    assert code == 0
    assert payload["ok"] is True
    assert "round-trip-A2" in payload["checks"]


def one_short(fn, part):
    """fn with entry ``part`` of its answer one element short."""
    def moved(*args):
        out = list(fn(*args))
        out[part] = out[part][1:]
        return tuple(out)
    return moved


def doubled_torus(fn):
    """fn with each entry of the torus of its answer doubled."""
    def moved(*args):
        eta, hdual = fn(*args)
        return eta, [v * 2 for v in hdual]
    return moved


def constant_form(family, rank):
    """I for the invariant form, which no root vector preserves."""
    return None if family == "A" else linalg.identity(dim(family, rank))


@pytest.mark.parametrize("name,broken,message", [
    ("h_matrix", lambda family, rank, root: linalg.identity(dim(family, rank)),
     r"\[e, f\] != h for A2 root \(0, 1, -1\)"),
    ("sigma", lambda family, rank, x: x, r"sigma\(e\) != f for A2 root \(0, 1, -1\)"),
    ("form_matrix", constant_form, r"form invariance fails for B2 root \(-1, 1\)"),
    ("inverse_map", lambda *args, h: [], "round trip failed for A2"),
    ("transpose_dual", doubled_torus(selfcheck.transpose_dual), "dual identity failed for A2"),
    ("jacobian_det_ad", lambda family, rank, word, pairs: 0, "jacobian identities failed for A2"),
    ("delta_identity_check", lambda family, rank, word: False,
     "jacobian identities failed for A2"),
    ("zeta_from_eta", one_short(selfcheck.zeta_from_eta, 0), "compact round trip failed for A2"),
    ("zeta_from_eta", one_short(selfcheck.zeta_from_eta, 2), "compact round trip failed for A2"),
    ("haar_density", lambda family, rank, word, pairs: 0, "density mismatch for A2"),
    ("unit_jacobian_check", lambda family, rank, word, pairs: 0,
     "unit pullback ratio failed for A2"),
    ("lebesgue_pullback_det", lambda family, rank, word, pairs: 0,
     "pullback closed form failed for A2"),
    ("count_reduced_words", lambda w: 0, "reduced word count mismatch for A3"),
], ids=["bracket", "sigma", "form", "round-trip", "dual", "determinants-differ",
        "delta-identity-fails", "pairs-differ", "squares-differ", "density", "unit-ratio",
        "pullback-closed-form", "counts"])
def test_self_check_fails_where_one_part_of_a_check_fails(monkeypatch, name, broken, message):
    # each check joins its conditions with or: any one failing fails it,
    # and its message names the check
    monkeypatch.setattr(selfcheck, name, broken)
    with pytest.raises(LibError, match=f"^{message}$"):
        selfcheck.run_self_check()


def test_self_check_point():
    # the fixed pairs of self-check, and every 1 + z^- z^+ nonzero up to
    # the longest canonical word among its checks
    assert [(str(zm), str(zp)) for zm, zp in selfcheck._point(4)] == [
        ("1", "1/2+1/2*i"), ("2", "1/3+1/3*i"), ("3", "1/2+1/2*i"), ("1", "1/3+1/3*i")]
    n = max(len(canonical_word(family, rank)) for _, _, family, rank in selfcheck._CHECKS)
    assert n == 10
    assert all(not (1 + zm * zp).is_zero() for zm, zp in selfcheck._point(n))


@pytest.mark.parametrize(
    "body",
    [
        # parses, but the product's entries outgrow the digit limit on output
        json.dumps({"pairs": [["7" * 3000, "7" * 3000]] * 3}),
        # one string scalar past the limit
        json.dumps({"pairs": [["9" * 5000, "1"], ["1", "1"], ["1", "1"]]}),
        # a bare JSON integer past the limit
        "9" * 5000,
    ],
    ids=["product-3000-digits", "string-5000-digits", "json-int-5000-digits"],
)
def test_exit_2_oversized_numbers(capsys, monkeypatch, body):
    monkeypatch.setattr(sys, "stdin", io.StringIO(body))
    code, payload, raw = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"],
    )
    assert code == 2
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert payload["error"]["kind"] == "invalid-input"
    assert str(sys.get_int_max_str_digits()) in payload["error"]["message"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ordering", "--family", "A", "--rank", "x", "--word", "1"],
         "argument --rank: invalid int value: 'x'"),
        (["ordering", "--family", "A", "--rank", "2", "--word", "1", "--bogus"],
         "unrecognized arguments: --bogus"),
    ],
    ids=["bad-int", "unknown-flag"],
)
def test_exit_2_bad_flags(capsys, argv, message):
    code, payload, raw = run_cli(capsys, argv)
    assert code == 2
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert payload == {"error": {"kind": "invalid-input", "message": message}}
    assert capsys.readouterr().err == ""


def test_exit_2_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, payload, raw = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", str(path)],
    )
    assert code == 2
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert payload == {"error": {"kind": "invalid-input",
                                 "message": "input JSON is nested too deeply"}}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("rank", [10**12, 800])
def test_exit_2_rank_above_the_cap(capsys, rank):
    # building the positive roots ran out of memory at rank 10**12, and
    # its cost grows about as the cube of the rank
    code, payload, raw = run_cli(
        capsys, ["ordering", "--family", "A", "--rank", str(rank), "--word", "1"])
    assert code == 2
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert payload == {"error": {"kind": "invalid-input",
                                 "message": f"rank must be at most 100, got {rank}"}}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "coordinate",
    [["x" * 1_000_000, "1"], [list(range(200_000)), "1"]],
    ids=["million-character-string", "200000-element-list"],
)
def test_exit_2_echo_is_bounded(capsys, monkeypatch, coordinate):
    # the message repeats a fixed prefix of the offending value and its length
    body = json.dumps({"pairs": [coordinate, ["1", "1"], ["1", "1"]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(body))
    code, payload, raw = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"],
    )
    assert code == 2
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert len(raw.encode()) < 1024
    assert payload["error"]["kind"] == "invalid-input"
    assert f"({len(repr(coordinate[0]))} characters)" in payload["error"]["message"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("width", [59, 60, 61])
def test_exit_2_echo_cuts_only_a_repr_longer_than_60(capsys, monkeypatch, width):
    # a repr of 60 characters is repeated whole; one more is cut to 60
    text = repr("x" * (width - 2))
    body = json.dumps({"pairs": [[text[1:-1], "1"], ["1", "1"], ["1", "1"]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(body))
    code, payload, _ = run_cli(
        capsys,
        ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"],
    )
    echoed = text if width <= 60 else f"{text[:60]}... ({width} characters)"
    assert (code, payload) == (2, {"error": {"kind": "invalid-input",
                                             "message": f"cannot parse scalar {echoed}"}})


def test_exit_4_internal_error(capsys, monkeypatch):
    def fault(family, rank, word):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "ordering_from_word", fault)
    code, payload, raw = run_cli(
        capsys, ["ordering", "--family", "A", "--rank", "2", "--word", "1,2,1"])
    assert code == 4
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    error = payload["error"]
    assert error["kind"] == "internal-error"
    assert error["message"].startswith("ZeroDivisionError at test_cli.py:")
    assert error["message"].endswith(": division by zero")
    assert capsys.readouterr().err == ""


def _readme_exit_codes() -> dict:
    """kind -> exit code, read off the README's exit-code table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| Code | Meaning |"):]
    return {kind: int(code)
            for code, row in re.findall(r"^\| (\d) \|(.*)$", table, flags=re.M)
            for kind in re.findall(r"`([a-z]+(?:-[a-z]+)+)`", row)}


@pytest.mark.parametrize("error", [cls("stub") for cls in LibError.__subclasses__()]
                         + [RuntimeError("stub")], ids=lambda err: type(err).__name__)
def test_exit_code_of_every_error_kind(capsys, monkeypatch, error):
    # every LibError kind, and any other exception, exits as the README's table says
    def handler(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "self-check", (handler, "stub", ()))
    code, payload, _ = run_cli(capsys, ["self-check"])
    kind = payload["error"]["kind"]
    assert kind == getattr(error, "kind", "internal-error")
    assert code == _readme_exit_codes()[kind]


def test_a_value_the_encoder_refuses_is_an_internal_error(capsys, monkeypatch):
    # a jet that leaks into a payload is a fault of the library
    jet = constant(1)
    monkeypatch.setitem(cli._COMMANDS, "self-check", (lambda args: {"value": [jet]}, "stub", ()))
    code, payload, raw = run_cli(capsys, ["self-check"])
    assert code == 4
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert payload["error"]["kind"] == "internal-error"
    assert payload["error"]["message"].startswith("TypeError at serialization.py:")


def test_a_wrong_middle_factor_is_an_internal_error(capsys, monkeypatch):
    # the forward map checks that its LDU middle factor is the torus; a
    # failing check is a fault of the library, not of the request
    ldu = factorization.ldu

    def wrong_middle(g):
        lower, d, upper = ldu(g)
        return lower, [x + 1 for x in d], upper

    monkeypatch.setattr(factorization, "ldu", wrong_middle)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"pairs": [[1, 2]] * 3})))
    code, payload, _ = run_cli(
        capsys, ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"])
    assert code == 4
    assert payload["error"]["kind"] == "internal-error"
    assert payload["error"]["message"].startswith("ArithmeticError at factorization.py:")
    assert payload["error"]["message"].endswith(": middle factor differs from the torus input")


def test_a_torus_of_the_wrong_length_is_refused(capsys, monkeypatch):
    # the pairs are right, so only the torus check can refuse the request
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"pairs": [[1, 2]] * 3,
                                                              "h": ["2", "1/2"]})))
    code, payload, _ = run_cli(
        capsys, ["forward", "--family", "A", "--rank", "2", "--word", "1,2,1", "--input", "-"])
    assert code == 2
    assert payload["error"] == {"kind": "invalid-input",
                                "message": "torus diagonal needs 3 entries, got 2"}


def test_a_tail_that_does_not_close_is_an_internal_error(capsys, monkeypatch, tmp_path):
    # a join that leaves a wrong Q L is a fault of the library, caught by
    # the closing check, never a refusal of the request
    join = factorization._join_pair

    def moved_join(t, factors, pair):
        return join(t, factors, (pair[0] + 1, pair[1]))

    flags = ["--family", "A", "--rank", "2", "--word", "1,2,1"]
    fwd = forward_map("A", 2, (1, 2, 1), [(1, 2)] * 3)
    src = write_json(tmp_path, "coords.json", {"l": [str(v) for v in fwd.l],
                                               "u": [str(v) for v in fwd.u]})
    monkeypatch.setattr(factorization, "_join_pair", moved_join)
    code, payload, _ = run_cli(capsys, ["invert", *flags, "--input", src])
    assert code == 4
    assert payload["error"]["kind"] == "internal-error"
    assert payload["error"]["message"].startswith("ArithmeticError at factorization.py:")
    assert payload["error"]["message"].endswith(
        ": completed tail 1 does not close: its Q L is not I")


# -- the contract on random requests -------------------------------------

_GOOD = st.integers(-3, 3) | st.sampled_from(["1/2", "2-3*i", "1*i", "-1/3*i"])
_BAD = st.sampled_from(["1/0", "x", "1e3", "", "i"]) | st.floats() | st.booleans() | st.none()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)
# a torus entry and its inverse, for h[a] * h[N+1-a] == 1
_TORUS = st.sampled_from([("1", "1"), ("2", "1/2"), ("-1", "-1"), ("1*i", "-1*i")])
_FAULTS = ("family", "rank", "flag", "text", "body", "key", "value", "scalar", "count",
           "budget")


@st.composite
def _requests(draw):
    """(argv, stdin text): a well-formed request with up to two faults.

    Without faults the flags and the body fit the subcommand, so the
    request reaches the maps; the faults bring in family E, ranks 0 and
    non-integers, missing flags and keys, broken JSON, wrong types,
    floats, booleans and zero denominators.  Words are either prefixes
    of reduced words or up to 7 letters from 0-4."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(2, 3))
    reduced = draw(st.booleans())
    if reduced:
        # a prefix of a reduced word of the longest element is reduced
        word = draw(st.sampled_from(enumerate_reduced_words(family, rank)))[:draw(st.integers(0, 7))]
    else:
        word = tuple(draw(st.lists(st.integers(0, 4), max_size=7)))
    which = draw(st.sampled_from(["word", "stratum-word"])) if name == "forward" else "word"
    # the stratum of w takes a pair per positive root that w keeps positive
    n = len(word) if which == "word" else max(0, len(positive_roots(family, rank)) - len(word))
    size = dim(family, rank)
    torus = draw(st.lists(_TORUS, min_size=size // 2, max_size=size // 2))
    m = draw(st.integers(0, 3))
    body = {
        "pairs": draw(st.lists(st.lists(_GOOD, min_size=2, max_size=2), min_size=n, max_size=n)),
        "l": draw(st.lists(_GOOD, min_size=n, max_size=n)),
        "u": draw(st.lists(_GOOD, min_size=n, max_size=n)),
        "h": [t for t, _ in torus] + ["1"] * (size % 2) + [t for _, t in reversed(torus)],
        "matrix": draw(st.lists(st.lists(_GOOD, min_size=m, max_size=m), min_size=m,
                                max_size=m)),
        "ordering": ([list(t) for t in ordering_from_word(family, rank, word)] if reduced else
                     draw(st.lists(st.lists(st.integers(-2, 2), max_size=4), max_size=9))),
    }
    flags = {"family": ["--family", family, "--rank", str(rank)], "input": ["--input", "-"],
             "minors": ["--minors"]}
    flags[which] = ["--" + which, ",".join(map(str, word))]
    text, extra = None, []
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        if fault in ("family", "rank") and "family" not in flags:
            continue  # a "flag" fault took the flags away
        if fault == "family":
            flags["family"][1] = "E"
        elif fault == "rank":
            flags["family"][3] = draw(st.sampled_from(["0", "1", "1.5", "x", "-1"]))
        elif fault == "flag":
            flags.pop(draw(st.sampled_from(sorted(flags))))
        elif fault == "text":
            text = draw(st.sampled_from(["", "{", "[1]", "1/0"]))
        elif fault == "body":
            body = draw(_JSON)
        elif fault == "budget":  # a flag no subcommand takes any more
            extra = ["--budget", draw(st.sampled_from(["1", "0", "y", "100000"]))]
        elif isinstance(body, dict) and body:
            key = draw(st.sampled_from(sorted(body)))
            if fault == "key":
                del body[key]
            elif fault == "value":
                body[key] = draw(_JSON)
            elif isinstance(body[key], list):
                if fault == "count":
                    body[key].append(body[key][0] if body[key] else "1")
                elif body[key]:
                    body[key][draw(st.integers(0, len(body[key]) - 1))] = draw(_BAD)
    options = [option.removeprefix("optional-") for option in cli._COMMANDS[name][2]]
    argv = [name] + [a for option in options for a in flags.get(option, [])] + extra
    return argv, json.dumps(body) if text is None else text


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_requests())
def test_contract_on_random_requests(request):
    """One canonical JSON object on stdout, exit 0, 2 or 3, nothing on stderr."""
    argv, text = request
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    raw = out.getvalue()
    payload = json.loads(raw)
    assert isinstance(payload, dict)
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert code in (0, 2, 3), payload
    assert (code != 0) == ("error" in payload)
    assert err.getvalue() == ""
