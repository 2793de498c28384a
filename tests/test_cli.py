"""End-to-end command-line behavior: output shapes and exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import grade3
from grade3 import (
    CLASS_B,
    CLASS_T,
    canonical_presentation,
    make_format,
    presentation_to_document,
)
from grade3.cli import main
from grade3.presentation import MAX_DOCUMENT_CELLS


def _write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _canonical_doc(label, m, n):
    return presentation_to_document(canonical_presentation(label, make_format(m, n)))


# ------------------------------------------------------------------ classify


def test_classify_from_file(tmp_path, capsys):
    path = _write_doc(tmp_path, "b.json", _canonical_doc(CLASS_B, 5, 2))
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "format: (5,2)" in out
    assert "invariants: p=1 q=1 r=2 s1=2" in out
    assert "class: B" in out


def test_classify_from_stdin(monkeypatch, capsys):
    doc = _canonical_doc(CLASS_T, 4, 3)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["classify", "-"]) == 0
    assert "class: T" in capsys.readouterr().out


def test_classify_unclassifiable_table_exits_two(tmp_path, capsys):
    doc = {
        "version": 1,
        "m": 4,
        "n": 3,
        "ee": [[1, 2, 1, 1], [1, 3, 2, 1]],
        "ef": [[1, 3, 1, 1], [2, 4, 1, 1]],
    }
    path = _write_doc(tmp_path, "odd.json", doc)
    assert main(["classify", path]) == 2
    out = capsys.readouterr().out
    assert "invariants: p=2 q=1 r=2" in out
    assert "class: unclassifiable" in out


# ----------------------------------------------------------------- canonical


def test_canonical_pipes_back_into_classify(tmp_path, capsys):
    table = str(tmp_path / "h21.json")
    assert main(["canonical", "H(2,1)", "(6,3)", "-o", table]) == 0
    assert main(["classify", table]) == 0
    assert "class: H(2,1)" in capsys.readouterr().out


def test_canonical_arrangement_flag(tmp_path, capsys):
    table = str(tmp_path / "ta.json")
    assert main(["canonical", "T", "(4,3)", "--arrangement", "T-A", "-o", table]) == 0
    doc = json.loads((tmp_path / "ta.json").read_text(encoding="utf-8"))
    assert [1, 4, 2, 1] in doc["ee"]  # e1*e4 = f2 marks the T-A layout
    assert main(["classify", table]) == 0
    assert "class: T" in capsys.readouterr().out


def test_canonical_stdout_is_sorted_json(capsys):
    assert main(["canonical", "B", "(5,2)"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
    assert doc["m"] == 5 and doc["n"] == 2


def test_canonical_huge_format(capsys):
    assert main(["canonical", "T", "(1000000000,1)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "version": 1,
        "m": 10**9,
        "n": 1,
        "ee": [[1, 2, 3, 1], [1, 3, 2, -1], [2, 3, 1, 1]],
        "ef": [],
    }


# --------------------------------------------------------------- permissible


def test_permissible_exit_codes(capsys):
    assert main(["permissible", "B", "(5,2)"]) == 0
    assert "status: permissible" in capsys.readouterr().out

    assert main(["permissible", "B", "(6,2)"]) == 1
    out = capsys.readouterr().out
    assert "status: not-permissible" in out
    assert "rule B-type-two-parity:" in out

    assert main(["permissible", "H(1,1)", "(8,6)"]) == 2
    assert "status: unknown-necessary-only" in capsys.readouterr().out


# --------------------------------------------------------------------- atlas


def test_atlas_text_render(capsys):
    assert main(["atlas", "(6,3)"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("H(p,q) atlas for format (6,3)")
    assert "#" in out  # realized boundary cells
    assert "q=0" in out and "p=" in out


def test_atlas_csv_render(tmp_path):
    target = tmp_path / "atlas.csv"
    assert main(["atlas", "(6,3)", "--csv", "-o", str(target)]) == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,q,status,rules"
    cells = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert cells[("2", "0")] == "black"
    assert cells[("0", "3")] == "dotted"


# ---------------------------------------------------------------------- link


def test_link_emits_linked_table(tmp_path, capsys):
    path = _write_doc(tmp_path, "b.json", _canonical_doc(CLASS_B, 5, 2))
    assert main(["link", path, "--t1", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["presentation"]["m"] == 5
    assert doc["presentation"]["n"] == 5
    assert doc["splits"] == []


def test_link_precondition_failure_exits_three(tmp_path, capsys):
    path = _write_doc(tmp_path, "t.json", _canonical_doc(CLASS_T, 4, 3))
    assert main(["link", path, "--t1", "2", "--phi2-unit"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_link_on_huge_formats_exits_three_in_bounded_memory(tmp_path, capsys):
    # Ingress counts stored products only, but the cone's bases (and, for
    # t1 = 3, its symbolic slots) grow with m+n, so the cone refuses such a
    # table before building anything.
    empty = {"version": 1, "m": 10**9, "n": 1, "ee": [], "ef": []}
    # At n = 1 and t1 = 3 the cone needs 2m+7 basis vectors and m slots:
    # this m is the first for which 3m+7 exceeds the cap.
    m = (MAX_DOCUMENT_CELLS - 7) // 3 + 1
    assert 3 * (m - 1) + 7 <= MAX_DOCUMENT_CELLS < 3 * m + 7
    one_product = {"version": 1, "m": m, "n": 1, "ee": [], "ef": [[1, 1, 1, 1]]}
    for doc, t1 in ((empty, "0"), (one_product, "3")):
        path = _write_doc(tmp_path, "huge.json", doc)
        tracemalloc.start()
        try:
            code = main(["link", path, "--t1", t1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 1_000_000
        assert "limit" in capsys.readouterr().err


# ------------------------------------------------------------------- realize


def test_realize_then_verify_certificate(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert main(["realize", "T", "(5,4)", "-o", cert_path]) == 0
    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert doc["axiom"]["family"] == "ACI-a"

    assert main(["verify-cert", cert_path]) == 0
    assert "certificate: valid" in capsys.readouterr().out


def test_verify_cert_flags_tampering(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert main(["realize", "H(2,0)", "(6,3)", "-o", cert_path]) == 0
    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    doc["target"]["class"] = "H(2,2)"
    tampered = _write_doc(tmp_path, "tampered.json", doc)
    assert main(["verify-cert", tampered]) == 1
    assert "certificate: INVALID" in capsys.readouterr().out


def test_realize_not_permissible_exits_one(capsys):
    assert main(["realize", "T", "(4,2)"]) == 1
    out = capsys.readouterr().out
    assert "status: not-permissible" in out
    assert "rule T-n-min:" in out


def test_realize_not_found_exits_two(capsys):
    assert main(["realize", "C(3)", "(3,1)"]) == 2
    assert "not found:" in capsys.readouterr().out


def test_realize_max_coordinate_flag(capsys):
    assert main(["realize", "T", "(10,8)", "--max-coordinate", "8"]) == 2
    assert "search cap" in capsys.readouterr().out


def test_realize_reads_search_env(monkeypatch, capsys):
    monkeypatch.setenv("GRADE3_MAX_SEARCH", "8")
    assert main(["realize", "T", "(10,8)"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("GRADE3_MAX_SEARCH", "zero")
    assert main(["realize", "T", "(10,8)"]) == 3
    assert "GRADE3_MAX_SEARCH" in capsys.readouterr().err


# ----------------------------------------------------------------- theorems


def test_verify_theorems_small_sweep(capsys):
    assert main(["verify-theorems", "--m-max", "6", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "linkT-i: ok (checked=" in out
    assert out.rstrip().endswith("all scenarios passed")


def test_verify_theorems_domain_guard(capsys):
    assert main(["verify-theorems", "--m-max", "4", "--n-max", "8"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_verify_theorems_on_a_huge_sweep_exits_three_in_bounded_memory(capsys):
    # About 2*10**9 canonical labels: refused before any label list is built.
    tracemalloc.start()
    try:
        code = main(["verify-theorems", "--m-max", "300", "--n-max", "300"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1_000_000
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "limit" in captured.err


# ------------------------------------------------------------ error handling


def test_invalid_json_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["classify", str(path)]) == 3
    assert "error: invalid JSON" in capsys.readouterr().err


def test_missing_file_exits_three(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.json")]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_bad_label_and_format_exit_three(capsys):
    assert main(["permissible", "X(2)", "(5,2)"]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert main(["permissible", "B", "5x2"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_rejected_document_exits_three(tmp_path, capsys):
    path = _write_doc(tmp_path, "bad.json", {"version": 1, "m": 4})
    assert main(["classify", path]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_oversized_document_exits_three(tmp_path, capsys):
    # One product over an f basis of 10**9 vectors counts 10**9 cells.
    doc = {"version": 1, "m": 10**9, "n": 1, "ee": [[1, 2, 1, 1]], "ef": []}
    path = _write_doc(tmp_path, "huge.json", doc)
    assert main(["classify", path]) == 3
    assert "limit" in capsys.readouterr().err


# Integers beyond the interpreter's digit limit for int() (4300 by default).
_HUGE = "1" + "0" * 5000


def test_huge_format_on_the_command_line_exits_three(capsys):
    assert main(["permissible", "T", f"({_HUGE},3)"]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert main(["permissible", f"H({_HUGE},0)", "(5,3)"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_huge_integer_in_a_document_exits_three(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"version": 1, "m": {_HUGE}, "n": 1, "ee": [], "ef": []}}', encoding="utf-8")
    assert main(["classify", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_huge_format_in_a_certificate_exits_three(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    assert main(["realize", "H(2,0)", "(6,3)", "-o", cert_path]) == 0
    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    doc["axiom"]["format"] = f"({_HUGE},3)"
    path = _write_doc(tmp_path, "huge.json", doc)
    assert main(["verify-cert", path]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ------------------------------------------------------------ python -m


@pytest.mark.parametrize("module", ["grade3", "grade3.cli"])
def test_python_dash_m_matches_main(module, capsys):
    argv = ["permissible", "T", "(4,3)"]
    code = main(argv)
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(grade3.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=60
    )
    assert proc.stdout == expected.encode("utf-8")
    assert proc.returncode == code
