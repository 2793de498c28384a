"""End-to-end command-line behavior: output shapes and exit codes."""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import grade3
from grade3 import (
    CLASS_B,
    CLASS_T,
    DimensionMismatch,
    canonical_presentation,
    make_format,
    presentation_to_document,
)
from grade3 import cone
from grade3.cli import main
from grade3.linkrules import _STEPS
from grade3.permissible import MAX_ATLAS_CELLS
from grade3.presentation import MAX_DOCUMENT_CELLS

import pins


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
    # The table builds in constant memory, but its document would be refused
    # by the reader (3 products over an f basis of 10**9 vectors), so the
    # writer refuses it too.
    for label, fmt in (("T", "(1000000000,1)"), ("H(3000,0)", "(3001,1)")):
        assert main(["canonical", label, fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["H(1000000,0)", "(1000001,1)"],
        ["H(1000000,0)", "(1000001,1)", "--arrangement", "H-ii"],
        ["G(1000000)", "(1000000,6)"],
    ],
    ids=["H", "H-ii", "G"],
)
def test_canonical_refuses_oversized_tables_before_building(argv, capsys):
    # Each table would hold about 10**6 products; the writer's size check
    # runs on the class invariants, so nothing is built.
    tracemalloc.start()
    try:
        code = main(["canonical", *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: table would hold") and "limit" in captured.err
    assert peak < 1_000_000


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


def test_hand_checked_type_two_table_against_its_rule(monkeypatch, capsys):
    # The open disagreement of ROADMAP item 2, pinned as it stands.  Two
    # independent computations from I = (xy, x^3, y^4, z^3, xz^2, x^2 z - 2yz^2)
    # give this table, which classifies as H(0,1) at (6,2), a cell that
    # H-type-two-format-classes refuses.  When the audit of that rule decides
    # it, this test changes with it, and CHANGES.md says so.
    doc = '{"version":1,"m":6,"n":2,"ee":[],"ef":[[1,5,1,-2]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["classify", "-"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "format: (6,2)",
        "invariants: p=0 q=1 r=1 s1=0",
        "class: H(0,1)",
    ]
    assert main(["permissible", "H(0,1)", "(6,2)"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status: not-permissible"
    assert [line.split(":")[0] for line in lines[1:]] == ["rule H-type-two-format-classes"]


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


def test_huge_atlas_exits_three_before_building(capsys):
    # 10**12 cells; the bound refuses it before a single verdict is taken.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["atlas", "(1000000,1000000)", "--csv"])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert elapsed < 1.0
    assert peak < 1_000_000
    assert f"limit of {MAX_ATLAS_CELLS}" in capsys.readouterr().err


def test_largest_atlas_within_the_bound_is_drawn(capsys):
    # (100,99) has (99+2)(100-1) = 9999 cells; one more column is over the bound.
    assert (99 + 2) * (100 - 1) <= MAX_ATLAS_CELLS < (100 + 2) * (100 - 1)
    assert main(["atlas", "(100,99)"]) == 0
    assert capsys.readouterr().out.startswith("H(p,q) atlas for format (100,99)")
    assert main(["atlas", "(100,100)"]) == 3


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


@pytest.mark.parametrize("t1, row", [("3", "(3,3,0)"), ("2", "(2,1,0)")])
def test_link_refuses_a_table_outside_the_spec_row(t1, row, monkeypatch, capsys):
    # canonical T has e_1 e_2, e_1 e_3 and e_2 e_3 independent, so no plain
    # spec at t1 = 2 or 3 models it: the cone names the row it would need.
    assert main(["canonical", "T", "(4,3)"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["link", "-", "--t1", t1]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"needs row {row}" in captured.err


def test_link_refuses_designating_every_generator(monkeypatch, capsys):
    # G(3) at (3,2) linked at t1 = 3 would leave m - t1 = 0 generators of degree 3.
    assert main(["canonical", "G(3)", "(3,2)"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["link", "-", "--t1", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spec designates 3 generators, so the link needs m > 3; got m = 3\n"


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


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_realize_cap_below_one_exits_three(cap, capsys):
    assert main(["realize", "T", "(4,3)", "--max-coordinate", cap]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_coordinate must be >= 1, got {cap}\n"


def test_realize_ignores_the_environment():
    # The search cap comes from --max-coordinate only: a stray
    # GRADE3_MAX_SEARCH in the environment must change nothing.
    argv = [sys.executable, "-m", "grade3", "realize", "T", "(8,6)"]
    src = os.path.dirname(os.path.dirname(grade3.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("GRADE3_MAX_SEARCH", None)
    plain = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    capped = subprocess.run(argv, capture_output=True, env=dict(env, GRADE3_MAX_SEARCH="5"), timeout=60)
    assert plain.returncode == 0
    assert json.loads(plain.stdout)["target"] == {"class": "T", "format": "(8,6)"}
    assert (capped.stdout, capped.returncode) == (plain.stdout, plain.returncode)


# ----------------------------------------------------------------- theorems


def test_verify_theorems_small_sweep(capsys):
    assert main(["verify-theorems", "--m-max", "6", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "linkT-i: ok (checked=" in out
    assert out.rstrip().endswith("all scenarios passed")


def test_verify_theorems_reports_a_failing_rule(monkeypatch, capsys):
    # linkH-iii's step in the table the planner searches with gets the constant output slots of H(1,2).
    wrong = tuple(step[:6] + (2, 1, 2, 2) if step[0] == "linkH-iii" else step for step in _STEPS["H"])
    monkeypatch.setitem(_STEPS, "H", wrong)
    assert main(["verify-theorems", "--m-max", "6", "--n-max", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    fail = next(i for i, line in enumerate(lines) if line.startswith("linkH-iii: FAIL (checked="))
    assert lines[fail + 1].startswith("  ") and "expected H(1,2)" in lines[fail + 1]
    assert any(line.startswith("linkT-i: ok (checked=") for line in lines)
    assert lines[-1] == "FAILED"


def test_verify_theorems_reports_a_refused_link_and_goes_on(monkeypatch, capsys):
    # The cone refuses the sweep's fifth link: that row fails, worded with the
    # refusal, and every rule is still replayed and printed as before.
    assert main(["verify-theorems", "--m-max", "6", "--n-max", "4"]) == 0
    clean = capsys.readouterr().out.splitlines()
    assert (len(clean), clean[0]) == (13, "linktoT: ok (checked=282)")
    link, calls = cone.mapping_cone_presentation, [0]

    def refuse_fifth(table, row):
        calls[0] += 1
        if calls[0] == 5:
            raise DimensionMismatch("planted refusal")
        return link(table, row)

    monkeypatch.setattr(cone, "mapping_cone_presentation", refuse_fifth)
    assert main(["verify-theorems", "--m-max", "6", "--n-max", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "linktoT: FAIL (checked=282)",
        "  G(4) at (4,1): link refused: planted refusal",
        *clean[1:-1],
        "FAILED",
    ]


def test_verify_theorems_reports_a_refused_witness_and_goes_on(monkeypatch, capsys):
    # The fifth arrangement built is linkG-i's witness of G(2) at (4,1), the
    # first four being the T tables of linkT-i..iv, each built once.  Refused,
    # it fails that row alone: G(2) at (4,2) is built again, and the sweep goes on.
    build, calls = cone.arranged_presentation, [0]

    def refuse_fifth(label, fmt, arrangement):
        calls[0] += 1
        if calls[0] == 5:
            raise DimensionMismatch("planted refusal")
        return build(label, fmt, arrangement)

    monkeypatch.setattr(cone, "arranged_presentation", refuse_fifth)
    assert main(["verify-theorems", "--m-max", "6", "--n-max", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "linktoT: ok (checked=282)",
        "linkT-i: ok (checked=12)",
        "linkT-ii: ok (checked=12)",
        "linkT-iii: ok (checked=12)",
        "linkT-iv: ok (checked=12)",
        "linkG-i: FAIL (checked=48)",
        "  G(2) at (4,1): witness refused: planted refusal",
        "linkG-ii: ok (checked=48)",
        "linkH-i: ok (checked=168)",
        "linkH-ii: ok (checked=210)",
        "linkH-iii: ok (checked=126)",
        "linkH-iv: ok (checked=168)",
        "linkH-v: ok (checked=12)",
        "FAILED",
    ]


@pytest.mark.parametrize("name", ["replay-stdout", "replay-stdout-14-12", "replay-stdout-20-16"])
def test_verify_theorems_stdout_is_pinned(name):
    # The whole stdout of the replay at (10,8), (14,12) and (20,16); it must not move.
    compute, expected = pins.PINS[name]
    assert compute() == expected


def test_demos_are_pinned():
    # Each demo's exit code and the digest of its stdout under python -S; they must not move.
    assert pins.demos() == pins.DEMOS


def test_traced_command_runs(tmp_path):
    # The benchmark's tracer runs a command with every traced function wrapped.  A change that
    # breaks it, such as a package that imports its modules lazily or a rule type that
    # dataclasses.replace cannot copy, fails here and not only in the benchmark's smoke runs.
    src = os.path.dirname(os.path.dirname(grade3.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.join(os.path.dirname(src), "perfbench")]))
    stats = tmp_path / "stats.json"
    argv = [sys.executable, "-S", "-c", "import tracer; tracer.cli_main()", str(stats), "permissible", "T", "(8,6)"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(stats.read_text(encoding="utf-8"))["calls"]["cli.main"] == 1


def test_a_command_freezes_its_heap_on_exit_and_main_does_not(capsys):
    # run(), the process entry, freezes what is alive just before it exits, so the
    # interpreter's exit-time collections skip it; atexit still runs and the output
    # is unchanged.  main(), which tests and the benchmark's tracer call in process,
    # leaves the collector alone.
    assert pins.frozen_exit() == pins.FROZEN_EXIT
    before = gc.get_freeze_count()
    assert main(["permissible", "T", "(8,6)"]) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out == pins.FROZEN_EXIT[1]


def test_a_failing_replay_pin_shows_the_replay(monkeypatch, capsys):
    # A moved digest shows which rule's line changed without a rerun.
    assert pins.main(["replay-stdout"]) == 0
    assert capsys.readouterr().err == ""
    compute, (status, lines, _) = pins.PINS["replay-stdout"]
    monkeypatch.setitem(pins.PINS, "replay-stdout", (compute, (status, lines, "0" * 64)))
    assert pins.main(["replay-stdout"]) == 1
    assert "linktoT: ok (checked=" in capsys.readouterr().err


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


# A non-UTF-8 byte, and arrays and objects nested deeper than the decoder recurses.
_MALFORMED_BYTES = {
    "non-utf8": b'{"version": 1, "m": 4\xff}',
    "deep-array": b"[" * 100_000 + b"]" * 100_000,
    "deep-object": b'{"a":' * 100_000 + b"1" + b"}" * 100_000,
}
_FILE_COMMANDS = (["classify"], ["link", "--t1", "1"], ["verify-cert"])


@pytest.mark.parametrize("name", sorted(_MALFORMED_BYTES))
@pytest.mark.parametrize("command", _FILE_COMMANDS, ids=lambda c: c[0])
def test_malformed_bytes_exit_three(name, command, tmp_path, monkeypatch, capsys):
    data = _MALFORMED_BYTES[name]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert main([*command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict"))
    assert main([*command, "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("m, n, name", [(0, 1, "m"), (1, 0, "n")])
def test_empty_format_document_exits_three(m, n, name, monkeypatch, capsys):
    doc = {"version": 1, "m": m, "n": n, "ee": [], "ef": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["classify", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be a positive integer, got 0\n"


def test_oversized_document_exits_three(tmp_path, capsys):
    # One product over an f basis of 10**9 vectors counts 10**9 cells.
    doc = {"version": 1, "m": 10**9, "n": 1, "ee": [[1, 2, 1, 1]], "ef": []}
    path = _write_doc(tmp_path, "huge.json", doc)
    assert main(["classify", path]) == 3
    assert "limit" in capsys.readouterr().err


# Integers beyond the interpreter's digit limit for int() (4300 by default).
_HUGE = "1" + "0" * 5000


def test_sizes_beyond_the_digit_limit_are_reported_not_crashed_on(tmp_path, capsys):
    # m has 4300 digits, within the JSON reader's limit, but m+n-1 and the
    # cell count have more, too many for str(); each diagnostic must still print.
    big, nines = "1" + "0" * 4299, "9" * 4300
    ee = ",".join(f"[1,{j},1,1]" for j in range(2, 12))
    documents = {
        "cells.json": f'{{"version":1,"m":{big},"n":1,"ee":[{ee}],"ef":[]}}',
        "ef-key.json": f'{{"version":1,"m":{nines},"n":2,"ee":[],"ef":[[1,0,1,1]]}}',
        "ee-coordinate.json": f'{{"version":1,"m":{nines},"n":2,"ee":[[1,2,0,1]],"ef":[]}}',
    }
    for name, text in documents.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["classify", str(path)]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2**14284 or more" in err, name
    path = tmp_path / "empty.json"
    path.write_text(f'{{"version":1,"m":{nines},"n":1,"ee":[],"ef":[]}}', encoding="utf-8")
    assert main(["link", str(path), "--t1", "1"]) == 3
    assert "would build 2**14285 or more basis vectors" in capsys.readouterr().err


def test_huge_format_on_the_command_line_exits_three(capsys):
    assert main(["permissible", "T", f"({_HUGE},3)"]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert main(["permissible", f"H({_HUGE},0)", "(5,3)"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_derived_bounds_beyond_the_digit_limit_are_worded(capsys):
    # A label or format of 4300 digits parses, but a bound derived from it,
    # max(p+1, q+2) or n + 1, has 4301: the verdict is still a definite
    # negative, with the bound worded, and nothing on stderr.
    nines = "9" * 4300
    m_lower = "rule H-m-below-p-or-q: m = 5 is below max(p+1, q+2) = 2**14284 or more [Avramov 2012]"
    q_corner = "rule H-q-equals-m-minus-2: q = m - 2 requires p = n + 1 = 2**14284 or more; p = 0 [Avramov 2012]"
    for argv, line in [
        (["permissible", f"H({nines},0)", "(5,2)"], m_lower),
        (["realize", f"H({nines},0)", "(5,2)"], m_lower),
        (["permissible", "H(0,3)", f"(5,{nines})"], q_corner),
    ]:
        assert main(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "status: not-permissible"
        assert line in captured.out.splitlines()
        assert captured.err == ""


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


def test_link_t1_choices_are_the_supported_rows(capsys):
    # The choices are the t1 values of linkrules.SUPPORTED_PROFILES.
    with pytest.raises(SystemExit) as exc:
        main(["link", "-", "--t1", "5"])
    assert exc.value.code == 2
    assert "argument --t1: invalid choice: 5 (choose from 0, 1, 2, 3)" in capsys.readouterr().err


def test_link_without_t1_is_a_usage_error(capsys):
    # Usage errors share exit code 2 with "no answer"; the parser refuses before any file is read.
    with pytest.raises(SystemExit) as exc:
        main(["link", "t.json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the following arguments are required: --t1" in captured.err


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


_PERMISSIBLE_ARGV = ["permissible", "H(1,1)", "(3,1)"]


@pytest.mark.parametrize(
    "command, unbuffered",
    [
        (_PERMISSIBLE_ARGV, True),
        (_PERMISSIBLE_ARGV, False),
        (["--help"], True),
        (["--help"], False),
        (["link", "--help"], True),
        (["link", "--help"], False),
    ],
    ids=["unbuffered", "buffered", "help-unbuffered", "help-buffered", "link-help-unbuffered", "link-help-buffered"],
)
def test_closed_stdout_exits_141_silently(command, unbuffered):
    # The reader closes the pipe before the command writes, as `| head -c 0`
    # does: exit 128 + SIGPIPE, with nothing on stderr, buffered or not, for
    # a subcommand's output and for argparse's help text alike.
    src = os.path.dirname(os.path.dirname(grade3.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = [sys.executable, "-m", "grade3", *command]
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
