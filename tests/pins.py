"""Digests that pin whole sweeps of the toolkit's output, each with its expected value.

Each pin is computed here once and stated once.  Tier-1 tests assert on it,
and this module needs nothing but the package, so it also runs without
pytest or site-packages, on any supported Python::

    PYTHONPATH=src:tests python -S -m pins coverage-sweep

prints the pin's counts and digest, and exits 0 when they are the expected
ones and 1 when they are not; a replay pin that fails also writes the
replay's whole stdout to stderr.  The names are those of :data:`PINS`.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import grade3
from grade3 import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    AtlasGrid,
    ClassLabel,
    DerivationCertificate,
    Format,
    Grade3Error,
    LinkedPresentation,
    LinkSpec,
    TorPresentation,
    Transition,
    apply_rule,
    atlas_grid,
    boundary_classes,
    canonical_presentation,
    certificate_to_document,
    class_G,
    classify,
    class_H,
    is_permissible,
    linked_to_document,
    make_format,
    mapping_cone_presentation,
    presentation_to_document,
    realize,
    realize_all,
    render_atlas_csv,
    verify_certificate,
)
from grade3 import cli, planner
from grade3.cone import _sweep
from grade3.errors import _shown
from grade3.linkrules import _STEPS, _outputs


def coverage_sweep() -> tuple[int, int, str]:
    """Targets, gaps and the digest of every certificate of the (20,20) sweep.

    Recorded before the searches shared one successor graph.
    """
    report = realize_all(20, 20)
    digest = hashlib.sha256()
    for entry in report.entries:
        doc = certificate_to_document(realize(entry.label, entry.fmt).certificate)
        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"))
    return len(report.entries), len(report.gaps), digest.hexdigest()


COVERAGE_SWEEP = (2272, 0, "9679392c9a99759d4fc0958acf449637b3dda4c8fef57e2b4ff26dfbfaf53974")


def realize_grid() -> tuple[int, str]:
    """Targets and the digest of every realize result up to (12,12).

    Status, detail and certificate of every label below at every format up
    to (12,12), at the default cap; recorded before the searches shared one
    successor graph, when every target was searched forward from the axioms.
    """
    labels = (
        [CLASS_T, CLASS_B, CLASS_C3]
        + [class_G(r) for r in range(2, 10)]
        + [class_H(p, q) for p in range(9) for q in range(9)]
    )
    digest = hashlib.sha256()
    count = 0
    for m in range(1, 13):
        for k in range(1, 13):
            fmt = make_format(m, k)
            for label in labels:
                result = realize(label, fmt)
                doc = None if result.certificate is None else certificate_to_document(result.certificate)
                row = [str(label), str(fmt), result.status.value, result.detail, doc]
                digest.update(json.dumps(row, sort_keys=True).encode("utf-8"))
                count += 1
    return count, digest.hexdigest()


REALIZE_GRID = (13248, "c7006a3a23c68919c01372bb13eb36640a8cd3dcd19eab2e5e17052940876439")


def realize_grid_after_sweep() -> tuple[int, str]:
    """:func:`realize_grid` once ``realize_all(12, 12)`` holds its forward searches.

    Its expected value is :data:`REALIZE_GRID`: a sweep's searches, the widest
    answering for the narrower bounds, change no result.
    """
    realize_all(12, 12)
    return realize_grid()


def sweep_replays() -> tuple[int, bool]:
    """The ``apply_rule`` calls of ``realize_all(12, 12)``, and whether every entry's ``verified`` is a fresh replay's.

    The sweep replays each distinct step of its certificates once.  A fresh
    :func:`verify_certificate` call, after the sweep, replays the
    certificate :func:`realize` gives for the entry's target again, step by
    step; an entry without a certificate must be unverified.
    """
    calls, replay = 0, planner.apply_rule

    def counting(*args):
        nonlocal calls
        calls += 1
        return replay(*args)

    planner.apply_rule = counting
    try:
        report = realize_all(12, 12)
    finally:
        planner.apply_rule = replay
    agree = True
    for entry in report.entries:
        cert = realize(entry.label, entry.fmt).certificate
        agree &= entry.verified == (cert is not None and verify_certificate(cert))
    return calls, agree


# The 565 distinct steps among the 2 032 steps of the sweep's 512 certificates.
SWEEP_REPLAYS = (565, True)


def sweep_graph() -> tuple[int, int]:
    """The states the widest search discovered, and the states every held search discovered, after ``realize_all(14, 14)``.

    Run in a process that has searched nothing before.  The widest search is
    the bound-20 one, which answers every target of the sweep; the second
    count sums every held search, as the benchmark's
    ``planner.states_discovered`` does.
    """
    realize_all(14, 14)
    searches = planner._SEARCHES
    return len(searches[max(searches)].parent), sum(len(search.parent) for search in searches.values())


# Each held search records only the states of the region R of its corner
# (see planner._MAX_T1): before, the square searches held (16 930, 17 425).
SWEEP_GRAPH = (6678, 6976)


def sweep_graph_odd() -> tuple[int, int, int]:
    """The widest bound, the states its search discovered, and the narrower held searches that discovered more than their seeds, after ``realize_all(13, 13)``.

    Run in a process that has searched nothing before.  An odd sweep asks
    for targets of the second-widest bound before the widest search has
    discovered them; that search is resumed for them, so no narrower one
    grows past its seeds.
    """
    realize_all(13, 13)
    searches = planner._SEARCHES
    widest = max(searches)
    grown = sum(
        not all(isinstance(parent, str) for parent in search.parent.values())
        for bound, search in searches.items()
        if bound < widest
    )
    return widest, len(searches[widest].parent), grown


# Before the widest search was resumed for them, the bound-18 search grew to
# 10 047 states; before each search kept to its corner's region, the
# bound-19 search held 11 835.
SWEEP_GRAPH_ODD = (19, 4795, 0)


def excluded_outputs() -> tuple[int, int, int]:
    """States, rule outputs and NOT_PERMISSIBLE outputs of an exhaustive bound-34 search.

    Every rule output of every state the search discovered, within the bound
    or past it, is computed anew and tested.  A search records only outputs
    that are not NOT_PERMISSIBLE, so one that is would be a rule
    contradicting an obstruction, routed around silently.  Tier-1 checks the
    same property on the bound-26 search of the (20,20) sweep.
    """
    search = planner._Search(34)
    search.find(None)
    outputs = excluded = 0
    for key in search.parent:
        for out in _outputs(_STEPS[key[0]], *key[1:]):
            outputs += 1
            excluded += planner._excluded(*out)
    return len(search.parent), outputs, excluded


EXCLUDED_OUTPUTS = (195705, 958221, 0)


def two_step(bound: int = 34) -> tuple[int, int, int]:
    """States, two-step pairs and pairs that lower a coordinate, over an exhaustive square search.

    For every state the search discovered, every output of every output
    (:func:`grade3.linkrules._outputs`, bound and exclusion ignored) is
    compared with the state: the lemma by ``planner._MAX_T1`` says no
    coordinate falls over two steps, so every chain to a target stays in
    the region a held search keeps to.
    """
    search = planner._Search(bound)
    search.find(None)
    pairs = violations = 0
    for key in search.parent:
        _, _, _, m, n = key
        for out in _outputs(_STEPS[key[0]], *key[1:]):
            for second in _outputs(_STEPS[out[0]], *out[1:]):
                pairs += 1
                violations += second[3] < m or second[4] < n
    return len(search.parent), pairs, violations


TWO_STEP = (195705, 4776565, 0)


def verdict_grid() -> tuple[int, str]:
    """Verdicts and the digest of the grid up to (16,16).

    Status, rule ids, details and citations of every label below at every
    format up to (16,16), with each format's boundary labels and atlas CSV;
    recorded while each class still had its own verdict function.
    """
    digest = hashlib.sha256()
    count = 0
    for m in range(1, 17):
        for n in range(1, 17):
            fmt = make_format(m, n)
            labels = [CLASS_B, CLASS_C3, CLASS_T] + [class_G(r) for r in range(2, m + 3)]
            labels += [class_H(p, q) for p in range(n + 3) for q in range(m + 1)]
            for label in labels:
                verdict = is_permissible(label, fmt)
                rules = ";".join(f"{v.rule}:{v.detail}:{v.cite}" for v in verdict.violations)
                digest.update(f"{label}|{fmt}|{verdict.status.value}|{rules}\n".encode("utf-8"))
                count += 1
            boundary = ",".join(sorted(map(str, boundary_classes(fmt))))
            digest.update(f"B|{boundary}\n".encode("utf-8"))
            if m >= 2:
                digest.update(render_atlas_csv(atlas_grid(fmt)).encode("utf-8"))
    return count, digest.hexdigest()


VERDICT_GRID = (31168, "eb8a043b5043cffbe2d536cd4d195610b45bd6171c466b7d7d63d9bb0cecfa05")


def cone_sweep_digest(links) -> tuple[int, str]:
    """Count and digest of ``(rule, label, fmt, table, linked document)`` rows, in the order given."""
    digest = hashlib.sha256()
    count = 0
    for rule, label, fmt, table, linked in links:
        row = [rule.rule_id, str(label), str(fmt), presentation_to_document(table), linked]
        digest.update((json.dumps(row, sort_keys=True) + "\n").encode("utf-8"))
        count += 1
    return count, digest.hexdigest()


def cone_sweep() -> tuple[int, str]:
    """Links and the digest of the (10,8) replay's mapping cones.

    Every input table of the verify_linkage_theorems(10, 8) sweep, from the
    sweep's own generator, and its mapping cone (products, splits, index
    maps, symbolic slots); recorded while products were still stored as
    dense vectors.
    """

    def links():
        for rule, witness, rows in _sweep(10, 8):
            for (label, fmt), _ in rows:
                table = witness(label, fmt)
                yield rule, label, fmt, table, linked_to_document(mapping_cone_presentation(table, rule.profile))

    return cone_sweep_digest(links())


CONE_SWEEP = (11060, "e91a37abf21c6bfb691bf63f4be0e43909bf9bd5c267413a769f3a14c6c609fe")


def replay_outputs():
    """Every distinct output table of the (10,8) replay, H-v determinate parts
    included, once each in the order first linked, with its document's JSON text."""
    seen = set()
    for rule, witness, rows in _sweep(10, 8):
        for (label, fmt), _ in rows:
            out = mapping_cone_presentation(witness(label, fmt), rule.profile).presentation
            text = json.dumps(presentation_to_document(out), sort_keys=True)
            if text not in seen:
                seen.add(text)
                yield text, out


def classify_sweep() -> tuple[int, str]:
    """Distinct outputs and the digest of their classifier reports, (10,8) replay.

    Each distinct output table of the replay with its full report (p, q, r,
    s1, label, unclassifiable); recorded while the replay still classified
    every output with all four ranks.
    """
    digest = hashlib.sha256()
    count = 0
    for text, out in replay_outputs():
        report = classify(out)
        label = None if report.label is None else str(report.label)
        row = [text, report.p, report.q, report.r, report.s1, label, report.unclassifiable]
        digest.update((json.dumps(row) + "\n").encode("utf-8"))
        count += 1
    return count, digest.hexdigest()


CLASSIFY_SWEEP = (4564, "98964a8cb4de2869c777e8e55356b18a03079db6716eabd513f0aacf6ebedea0")


# The stdout of the latest replay_stdout call, which main shows when its pin fails.
_replayed = ""


def replay_stdout(*bounds: str) -> tuple[int, int, str]:
    """Exit code, lines and the digest of the stdout of ``grade3 verify-theorems``.

    The command runs in this process with ``bounds`` as its options.  A
    passing replay prints 12 lines ``{rule}: ok (checked={rows})`` and last
    ``all scenarios passed``.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["verify-theorems", *bounds])
    global _replayed
    _replayed = text = out.getvalue()
    return status, text.count("\n"), hashlib.sha256(text.encode("utf-8")).hexdigest()


# The replay at its default bound, (10,8), as the benchmark's theorem_replay workload runs it.
REPLAY_STDOUT = (0, 13, "8b2bc0870a0424b4bcd33c6b8e5aedf7b2d25152ebf1b4fea9559b5ebcd8ae9f")
# At (14,12), a size users run: rows 10230 for linktoT, 132 for each of linkT-i..iv,
# 1056 for linkG-i and linkG-ii, then 7920, 8910, 6930, 7920 for linkH-i..iv and 660 for linkH-v.
REPLAY_STDOUT_14_12 = (0, 13, "b4f7e3ea44f9832c0bc92c465bf146a241f98756df50b75604bc9200aa518e15")
# At (20,16), the widest sweep run in CI: rows 34544 for linktoT, 272 for each of linkT-i..iv,
# 2992 for linkG-i and linkG-ii, then 28424, 31008, 25840, 28424 for linkH-i..iv and 2176 for
# linkH-v; recorded while the witness memo still worked out each table's largest indices.
REPLAY_STDOUT_20_16 = (0, 13, "06f97ca504bac086488b978e18cc7b33785285f8be3f0f64ba71444111ffe1e7")


def refusals() -> tuple[str, ...]:
    """Every call of a public function, with one wrong argument, that neither
    returns nor raises a :class:`Grade3Error` within 1 s.

    Each parameter of each function in ``grade3.__all__`` takes in turn each
    of ten values below, then each of nineteen records whose fields have the
    wrong type, lack an entry or are out of range; the other arguments are the samples, one
    per parameter name.  A parameter with no sample is listed, as
    ``function(name): no sample``, and its function is not called.
    """
    fmt, label, row = make_format(5, 4), CLASS_T, LinkSpec(1)
    table = canonical_presentation(label, fmt)
    samples = {
        "rows": [[1, 2]], "m": 5, "n": 4, "text": "T", "fmt": fmt, "r": 3, "p": 1, "q": 1, "label": label,
        "ee": None, "ef": None, "arrangement": "T-A", "a": table, "doc": {}, "grid": atlas_grid(fmt),
        "profile": row, "b": 18, "rule_id": "linkT-i", "t": apply_rule("linkT-i", label, fmt), "t1": 1,
        "phi2_unit": False, "row": row, "lp": mapping_cone_presentation(table, row), "m_max": 6, "n_max": 6,
        "max_coordinate": 64, "cert": realize(label, fmt).certificate,
    }
    malformed = (
        TorPresentation(4, 3, None, None),
        Transition(None, None, None, None),
        DerivationCertificate(None, (), None),
        AtlasGrid(None, {}, {}),
        Format(None, None),
        ClassLabel("H", None, 1),
        Format(8.0, 6),
        ClassLabel("H", 2.0, 1),
        ClassLabel("T", None, None),
        LinkedPresentation(table, None, None, None),
        AtlasGrid(fmt, {}, {}),
        TorPresentation(4, 3, {(1, 2): [1]}, {}),
        ClassLabel("H", -1, 0),
        ClassLabel("H", 10**5000, 0),
        ClassLabel("G", 1, 0),
        ClassLabel("G", 5, 3),
        Format(-4, 3),
        Format(0, 0),
        Format(10**5000, 4),
    )
    failures = []
    for name in grade3.__all__:
        function = getattr(grade3, name)
        if not inspect.isfunction(function):
            continue
        params = list(inspect.signature(function).parameters)
        missing = [param for param in params if param not in samples]
        failures += [f"{name}({param}): no sample" for param in missing]
        for param in [] if missing else params:
            args = {other: samples[other] for other in params}
            for value in ("x", None, 1.5, True, -1, 10**30, [1], (4, 3), {}, object(), *malformed):
                call = f"{name}({param}={'object()' if type(value) is object else _shown(value)})"
                start = time.perf_counter()
                try:
                    function(**{**args, param: value})
                except Grade3Error:
                    pass
                except Exception as exc:
                    failures.append(f"{call}: {type(exc).__name__}")
                    continue
                if time.perf_counter() - start > 1:
                    failures.append(f"{call}: over 1 s")
    return tuple(failures)


REFUSALS = ()

_ROOT = Path(__file__).resolve().parent.parent


def demos() -> tuple[tuple[str, int, str], ...]:
    """Name, exit code and the digest of the stdout of each ``demos/*.py``, by name.

    Each demo runs in its own ``python -S`` process with only ``src`` on the
    path, as a user without site-packages runs it.
    """
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    rows = []
    for demo in sorted((_ROOT / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, "-S", str(demo)], capture_output=True, env=env, timeout=60)
        rows.append((demo.name, run.returncode, hashlib.sha256(run.stdout).hexdigest()))
    return tuple(rows)


# Recorded before the classifier's reports stopped storing the unclassifiable flag.
DEMOS = (
    ("atlas_tour.py", 0, "f131dbe721c3f07a2fde157576eab501a69138b841f8ef02d6ecda628944fcb0"),
    ("certificate_workflow.py", 0, "9b0f9372b4fd91d5662baf394cb202fd26c02c1df6d2b73d546c99667503b5e6"),
    ("classify_tables.py", 0, "bca36eed4d1ce42f3881f87408ccfb0790377f678556c26095282c5f699d8788"),
    ("linkage_walkthrough.py", 0, "b04072cf18e3994583f963c698282df31076e28b2452583d5e320d458559b993"),
)

# A child that reports, from an atexit hook, how many objects the collector has frozen.
_FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"{gc.get_freeze_count()}\\n"))
from grade3.cli import run
sys.argv[1:] = ["permissible", "T", "(8,6)"]
run()
"""


def frozen_exit() -> tuple[int, str, bool]:
    """Exit code, stdout, and whether anything was frozen at exit, of ``grade3 permissible T '(8,6)'``.

    The command runs by :func:`grade3.cli.run`, the console script's entry, in
    a ``python -S`` child with only ``src`` on the path.  An atexit hook
    registered before it writes ``gc.get_freeze_count()`` to stderr, so the
    hook shows both that atexit still runs and that ``run()`` froze the heap
    before exiting (about 12 000 objects on CPython 3.11).
    """
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    run = subprocess.run([sys.executable, "-S", "-c", _FREEZE_PROBE], capture_output=True, env=env, timeout=60)
    frozen = run.stderr.decode("utf-8").strip()
    return run.returncode, run.stdout.decode("utf-8"), frozen.isdigit() and int(frozen) > 0


FROZEN_EXIT = (0, "status: permissible\n", True)

PINS = {
    "coverage-sweep": (coverage_sweep, COVERAGE_SWEEP),
    "realize-grid": (realize_grid, REALIZE_GRID),
    "realize-grid-after-sweep": (realize_grid_after_sweep, REALIZE_GRID),
    "sweep-replays": (sweep_replays, SWEEP_REPLAYS),
    "sweep-graph": (sweep_graph, SWEEP_GRAPH),
    "sweep-graph-odd": (sweep_graph_odd, SWEEP_GRAPH_ODD),
    "excluded-outputs": (excluded_outputs, EXCLUDED_OUTPUTS),
    "two-step": (two_step, TWO_STEP),
    "verdict-grid": (verdict_grid, VERDICT_GRID),
    "cone-sweep": (cone_sweep, CONE_SWEEP),
    "classify-sweep": (classify_sweep, CLASSIFY_SWEEP),
    "replay-stdout": (replay_stdout, REPLAY_STDOUT),
    "replay-stdout-14-12": (lambda: replay_stdout("--m-max", "14", "--n-max", "12"), REPLAY_STDOUT_14_12),
    "replay-stdout-20-16": (lambda: replay_stdout("--m-max", "20", "--n-max", "16"), REPLAY_STDOUT_20_16),
    "refusals": (refusals, REFUSALS),
    "demos": (demos, DEMOS),
    "frozen-exit": (frozen_exit, FROZEN_EXIT),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in PINS:
        print(f"usage: python -m pins {{{','.join(PINS)}}}", file=sys.stderr)
        return 2
    compute, expected = PINS[argv[0]]
    got = compute()
    print(f"{argv[0]}: {', '.join(map(str, got))}")
    if got != expected:
        print(f"expected: {', '.join(map(str, expected))}")
        sys.stderr.write(_replayed)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
