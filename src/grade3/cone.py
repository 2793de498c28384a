"""Mapping-cone simulation of linkage on multiplication tables.

Linking a perfect ideal through a regular sequence resolves the linked ideal
by the dual mapping cone.  On the level of multiplication tables this is
completely combinatorial: starting from a table in format ``(m, n)`` the
cone has raw bases

* ``E_1 .. E_{n+3}`` in degree 1 (the last three are the designated
  generators ``u_1, u_2, u_3`` coming from the regular sequence),
* ``F_1 .. F_{m+n+2}`` in degree 2 (the last three are the Koszul duals
  ``v_{2,3} = F_{m+n}``, ``v_{1,3} = F_{m+n+1}``, ``v_{1,2} = F_{m+n+2}``),
* ``G_1 .. G_m`` in degree 3,

and the products of the linked algebra are read off from the structure
constants of the input.  A link is a row :class:`~grade3.linkrules.RankProfile`
``(t1, t2, 0)`` of :data:`~grade3.linkrules.SUPPORTED_PROFILES`: ``t1``
designated generators act with full rank, and ``t2 = 1`` is the unit-product
case (``e_1 e_2 = f_1``, which additionally splits ``F_1`` and ``E_{n+3}``).
:func:`LinkSpec` builds the row from ``t1`` and that case.  The supported rows
and the basis vectors they split are

=========  =====================================================
row        split (removed) basis vectors
=========  =====================================================
(0,0,0)    none
(1,0,0)    G1, F_{m+n}
(2,0,0)    G1, G2, F_{m+n}, F_{m+n+1}
(2,1,0)    G1, G2, F_{m+n}, F_{m+n+1}, F_1, E_{n+3}
(3,0,0)    G1, G2, G3, F_{m+n}, F_{m+n+1}, F_{m+n+2}
=========  =====================================================

For ``t1 = 3`` the products ``E_i E_j`` and ``E_i F_l`` among the surviving
low-index vectors are not determined by the input table; they are returned
as *symbolic* slots and excluded from the determinate products.

:func:`verify_linkage_theorems` replays the rulebook itself: for every rule
of :data:`grade3.linkrules.RULES` that declares a witness, it links the
witness tables (canonical or rearranged) of every input the rule's step
accepts across a sweep of formats, with the rule's own profile row, and
checks the simulated class and format against the output of that step, in
the step table the planner searches with.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Mapping, NamedTuple

from .errors import (
    DimensionMismatch,
    DocumentError,
    Grade3Error,
    OutOfDomain,
    Phi2Mismatch,
    UnsupportedSpec,
    _decimal,
    _require,
    _require_ints,
    _shown,
)
from .exact import sparse_rank
from .labels import CLASS_B, CLASS_T, ClassLabel, Format, class_G, class_H, make_format
from .linkrules import (
    RULES,
    LinkageRule,
    RankProfile,
    State,
    _rule_outputs,
    _state_of,
    _StateKey,
    _require_supported,
)
from .presentation import (
    MAX_DOCUMENT_CELLS,
    TorPresentation,
    _class_label,
    arranged_presentation,
    canonical_presentation,
    presentation_to_document,
    validate_presentation,
)

__all__ = [
    "LinkSpec",
    "LinkedPresentation",
    "mapping_cone_presentation",
    "linked_to_document",
    "ScenarioResult",
    "TheoremReport",
    "verify_linkage_theorems",
]

LINKED_VERSION = 1
_DEFAULT_SWEEP = (10, 8)  # (m_max, n_max) of verify_linkage_theorems and of verify-theorems, by default


def LinkSpec(t1: int, phi2_unit: bool = False) -> RankProfile:
    """The row ``(t1, t2, 0)`` of a link, with ``t2 = 1`` in the unit-product case."""
    return RankProfile(t1, 1 if phi2_unit else 0, 0)


# Outside the unit case the products among e_1..e_t1 must have rank 0; the
# pairs to rank, by row (none for t1 <= 1, and the unit case reads e_1 e_2 alone).
_DESIGNATED = {LinkSpec(2): ((1, 2),), LinkSpec(3): ((1, 2), (1, 3), (2, 3))}


class LinkedPresentation(NamedTuple):
    """Result of one mapping-cone simulation.

    ``presentation`` holds the determinate products re-indexed to consecutive
    bases; ``splits`` lists the removed raw basis vectors; ``index_map``
    sends surviving raw indices to consecutive ones per degree; and
    ``symbolic_products`` lists the (raw-indexed) product slots that the
    input does not determine (nonempty only for ``t1 = 3``).
    """

    presentation: TorPresentation
    splits: tuple[str, ...]
    index_map: Mapping[str, Mapping[int, int]]
    symbolic_products: tuple[tuple[str, int, int], ...]


def mapping_cone_presentation(a: TorPresentation, row: RankProfile) -> LinkedPresentation:
    """Simulate one link of a (valid) multiplication table along a profile row.

    What depends on the row alone is looked up, not worked out: whether the
    row is supported (a hash test) and which products among the designated
    generators are ranked.  What depends on the format and the row alone,
    the split vectors, the index maps, the surviving Koszul products and the
    symbolic slots, is worked out by :func:`_frame` before any product, once
    per (format, row) while consecutive links share it.  Once per call: the
    checks on the table, a copy of each index map, so that each result owns
    every dict it holds, and each product term of the input, written once,
    straight to its output index.  At ``t1 = 0`` no product has a designated
    factor, so none is read, but both fields must still be mappings.

    Like :func:`~grade3.presentation.classify`, it refuses a non-table, needs a table that
    :func:`~grade3.presentation.validate_presentation` accepts, and checks
    only that every index a product term is read through lies in a kept
    basis: ``TorPresentation(4, 3, {}, {(1, 99): {1: 1}})`` (f index 99 with
    m+n-1 = 6) raises :class:`DimensionMismatch`, naming the index and the
    format.  Other invalid tables are not checked, and what they give is unspecified.

    Raises :class:`UnsupportedSpec` for rows outside
    :data:`~grade3.linkrules.SUPPORTED_PROFILES`, worded by
    :mod:`grade3.linkrules`, when the input has at most ``t1`` degree-1
    generators (the output would have ``m - t1 < 1`` of degree 3), and,
    outside the unit-product case, when the products among ``e_1 .. e_t1``
    have a rank ``t2 > 0`` (the message names the row ``(t1,t2,0)`` the
    table needs); :class:`Phi2Mismatch` when the unit-product case is
    requested but ``e_1 e_2`` is not exactly ``f_1``; and
    :class:`OutOfDomain`, before anything is built, when the raw bases plus
    the symbolic slots would exceed
    :data:`grade3.presentation.MAX_DOCUMENT_CELLS`.
    """
    _require(a, TorPresentation, DimensionMismatch)
    _require_supported(row, UnsupportedSpec)
    try:
        t1, phi2 = row.t1, row.t2 == 1
        m, n = a.m, a.n
        # Bound the work that grows with m+n whatever the products: the raw bases
        # and, for t1 = 3, the symbolic slots.
        size = (n + 3) + (m + n + 2) + m
        if t1 == 3:
            size += n * (n - 1) // 2 + n * (m + n - 1)
        if size > MAX_DOCUMENT_CELLS:
            raise OutOfDomain(
                f"linking a table in format ({_decimal(m)},{_decimal(n)}) at t1 = {t1} would build "
                f"{_decimal(size)} basis vectors and symbolic slots; the limit is {MAX_DOCUMENT_CELLS}"
            )
        if t1 >= m:
            raise UnsupportedSpec(f"spec designates {t1} generators, so the link needs m > {t1}; got m = {_decimal(m)}")
        if phi2 and a.ee.get((1, 2)) != {1: 1}:
            raise Phi2Mismatch("unit-product case needs e_1 e_2 = f_1 exactly")
        # Outside the unit case t2 must be 0.  It is the rank of the products among
        # e_1..e_t1, not their count: a hand-built table may store e_1 e_2 = {1: 0}.
        pairs = _DESIGNATED.get(row)
        designated = pairs and [a.ee[k] for k in pairs if k in a.ee]
        t2 = sparse_rank(designated) if designated else 0
        if t2:
            raise UnsupportedSpec(f"the products among e_1..e_{t1} have rank {t2}: the table needs row ({t1},{t2},0)")

        e_map, f_map, g_map, koszul, splits, symbolic = _frame(m, n, t1, phi2)

        # Every term is written once, straight to its output index.  No two terms
        # land on the same coefficient, so nothing accumulates or cancels: an E.E
        # key (g_i, n+a) has g_i <= n while both Koszul indices exceed n, an E.F
        # key (n+x, l) starts above n while a unit-case key (g_i, m+n+2) does not,
        # and within each family every (key, coordinate) comes from a distinct
        # input coefficient.  A term landing on a split vector, or on an index
        # outside the format, has no entry in the maps: its lookup raises
        # KeyError, refused below as DimensionMismatch.  Zero coefficients (a
        # hand-built table may hold them) are skipped, so none is stored.
        out_ee: dict[tuple[int, int], dict[int, int]] = {pair: {target: 1} for pair, target in koszul}
        out_ef: dict[tuple[int, int], dict[int, int]] = {}
        if not t1:
            # No generator is designated, so neither loop below would keep a
            # term and only the Koszul products are left; but a field that is
            # not a mapping is refused on this row too.
            a.ef.items(), a.ee.items()
        else:
            lo = 2 if phi2 else 1
            # Products of a designated generator with a degree-1 vector:
            # E_{n+a} E_i = sum_k <e_a f_k, g_i*> F_k, stored at (i, n+a) with the
            # graded-commutativity sign.
            for (ei, fl), vec in a.ef.items():
                if ei <= t1 and fl >= lo:
                    for gi, coeff in vec.items():
                        if coeff:
                            out_ee.setdefault((e_map[gi], e_map[n + ei]), {})[f_map[fl]] = -coeff

            # Products of a designated generator with a degree-2 vector:
            # E_{n+a} F_l = sum_{k > t1} <e_a e_k, f_l*> G_k.
            for (x, y), vec in a.ee.items():
                if x <= t1 < y:
                    for fl, coeff in vec.items():
                        if coeff and fl >= lo:
                            out_ef.setdefault((e_map[n + x], f_map[fl]), {})[g_map[y]] = coeff

        # Unit-product case only: E_i F_{m+n+2} = sum_{k > 2} <f_1 e_k, g_i*> G_k.
        if phi2:
            for (ek, fl), vec in a.ef.items():
                if fl == 1 and ek >= 3:
                    for gi, coeff in vec.items():
                        if coeff:
                            out_ef.setdefault((e_map[gi], f_map[m + n + 2]), {})[g_map[ek]] = coeff
    except (AttributeError, TypeError) as exc:
        raise DimensionMismatch._malformed(a, exc) from None
    except KeyError as missing:
        raise DimensionMismatch(
            f"a product names index {_shown(missing.args[0])}, which is outside the bases "
            f"of a table in format ({_decimal(m)},{_decimal(n)})"
        ) from None

    return LinkedPresentation(
        TorPresentation(len(e_map), len(g_map), out_ee, out_ef),
        splits,
        {"E": e_map.copy(), "F": f_map.copy(), "G": g_map.copy()},
        symbolic,
    )


# One frame is kept.  The replay links one (rule, format) at a time, so it
# serves every later table of that format and row.  A larger memo would only
# keep more frames alive after their results are dropped, each up to the
# cone's MAX_DOCUMENT_CELLS size check, and so add to peak memory.
@lru_cache(maxsize=1)
def _frame(m: int, n: int, t1: int, phi2: bool) -> tuple:
    """What a link of a table in format ``(m, n)`` along the row
    ``(t1, 1 if phi2 else 0, 0)`` builds from the row and format alone.

    Returns ``(e_map, f_map, g_map, koszul, splits, symbolic)``: the maps from
    kept raw indices to consecutive ones per degree, the surviving Koszul
    products among ``u_1 .. u_3`` as ``((i, j), target)`` in output indices,
    the split basis vectors and the symbolic slots.  It is computed once per
    (format, row) while consecutive links share them, not once per link: the
    result is memoized and shared, so :func:`mapping_cone_presentation`
    copies the maps into each result and never writes to them.
    """
    # The split vectors are runs at known ends: G_1..G_t1, F_{m+n}..F_{m+n+t1-1}
    # and, in the unit case, F_1 and E_{n+3}.  So each kept basis is a range,
    # or the concatenation of two.
    e_keep = range(1, n + 3) if phi2 else range(1, n + 4)
    f_keep = [*range(2 if phi2 else 1, m + n), *range(m + n + t1, m + n + 3)]
    g_keep = range(t1 + 1, m + 1)
    e_map = dict(zip(e_keep, range(1, len(e_keep) + 1)))
    f_map = dict(zip(f_keep, range(1, len(f_keep) + 1)))
    g_map = dict(zip(g_keep, range(1, len(g_keep) + 1)))
    if len(f_keep) != len(e_keep) + len(g_keep) - 1:
        raise AssertionError("split bookkeeping lost the middle-rank identity")

    # Koszul products among the designated generators, minus split targets.
    koszul = tuple(
        ((e_map[x], e_map[y]), f_map[target])
        for (x, y), target in (
            ((n + 1, n + 2), m + n + 2),
            ((n + 1, n + 3), m + n + 1),
            ((n + 2, n + 3), m + n),
        )
        if x in e_map and y in e_map and target in f_map
    )

    symbolic: tuple[tuple[str, int, int], ...] = ()
    if t1 == 3:
        symbolic = (
            *(("EE", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
            *(("EF", i, l) for i in range(1, n + 1) for l in range(1, m + n)),
        )

    splits = (
        *[f"G{i}" for i in range(1, t1 + 1)],
        *(["F1"] if phi2 else []),
        *[f"F{m + n + k}" for k in range(t1)],
        *([f"E{n + 3}"] if phi2 else []),
    )
    return e_map, f_map, g_map, koszul, splits, symbolic


def linked_to_document(lp: LinkedPresentation) -> dict:
    """Serialize as a presentation document plus split/index/symbolic data; refuses a non-link."""
    _require(lp, LinkedPresentation, DocumentError)
    try:
        return {
            "version": LINKED_VERSION,
            "presentation": presentation_to_document(lp.presentation),
            "splits": list(lp.splits),
            "index_map": {
                kind: {str(raw): new for raw, new in sorted(mapping.items())}
                for kind, mapping in lp.index_map.items()
            },
            "symbolic": [
                [f"E{i}", ("E" if kind == "EE" else "F") + str(j)]
                for kind, i, j in lp.symbolic_products
            ],
        }
    except (AttributeError, TypeError) as exc:
        raise DocumentError._malformed(lp, exc) from None


class ScenarioResult(NamedTuple):
    """Outcome of replaying one rulebook row across its input sweep."""

    scenario: str
    checked: int
    failures: tuple[str, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures and self.checked > 0


class TheoremReport(NamedTuple):
    results: tuple[ScenarioResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(res.passed for res in self.results)


def _canonical_labels(fmt: Format) -> dict[str, list[ClassLabel]]:
    """Every class label except C(3) whose canonical table fits a format with
    ``m >= 4``, by tag in listing order: T, B, G(2..m) and H(p,q) for
    ``p < m``, ``q <= n``."""
    m, n = fmt.m, fmt.n
    return {
        "T": [CLASS_T],
        "B": [CLASS_B],
        "G": [*map(class_G, range(2, m + 1))],
        "H": [class_H(p, q) for p in range(m) for q in range(n + 1)],
    }


def _sweep_label_count(m_max: int, n_max: int) -> int:
    """How many canonical labels the sweep over ``4 <= m <= m_max``,
    ``1 <= n <= n_max`` holds, without listing them: ``m(n+2) + 1`` per
    format (see :func:`_canonical_labels`).
    """
    m_sum = m_max * (m_max + 1) // 2 - 6  # 4 + ... + m_max
    n_sum = n_max * (n_max + 1) // 2 + 2 * n_max  # (1+2) + ... + (n_max+2)
    return m_sum * n_sum + (m_max - 3) * n_max


_Witness = Callable[[ClassLabel, Format], TorPresentation]


def _witnesses(rule: LinkageRule) -> _Witness:
    """The witness tables of ``rule`` by label and format, each label's built once.

    A label's last built table is kept and handed, with its products, to a
    later format at least as large in both m and n, which its builder would
    accept with the same products (see :mod:`grade3.presentation`); any other
    format goes to the builder, whose table is then the kept one.  The sweep
    lists formats m-major, n ascending, and a label at every m from the same
    least n, so no later format of a label lies below its first and each
    label is built once per rule.
    """
    memo: dict[ClassLabel, TorPresentation] = {}

    def witness(label: ClassLabel, fmt: Format) -> TorPresentation:
        m, n = fmt
        kept = memo.get(label)
        if kept is not None and kept.m <= m and kept.n <= n:
            return TorPresentation(m, n, kept.ee, kept.ef)
        if rule.witness == "canonical":
            kept = canonical_presentation(label, fmt)
        else:
            kept = arranged_presentation(label, fmt, rule.witness)
        memo[label] = kept
        return kept

    return witness


def _sweep(m_max: int, n_max: int) -> Iterator[tuple[LinkageRule, _Witness, Iterator[tuple[State, _StateKey]]]]:
    """The replay plan of :func:`verify_linkage_theorems`: ``(rule, witness, rows)``
    for every rule that declares a witness, in ``RULE_ORDER``.

    ``witness`` is the rule's :func:`_witnesses`, and ``rows`` lazily lists
    ``((label, fmt), key)``: for each format with ``4 <= m <= m_max`` and
    ``1 <= n <= n_max``, every canonical label the rule's step accepts there,
    with the key ``(tag, a, b, m, n)`` of the step's output state.

    Once per sweep, each format's canonical labels are listed, grouped by
    tag; once per rule, :func:`~grade3.linkrules._rule_outputs` picks the
    tags its step accepts, so a row is listed only for a label of such a tag.
    """
    formats = [
        (fmt, _canonical_labels(fmt))
        for fmt in (make_format(m, n) for m in range(4, m_max + 1) for n in range(1, n_max + 1))
    ]
    for rule in RULES.values():
        if rule.witness is not None:
            yield rule, _witnesses(rule), _rule_outputs(rule.rule_id, formats)


# One format's slots are kept: the replay lists a rule's rows format by format.
@lru_cache(maxsize=1)
def _x_y_slots(m: int, n: int) -> frozenset[tuple[str, int, int]]:
    """The X and Y families of symbolic slots of a three-generator link in format ``(m, n)``."""
    return frozenset(
        (
            *(("EE", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
            *(("EF", i, l) for i in range(1, n + 1) for l in range(1, m + n)),
        )
    )


def _check_linkH_v(lp: LinkedPresentation, label: ClassLabel, fmt: Format, expected: ClassLabel) -> list[str]:
    """Special checks for the three-generator row on its H-v witness:
    determinate products are exactly E_{n+1} F_i = G_{i+3} for i <= p,
    everything else is symbolic, and the determinate part is ``expected``.

    The expected slots depend on the format alone and are listed once per
    format by :func:`_x_y_slots`; the products are checked once per row.
    """
    problems: list[str] = []
    m, n, p = fmt.m, fmt.n, label.p
    out = lp.presentation
    if out.ee:
        problems.append("determinate ee products should be empty")
    # Raw G_{i+3} lands at dense index i.
    expected_ef = {(n + 1, i): {i: 1} for i in range(1, p + 1)}
    if dict(out.ef) != expected_ef:
        problems.append(f"determinate ef products differ: {dict(out.ef)} != {expected_ef}")
    if set(lp.symbolic_products) != _x_y_slots(m, n):
        problems.append("symbolic product slots differ from the expected X/Y families")
    decided = _class_label(out)
    if decided != expected:
        problems.append(f"determinate part classifies as {decided}, expected {expected}")
    return problems


def verify_linkage_theorems(m_max: int = _DEFAULT_SWEEP[0], n_max: int = _DEFAULT_SWEEP[1]) -> TheoremReport:
    """Replay every rule of :data:`grade3.linkrules.RULES` that has a witness.

    For each such rule, in ``RULE_ORDER``, the witness tables of every input
    its step accepts with ``4 <= m <= m_max`` and ``1 <= n <= n_max`` are
    linked along the rule's profile row, each built as its row comes up by
    the witness :func:`_sweep` yields: once per label, at the first format
    listing it, later rows sharing its products.  Every simulated
    output is structurally validated, and its format and classified label
    are compared, as integers, with the output key ``(tag, a, b, m, n)`` of
    the rule's step in the table the planner searches with; the expected
    label and format are built only to word a failure line and for the H-v
    check.  The three-generator row on its H-v witness
    additionally checks its determinate products and symbolic slots.  A
    label is decided as :func:`~grade3.presentation.classify` decides it, but
    from the ranks it reads: those of p, q and r, and of s1 only when
    (p,q,r) = (3,0,0), where s1 tells T from H(3,0).  A valid output equal
    to the rule's previous classified one takes that one's label, so each
    run of equal consecutive valid outputs is classified once; every row
    still gets its own checks and failure line.

    Work is done once for what it depends on.  Once per sweep, each format's
    labels are listed by tag; once per rule, its row and whether it is the
    H-v row are read, and :func:`_sweep` visits only the tags its step
    accepts; once per (rule, label), the witness is built; once per (format,
    row), the cone's :func:`_frame`; once per format, the H-v check's
    expected slots.  Once per row: one :func:`mapping_cone_presentation`
    call and one :func:`~grade3.presentation.validate_presentation` call,
    each looked up in this module, so that a wrapper or a patch of either
    sees every row, and the compares of the output with the key's integers.

    A witness its builder refuses, or a link the cone refuses (any
    :class:`~grade3.errors.Grade3Error`), is that row's failure line,
    ``{label} at {fmt}: witness refused: {message}`` or
    ``{label} at {fmt}: link refused: {message}``, and the sweep goes on.
    A bound that is not an integer, or a sweep of more than
    :data:`~grade3.presentation.MAX_DOCUMENT_CELLS` canonical labels,
    raises :class:`OutOfDomain` before any is listed.
    """
    _require_ints(m_max=m_max, n_max=n_max)
    if m_max < 5 or n_max < 1:
        raise OutOfDomain(f"need m_max >= 5 and n_max >= 1, got ({_decimal(m_max)}, {_decimal(n_max)})")
    if _sweep_label_count(m_max, n_max) > MAX_DOCUMENT_CELLS:
        raise OutOfDomain(
            f"a sweep up to ({_decimal(m_max)}, {_decimal(n_max)}) would hold more canonical labels "
            f"than the limit, {MAX_DOCUMENT_CELLS}"
        )
    results: list[ScenarioResult] = []
    for rule, witness, rows in _sweep(m_max, n_max):
        checked = 0
        failures: list[str] = []
        note = ""
        row, h_v = rule.profile, rule.witness == "H-v"
        # The rule's last classified output and its label.  Consecutive inputs
        # often link to the same table (linktoT, linkG-i, linkG-ii, linkH-i and
        # linkH-iii read only the designated generators' products), so an
        # output equal to it reuses its label.  That is sound only after
        # validation: a valid table holds exact ints, so equal tables have
        # identical entries and one class.
        last_out, last_label = None, None
        for (label, fmt), key in rows:
            checked += 1
            tag, a, b, out_m, out_n = key
            # Failure lines open with "{label} at {fmt}: ", worded only when a
            # check fails; so is the expected state, read from its key.
            try:
                table = witness(label, fmt)
            except Grade3Error as exc:
                failures.append(f"{label} at {fmt}: witness refused: {exc}")
                continue
            try:
                lp = mapping_cone_presentation(table, row)
            except Grade3Error as exc:
                failures.append(f"{label} at {fmt}: link refused: {exc}")
                continue
            out = lp.presentation
            diags = validate_presentation(out)
            if diags:
                failures.append(f"{label} at {fmt}: invalid output table: {diags[0]}")
                continue
            if out.m != out_m or out.n != out_n:
                failures.append(f"{label} at {fmt}: output format {out.fmt} != {_state_of(key)[1]}")
                continue
            if h_v:
                expected = _state_of(key)[0]
                failures.extend(f"{label} at {fmt}: {p}" for p in _check_linkH_v(lp, label, fmt, expected))
                note = "determinate products, X/Y slots, and H(0,p) class checked"
                continue
            if out != last_out:
                last_out, last_label = out, _class_label(out)
            # A ClassLabel is the named tuple (tag, a, b), so it equals the
            # key's first three slots exactly when it is the expected label.
            if last_label != (tag, a, b):
                failures.append(f"{label} at {fmt}: classified {last_label}, expected {_state_of(key)[0]}")
        results.append(
            ScenarioResult(scenario=rule.rule_id, checked=checked, failures=tuple(failures), note=note)
        )
    return TheoremReport(results=tuple(results))
