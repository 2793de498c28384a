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
constants of the input.  A :class:`LinkSpec` fixes how many designated
generators act with full rank (``t1``) and whether the unit-product case
(``phi2_unit``, which additionally splits ``F_1`` and ``E_{n+3}``) applies.
The supported specs and the basis vectors they split are

===========  =====================================================
spec         split (removed) basis vectors
===========  =====================================================
t1 = 0       none
t1 = 1       G1, F_{m+n}
t1 = 2       G1, G2, F_{m+n}, F_{m+n+1}
t1 = 2 unit  G1, G2, F_{m+n}, F_{m+n+1}, F_1, E_{n+3}
t1 = 3       G1, G2, G3, F_{m+n}, F_{m+n+1}, F_{m+n+2}
===========  =====================================================

For ``t1 = 3`` the products ``E_i E_j`` and ``E_i F_l`` among the surviving
low-index vectors are not determined by the input table; they are returned
as *symbolic* slots and excluded from the determinate products.

:func:`verify_linkage_theorems` replays the rulebook itself: for every rule
of :data:`grade3.linkrules.RULES` that declares a witness, it links the
witness tables (canonical or rearranged) of every input the rule accepts
across a sweep of formats, with the spec whose profile is the rule's, and
checks the simulated class and format against the rule's own ``out_class``
and ``out_format``, the callables the planner searches with.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import DimensionMismatch, OutOfDomain, Phi2Mismatch, UnsupportedSpec
from .labels import CLASS_B, CLASS_T, ClassLabel, Format, class_G, class_H, make_format
from .linkrules import RULE_ORDER, RULES, LinkageRule, RankProfile
from .presentation import (
    MAX_DOCUMENT_CELLS,
    TorPresentation,
    arranged_presentation,
    canonical_presentation,
    classify,
    presentation_to_document,
    validate_presentation,
)

__all__ = [
    "LinkSpec",
    "SUPPORTED_SPECS",
    "link_profile",
    "LinkedPresentation",
    "mapping_cone_presentation",
    "linked_to_document",
    "ScenarioResult",
    "TheoremReport",
    "verify_linkage_theorems",
]

LINKED_VERSION = 1


@dataclass(frozen=True)
class LinkSpec:
    """Rank behaviour of the designated generators in one link."""

    t1: int
    phi2_unit: bool = False


SUPPORTED_SPECS = (
    LinkSpec(0),
    LinkSpec(1),
    LinkSpec(2),
    LinkSpec(2, phi2_unit=True),
    LinkSpec(3),
)


def link_profile(spec: LinkSpec) -> RankProfile:
    """The rank profile a spec realizes: (t1, phi2 as t2, 0)."""
    return RankProfile(spec.t1, 1 if spec.phi2_unit else 0, 0)


@dataclass(frozen=True)
class LinkedPresentation:
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


def mapping_cone_presentation(a: TorPresentation, spec: LinkSpec) -> LinkedPresentation:
    """Simulate one link of a (valid) multiplication table.

    Raises :class:`UnsupportedSpec` for specs outside the supported table or
    when the input has fewer than ``t1`` degree-1 generators,
    :class:`Phi2Mismatch` when the unit-product case is requested but
    ``e_1 e_2`` is not exactly ``f_1``, and :class:`OutOfDomain`, before
    anything is built, when the raw bases plus the symbolic slots would
    exceed :data:`grade3.presentation.MAX_DOCUMENT_CELLS`.
    """
    if spec not in SUPPORTED_SPECS:
        raise UnsupportedSpec(f"link spec (t1={spec.t1}, phi2_unit={spec.phi2_unit}) is not supported")
    t1, phi2 = spec.t1, spec.phi2_unit
    m, n = a.m, a.n
    # Bound the work that grows with m+n whatever the products: the raw bases
    # and, for t1 = 3, the symbolic slots.
    size = (n + 3) + (m + n + 2) + m
    if t1 == 3:
        size += n * (n - 1) // 2 + n * (m + n - 1)
    if size > MAX_DOCUMENT_CELLS:
        raise OutOfDomain(
            f"linking a table in format ({m},{n}) at t1 = {t1} would build {size} basis vectors "
            f"and symbolic slots; the limit is {MAX_DOCUMENT_CELLS}"
        )
    if t1 > m:
        raise UnsupportedSpec(f"spec designates {t1} generators but the table has only m = {m}")
    if phi2 and a.ee.get((1, 2)) != {1: 1}:
        raise Phi2Mismatch("unit-product case needs e_1 e_2 = f_1 exactly")

    ne, nf, ng = n + 3, m + n + 2, m

    acc_ee: dict[tuple[int, int], dict[int, int]] = defaultdict(lambda: defaultdict(int))
    acc_ef: dict[tuple[int, int], dict[int, int]] = defaultdict(lambda: defaultdict(int))

    e_split: set[int] = {ne} if phi2 else set()
    if t1 == 0:
        f_split: set[int] = set()
    elif t1 == 1:
        f_split = {m + n}
    elif t1 == 2:
        f_split = {m + n, m + n + 1} | ({1} if phi2 else set())
    else:
        f_split = {m + n, m + n + 1, m + n + 2}
    g_split = set(range(1, t1 + 1))

    # Koszul products among the designated generators, minus split targets.
    for (x, y), target in (
        ((n + 1, n + 2), m + n + 2),
        ((n + 1, n + 3), m + n + 1),
        ((n + 2, n + 3), m + n),
    ):
        if x not in e_split and y not in e_split and target not in f_split:
            acc_ee[(x, y)][target] += 1

    # Products of a designated generator with a degree-1 vector:
    # E_{n+a} E_i = sum_k <e_a f_k, g_i*> F_k, stored at (i, n+a) with the
    # graded-commutativity sign.
    b_lo = 2 if phi2 else 1
    for (ei, fl), vec in a.ef.items():
        if ei <= t1 and fl >= b_lo:
            for gi, coeff in vec.items():
                acc_ee[(gi, n + ei)][fl] -= coeff

    # Products of a designated generator with a degree-2 vector:
    # E_{n+a} F_l = sum_{k > t1} <e_a e_k, f_l*> G_k.
    f_lo = 2 if phi2 else 1
    for (x, y), vec in a.ee.items():
        if x <= t1 < y:
            for fl, coeff in vec.items():
                if fl >= f_lo:
                    acc_ef[(n + x, fl)][y] += coeff

    # Unit-product case only: E_i F_{m+n+2} = sum_{k > 2} <f_1 e_k, g_i*> G_k.
    if phi2:
        for (ek, fl), vec in a.ef.items():
            if fl == 1 and ek >= 3:
                for gi, coeff in vec.items():
                    acc_ef[(gi, m + n + 2)][ek] += coeff

    symbolic: list[tuple[str, int, int]] = []
    if t1 == 3:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                symbolic.append(("EE", i, j))
        for i in range(1, n + 1):
            for l in range(1, m + n):
                symbolic.append(("EF", i, l))

    e_keep = [i for i in range(1, ne + 1) if i not in e_split]
    f_keep = [i for i in range(1, nf + 1) if i not in f_split]
    g_keep = [i for i in range(1, ng + 1) if i not in g_split]
    e_map = {raw: new for new, raw in enumerate(e_keep, start=1)}
    f_map = {raw: new for new, raw in enumerate(f_keep, start=1)}
    g_map = {raw: new for new, raw in enumerate(g_keep, start=1)}

    m_out, n_out = len(e_keep), len(g_keep)
    if len(f_keep) != m_out + n_out - 1:
        raise AssertionError("split bookkeeping lost the middle-rank identity")

    out_ee: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), coeffs in acc_ee.items():
        if i in e_split or j in e_split:
            raise AssertionError("determinate product touches a split degree-1 vector")
        coords = {}
        for k, coeff in coeffs.items():
            if coeff:
                if k in f_split:
                    raise AssertionError("determinate product targets a split degree-2 vector")
                coords[f_map[k]] = coeff
        if coords:
            out_ee[(e_map[i], e_map[j])] = coords

    out_ef: dict[tuple[int, int], dict[int, int]] = {}
    for (i, l), coeffs in acc_ef.items():
        if i in e_split or l in f_split:
            raise AssertionError("determinate product touches a split vector")
        coords = {}
        for k, coeff in coeffs.items():
            if coeff:
                if k in g_split:
                    raise AssertionError("determinate product targets a split degree-3 vector")
                coords[g_map[k]] = coeff
        if coords:
            out_ef[(e_map[i], f_map[l])] = coords

    splits = tuple(
        [f"G{i}" for i in sorted(g_split)]
        + [f"F{i}" for i in sorted(f_split)]
        + [f"E{i}" for i in sorted(e_split)]
    )
    return LinkedPresentation(
        presentation=TorPresentation(m_out, n_out, out_ee, out_ef),
        splits=splits,
        index_map={"E": e_map, "F": f_map, "G": g_map},
        symbolic_products=tuple(symbolic),
    )


def linked_to_document(lp: LinkedPresentation) -> dict:
    """Serialize as a presentation document plus split/index/symbolic data."""
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


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of replaying one rulebook row across its input sweep."""

    scenario: str
    checked: int
    failures: tuple[str, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures and self.checked > 0


@dataclass(frozen=True)
class TheoremReport:
    results: tuple[ScenarioResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(res.passed for res in self.results)


# The same G(r) and H(p,q) recur in every format of a sweep, which holds the
# label lists of all its formats at once: one shared object per label keeps
# that at a pointer per entry.
_shared_G = functools.cache(class_G)
_shared_H = functools.cache(class_H)


def _canonical_labels(fmt: Format) -> list[ClassLabel]:
    """Every class label whose canonical table fits the format, except C(3)."""
    labels: list[ClassLabel] = []
    if fmt.m >= 3 and fmt.dim2 >= 3:
        labels.append(CLASS_T)
    if fmt.m >= 2 and fmt.dim2 >= 3:
        labels.append(CLASS_B)
    for r in range(2, min(fmt.m, fmt.dim2) + 1):
        labels.append(_shared_G(r))
    for p in range(0, fmt.m):
        for q in range(0, fmt.n + 1):
            if fmt.dim2 >= p + q:
                labels.append(_shared_H(p, q))
    return labels


def _sweep_label_count(m_max: int, n_max: int) -> int:
    """How many canonical labels the sweep over ``4 <= m <= m_max``,
    ``1 <= n <= n_max`` holds, without listing them.

    With ``m >= 4`` every format holds T, B, G(2..m) and H(p,q) for
    ``p < m``, ``q <= n``: ``m(n+2) + 1`` labels.
    """
    m_sum = m_max * (m_max + 1) // 2 - 6  # 4 + ... + m_max
    n_sum = n_max * (n_max + 1) // 2 + 2 * n_max  # (1+2) + ... + (n_max+2)
    return m_sum * n_sum + (m_max - 3) * n_max


# The spec whose profile is a rule's profile; link_profile maps SUPPORTED_SPECS
# one-to-one onto SUPPORTED_PROFILES.
_SPEC_FOR_PROFILE = {link_profile(spec): spec for spec in SUPPORTED_SPECS}


def _sweep(
    m_max: int, n_max: int
) -> Iterator[tuple[LinkageRule, LinkSpec, Iterator[tuple[ClassLabel, Format, TorPresentation]]]]:
    """The replay plan of :func:`verify_linkage_theorems`, one entry per rule.

    Yields every rule that declares a witness, in ``RULE_ORDER``, with the
    spec of its profile and a lazy stream of ``(label, fmt, table)``: for
    each format with ``4 <= m <= m_max`` and ``1 <= n <= n_max``, every
    canonical label the rule accepts there, as its witness table.  Labels
    whose witness arrangement does not fit the format are skipped.
    """
    formats = [
        (fmt, _canonical_labels(fmt))
        for fmt in (make_format(m, n) for m in range(4, m_max + 1) for n in range(1, n_max + 1))
    ]

    def tables(rule: LinkageRule) -> Iterator[tuple[ClassLabel, Format, TorPresentation]]:
        for fmt, labels in formats:
            for label in labels:
                if label.tag not in rule.in_tags or rule.check(label, fmt) is not None:
                    continue
                try:
                    if rule.witness == "canonical":
                        table = canonical_presentation(label, fmt)
                    else:
                        table = arranged_presentation(label, fmt, rule.witness)
                except DimensionMismatch:  # format too small for this arrangement
                    continue
                yield label, fmt, table

    for rule_id in RULE_ORDER:
        rule = RULES[rule_id]
        if rule.witness is not None:
            yield rule, _SPEC_FOR_PROFILE[rule.profile], tables(rule)


def _check_linkH_v(lp: LinkedPresentation, label: ClassLabel, fmt: Format, expected: ClassLabel) -> list[str]:
    """Special checks for the three-generator row on its H-v witness:
    determinate products are exactly E_{n+1} F_i = G_{i+3} for i <= p,
    everything else is symbolic, and the determinate part is ``expected``."""
    problems: list[str] = []
    m, n, p = fmt.m, fmt.n, label.p
    out = lp.presentation
    if out.ee:
        problems.append("determinate ee products should be empty")
    # Raw G_{i+3} lands at dense index i.
    expected_ef = {(n + 1, i): {i: 1} for i in range(1, p + 1)}
    if dict(out.ef) != expected_ef:
        problems.append(f"determinate ef products differ: {dict(out.ef)} != {expected_ef}")
    want_symbolic = {("EE", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    want_symbolic |= {("EF", i, l) for i in range(1, n + 1) for l in range(1, m + n)}
    if set(lp.symbolic_products) != want_symbolic:
        problems.append("symbolic product slots differ from the expected X/Y families")
    rep = classify(out)
    if rep.label != expected:
        problems.append(f"determinate part classifies as {rep.label}, expected {expected}")
    return problems


def verify_linkage_theorems(m_max: int = 10, n_max: int = 8) -> TheoremReport:
    """Replay every rule of :data:`grade3.linkrules.RULES` that has a witness.

    For each such rule, in ``RULE_ORDER``, the witness tables of every input
    the rule accepts with ``4 <= m <= m_max`` and ``1 <= n <= n_max`` are
    linked with the spec of the rule's profile.  Every simulated output is
    structurally validated, and its format and classified label are
    compared with the rule's own ``out_format`` and ``out_class``, the
    callables the planner uses; the three-generator row on its H-v witness
    additionally checks its determinate products and symbolic slots.
    A sweep of more than :data:`~grade3.presentation.MAX_DOCUMENT_CELLS`
    canonical labels raises :class:`OutOfDomain` before any is listed.
    """
    if m_max < 5 or n_max < 1:
        raise OutOfDomain(f"need m_max >= 5 and n_max >= 1, got ({m_max}, {n_max})")
    if _sweep_label_count(m_max, n_max) > MAX_DOCUMENT_CELLS:
        raise OutOfDomain(
            f"a sweep up to ({m_max}, {n_max}) would hold more canonical labels than the limit, "
            f"{MAX_DOCUMENT_CELLS}"
        )
    results: list[ScenarioResult] = []
    for rule, spec, tables in _sweep(m_max, n_max):
        checked = 0
        failures: list[str] = []
        note = ""
        for label, fmt, table in tables:
            lp = mapping_cone_presentation(table, spec)
            checked += 1
            where = f"{label} at {fmt}"
            diags = validate_presentation(lp.presentation)
            if diags:
                failures.append(f"{where}: invalid output table: {diags[0]}")
                continue
            expected_fmt = rule.out_format(fmt)
            if lp.presentation.fmt != expected_fmt:
                failures.append(f"{where}: output format {lp.presentation.fmt} != {expected_fmt}")
                continue
            expected = rule.out_class(label)
            if rule.witness == "H-v":
                failures.extend(f"{where}: {p}" for p in _check_linkH_v(lp, label, fmt, expected))
                note = "determinate products, X/Y slots, and H(0,p) class checked"
                continue
            rep = classify(lp.presentation)
            if rep.label != expected:
                failures.append(f"{where}: classified {rep.label}, expected {expected}")
        results.append(
            ScenarioResult(scenario=rule.rule_id, checked=checked, failures=tuple(failures), note=note)
        )
    return TheoremReport(results=tuple(results))
