"""Derivation planning: axiom families, certificate search, verification.

A *base family* is a published collection of perfect ideals with known class
and format — the axioms of the system.  A *derivation certificate* chains an
axiom instance through linkage-rule transitions to a target ``(class,
format)`` state; because every rule's class claim is verifiable from
structure constants, a certificate is a complete, replayable existence proof
for the target.

:func:`realize` searches for a shortest certificate breadth-first inside a
bounded state space: formats are capped at ``max(target) + 6`` (further
capped by the ``GRADE3_MAX_SEARCH`` environment variable, default 64), every
intermediate state must not be NOT_PERMISSIBLE, and both the axiom seeding
order and the rule expansion order are fixed, so the certificate returned
for a target is identical across runs and call orders.

Every bound's search walks one successor graph shared by the whole process.
Its states are interned to integer ids, and each state's rule outputs are
computed once, in ``RULE_ORDER``, the first time any search expands it.
A rule is tried only on states whose class tag it declares as an input.
Each bound's search drops the outputs beyond its own bound and the ones it
has already discovered, and checks permissibility once per newly discovered
state.  Sharing does not change certificates: a state's outputs do not
depend on the bound, and each bound expands its states, and each
state's outputs, in one fixed order.  A target whose class no rule
outputs (C(3), G(r)) can only be an axiom, so unless it is an axiom instance
of its bound it is NOT_FOUND without a search.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .errors import DocumentError, Grade3Error, OutOfDomain, document_fields
from .labels import (
    CLASS_B,
    CLASS_T,
    ClassLabel,
    Format,
    OPAQUE,
    class_G,
    class_H,
    make_format,
    parse_format,
)
from .linkrules import (
    RULES,
    RULE_ORDER,
    STATE_TAGS,
    State,
    StateLabel,
    Transition,
    apply_rule,
    parse_state_label,
    state_tag,
    transition_from_document,
    transition_to_document,
)
from .permissible import PermissibilityVerdict, Status, boundary_classes, is_permissible

__all__ = [
    "BaseFamily",
    "BASE_FAMILIES",
    "Axiom",
    "DerivationCertificate",
    "RealizeStatus",
    "RealizationResult",
    "realize",
    "verify_certificate",
    "certificate_to_document",
    "certificate_from_document",
    "CoverageEntry",
    "CoverageReport",
    "realize_all",
    "family_assignment",
    "FAMILY_ASSIGNMENT_IDS",
    "DEFAULT_MAX_SEARCH",
    "SEARCH_ENV_VAR",
    "CERTIFICATE_VERSION",
]

DEFAULT_MAX_SEARCH = 64
SEARCH_ENV_VAR = "GRADE3_MAX_SEARCH"
CERTIFICATE_VERSION = 1

_CITE_GOR = "Buchsbaum-Eisenbud 1977; Avramov 2012"
_CITE_HS = "Avramov 2012"
_CITE_ACI = "Avramov 1981; Avramov 2012"
_CITE_T2 = "Brown 1984"
_CITE_EXT = "Christensen-Veliche 2014; Vandebogert 2020"


@dataclass(frozen=True)
class BaseFamily:
    """A published family of realized (class, format) instances.

    The members are ``member(k)`` for ``k = start, start + step, ...``
    (only ``member(start)`` when ``step`` is 0), where ``k`` is the format
    coordinate named by ``axis``, ``"m"`` or ``"n"``.
    """

    family_id: str
    description: str
    cite: str
    member: Callable[[int], State]
    start: int
    step: int
    axis: str

    def _parameters(self, stop: int) -> range:
        """The member parameters ``k <= stop``."""
        if self.step:
            return range(self.start, stop + 1, self.step)
        return range(self.start, min(self.start, stop) + 1)

    def instances(self, bound: int) -> Iterator[State]:
        """The members whose format coordinates are both at most ``bound``."""
        for k in self._parameters(bound):
            state = self.member(k)
            if max(state[1].m, state[1].n) <= bound:
                yield state

    def contains(self, label: StateLabel, fmt: Format) -> bool:
        """Whether ``(label, fmt)`` is a member; constant time in the format."""
        k = fmt.m if self.axis == "m" else fmt.n
        return k in self._parameters(k) and self.member(k) == (label, fmt)


BASE_FAMILIES: tuple[BaseFamily, ...] = (
    BaseFamily(
        "GOR",
        "Gorenstein ideals: class G(m) in format (m,1) for odd m >= 5",
        _CITE_GOR,
        lambda m: (class_G(m), make_format(m, 1)),
        5, 2, "m",
    ),
    BaseFamily(
        "HS",
        "hypersurface sections: class H(m-1,m-2) in format (m,m-2) for m >= 4",
        _CITE_HS,
        lambda m: (class_H(m - 1, m - 2), make_format(m, m - 2)),
        4, 1, "m",
    ),
    BaseFamily(
        "ACI-a",
        "almost complete intersection H(3,2) in format (4,2)",
        _CITE_ACI,
        lambda m: (class_H(3, 2), make_format(m, 2)),
        4, 0, "m",
    ),
    BaseFamily(
        "ACI-b",
        "almost complete intersections H(3,0) in formats (4,n) for even n >= 4",
        _CITE_ACI,
        lambda n: (class_H(3, 0), make_format(4, n)),
        4, 2, "n",
    ),
    BaseFamily(
        "ACI-c",
        "almost complete intersections of class T in formats (4,n) for odd n >= 3",
        _CITE_ACI,
        lambda n: (CLASS_T, make_format(4, n)),
        3, 2, "n",
    ),
    BaseFamily(
        "T2-d",
        "two-type ideals H(1,2) in formats (m,2) for even m >= 6",
        _CITE_T2,
        lambda m: (class_H(1, 2), make_format(m, 2)),
        6, 2, "m",
    ),
    BaseFamily(
        "T2-e",
        "two-type ideals of class B in formats (m,2) for odd m >= 5",
        _CITE_T2,
        lambda m: (CLASS_B, make_format(m, 2)),
        5, 2, "m",
    ),
    BaseFamily(
        "EXT-m3",
        "perfect ideals with n = 3 and m >= 6 of unrecorded class",
        _CITE_EXT,
        lambda m: (OPAQUE, make_format(m, 3)),
        6, 1, "m",
    ),
)

_FAMILY_BY_ID = {fam.family_id: fam for fam in BASE_FAMILIES}

# Seeding order: fixed-instance families take precedence over the parametric
# family that contains one of their points (ACI-a before HS at (4,2)), so
# certificates cite the sharpest family.  The order is fixed — it is part of
# the determinism contract.
_SEED_ORDER = tuple(
    _FAMILY_BY_ID[fid] for fid in ("GOR", "ACI-a", "ACI-b", "ACI-c", "T2-d", "T2-e", "HS", "EXT-m3")
)


# Rule indices (into RULE_ORDER) whose declared input tags admit each state tag.
_RULES_BY_TAG: dict[str, tuple[int, ...]] = {
    tag: tuple(i for i, rule_id in enumerate(RULE_ORDER) if tag in RULES[rule_id].in_tags)
    for tag in STATE_TAGS
}
# Tags of the classes some rule outputs; other classes occur only as axioms.
_OUTPUT_TAGS = frozenset(rule.out_tag for rule in RULES.values())


class _Graph:
    """Interned states and their rule outputs, shared by every search bound.

    States are numbered in order of first sight, and equal labels and
    formats share one object.  A state's outputs do not depend on the
    bound, so they are computed once per process, in ``RULE_ORDER``: the
    output ids in ``edges[sid]`` and the rules that produce them, by index
    into ``RULE_ORDER``, in ``edge_rules[sid]``.  ``reach[sid]`` is the
    larger coordinate of the state's format, which each bound's search
    compares with its own bound.  Whether a state is NOT_PERMISSIBLE is
    looked up once, when a search first discovers it within its bound.
    """

    def __init__(self) -> None:
        self.states: list[State] = []
        self.ids: dict[State, int] = {}
        self.parts: dict[StateLabel | Format, StateLabel | Format] = {}
        self.reach: list[int] = []
        self.edges: list[tuple[int, ...] | None] = []
        self.edge_rules: list[bytes | None] = []
        self.allowed: list[bool | None] = []

    def intern(self, state: State) -> int:
        sid = self.ids.get(state)
        if sid is None:
            sid = len(self.states)
            label, fmt = state
            state = (self.parts.setdefault(label, label), self.parts.setdefault(fmt, fmt))
            self.ids[state] = sid
            self.states.append(state)
            self.reach.append(max(fmt.m, fmt.n))
            self.edges.append(None)
            self.edge_rules.append(None)
            self.allowed.append(None)
        return sid

    def successors(self, sid: int) -> tuple[int, ...]:
        edges = self.edges[sid]
        if edges is None:
            edges = self._expand(sid)
        return edges

    def _expand(self, sid: int) -> tuple[int, ...]:
        label, fmt = self.states[sid]
        out_ids: list[int] = []
        rule_indices: list[int] = []
        for rule_index in _RULES_BY_TAG[state_tag(label)]:
            # Looked up per call, not captured at import: RULES entries may be replaced.
            rule = RULES[RULE_ORDER[rule_index]]
            if rule.check(label, fmt) is not None:
                continue
            try:
                out_fmt = rule.out_format(fmt)
            except Grade3Error:
                continue
            out_ids.append(self.intern((rule.out_class(label), out_fmt)))
            rule_indices.append(rule_index)
        edges = self.edges[sid] = tuple(out_ids)
        self.edge_rules[sid] = bytes(rule_indices)
        return edges

    def rule_between(self, sid: int, out_id: int) -> str:
        """The first rule, in RULE_ORDER, that takes state ``sid`` to ``out_id``."""
        return RULE_ORDER[self.edge_rules[sid][self.successors(sid).index(out_id)]]

    def is_allowed(self, sid: int) -> bool:
        allowed = self.allowed[sid]
        if allowed is None:
            label, fmt = self.states[sid]
            allowed = is_permissible(label, fmt).status is not Status.NOT_PERMISSIBLE
            self.allowed[sid] = allowed
        return allowed


_GRAPH = _Graph()


class _Search:
    """Resumable breadth-first search over the shared graph, within one bound.

    ``parent`` maps each discovered state id to the id of the state it was
    first reached from (None for axioms), by the first rule in RULE_ORDER
    that reaches it.  The expansion sequence for a given bound is a pure
    function of the bound, so resuming a search later (for a different
    target) assigns the same parents as a fresh exhaustive run would.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.parent: dict[int, int | None] = {}
        self.axiom_family: dict[int, str] = {}
        self.queue: deque[int] = deque()
        for family in _SEED_ORDER:
            for state in family.instances(bound):
                sid = _GRAPH.intern(state)
                if sid not in self.parent:
                    self.parent[sid] = None
                    self.axiom_family[sid] = family.family_id
                    self.queue.append(sid)

    def find(self, target: int) -> bool:
        parent, queue, bound, graph = self.parent, self.queue, self.bound, _GRAPH
        reach = graph.reach
        if target in parent:
            return True
        while queue:
            sid = queue.popleft()
            for out_id in graph.successors(sid):
                if reach[out_id] <= bound and out_id not in parent and graph.is_allowed(out_id):
                    parent[out_id] = sid
                    queue.append(out_id)
            if target in parent:
                return True
        return False


def _is_axiom(state: State, bound: int) -> bool:
    label, fmt = state
    return max(fmt.m, fmt.n) <= bound and any(family.contains(label, fmt) for family in _SEED_ORDER)


_SEARCHES: dict[int, _Search] = {}


def _search_for(bound: int) -> _Search:
    search = _SEARCHES.get(bound)
    if search is None:
        search = _Search(bound)
        _SEARCHES[bound] = search
    return search


def _max_search() -> int:
    raw = os.environ.get(SEARCH_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_SEARCH
    try:
        value = int(raw)
    except ValueError as exc:
        raise OutOfDomain(f"{SEARCH_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise OutOfDomain(f"{SEARCH_ENV_VAR} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class Axiom:
    """The starting instance of a certificate."""

    family: str
    label: StateLabel
    fmt: Format
    cite: str


@dataclass(frozen=True)
class DerivationCertificate:
    """A replayable existence proof: axiom instance, rule steps, target."""

    axiom: Axiom
    steps: tuple[Transition, ...]
    target: State


class RealizeStatus(str, Enum):
    REALIZED = "realized"
    NOT_PERMISSIBLE = "not-permissible"
    NOT_FOUND = "not-found"


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of :func:`realize` — a sum of certificate / verdict / reason."""

    status: RealizeStatus
    certificate: DerivationCertificate | None = None
    verdict: PermissibilityVerdict | None = None
    detail: str = ""


def _not_found_detail(label: ClassLabel) -> str:
    if label.tag == "C3":
        return (
            "class C(3) is the complete intersection; it forms its own linkage class "
            "and no rulebook row produces it (Weyman 1989; Avramov-Kustin-Miller 1988)"
        )
    if label.tag == "G":
        return (
            "class G(r) outside Gorenstein formats (r,1) has no known construction "
            "(Christensen-Veliche-Weyman 2020)"
        )
    return "no derivation reaches this target from the axiom registry within the search bound"


def _certificate_from(search: _Search, target: int) -> DerivationCertificate:
    steps_reversed: list[Transition] = []
    cursor = target
    while (prev := search.parent[cursor]) is not None:
        label, fmt = _GRAPH.states[prev]
        steps_reversed.append(apply_rule(_GRAPH.rule_between(prev, cursor), label, fmt))
        cursor = prev
    family = _FAMILY_BY_ID[search.axiom_family[cursor]]
    label, fmt = _GRAPH.states[cursor]
    axiom = Axiom(family.family_id, label, fmt, family.cite)
    return DerivationCertificate(
        axiom=axiom, steps=tuple(reversed(steps_reversed)), target=_GRAPH.states[target]
    )


def realize(
    label: ClassLabel, fmt: Format, *, max_coordinate: int | None = None
) -> RealizationResult:
    """Find a shortest derivation certificate for ``(label, fmt)``.

    Returns a NOT_PERMISSIBLE result (with the verdict) when the target is
    excluded, a certificate when one exists within the bounded search space,
    and NOT_FOUND (with an explanatory citation) otherwise — e.g. for C(3),
    for class G outside Gorenstein formats, or for interior H cells whose
    existence is open.
    """
    verdict = is_permissible(label, fmt)
    if verdict.status is Status.NOT_PERMISSIBLE:
        return RealizationResult(
            RealizeStatus.NOT_PERMISSIBLE,
            verdict=verdict,
            detail="; ".join(v.detail for v in verdict.violations),
        )
    cap = max_coordinate if max_coordinate is not None else _max_search()
    bound = min(max(fmt.m, fmt.n) + 6, cap)
    if fmt.m > bound or fmt.n > bound:
        return RealizationResult(
            RealizeStatus.NOT_FOUND,
            detail=f"target format {fmt} exceeds the search cap {cap} ({SEARCH_ENV_VAR})",
        )
    state: State = (label, fmt)
    if label.tag not in _OUTPUT_TAGS and not _is_axiom(state, bound):
        # Only an axiom can be a state of a class that no rule outputs.
        return RealizationResult(RealizeStatus.NOT_FOUND, detail=_not_found_detail(label))
    search = _search_for(bound)
    target = _GRAPH.intern(state)
    if not search.find(target):
        return RealizationResult(RealizeStatus.NOT_FOUND, detail=_not_found_detail(label))
    return RealizationResult(RealizeStatus.REALIZED, certificate=_certificate_from(search, target))


def verify_certificate(cert: DerivationCertificate) -> bool:
    """Strictly replay a certificate; True only if every step checks out.

    Checks that the axiom instance belongs to its claimed family and cites
    it, that each recorded step equals the replay of its rule on the
    previous state (input, output and citation), that no intermediate
    state is NOT_PERMISSIBLE, and that the final state equals the target.
    """
    family = _FAMILY_BY_ID.get(cert.axiom.family)
    if (
        family is None
        or cert.axiom.cite != family.cite
        or not family.contains(cert.axiom.label, cert.axiom.fmt)
    ):
        return False
    state: State = (cert.axiom.label, cert.axiom.fmt)
    if isinstance(state[0], ClassLabel):
        if is_permissible(state[0], state[1]).status is Status.NOT_PERMISSIBLE:
            return False
    for step in cert.steps:
        try:
            replay = apply_rule(step.rule, state[0], state[1])
        except Grade3Error:
            return False
        if replay != step:
            return False
        state = replay.output_state
        if isinstance(state[0], ClassLabel):
            if is_permissible(state[0], state[1]).status is Status.NOT_PERMISSIBLE:
                return False
    return state == cert.target


def certificate_to_document(cert: DerivationCertificate) -> dict:
    """Versioned JSON document form of a certificate."""
    return {
        "version": CERTIFICATE_VERSION,
        "axiom": {
            "family": cert.axiom.family,
            "class": str(cert.axiom.label),
            "format": str(cert.axiom.fmt),
            "cite": cert.axiom.cite,
        },
        "steps": [transition_to_document(step) for step in cert.steps],
        "target": {"class": str(cert.target[0]), "format": str(cert.target[1])},
    }


def certificate_from_document(doc: object) -> DerivationCertificate:
    """Parse the document form; rejects anything outside the schema."""
    version, axiom_doc, steps, target_doc = document_fields(
        doc, "certificate", (("version", int), ("axiom", dict), ("steps", list), ("target", dict))
    )
    if version != CERTIFICATE_VERSION:
        raise DocumentError(f"unsupported certificate version {version!r}")
    family, label, fmt, cite = document_fields(
        axiom_doc, "certificate axiom", (("family", str), ("class", str), ("format", str), ("cite", str))
    )
    axiom = Axiom(family, parse_state_label(label), parse_format(fmt), cite)
    label, fmt = document_fields(target_doc, "certificate target", (("class", str), ("format", str)))
    return DerivationCertificate(
        axiom=axiom,
        steps=tuple(transition_from_document(step) for step in steps),
        target=(parse_state_label(label), parse_format(fmt)),
    )


@dataclass(frozen=True)
class CoverageEntry:
    """One realization attempt in a coverage sweep."""

    kind: str
    label: ClassLabel
    fmt: Format
    status: RealizeStatus
    verified: bool

    @property
    def covered(self) -> bool:
        return self.status is RealizeStatus.REALIZED and self.verified


@dataclass(frozen=True)
class CoverageReport:
    """Result of sweeping realize over every provably-permissible target."""

    m_max: int
    n_max: int
    entries: tuple[CoverageEntry, ...]

    @property
    def gaps(self) -> tuple[CoverageEntry, ...]:
        return tuple(e for e in self.entries if not e.covered)

    def entries_of_kind(self, kind: str) -> tuple[CoverageEntry, ...]:
        return tuple(e for e in self.entries if e.kind == kind)


def realize_all(m_max: int, n_max: int) -> CoverageReport:
    """Realize every permissible T and B format and every boundary H label.

    Sweeps ``m <= m_max``, ``n <= n_max``, calls :func:`realize` on each
    target, replays each certificate with :func:`verify_certificate`, and
    reports per-target outcomes; ``gaps`` lists targets without a verified
    certificate.
    """
    if m_max < 4 or n_max < 2:
        raise OutOfDomain(f"coverage sweep needs m_max >= 4 and n_max >= 2, got ({m_max}, {n_max})")
    entries: list[CoverageEntry] = []

    def attempt(kind: str, label: ClassLabel, fmt: Format) -> None:
        result = realize(label, fmt)
        verified = result.status is RealizeStatus.REALIZED and verify_certificate(
            result.certificate
        )
        entries.append(CoverageEntry(kind, label, fmt, result.status, verified))

    for m in range(4, m_max + 1):
        for n in range(3, n_max + 1):
            fmt = make_format(m, n)
            if is_permissible(CLASS_T, fmt).status is Status.PERMISSIBLE:
                attempt("T", CLASS_T, fmt)
    for m in range(5, m_max + 1):
        for n in range(2, n_max + 1):
            fmt = make_format(m, n)
            if is_permissible(CLASS_B, fmt).status is Status.PERMISSIBLE:
                attempt("B", CLASS_B, fmt)
    for m in range(4, m_max + 1):
        for n in range(2, n_max + 1):
            fmt = make_format(m, n)
            for label in sorted(boundary_classes(fmt)):
                attempt("H-boundary", label, fmt)
    return CoverageReport(m_max=m_max, n_max=n_max, entries=tuple(entries))


FAMILY_ASSIGNMENT_IDS = (
    "column-m2",
    "column-m0",
    "column-m1",
    "row-n2",
    "row-n0",
    "row-n1",
    "hs-diagonal",
)


def family_assignment(fmt: Format) -> str:
    """Which construction family covers a T-permissible format.

    The chart of class-T formats with ``m >= 5``, ``n >= 4`` is covered by
    three vertical strips (fixed m mod 3, wide n), three horizontal strips
    (fixed n mod 3, wide m), and a diagonal band settled by hypersurface
    sections; the strips are tried in a fixed precedence order.
    """
    if fmt.m < 5 or fmt.n < 4 or is_permissible(CLASS_T, fmt).status is not Status.PERMISSIBLE:
        raise OutOfDomain(
            f"family assignment covers T-permissible formats with m >= 5 and n >= 4; got {fmt}"
        )
    m, n = fmt.m, fmt.n
    if m % 3 == 2 and n >= m:
        return "column-m2"
    if m % 3 == 0 and n >= m:
        return "column-m0"
    if m % 3 == 1 and n >= m - 1:
        return "column-m1"
    if n % 3 == 2 and m >= n + 3:
        return "row-n2"
    if n % 3 == 0 and m >= n + 3:
        return "row-n0"
    if n % 3 == 1 and m >= n + 2:
        return "row-n1"
    return "hs-diagonal"
