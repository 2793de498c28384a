"""Derivation planning: axiom families, certificate search, verification.

A *base family* is a published collection of perfect ideals with known class
and format — the axioms of the system.  A *derivation certificate* chains an
axiom instance through linkage-rule transitions to a target ``(class,
format)`` state; because every rule's class claim is verifiable from
structure constants, a certificate is a complete, replayable existence proof
for the target.

:func:`realize` finds a shortest certificate inside a bounded state space:
formats are capped at ``max(target) + 6`` (further capped by its
``max_coordinate`` argument, default 64), every intermediate state must not
be NOT_PERMISSIBLE, and both the axiom seeding order and the rule expansion
order are fixed.  The certificate is the shortest one that comes first in
that order, so it is identical across runs and call orders, whichever of
the two searches below found it.

A sweep (:func:`realize_all`) builds one forward breadth-first search from
the axioms per bound, :class:`_Search`, and answers each of its targets from
it; every bound's search walks one successor graph shared by the whole
process, :class:`_Graph`, into which no NOT_PERMISSIBLE rule output enters.
Sharing does not change certificates: a state's outputs and exclusion do
not depend on the bound, and each bound expands its states, and each
state's outputs, in one fixed order.  Each bound's search builds its
certificates' steps from the same step table and keeps them, so a shared
prefix is built once.  A lone target, whose bound no search of the process
covers or whose class no rule outputs (C(3), G(r)), is searched from both
ends instead (:func:`_meet_in_the_middle`): backward from the target by the
step table read in reverse, forward from the axioms over the shared graph,
a level at a time.  No step reads backwards into C(3) or G(r), so their
search ends after one backward step unless the target is an axiom, where a
held search would run to exhaustion.  Both searches end in a forward search
whose parent map reaches the target, and every certificate is read off it.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .errors import DocumentError, Grade3Error, OutOfDomain, _decimal, _document_fields, _require, _require_ints
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
    State,
    Transition,
    _STEPS,
    _StateKey,
    _outputs,
    _state_key,
    _state_of,
    _transition,
    apply_rule,
    parse_state_label,
    transition_from_document,
    transition_to_document,
)
from .permissible import (
    CITE_AV12,
    CITE_B84,
    CITE_BE77,
    CITE_CVW20,
    CITE_W89,
    PermissibilityVerdict,
    Status,
    _excluded,
    boundary_classes,
    is_permissible,
)

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
    "CERTIFICATE_VERSION",
]

DEFAULT_MAX_SEARCH = 64
CERTIFICATE_VERSION = 1

_CITE_ACI = f"Avramov 1981; {CITE_AV12}"
_CITE_EXT = "Christensen-Veliche 2014; Vandebogert 2020"


class BaseFamily(NamedTuple):
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

    def contains(self, label: ClassLabel, fmt: Format) -> bool:
        """Whether ``(label, fmt)`` is a member; constant time in the format."""
        k = fmt.m if self.axis == "m" else fmt.n
        return k in self._parameters(k) and self.member(k) == (label, fmt)


BASE_FAMILIES: tuple[BaseFamily, ...] = (
    BaseFamily(
        "GOR",
        "Gorenstein ideals: class G(m) in format (m,1) for odd m >= 5",
        f"{CITE_BE77}; {CITE_AV12}",
        lambda m: (class_G(m), make_format(m, 1)),
        5, 2, "m",
    ),
    BaseFamily(
        "HS",
        "hypersurface sections: class H(m-1,m-2) in format (m,m-2) for m >= 4",
        CITE_AV12,
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
        CITE_B84,
        lambda m: (class_H(1, 2), make_format(m, 2)),
        6, 2, "m",
    ),
    BaseFamily(
        "T2-e",
        "two-type ideals of class B in formats (m,2) for odd m >= 5",
        CITE_B84,
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


# Tags of the classes some rule outputs; other classes occur only as axioms.
_OUTPUT_TAGS = frozenset(rule.out_tag for rule in RULES.values())


class _Graph:
    """Interned states and their rule outputs, shared by every search bound.

    A state is its integer key ``(tag, a, b, m, n)`` (see
    :func:`grade3.linkrules._state_key`), numbered in order of first sight;
    labels and formats are built only for the states of a certificate.  A
    state's outputs do not depend on the bound, so they are computed once
    per process, in ``RULE_ORDER``, by ``linkrules._outputs`` on the run of
    ``linkrules._STEPS`` for the state's tag: ``edges[sid]`` holds their ids,
    and is None until some search expands the state.  ``expand`` tests an
    output with the yes/no :func:`grade3.permissible._excluded`, which builds
    no verdict, when it first meets it, and never interns a refused one (it
    asks again if it meets one again; the (20,20) sweep meets none).  Axioms
    and targets are interned untested: no axiom within the default cap is
    NOT_PERMISSIBLE, and :func:`realize` refuses such a target first.  The
    rule of an edge is not kept; ``linkrules._transition`` finds it again,
    from the same steps, for the few edges a certificate takes.
    ``reach[sid]`` is the larger coordinate of the state's format, which
    each bound's search compares with its own bound.
    """

    def __init__(self) -> None:
        self.keys: list[_StateKey] = []
        self.ids: dict[_StateKey, int] = {}
        self.reach: list[int] = []
        self.edges: list[tuple[int, ...] | None] = []

    def intern(self, key: _StateKey) -> int:
        sid = self.ids.setdefault(key, len(self.keys))
        if sid == len(self.keys):
            self.keys.append(key)
            self.reach.append(max(key[3], key[4]))
            self.edges.append(None)
        return sid

    def expand(self, sid: int) -> tuple[int, ...]:
        """The ids of the state's outputs that are not NOT_PERMISSIBLE, in RULE_ORDER."""
        ids, intern = self.ids, self.intern
        tag, a, b, m, n = self.keys[sid]
        out_ids: list[int] = []
        for key in _outputs(_STEPS[tag], a, b, m, n):
            out_id = ids.get(key)
            if out_id is None:
                if _excluded(*key):
                    continue
                out_id = intern(key)
            out_ids.append(out_id)
        edges = self.edges[sid] = tuple(out_ids)
        return edges


_GRAPH = _Graph()


class _Search:
    """Resumable breadth-first search over the shared graph, within one bound.

    ``parent`` maps each discovered state id to the id of the state it was
    first reached from, by the first rule in RULE_ORDER that reaches it, and
    each axiom to the id of the family that seeded it.  The expansion
    sequence for a given bound is a pure function of the bound, so resuming
    a search later (for a different target) assigns the same parents as a
    fresh exhaustive run would.  ``steps`` maps each state a certificate
    has passed through to the transition into it from its parent, so the
    certificates of one bound build each shared prefix once.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.parent: dict[int, int | str] = {}
        self.steps: dict[int, Transition] = {}
        self.queue: deque[int] = deque()
        for family in _SEED_ORDER:
            for state in family.instances(bound):
                sid = _GRAPH.intern(_state_key(*state))
                if sid not in self.parent:
                    self.parent[sid] = family.family_id
                    self.queue.append(sid)

    def find(self, target: int, states: int = -1) -> bool:
        """Expand queued states, in order, until ``target`` is discovered, the
        queue is empty, or ``states`` states are expanded (any number when negative)."""
        parent, queue, bound, graph = self.parent, self.queue, self.bound, _GRAPH
        reach, edges = graph.reach, graph.edges
        while states and target not in parent and queue:
            states -= 1
            sid = queue.popleft()
            out_ids = edges[sid]
            if out_ids is None:
                out_ids = graph.expand(sid)
            for out_id in out_ids:
                if reach[out_id] <= bound and out_id not in parent:
                    parent[out_id] = sid
                    queue.append(out_id)
        return target in parent


# The step table read backwards: per output tag, each (input tag, step) whose step outputs it.
_STEPS_INTO: dict[str, tuple[tuple[str, tuple], ...]] = {
    tag: tuple((in_tag, step) for in_tag, steps in sorted(_STEPS.items()) for step in steps if step[5] == tag)
    for tag in _OUTPUT_TAGS
}


def _inputs(key: _StateKey, bound: int, axioms: dict[tuple[str, int, int], list[_StateKey]]) -> Iterator[_StateKey]:
    """The states within ``bound`` that have an edge of the graph into ``key``.

    A step sends ``(a, b)`` at ``(m, n)`` to ``(n+3-t2, m-t1)``, so its input
    format is ``(n'+t1, m'-3+t2)``; an output slot copied from an input slot
    gives that slot back, and a constant one must equal the output's and
    leaves the input slot free.  A free slot of T or B is 0, and of H ranges
    over ``p <= min(m-1, n+1)`` and ``q <= min(m-2, n)``: every other H(p,q)
    at ``(m, n)`` breaks ``H-m-below-p-or-q`` or ``H-n-below-p-or-q`` and is
    no state of the graph.  A state of a tag no rule outputs is in the graph
    only as an axiom, so such inputs are the bound's axiom instances,
    ``axioms`` by ``(tag, m, n)``.  Every other candidate must not be
    :func:`_excluded` (no axiom is, so testing one, which the forward search
    never does, changes nothing), and its step's forward evaluation must give
    ``key``.
    """
    tag, a, b, m, n = key
    for in_tag, step in _STEPS_INTO.get(tag, ()):
        _, _, t1, t2, _, _, ia, ka, ib, kb = step
        in_m, in_n = n + t1, m - 3 + t2
        if not (1 <= in_m <= bound and 1 <= in_n <= bound):
            continue
        run = (step,)
        if in_tag not in _OUTPUT_TAGS:
            for cand in axioms.get((in_tag, in_m, in_n), ()):
                if _outputs(run, *cand[1:]) == [key]:
                    yield cand
            continue
        if in_tag == "H":
            slots = [range(min(in_m, in_n + 2)), range(min(in_m - 1, in_n + 1))]
        else:
            slots = [range(1), range(1)]
        for index, offset, value in ((ia, ka, a), (ib, kb, b)):
            if index < 2:
                slots[index] = [value - offset] if value - offset in slots[index] else []
            elif offset != value:
                slots = [(), ()]
        for p in slots[0]:
            for q in slots[1]:
                if _outputs(run, p, q, in_m, in_n) == [key] and not _excluded(in_tag, p, q, in_m, in_n):
                    yield (in_tag, p, q, in_m, in_n)


def _meet_in_the_middle(bound: int, target: int) -> _Search | None:
    """A :class:`_Search` ``(bound)`` whose ``parent`` reaches ``target`` as a full run's would, or None.

    The search runs from both ends.  The forward side is a :class:`_Search`
    not kept in ``_SEARCHES`` that expands its whole queue at a time, so that
    the queue is one level.  The backward side maps each state known to reach
    ``target`` to its distance from it, found by :func:`_inputs`.  Each round
    expands the side whose frontier is smaller.

    Why this is the forward search's parent chain.  ``_Search`` orders level 0
    by seeding and each later level by parent, then by output position in
    RULE_ORDER; so by induction a state's parent chain is its
    lexicographically least shortest path, read as (seed position, output
    position, ...), and a level is in the order of those paths.  While the
    two sides are disjoint at forward depth k and backward depth j, every
    path to the target is longer than k + j.  So when a new level of one
    side first meets the other side, the shortest length is D = k + j + 1,
    and with i the depth of the forward level F_i that meets (k + 1 or k),
    the states of F_i known to the backward side are exactly the states at
    position i of the shortest paths.  The least shortest path begins with
    the parent chain of its state at position i, since any other prefix can
    be swapped for that chain to give a lesser path, and so it passes
    through the met state of F_i that comes first.  From there it is least
    when each step takes the first output whose distance is one less, which
    always exists and still completes a shortest path.  Each state of that
    tail lies deeper than F_i, the forward side's last level, so none is in
    ``parent`` yet, and each is recorded there with its predecessor.
    """
    search = _Search(bound)
    keys, edges = _GRAPH.keys, _GRAPH.edges
    axioms: dict[tuple[str, int, int], list[_StateKey]] = {}
    for sid in search.queue:
        key = keys[sid]
        if key[0] not in _OUTPUT_TAGS:
            axioms.setdefault((key[0], key[3], key[4]), []).append(key)
    back = {keys[target]: 0}
    frontier = [keys[target]]
    depth = 0
    # A new level of either side can only meet the forward side's last level, its queue.
    while not any(keys[sid] in back for sid in search.queue):
        if not search.queue or not frontier:
            return None
        if len(search.queue) <= len(frontier):
            search.find(-1, len(search.queue))  # the next level; no state is -1
        else:
            depth += 1
            reached, frontier = frontier, []
            for key in reached:
                for in_key in _inputs(key, bound, axioms):
                    if in_key not in back:
                        back[in_key] = depth
                        frontier.append(in_key)
    sid = next(sid for sid in search.queue if keys[sid] in back)
    for distance in range(back[keys[sid]] - 1, -1, -1):
        out_ids = edges[sid] if edges[sid] is not None else _GRAPH.expand(sid)
        out_id = next(out_id for out_id in out_ids if back.get(keys[out_id]) == distance)
        search.parent.setdefault(out_id, sid)
        sid = out_id
    return search


# The forward searches of the sweeps, by bound, which realize answers from;
# perfbench/tracer.py counts them and the states in each one's ``parent``.
_SEARCHES: dict[int, _Search] = {}


def _search_bound(fmt: Format, max_coordinate: int = DEFAULT_MAX_SEARCH) -> int:
    """The largest format coordinate that a search for a target in ``fmt`` enters."""
    return min(max(fmt.m, fmt.n) + 6, max_coordinate)


def _search_for(bound: int) -> _Search:
    search = _SEARCHES.get(bound)
    if search is None:
        search = _Search(bound)
        _SEARCHES[bound] = search
    return search


class Axiom(NamedTuple):
    """The starting instance of a certificate."""

    family: str
    label: ClassLabel
    fmt: Format
    cite: str


class DerivationCertificate(NamedTuple):
    """A replayable existence proof: axiom instance, rule steps, target."""

    axiom: Axiom
    steps: tuple[Transition, ...]
    target: State


class RealizeStatus(str, Enum):
    REALIZED = "realized"
    NOT_PERMISSIBLE = "not-permissible"
    NOT_FOUND = "not-found"


class RealizationResult(NamedTuple):
    """Outcome of :func:`realize` — a sum of certificate / verdict / reason."""

    status: RealizeStatus
    certificate: DerivationCertificate | None = None
    verdict: PermissibilityVerdict | None = None
    detail: str = ""


def _not_found_detail(label: ClassLabel) -> str:
    if label.tag == "C3":
        return (
            "class C(3) is the complete intersection; it forms its own linkage class "
            f"and no rulebook row produces it ({CITE_W89})"
        )
    if label.tag == "G":
        return (
            "class G(r) outside Gorenstein formats (r,1) has no known construction "
            f"({CITE_CVW20})"
        )
    return "no derivation reaches this target from the axiom registry within the search bound"


def _certificate_from(search: _Search, target: int) -> DerivationCertificate:
    parent, memo, keys = search.parent, search.steps, _GRAPH.keys
    steps_reversed: list[Transition] = []
    cursor = target
    while isinstance(prev := parent[cursor], int):
        if cursor not in memo:
            memo[cursor] = _transition(keys[prev], keys[cursor])
        steps_reversed.append(memo[cursor])
        cursor = prev
    axiom = Axiom(prev, *_state_of(keys[cursor]), _FAMILY_BY_ID[prev].cite)
    return DerivationCertificate(axiom, tuple(reversed(steps_reversed)), _state_of(keys[target]))


def realize(
    label: ClassLabel, fmt: Format, *, max_coordinate: int = DEFAULT_MAX_SEARCH
) -> RealizationResult:
    """Find a shortest derivation certificate for ``(label, fmt)``.

    Returns a NOT_PERMISSIBLE result (with the verdict) when the target is
    excluded, a certificate when the search reaches the target from an axiom
    instance within the bounded search space, and NOT_FOUND otherwise, with
    a citation for C(3) and for class G outside Gorenstein formats.  A
    certificate may exist where the permissibility verdict is
    UNKNOWN_NECESSARY_ONLY, and NOT_FOUND says only that this search found
    none.  No searched format has a coordinate above ``max_coordinate``,
    which must be an integer of at least 1 (:class:`OutOfDomain` otherwise).
    A target whose bound a sweep of this process has searched forward is
    answered from that search, unless no rule outputs its class (C(3),
    G(r)); any other target is searched from both ends, backward from it and
    forward from the axioms, which for C(3) and G(r) finds only an axiom.
    The certificate does not depend on which search ran.
    """
    _require_ints(max_coordinate=max_coordinate)
    if max_coordinate < 1:
        raise OutOfDomain(f"max_coordinate must be >= 1, got {_decimal(max_coordinate)}")
    verdict = is_permissible(label, fmt)
    if verdict.status is Status.NOT_PERMISSIBLE:
        return RealizationResult(
            RealizeStatus.NOT_PERMISSIBLE,
            verdict=verdict,
            detail="; ".join(v.detail for v in verdict.violations),
        )
    bound = _search_bound(fmt, max_coordinate)
    if fmt.m > bound or fmt.n > bound:
        return RealizationResult(
            RealizeStatus.NOT_FOUND,
            detail=f"target format {fmt} exceeds the search cap {max_coordinate}",
        )
    target = _GRAPH.intern(_state_key(label, fmt))
    search = _SEARCHES.get(bound)
    if search is None or label.tag not in _OUTPUT_TAGS:
        search = _meet_in_the_middle(bound, target)
    elif not search.find(target):
        search = None
    if search is None:
        return RealizationResult(RealizeStatus.NOT_FOUND, detail=_not_found_detail(label))
    return RealizationResult(RealizeStatus.REALIZED, certificate=_certificate_from(search, target))


def verify_certificate(cert: DerivationCertificate) -> bool:
    """Strictly replay a certificate; True only if every step checks out.

    Checks that the axiom instance belongs to its claimed family and cites
    it, that each recorded step equals the replay of its rule on the
    previous state (input, output and citation) by :func:`apply_rule`, which
    reads the rule's own callables, not the step table the search used,
    that no state is NOT_PERMISSIBLE, and that the final state equals the
    target.  Anything the replay cannot read, such as a value that is not a
    certificate, a step that is not a :class:`Transition` or an axiom format
    that is not a :class:`Format`, is False as well, not an error.
    """
    try:
        family = _FAMILY_BY_ID.get(cert.axiom.family)
        states: list[State] = [(cert.axiom.label, cert.axiom.fmt)]
        if family is None or cert.axiom.cite != family.cite or not family.contains(*states[0]):
            return False
        for step in cert.steps:
            replay = apply_rule(step.rule, *states[-1])
            if replay != step:
                return False
            states.append(replay.output_state)
        return states[-1] == cert.target and all(
            label == OPAQUE or is_permissible(label, fmt).status is not Status.NOT_PERMISSIBLE for label, fmt in states
        )
    except (Grade3Error, AttributeError, TypeError):
        return False


def certificate_to_document(cert: DerivationCertificate) -> dict:
    """Versioned JSON document form of a certificate; refuses a non-certificate."""
    _require(cert, DerivationCertificate, DocumentError)
    try:
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
    except (AttributeError, TypeError, LookupError) as exc:
        raise DocumentError._malformed(cert, exc) from None


def certificate_from_document(doc: object) -> DerivationCertificate:
    """Parse the document form; rejects anything outside the schema."""
    version, axiom_doc, steps, target_doc = _document_fields(
        doc, "certificate", (("version", int), ("axiom", dict), ("steps", list), ("target", dict))
    )
    if version != CERTIFICATE_VERSION:
        raise DocumentError(f"unsupported certificate version {version!r}")
    family, label, fmt, cite = _document_fields(
        axiom_doc, "certificate axiom", (("family", str), ("class", str), ("format", str), ("cite", str))
    )
    axiom = Axiom(family, parse_state_label(label), parse_format(fmt), cite)
    label, fmt = _document_fields(target_doc, "certificate target", (("class", str), ("format", str)))
    return DerivationCertificate(
        axiom=axiom,
        steps=tuple(transition_from_document(step) for step in steps),
        target=(parse_state_label(label), parse_format(fmt)),
    )


class CoverageEntry(NamedTuple):
    """One realization attempt in a coverage sweep."""

    kind: str
    label: ClassLabel
    fmt: Format
    status: RealizeStatus
    verified: bool

    @property
    def covered(self) -> bool:
        return self.status is RealizeStatus.REALIZED and self.verified


class CoverageReport(NamedTuple):
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

    Sweeps ``m <= m_max``, ``n <= n_max``, builds the forward search of
    each target's bound, calls :func:`realize` on each target, replays each
    certificate with :func:`verify_certificate`, and reports per-target
    outcomes; ``gaps`` lists targets without a verified certificate.  A
    bound past :data:`DEFAULT_MAX_SEARCH`, where
    :func:`realize` searches nothing, or one that is not an integer, raises
    :class:`OutOfDomain`.
    """
    _require_ints(m_max=m_max, n_max=n_max)
    if not (4 <= m_max <= DEFAULT_MAX_SEARCH and 2 <= n_max <= DEFAULT_MAX_SEARCH):
        raise OutOfDomain(
            f"coverage sweep needs 4 <= m_max <= {DEFAULT_MAX_SEARCH} and 2 <= n_max <= {DEFAULT_MAX_SEARCH}, "
            f"got ({_decimal(m_max)}, {_decimal(n_max)})"
        )
    entries: list[CoverageEntry] = []

    def attempt(kind: str, label: ClassLabel, fmt: Format) -> None:
        _search_for(_search_bound(fmt))
        result = realize(label, fmt)
        verified = result.status is RealizeStatus.REALIZED and verify_certificate(
            result.certificate
        )
        entries.append(CoverageEntry(kind, label, fmt, result.status, verified))

    # The verdicts, not the loop ranges, say where T and B start.
    formats = [make_format(m, n) for m in range(4, m_max + 1) for n in range(2, n_max + 1)]
    for kind, label in (("T", CLASS_T), ("B", CLASS_B)):
        for fmt in formats:
            if is_permissible(label, fmt).status is Status.PERMISSIBLE:
                attempt(kind, label, fmt)
    for fmt in formats:
        for label in sorted(boundary_classes(fmt)):
            attempt("H-boundary", label, fmt)
    return CoverageReport(m_max=m_max, n_max=n_max, entries=tuple(entries))


# The strips of the family chart, as (id, predicate on (m, n)), in precedence order.
_FAMILY_STRIPS: tuple[tuple[str, Callable[[int, int], bool]], ...] = (
    ("column-m2", lambda m, n: m % 3 == 2 and n >= m),
    ("column-m0", lambda m, n: m % 3 == 0 and n >= m),
    ("column-m1", lambda m, n: m % 3 == 1 and n >= m - 1),
    ("row-n2", lambda m, n: n % 3 == 2 and m >= n + 3),
    ("row-n0", lambda m, n: n % 3 == 0 and m >= n + 3),
    ("row-n1", lambda m, n: n % 3 == 1 and m >= n + 2),
)
FAMILY_ASSIGNMENT_IDS = (*(family_id for family_id, _ in _FAMILY_STRIPS), "hs-diagonal")


def family_assignment(fmt: Format) -> str:
    """Which construction family covers a T-permissible format.

    The chart of class-T formats with ``m >= 5``, ``n >= 4`` is covered by
    three vertical strips (fixed m mod 3, wide n), three horizontal strips
    (fixed n mod 3, wide m), and a diagonal band settled by hypersurface
    sections; the strips are tried in a fixed precedence order.
    """
    # is_permissible comes first: it refuses an argument that is not a Format.
    if is_permissible(CLASS_T, fmt).status is not Status.PERMISSIBLE or fmt.m < 5 or fmt.n < 4:
        raise OutOfDomain(
            f"family assignment covers T-permissible formats with m >= 5 and n >= 4; got {fmt}"
        )
    return next((family_id for family_id, holds in _FAMILY_STRIPS if holds(fmt.m, fmt.n)), "hs-diagonal")
