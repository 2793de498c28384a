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

A sweep (:func:`realize_all`) holds one forward breadth-first search from
the axioms per bound, :class:`_Search`, and answers its targets widest bound
first.  The widest search, resumed until it discovers the target or runs
out, answers every target it reaches along a parent chain within the
target's bound, and a target it cannot reach at all; a narrower search
leaves its seeds only for a target whose chain there leaves its bound
(:func:`_held_search`).  A search walks state keys: it runs the step table
on a state when it expands it, and records the outputs within its own bound
that it has not discovered and that are not NOT_PERMISSIBLE.  A state's
outputs and their exclusion do not depend on the bound, and each bound
expands its states, and each state's outputs, in one fixed order.  Each
search builds its certificates' steps from the same step table and keeps
them, so a shared prefix is built once.  A lone target, whose bound no
search of the process covers or whose class no rule outputs (C(3), G(r)),
is searched from both ends instead (:func:`_meet_in_the_middle`): backward
from the target by the step table read in reverse, forward from the axioms
a level at a time, in a search the process does not keep.  No step reads
backwards into C(3) or G(r), so their search ends after one backward step
unless the target is an axiom, where a held search would run to
exhaustion.  Both searches end in a forward search whose parent map reaches
the target, and every certificate is read off it.  While a sweep runs,
:func:`verify_certificate` keeps the replay of each step it has checked, so
a prefix that the sweep's certificates share is replayed once.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .errors import (
    DocumentError,
    Grade3Error,
    OutOfDomain,
    _decimal,
    _document_fields,
    _require,
    _require_ints,
    _shown,
)
from .labels import (
    CLASS_B,
    CLASS_T,
    ClassLabel,
    Format,
    OPAQUE,
    _require_types,
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
    _row_format,
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
    _permissible,
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

# Per tag, the least rise of a step's row: a step sends (m, n) to a format
# whose first coordinate is n plus the row's rise (the first coordinate it
# gives (0, 0)), so no output of a state with n + rise past a bound lies
# within it.  A tag with no step has rise 0.
_RISE: dict[str, int] = {
    tag: min((_row_format(step[2], step[3], 0, 0)[0] for step in steps), default=0)
    for tag, steps in _STEPS.items()
}


class _Search:
    """Resumable breadth-first search over state keys, within one bound.

    A state is its integer key ``(tag, a, b, m, n)`` (see
    :func:`grade3.linkrules._state_key`); labels and formats are built only
    for the states of a certificate.  ``parent`` maps each discovered state
    to the state it was first reached from, by the first rule in RULE_ORDER
    that reaches it, and each axiom to the id of the family that seeded it.
    Expanding a state computes its outputs, in RULE_ORDER, by
    ``linkrules._outputs`` on the run of ``linkrules._STEPS`` for its tag,
    and records each one that lies within the bound, is not yet discovered
    and is not :func:`grade3.permissible._excluded`, the yes/no test, which
    builds no verdict; an output past the bound is not tested.  Axioms are
    not tested: no axiom within the default cap is NOT_PERMISSIBLE.  The
    rule of an edge is not kept; ``linkrules._transition`` finds it again,
    from the same steps, for the few edges a certificate takes.  The
    expansion sequence for a given bound is a pure function of the bound, so
    resuming a search later (for a different target) assigns the same
    parents as a fresh exhaustive run would.  ``steps`` maps each state a
    certificate has passed through to the transition into it from its
    parent, so the certificates of one bound build each shared prefix once.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.parent: dict[_StateKey, _StateKey | str] = {}
        self.steps: dict[_StateKey, Transition] = {}
        self.queue: deque[_StateKey] = deque()
        for family in _SEED_ORDER:
            for state in family.instances(bound):
                key = _state_key(*state)
                if key not in self.parent:
                    self.parent[key] = family.family_id
                    self.queue.append(key)

    def find(self, target: _StateKey | None, states: int = -1) -> bool:
        """Expand queued states, in order, until ``target`` is discovered, the
        queue is empty, or ``states`` states are expanded (any number when negative).

        A state whose ``n`` plus its tag's least rise (``_RISE``) is past the
        bound has no output within it, and the step table is not run.
        """
        parent, queue, bound = self.parent, self.queue, self.bound
        while states and target not in parent and queue:
            states -= 1
            tag, a, b, m, n = key = queue.popleft()
            if n + _RISE[tag] > bound:
                continue
            for out in _outputs(_STEPS[tag], a, b, m, n):
                if out[3] <= bound and out[4] <= bound and out not in parent and not _excluded(*out):
                    parent[out] = key
                    queue.append(out)
        return target in parent


# The step table read backwards: per output tag, each (input tag, step) whose step outputs it.
_STEPS_INTO: dict[str, tuple[tuple[str, tuple], ...]] = {
    tag: tuple((in_tag, step) for in_tag, steps in sorted(_STEPS.items()) for step in steps if step[5] == tag)
    for tag in _OUTPUT_TAGS
}


def _inputs(key: _StateKey, bound: int, axioms: dict[tuple[str, int, int], list[_StateKey]]) -> Iterator[_StateKey]:
    """The states within ``bound`` that a search of that bound takes to ``key`` in one step.

    A step sends ``(a, b)`` at ``(m, n)`` to ``(n+3-t2, m-t1)``, so its input
    format is ``(n'+t1, m'-3+t2)``; an output slot copied from an input slot
    gives that slot back, and a constant one must equal the output's and
    leaves the input slot free.  A free slot of T or B is 0, and of H ranges
    over ``p <= min(m-1, n+1)`` and ``q <= min(m-2, n)``: every other H(p,q)
    at ``(m, n)`` breaks ``H-m-below-p-or-q`` or ``H-n-below-p-or-q`` and is
    no state a search records.  A search meets a state of a tag no rule
    outputs only as an axiom, so such inputs are the bound's axiom instances,
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


def _meet_in_the_middle(bound: int, target: _StateKey) -> _Search | None:
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
    ``parent`` yet, and each is recorded there with its predecessor.  A state
    the backward side knows lies within the bound and is not
    NOT_PERMISSIBLE, so the tail reads the met state's outputs off the step
    table whole: the first at the right distance is one the search records.
    """
    search = _Search(bound)
    axioms: dict[tuple[str, int, int], list[_StateKey]] = {}
    for key in search.queue:
        if key[0] not in _OUTPUT_TAGS:
            axioms.setdefault((key[0], key[3], key[4]), []).append(key)
    back = {target: 0}
    frontier = [target]
    depth = 0
    # A new level of either side can only meet the forward side's last level, its queue.
    while not any(key in back for key in search.queue):
        if not search.queue or not frontier:
            return None
        if len(search.queue) <= len(frontier):
            search.find(None, len(search.queue))  # the next level; no state is None
        else:
            depth += 1
            reached, frontier = frontier, []
            for key in reached:
                for in_key in _inputs(key, bound, axioms):
                    if in_key not in back:
                        back[in_key] = depth
                        frontier.append(in_key)
    key = next(key for key in search.queue if key in back)
    for distance in range(back[key] - 1, -1, -1):
        out = next(out for out in _outputs(_STEPS[key[0]], *key[1:]) if back.get(out) == distance)
        search.parent.setdefault(out, key)
        key = out
    return search


# The forward searches of the sweeps, by bound; realize answers from the
# widest one, else from the target's own (see _held_search).
# perfbench/tracer.py counts them and the states in each one's ``parent``.
_SEARCHES: dict[int, _Search] = {}


def _held_search(bound: int, target: _StateKey) -> _Search | None:
    """A search whose ``parent`` reaches ``target`` as a full run of ``_Search(bound)``'s would, or None.

    The widest held search, of bound B >= ``bound``, is resumed until it
    has discovered ``target`` or its queue is empty.  It gives None when it
    has not discovered it, and answers when its parent chain to ``target``
    lies within ``bound``; else the bound's own held search is resumed, or
    the search runs from both ends.

    Why the widest search's chain is the bound's.  The graph G_b a search of
    bound b walks has the states of reach <= b that are not NOT_PERMISSIBLE,
    and an edge from each to each of its outputs among them, in RULE_ORDER.
    A state's outputs and their exclusion do not depend on the bound, so G_b
    is the part of G_B with reach <= b, and its edges keep their order.  The
    bound-b seeds are the bound-B seeds of reach <= b, in the same order and
    with the same family.
    A parent chain is the least shortest path (see
    :func:`_meet_in_the_middle`), so a least shortest path of G_B that lies
    inside G_b is also G_b's, and so is each of its prefixes: the
    certificate is byte-identical.  A target that G_B does not reach, G_b
    does not reach either.  For B < b the inclusion runs the other way.
    """
    widest = _SEARCHES[max(_SEARCHES)] if _SEARCHES else None
    if widest is not None and widest.bound >= bound:
        if not widest.find(target):
            return None
        parent, key = widest.parent, target
        while isinstance(key, tuple) and max(key[3], key[4]) <= bound:
            key = parent[key]
        if isinstance(key, str):
            return widest
    search = _SEARCHES.get(bound)
    if search is None:
        return _meet_in_the_middle(bound, target)
    return search if search.find(target) else None


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


def _certificate_from(search: _Search, target: _StateKey) -> DerivationCertificate:
    parent, memo = search.parent, search.steps
    steps_reversed: list[Transition] = []
    cursor = target
    while isinstance(prev := parent[cursor], tuple):
        if cursor not in memo:
            memo[cursor] = _transition(prev, cursor)
        steps_reversed.append(memo[cursor])
        cursor = prev
    axiom = Axiom(prev, *_state_of(cursor), _FAMILY_BY_ID[prev].cite)
    return DerivationCertificate(axiom, tuple(reversed(steps_reversed)), _state_of(target))


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
    Once a sweep of this process holds forward searches, a target of bound
    at most the widest one's is answered from the widest search when that
    search has discovered it within the target's bound, or has run out
    without discovering it (NOT_FOUND); otherwise from the search a sweep
    holds for the target's bound, if any.  Any other target, and C(3) and
    G(r), which no rule outputs, are searched from both ends, backward from
    the target and forward from the axioms, which for C(3) and G(r) finds
    only an axiom.  The certificate does not depend on which search ran.
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
    target = _state_key(label, fmt)
    search = _held_search(bound, target) if label.tag in _OUTPUT_TAGS else _meet_in_the_middle(bound, target)
    if search is None:
        return RealizationResult(RealizeStatus.NOT_FOUND, detail=_not_found_detail(label))
    return RealizationResult(RealizeStatus.REALIZED, certificate=_certificate_from(search, target))


# The replays of the certificate steps of the sweep that is running, by the
# exact key of the step's input: None outside a sweep (see verify_certificate).
_REPLAYS: dict[tuple[str, str, int, int, int, int], Transition] | None = None


def _admissible(label: ClassLabel, fmt: Format) -> bool:
    """Whether a certificate's state is opaque or not NOT_PERMISSIBLE; refuses one with malformed fields."""
    if label == OPAQUE:
        _require_types(fmt, label)
        return True
    return is_permissible(label, fmt).status is not Status.NOT_PERMISSIBLE


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

    For the length of one :func:`realize_all` call, a replay whose output
    state is not NOT_PERMISSIBLE is kept, by its exact key ``(rule, tag, a,
    b, m, n)``: a ``str`` rule id and the fields of a :class:`ClassLabel`
    and a :class:`Format`, each of exactly that type, in the sweep's
    ``_REPLAYS``.  A step whose rule and previous state have a kept key is
    not replayed again.  Why the answer is a fresh call's: two equal exact
    keys are equal values; :func:`apply_rule` and :func:`is_permissible`
    read nothing but the rule's entry in ``RULES`` and those values, and a
    sweep changes no entry, so the kept replay equals the one a fresh call
    makes, and no exception is lost, since a replay that raises or whose
    output is NOT_PERMISSIBLE is not kept.  Each call still compares every
    step with its replay, so the step's input state with the previous
    state, and still checks the axiom and the target.
    """
    try:
        family = _FAMILY_BY_ID.get(cert.axiom.family)
        label, fmt = cert.axiom.label, cert.axiom.fmt
        if family is None or cert.axiom.cite != family.cite or not family.contains(label, fmt):
            return False
        if not _admissible(label, fmt):
            return False
        replays = _REPLAYS
        for step in cert.steps:
            rule = step.rule
            key = None
            if replays is not None and type(rule) is str and type(label) is ClassLabel and type(fmt) is Format:
                key = (rule, *label, *fmt)
                replay = replays.get(key)
            if key is None or replay is None:
                replay = apply_rule(rule, label, fmt)
                if not _admissible(*replay.output_state):
                    return False
                if key is not None:
                    replays[key] = replay
            if replay != step:
                return False
            label, fmt = replay.output_state
        return (label, fmt) == cert.target
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
        raise DocumentError(f"unsupported certificate version {_shown(version)}")
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


def _sweep_targets(m_max: int, n_max: int) -> list[tuple[str, ClassLabel, Format]]:
    """The targets of a sweep, in sweep order: each PERMISSIBLE T and B format,
    then each format's boundary H labels (:func:`boundary_classes`), sorted.

    A cell is decided by the yes/no form of its verdict, so a dropped one
    builds no verdict.
    """
    # The verdicts, not the loop ranges, say where T and B start.
    formats = [make_format(m, n) for m in range(4, m_max + 1) for n in range(2, n_max + 1)]
    targets = [
        (kind, label, fmt)
        for kind, label in (("T", CLASS_T), ("B", CLASS_B))
        for fmt in formats
        if _permissible(*_state_key(label, fmt))
    ]
    targets += [("H-boundary", label, fmt) for fmt in formats for label in sorted(boundary_classes(fmt))]
    return targets


def realize_all(m_max: int, n_max: int) -> CoverageReport:
    """Realize every permissible T and B format and every boundary H label.

    Sweeps ``m <= m_max``, ``n <= n_max``: lists the targets and holds a
    forward search for each target's bound, then calls :func:`realize` on
    the targets widest bound first, so that the widest search, expanded
    inside ``realize``, answers the narrower bounds, and replays each
    certificate with :func:`verify_certificate`, which replays each distinct
    step of the sweep's certificates once: it keeps its replays for the
    length of this call, and drops them when the call ends, also by an
    exception.  ``verified`` is what a fresh call gives (see
    :func:`verify_certificate`).  Reports per-target
    outcomes in sweep order; ``gaps`` lists targets without a verified
    certificate.  A bound past :data:`DEFAULT_MAX_SEARCH`, where
    :func:`realize` searches nothing, or one that is not an integer, raises
    :class:`OutOfDomain`.
    """
    global _REPLAYS
    _require_ints(m_max=m_max, n_max=n_max)
    if not (4 <= m_max <= DEFAULT_MAX_SEARCH and 2 <= n_max <= DEFAULT_MAX_SEARCH):
        raise OutOfDomain(
            f"coverage sweep needs 4 <= m_max <= {DEFAULT_MAX_SEARCH} and 2 <= n_max <= {DEFAULT_MAX_SEARCH}, "
            f"got ({_decimal(m_max)}, {_decimal(n_max)})"
        )
    targets = _sweep_targets(m_max, n_max)
    bounds = [_search_bound(fmt) for _, _, fmt in targets]
    for bound in bounds:
        _search_for(bound)
    outer, _REPLAYS = _REPLAYS, {}
    try:
        entries: dict[int, CoverageEntry] = {}
        for index in sorted(range(len(targets)), key=bounds.__getitem__, reverse=True):
            kind, label, fmt = targets[index]
            result = realize(label, fmt)
            verified = result.status is RealizeStatus.REALIZED and verify_certificate(result.certificate)
            entries[index] = CoverageEntry(kind, label, fmt, result.status, verified)
    finally:
        _REPLAYS = outer
    return CoverageReport(m_max=m_max, n_max=n_max, entries=tuple(entries[index] for index in range(len(targets))))


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
