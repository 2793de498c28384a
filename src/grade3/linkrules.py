"""The linkage rulebook: format maps, rank profiles, and class transitions.

Linking a perfect ideal replaces its resolution format ``(m, n)`` by a new
format determined by how many of the three designated degree-1 generators
act nontrivially.  A :class:`RankProfile` ``(t1, t2, t3)`` records those
rank contributions.  Every row in use has ``t3 = 0`` and sends ``(m, n)`` to
``(n + 3 - t2, m - t1)``; the supported rows are (0,0,0), (1,0,0), (2,0,0),
(2,1,0) and (3,0,0), and the total Betti number changes by
``6 - 2*t1 - 2*t2 - t3``.

Each named rule in :data:`RULES` is stated once, over integers: a state
is a class tag, the label's two parameter slots ``(a, b)`` (``r`` for G,
``(p, q)`` for H, zero otherwise) and a format ``(m, n)``.  A rule names
the tags it accepts, its guards (predicates on ``(a, b, m, n)``, each with
the text of its rejection), its output tag and two output slots as data,
and its profile row, whose formula is its output format.  The rule's
``check``, ``out_class`` and ``out_format`` are built from that statement,
and at import one integer step table.  :func:`_outputs` evaluates any run of
that table on a state without building labels: :func:`_transition` passes
one step at a time to build a certificate step, and ``verify-theorems`` one
rule's step through :func:`_rule_outputs`, whose output keys it compares as
integers.  The planner's forward search expands a state by evaluating its
tag's run in its own loop, with :func:`_outputs` as the reference.  The
planner's search from both ends also reads the table backwards:
``planner._STEPS_INTO`` lists, per output tag, the steps into it, and
``planner._inputs`` passes one of them at a time with a candidate input
state to find the states with an edge into a given one.  The
table reads :data:`RULES` once: an entry replaced later (as
``perfbench/tracer.py`` does to wrap each rule's callables, or a test to
plant a wrong rule) changes certificate replay and
:func:`apply_rule` only, the one reader of the closures and so an
independent reading of each rule.  ``ext-CVW33``'s row (3,1,0) is outside
the supported rows: the mapping cone does not model it.  The rule ids are
stable wire vocabulary: they appear in derivation certificates and on the
command line.  Every rule with a ``witness`` is re-derived from structure
constants by ``verify-theorems`` (the :mod:`grade3.cone` simulator), which
links the witness tables and compares the result with the output of the
rule's step; the two ``ext-`` rules import published constructions instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DocumentError,
    Grade3Error,
    InvalidFormat,
    PreconditionViolated,
    UnsupportedProfile,
    _decimal,
    _document_fields,
    _require,
    _shown,
)
from .labels import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    ClassLabel,
    Format,
    OPAQUE,
    _require_types,
    class_G,
    class_H,
    make_format,
    parse_format,
    parse_label,
)
from .permissible import CITE_CVW20

__all__ = [
    "RankProfile",
    "SUPPORTED_PROFILES",
    "link_option_format",
    "LinkageRule",
    "STATE_TAGS",
    "parse_state_label",
    "RULES",
    "RULE_ORDER",
    "apply_rule",
    "Transition",
    "transition_to_document",
    "transition_from_document",
]

State = tuple[ClassLabel, Format]

_VERIFIED = "verified from structure constants (grade3 verify-theorems)"


class _Row(NamedTuple):
    t1: int
    t2: int
    t3: int


class RankProfile(_Row):
    """Rank contributions (t1, t2, t3) of the three designated generators.

    Construction refuses a negative or non-integer component; ``_replace`` and
    ``_make`` do not, and the functions that link along a row refuse any row
    outside :data:`SUPPORTED_PROFILES` whatever built it.
    """

    __slots__ = ()

    def __new__(cls, t1: int, t2: int, t3: int) -> RankProfile:
        for name, value in (("t1", t1), ("t2", t2), ("t3", t3)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise UnsupportedProfile(f"profile component {name} must be a non-negative integer")
        return super().__new__(cls, t1, t2, t3)


# The supported rows; the cone links along exactly these.
SUPPORTED_PROFILES = tuple(RankProfile(*row) for row in ((0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (3, 0, 0)))
_SUPPORTED = frozenset(SUPPORTED_PROFILES)  # the same rows, tested by hash once per link


def _require_supported(row: object, error: type[Grade3Error]) -> None:
    """Return for a :class:`RankProfile` in :data:`SUPPORTED_PROFILES`, else raise
    ``error`` saying why: anything not a :class:`RankProfile`, a plain tuple
    included, as :func:`grade3.errors._require` words it; then worded as the
    :func:`grade3.cone.LinkSpec` arguments when that builds the row, else naming it."""
    _require(row, RankProfile, error)
    try:
        if row in _SUPPORTED:
            return
    except TypeError:  # an unhashable field, which only _make or _replace can put there
        pass
    if row.t2 in (0, 1) and row.t3 == 0:
        raise error(f"link spec (t1={_decimal(row.t1)}, phi2_unit={row.t2 == 1}) is not supported")
    raise error(f"rank profile ({', '.join(map(_decimal, row))}) is outside the supported table")


# The format map of every row (t1, t2, 0).  Evidence, not a theorem: on 11 936
# explicit links of artinian monomial ideals by pure-power regular sequences,
# every table computed from Koszul homology, the linked format was this one on
# each of the rows (0,0,0), (1,0,0), (2,0,0), (2,1,0), (3,0,0), (3,1,0),
# (3,2,0) and (3,3,0).  Those links did not measure t3.  ``_outputs`` and the
# planner's forward search inline it on their hot paths; the compiled steps
# are checked against ``apply_rule``.
def _row_format(t1: int, t2: int, m: int, n: int) -> tuple[int, int]:
    return n + 3 - t2, m - t1


def _format_map(t1: int, t2: int) -> Callable[[Format], Format]:
    return lambda f: make_format(*_row_format(t1, t2, f.m, f.n))


def link_option_format(fmt: Format, profile: RankProfile) -> Format:
    """Format of the linked resolution for a supported rank profile.

    Raises :class:`UnsupportedProfile` outside the supported rows, and
    :class:`InvalidFormat` when the input is too small for the profile
    (for example (3,0,0) needs ``m >= 4``).
    """
    _require_types(fmt)
    _require_supported(profile, UnsupportedProfile)
    return _format_map(profile.t1, profile.t2)(fmt)


class Transition(NamedTuple):
    """One applied rule: input state, output state, and citation."""

    rule: str
    input_state: State
    output_state: State
    cite: str


STATE_TAGS = frozenset({"B", "C3", "G", "H", "T", OPAQUE.tag})


# A guard's predicate reads the label's two slots and the format, ``(a, b, m,
# n)`` with ``a = r`` for G, ``(a, b) = (p, q)`` for H and both zero otherwise,
# and holds when the hypothesis does; the template, formatted with ``label``
# and ``fmt``, says why an input that breaks it is rejected.
_Guard = tuple[Callable[[int, int, int, int], bool], str]
# An output slot: an int, or ``(slot, offset)``: the input's slot ``slot`` (0 is
# ``a``, 1 is ``b``) plus ``offset``.
_Term = int | tuple[int, int]
_StateKey = tuple[str, int, int, int, int]


@dataclass(frozen=True)
class LinkageRule:
    """A named linkage rule.

    ``in_tags`` are the class tags the rule accepts.  Its hypotheses on an
    accepted input are ``guards``, in order; its output class has the tag
    ``out_tag`` and the slots ``out_slots``, two terms (see ``_Term``).
    ``profile`` is the rank-profile row the rule realizes.  ``check``,
    ``out_class`` and ``out_format`` are built from those fields: ``check``
    returns a human-readable reason when the input violates the rule's
    hypotheses (None when applicable), and always rejects labels whose tag is
    outside ``in_tags``; ``out_class`` and ``out_format`` compute the two
    halves of the output state, and ``out_format`` is the row's map
    ``(m, n) -> (n + 3 - t2, m - t1)``.  ``witness`` names the tables
    ``verify-theorems`` links to re-derive the rule: an arrangement id from
    :func:`grade3.presentation.arrangement_ids`, ``"canonical"`` for the
    canonical table of every input class, or None for the rules that import
    a published construction instead.  Only :func:`apply_rule` calls
    ``check``, ``out_class`` and ``out_format``; they stay fields because
    ``perfbench/tracer.py`` wraps them with :func:`dataclasses.replace`.
    """

    rule_id: str
    cite: str
    profile: RankProfile
    in_tags: frozenset[str]
    out_tag: str
    guards: tuple[_Guard, ...]
    out_slots: tuple[_Term, _Term]
    check: Callable[[ClassLabel, Format], str | None]
    out_class: Callable[[ClassLabel], ClassLabel]
    out_format: Callable[[Format], Format]
    witness: str | None = None


# The state labels without parameters, by tag.
_FIXED_LABELS: dict[str, ClassLabel] = {label.tag: label for label in (CLASS_B, CLASS_C3, CLASS_T, OPAQUE)}


def _label_of(tag: str, a: int, b: int) -> ClassLabel:
    """The state label with this tag and these slots."""
    if tag == "H":
        return class_H(a, b)
    if tag == "G":
        return class_G(a)
    return _FIXED_LABELS[tag]


def _state_key(label: ClassLabel, fmt: Format) -> _StateKey:
    """A state as integers: ``(tag, a, b, m, n)``."""
    return (label.tag, label.a, label.b, fmt.m, fmt.n)


def _state_of(key: _StateKey) -> State:
    """The state whose :func:`_state_key` is ``key``."""
    tag, a, b, m, n = key
    return (_label_of(tag, a, b), make_format(m, n))


def _check(in_tags: frozenset[str], guards: tuple[_Guard, ...]) -> Callable[[ClassLabel, Format], str | None]:
    if len(in_tags) == 1:
        (tag,) = in_tags
        accepted = f"class {tag} inputs"
    else:
        excluded = ", ".join(str(_FIXED_LABELS.get(tag, tag)) for tag in sorted(STATE_TAGS - in_tags))
        accepted = f"inputs of any class except {excluded}"

    def check(label: ClassLabel, fmt: Format) -> str | None:
        if label.tag not in in_tags:
            return f"rule applies to {accepted}, not {label}"
        for holds, reason in guards:
            if not holds(label.a, label.b, fmt.m, fmt.n):
                return reason.format(label=label, fmt=fmt)
        return None

    return check


def _compiled(term: _Term) -> tuple[int, int]:
    """A term as ``(index, offset)`` into the input's ``(a, b, 0)``."""
    return (2, term) if isinstance(term, int) else term


def _rule(
    rule_id: str,
    row: tuple[int, int, int],
    in_tags: str | frozenset[str],
    out_tag: str,
    out_slots: tuple[_Term, _Term],
    *guards: _Guard,
    witness: str | None = None,
    cite: str = _VERIFIED,
) -> LinkageRule:
    """Build a rule whose ``check`` comes from its input tags and guards, whose
    ``out_class`` comes from its output tag and slots, and whose profile and
    ``out_format`` come from its ``row``."""
    tags = frozenset({in_tags}) if isinstance(in_tags, str) else in_tags
    (ia, ka), (ib, kb) = map(_compiled, out_slots)

    def out_class(label: ClassLabel) -> ClassLabel:
        slots = (label.a, label.b, 0)
        return _label_of(out_tag, slots[ia] + ka, slots[ib] + kb)

    return LinkageRule(
        rule_id,
        cite,
        RankProfile(*row),
        tags,
        out_tag,
        guards,
        out_slots,
        _check(tags, guards),
        out_class,
        _format_map(row[0], row[1]),
        witness,
    )


def _rules() -> dict[str, LinkageRule]:
    rules = [
        _rule("linktoT", (0, 0, 0), STATE_TAGS - {"C3"}, "T", (0, 0), witness="canonical"),
        _rule("linkT-i", (1, 0, 0), "T", "H", (2, 0), witness="T-B"),
        _rule("linkT-ii", (1, 0, 0), "T", "H", (2, 2), witness="T-A"),
        _rule("linkT-iii", (2, 0, 0), "T", "H", (1, 2), witness="T-B"),
        _rule("linkT-iv", (2, 1, 0), "T", "B", (0, 0), witness="T-A"),
        _rule("linkG-i", (1, 0, 0), "G", "H", (3, 0), witness="G-std"),
        _rule("linkG-ii", (2, 0, 0), "G", "T", (0, 0), witness="G-std"),
        _rule(
            "linkH-i", (1, 0, 0), "H", "H", (2, 1),
            (lambda p, q, m, n: p >= 1, "rule needs p >= 1; input is {label}"),
            witness="H-i",
        ),
        _rule("linkH-ii", (1, 0, 0), "H", "H", ((1, 2), (0, 0)), witness="H-ii"),
        _rule(
            "linkH-iii", (2, 0, 0), "H", "H", (1, 1),
            (lambda p, q, m, n: 1 <= p <= m - 2, "rule needs 1 <= p <= m - 2; input is {label} at {fmt}"),
            witness="H-iii",
        ),
        _rule(
            "linkH-iv", (2, 0, 0), "H", "H", ((1, 1), (0, 0)),
            (lambda p, q, m, n: p <= m - 2, "rule needs p <= m - 2; input is {label} at {fmt}"),
            witness="H-iv",
        ),
        _rule(
            "linkH-v", (3, 0, 0), "H", "H", (0, (0, 0)),
            (lambda p, q, m, n: q == 0, "rule needs q = 0; input is {label}"),
            (lambda p, q, m, n: 2 <= p <= m - 3, "rule needs 2 <= p <= m - 3; input is {label} at {fmt}"),
            witness="H-v",
        ),
        _rule(
            "ext-CVW31", (3, 0, 0), "G", "H", (3, 2),
            (
                lambda r, b, m, n: r == 5 and m == 5 and n == 1,
                "rule applies only to G(5) at (5,1); input is {label} at {fmt}",
            ),
            cite=f"{CITE_CVW20}, Prop. 3.1",
        ),
        _rule(
            "ext-CVW33", (3, 1, 0), "H", "H", (0, 1),
            (lambda p, q, m, n: p == 2 and q == 0, "rule applies only to H(2,0); input is {label}"),
            (
                lambda p, q, m, n: n == 3 and m >= 6 and m % 2 == 0,
                "rule applies only at formats (m,3) with even m >= 6; input is at {fmt}",
            ),
            cite=f"{CITE_CVW20}, Prop. 3.3",
        ),
    ]
    return {rule.rule_id: rule for rule in rules}


RULES: dict[str, LinkageRule] = _rules()
RULE_ORDER: tuple[str, ...] = tuple(RULES)


# The step table: per state tag, in RULE_ORDER, each rule that accepts the tag
# as (rule id, citation, t1, t2, guard predicates, output tag, and its two
# output slots compiled to index and offset).
_STEPS: dict[str, tuple[tuple, ...]] = {
    tag: tuple(
        (rule.rule_id, rule.cite, rule.profile.t1, rule.profile.t2, tuple(holds for holds, _ in rule.guards))
        + (rule.out_tag, *_compiled(rule.out_slots[0]), *_compiled(rule.out_slots[1]))
        for rule in RULES.values()
        if tag in rule.in_tags
    )
    for tag in STATE_TAGS
}


def _outputs(steps: tuple[tuple, ...], a: int, b: int, m: int, n: int) -> list[_StateKey]:
    """The output keys of those ``steps`` that accept the state ``(a, b)`` at
    ``(m, n)``, in order; a step refuses what :func:`apply_rule` refuses."""
    slots = (a, b, 0)
    outputs: list[_StateKey] = []
    for _, _, t1, t2, guards, out_tag, ia, ka, ib, kb in steps:
        out_m, out_n = n + 3 - t2, m - t1
        if out_m < 1 or out_n < 1:
            continue
        for holds in guards:
            if not holds(a, b, m, n):
                break
        else:
            outputs.append((out_tag, slots[ia] + ka, slots[ib] + kb, out_m, out_n))
    return outputs


# The step table by row: per state tag, per row ``(t1, t2)``, the steps of that
# row, in RULE_ORDER.
_STEPS_BY_ROW: dict[str, dict[tuple[int, int], tuple[tuple, ...]]] = {
    tag: {row: tuple(step for step in steps if step[2:4] == row) for row in {step[2:4] for step in steps}}
    for tag, steps in _STEPS.items()
}


def _transition(key: _StateKey, out_key: _StateKey) -> Transition:
    """The step from the state ``key`` to ``out_key`` by the first rule, in RULE_ORDER, that takes it there.

    An edge's two formats fix its row: a row sends ``(m, n)`` to ``(n + 3 -
    t2, m - t1)``, so ``(t1, t2) = (m - n', n + 3 - m')``.  Only the steps of
    that row, read from ``_STEPS_BY_ROW``, are evaluated, by
    :func:`_outputs`, and the first whose output is ``out_key`` is kept; any
    other step's output has another format.
    """
    tag, a, b, m, n = key
    _, _, _, out_m, out_n = out_key
    step = next(
        step for step in _STEPS_BY_ROW[tag][m - out_n, n + 3 - out_m] if _outputs((step,), a, b, m, n) == [out_key]
    )
    return Transition(step[0], _state_of(key), _state_of(out_key), step[1])


def _rule_outputs(
    rule_id: str, formats: Iterable[tuple[Format, Mapping[str, Sequence[ClassLabel]]]]
) -> Iterator[tuple[State, _StateKey]]:
    """Each state ``(label, fmt)`` of ``formats``, in order, that the rule's
    step accepts, with the step's output key ``(tag, a, b, m, n)``;
    :func:`_state_of` reads it as a state.

    ``formats`` lists each format with its labels grouped by tag, so that
    the labels of a tag the rule does not accept are never visited.
    """
    runs = {tag: tuple(step for step in steps if step[0] == rule_id) for tag, steps in _STEPS.items()}
    for fmt, by_tag in formats:
        m, n = fmt
        for tag, labels in by_tag.items():
            if run := runs[tag]:
                for label in labels:
                    for key in _outputs(run, label.a, label.b, m, n):
                        yield (label, fmt), key


def apply_rule(rule_id: str, label: ClassLabel, fmt: Format) -> Transition:
    """Apply a named rule to a state, or raise :class:`PreconditionViolated`.

    The output records the rule id and its citation, ready for inclusion in
    a derivation certificate.
    """
    _require_types(fmt, label)
    rule = RULES.get(rule_id) if isinstance(rule_id, str) else None
    if rule is None:
        raise PreconditionViolated(f"unknown linkage rule {_shown(rule_id)}")
    reason = rule.check(label, fmt)
    if reason is not None:
        raise PreconditionViolated(f"{rule_id}: {reason}")
    try:
        out_fmt = rule.out_format(fmt)
    except InvalidFormat as exc:
        raise PreconditionViolated(f"{rule_id}: output format degenerate for input {fmt}: {exc}") from exc
    return Transition(rule_id, (label, fmt), (rule.out_class(label), out_fmt), rule.cite)


def parse_state_label(text: str) -> ClassLabel:
    """Parse a state label's text form: a class label, or ``*`` for opaque."""
    if text == "*":
        return OPAQUE
    return parse_label(text)


def _parse_state(value: object, what: str) -> State:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(f"{what} must be a [class, format] pair, got {_shown(value)}")
    text_label, text_fmt = value
    if not isinstance(text_label, str) or not isinstance(text_fmt, str):
        raise DocumentError(f"{what} entries must be strings, got {_shown(value)}")
    return (parse_state_label(text_label), parse_format(text_fmt))


def transition_to_document(t: Transition) -> dict:
    """Wire form: ``{"rule": ..., "in": [...], "out": [...], "cite": ...}``; refuses a non-transition."""
    _require(t, Transition, DocumentError)
    try:
        (label, fmt), (out_label, out_fmt) = t.input_state, t.output_state
    except (TypeError, ValueError) as exc:
        raise DocumentError._malformed(t, exc) from None
    return {
        "rule": t.rule,
        "in": [str(label), str(fmt)],
        "out": [str(out_label), str(out_fmt)],
        "cite": t.cite,
    }


def transition_from_document(doc: object) -> Transition:
    """Parse the wire form; rejects unknown or missing fields."""
    rule, state_in, state_out, cite = _document_fields(
        doc, "transition", (("rule", str), ("in", list), ("out", list), ("cite", str))
    )
    return Transition(
        rule=rule,
        input_state=_parse_state(state_in, "transition input"),
        output_state=_parse_state(state_out, "transition output"),
        cite=cite,
    )
