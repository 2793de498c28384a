"""The linkage rulebook: format maps, rank profiles, and class transitions.

Linking a perfect ideal replaces its resolution format ``(m, n)`` by a new
format determined by how many of the three designated degree-1 generators
act nontrivially.  A :class:`RankProfile` ``(t1, t2, t3)`` records those
rank contributions; the supported profiles and their format maps are

=========  ==================
profile    new format
=========  ==================
(0, 0, 0)  (n + 3, m)
(1, 0, 0)  (n + 3, m - 1)
(2, 0, 0)  (n + 3, m - 2)
(2, 1, 0)  (n + 2, m - 2)
(3, 0, 0)  (n + 3, m - 3)
=========  ==================

and the total Betti number changes by ``6 - 2*t1 - 2*t2 - t3``.

Each named rule in :data:`RULES` pairs a class precondition with an output
class and names its profile row; its output format is that row's map, taken
from the table above (only ``ext-CVW33``, whose format change needs the
unsupported row (3,1,0), states its own map).  The rule ids are stable wire
vocabulary: they appear in derivation certificates and on the command line.
Every rule with a ``witness`` is re-derived from structure constants by
``verify-theorems`` (the :mod:`grade3.cone` simulator), which links the
witness tables and compares the result with the rule's own ``out_class``
and ``out_format``; the two ``ext-`` rules import published constructions
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DocumentError, InvalidFormat, PreconditionViolated, UnsupportedProfile, document_fields
from .labels import (
    CLASS_B,
    CLASS_T,
    ClassLabel,
    Format,
    OpaqueLabel,
    OPAQUE,
    class_G,
    class_H,
    make_format,
    parse_format,
    parse_label,
)

__all__ = [
    "RankProfile",
    "SUPPORTED_PROFILES",
    "link_option_format",
    "betti_after_link",
    "LinkageRule",
    "STATE_TAGS",
    "state_tag",
    "parse_state_label",
    "RULES",
    "RULE_ORDER",
    "apply_rule",
    "Transition",
    "transition_to_document",
    "transition_from_document",
]

StateLabel = ClassLabel | OpaqueLabel
State = tuple[StateLabel, Format]

_VERIFIED = "verified from structure constants (grade3 verify-theorems)"
_CITE_CVW20 = "Christensen-Veliche-Weyman 2020"


@dataclass(frozen=True)
class RankProfile:
    """Rank contributions (t1, t2, t3) of the three designated generators."""

    t1: int
    t2: int
    t3: int

    def __post_init__(self) -> None:
        for name, value in (("t1", self.t1), ("t2", self.t2), ("t3", self.t3)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise UnsupportedProfile(f"profile component {name} must be a non-negative integer")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.t1, self.t2, self.t3)


SUPPORTED_PROFILES = (
    RankProfile(0, 0, 0),
    RankProfile(1, 0, 0),
    RankProfile(2, 0, 0),
    RankProfile(2, 1, 0),
    RankProfile(3, 0, 0),
)

_FORMAT_MAPS: dict[tuple[int, int, int], Callable[[Format], Format]] = {
    (0, 0, 0): lambda f: make_format(f.n + 3, f.m),
    (1, 0, 0): lambda f: make_format(f.n + 3, f.m - 1),
    (2, 0, 0): lambda f: make_format(f.n + 3, f.m - 2),
    (2, 1, 0): lambda f: make_format(f.n + 2, f.m - 2),
    (3, 0, 0): lambda f: make_format(f.n + 3, f.m - 3),
}


def link_option_format(fmt: Format, profile: RankProfile) -> Format:
    """Format of the linked resolution for a supported rank profile.

    Raises :class:`UnsupportedProfile` outside the five-row table, and
    :class:`InvalidFormat` when the input is too small for the profile
    (for example (3,0,0) needs ``m >= 4``).
    """
    mapper = _FORMAT_MAPS.get(profile.as_tuple())
    if mapper is None:
        raise UnsupportedProfile(f"rank profile {profile.as_tuple()} is outside the supported table")
    return mapper(fmt)


def betti_after_link(b: int, profile: RankProfile) -> int:
    """Total Betti number after linking: ``b + 6 - 2*t1 - 2*t2 - t3``."""
    if not isinstance(b, int) or isinstance(b, bool) or b < 0:
        raise InvalidFormat(f"betti number must be a non-negative integer, got {b!r}")
    return b + 6 - 2 * profile.t1 - 2 * profile.t2 - profile.t3


@dataclass(frozen=True)
class Transition:
    """One applied rule: input state, output state, and citation."""

    rule: str
    input_state: State
    output_state: State
    cite: str


OPAQUE_TAG = "*"
STATE_TAGS = frozenset({"B", "C3", "G", "H", "T", OPAQUE_TAG})


def state_tag(label: StateLabel) -> str:
    """The class tag of a state label; opaque labels have the tag ``"*"``."""
    return label.tag if isinstance(label, ClassLabel) else OPAQUE_TAG


@dataclass(frozen=True)
class LinkageRule:
    """A named linkage rule.

    ``in_tags`` are the class tags the rule accepts and ``out_tag`` the tag
    of every class it outputs; ``check`` returns a human-readable reason
    when the input violates the rule's hypotheses (None when applicable),
    and always rejects labels whose tag is outside ``in_tags``;
    ``out_class`` and ``out_format`` compute the two halves of the output
    state.  ``profile`` is the rank-profile row the rule realizes, and
    ``out_format`` is that row's map from the profile table (an explicit
    map only for the one rule whose profile is None, because its format
    change falls outside the table).  ``witness`` names the tables
    ``verify-theorems`` links to re-derive the rule: an arrangement id from
    :func:`grade3.presentation.arrangement_ids`, ``"canonical"`` for the
    canonical table of every input class, or None for the rules that
    import a published construction instead.
    """

    rule_id: str
    cite: str
    profile: RankProfile | None
    in_tags: frozenset[str]
    out_tag: str
    check: Callable[[StateLabel, Format], str | None]
    out_class: Callable[[StateLabel], ClassLabel]
    out_format: Callable[[Format], Format]
    witness: str | None = None


_TAG_TEXT = {"C3": "C(3)"}


def _tag_check(in_tags: frozenset[str], extra: Callable[[ClassLabel, Format], str | None] | None = None):
    if len(in_tags) == 1:
        (tag,) = in_tags
        accepted = f"class {tag} inputs"
    else:
        excluded = ", ".join(_TAG_TEXT.get(tag, tag) for tag in sorted(STATE_TAGS - in_tags))
        accepted = f"inputs of any class except {excluded}"

    def check(label: StateLabel, fmt: Format) -> str | None:
        if state_tag(label) not in in_tags:
            return f"rule applies to {accepted}, not {label}"
        if extra is not None:
            return extra(label, fmt)
        return None

    return check


_PROFILES = {profile.as_tuple(): profile for profile in SUPPORTED_PROFILES}


def _rule(
    rule_id: str,
    row: tuple[int, int, int] | None,
    in_tags: str | frozenset[str],
    out_tag: str,
    out_class: Callable[[StateLabel], ClassLabel],
    extra: Callable[[ClassLabel, Format], str | None] | None = None,
    *,
    witness: str | None = None,
    cite: str = _VERIFIED,
    out_format: Callable[[Format], Format] | None = None,
) -> LinkageRule:
    """Build a rule whose ``check`` comes from its input tags and whose
    profile and ``out_format`` come from its ``row`` of the profile table."""
    tags = frozenset({in_tags}) if isinstance(in_tags, str) else in_tags
    if row is not None:
        out_format = _FORMAT_MAPS[row]
    return LinkageRule(
        rule_id, cite, _PROFILES.get(row), tags, out_tag, _tag_check(tags, extra), out_class, out_format, witness
    )


def _check_h_i(label: ClassLabel, fmt: Format) -> str | None:
    if label.p < 1:
        return f"rule needs p >= 1; input is {label}"
    return None


def _check_h_iii(label: ClassLabel, fmt: Format) -> str | None:
    if not (1 <= label.p <= fmt.m - 2):
        return f"rule needs 1 <= p <= m - 2; input is {label} at {fmt}"
    return None


def _check_h_iv(label: ClassLabel, fmt: Format) -> str | None:
    if label.p > fmt.m - 2:
        return f"rule needs p <= m - 2; input is {label} at {fmt}"
    return None


def _check_h_v(label: ClassLabel, fmt: Format) -> str | None:
    if label.q != 0:
        return f"rule needs q = 0; input is {label}"
    if not (2 <= label.p <= fmt.m - 3):
        return f"rule needs 2 <= p <= m - 3; input is {label} at {fmt}"
    return None


def _check_cvw31(label: ClassLabel, fmt: Format) -> str | None:
    if label != class_G(5) or (fmt.m, fmt.n) != (5, 1):
        return f"rule applies only to G(5) at (5,1); input is {label} at {fmt}"
    return None


def _check_cvw33(label: ClassLabel, fmt: Format) -> str | None:
    if label != class_H(2, 0):
        return f"rule applies only to H(2,0); input is {label}"
    if fmt.n != 3 or fmt.m < 6 or fmt.m % 2 != 0:
        return f"rule applies only at formats (m,3) with even m >= 6; input is at {fmt}"
    return None


def _rules() -> dict[str, LinkageRule]:
    rules = [
        _rule("linktoT", (0, 0, 0), STATE_TAGS - {"C3"}, "T", lambda c: CLASS_T, witness="canonical"),
        _rule("linkT-i", (1, 0, 0), "T", "H", lambda c: class_H(2, 0), witness="T-B"),
        _rule("linkT-ii", (1, 0, 0), "T", "H", lambda c: class_H(2, 2), witness="T-A"),
        _rule("linkT-iii", (2, 0, 0), "T", "H", lambda c: class_H(1, 2), witness="T-B"),
        _rule("linkT-iv", (2, 1, 0), "T", "B", lambda c: CLASS_B, witness="T-A"),
        _rule("linkG-i", (1, 0, 0), "G", "H", lambda c: class_H(3, 0), witness="G-std"),
        _rule("linkG-ii", (2, 0, 0), "G", "T", lambda c: CLASS_T, witness="G-std"),
        _rule("linkH-i", (1, 0, 0), "H", "H", lambda c: class_H(2, 1), _check_h_i, witness="H-i"),
        _rule("linkH-ii", (1, 0, 0), "H", "H", lambda c: class_H(c.q + 2, c.p), witness="H-ii"),
        _rule("linkH-iii", (2, 0, 0), "H", "H", lambda c: class_H(1, 1), _check_h_iii, witness="H-iii"),
        _rule("linkH-iv", (2, 0, 0), "H", "H", lambda c: class_H(c.q + 1, c.p), _check_h_iv, witness="H-iv"),
        _rule("linkH-v", (3, 0, 0), "H", "H", lambda c: class_H(0, c.p), _check_h_v, witness="H-v"),
        _rule(
            "ext-CVW31",
            (3, 0, 0),
            "G",
            "H",
            lambda c: class_H(3, 2),
            _check_cvw31,
            cite=f"{_CITE_CVW20}, Prop. 3.1",
        ),
        _rule(
            "ext-CVW33",
            None,
            "H",
            "H",
            lambda c: class_H(0, 1),
            _check_cvw33,
            cite=f"{_CITE_CVW20}, Prop. 3.3",
            out_format=lambda f: make_format(5, f.m - 3),  # would need the unsupported row (3,1,0)
        ),
    ]
    return {rule.rule_id: rule for rule in rules}


RULES: dict[str, LinkageRule] = _rules()
RULE_ORDER: tuple[str, ...] = tuple(RULES)


def apply_rule(rule_id: str, label: StateLabel, fmt: Format) -> Transition:
    """Apply a named rule to a state, or raise :class:`PreconditionViolated`.

    The output records the rule id and its citation, ready for inclusion in
    a derivation certificate.
    """
    rule = RULES.get(rule_id)
    if rule is None:
        raise PreconditionViolated(f"unknown linkage rule {rule_id!r}")
    reason = rule.check(label, fmt)
    if reason is not None:
        raise PreconditionViolated(f"{rule_id}: {reason}")
    try:
        out_fmt = rule.out_format(fmt)
    except InvalidFormat as exc:
        raise PreconditionViolated(f"{rule_id}: output format degenerate for input {fmt}: {exc}") from exc
    return Transition(
        rule=rule_id,
        input_state=(label, fmt),
        output_state=(rule.out_class(label), out_fmt),
        cite=rule.cite,
    )


def _render_state(state: State) -> list[str]:
    label, fmt = state
    return [str(label), str(fmt)]


def parse_state_label(text: str) -> StateLabel:
    """Parse a state label's text form: a class label, or ``*`` for opaque."""
    if text == "*":
        return OPAQUE
    return parse_label(text)


def _parse_state(value: object, what: str) -> State:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(f"{what} must be a [class, format] pair, got {value!r}")
    text_label, text_fmt = value
    if not isinstance(text_label, str) or not isinstance(text_fmt, str):
        raise DocumentError(f"{what} entries must be strings, got {value!r}")
    return (parse_state_label(text_label), parse_format(text_fmt))


def transition_to_document(t: Transition) -> dict:
    """Wire form: ``{"rule": ..., "in": [...], "out": [...], "cite": ...}``."""
    return {
        "rule": t.rule,
        "in": _render_state(t.input_state),
        "out": _render_state(t.output_state),
        "cite": t.cite,
    }


def transition_from_document(doc: object) -> Transition:
    """Parse the wire form; rejects unknown or missing fields."""
    rule, state_in, state_out, cite = document_fields(
        doc, "transition", (("rule", str), ("in", list), ("out", list), ("cite", str))
    )
    return Transition(
        rule=rule,
        input_state=_parse_state(state_in, "transition input"),
        output_state=_parse_state(state_out, "transition output"),
        cite=cite,
    )
