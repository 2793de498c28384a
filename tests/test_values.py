"""The record types: ``NamedTuple`` values, and the one dataclass that stays."""

from __future__ import annotations

import dataclasses
import importlib
import os
import subprocess
import sys

import pytest

import grade3

from grade3 import (
    BASE_FAMILIES,
    CLASS_B,
    CLASS_T,
    OPAQUE,
    ClassLabel,
    Format,
    DocumentError,
    InvalidFormat,
    InvalidLabel,
    LinkSpec,
    PreconditionViolated,
    Status,
    RankProfile,
    UnknownArrangement,
    UnsupportedProfile,
    UnsupportedSpec,
    apply_rule,
    arranged_presentation,
    atlas_grid,
    betti_total,
    boundary_classes,
    canonical_presentation,
    class_G,
    class_H,
    class_invariants,
    classify,
    family_assignment,
    is_permissible,
    link_option_format,
    make_format,
    mapping_cone_presentation,
    parse_format,
    parse_label,
    parse_state_label,
    presentation_from_document,
    realize,
    realize_all,
    transition_from_document,
    verify_linkage_theorems,
)

import pins

MODULES = ("errors", "exact", "labels", "presentation", "permissible", "linkrules", "cone", "planner", "cli")

# Each dataclass left in grade3, and why it is not a NamedTuple.  Every other
# record type is one: a frozen dataclass generates and compiles its methods
# at import, which a command-line process pays on every start.
DATACLASSES = {
    "LinkageRule": "perfbench/tracer.py rebuilds each rule with dataclasses.replace",
}


def _samples() -> list[object]:
    """One value of every NamedTuple record type, made through the public API."""
    table = canonical_presentation(CLASS_T, make_format(4, 3))
    verdict = is_permissible(CLASS_B, make_format(4, 2))
    result = realize(class_H(2, 0), make_format(6, 3))
    coverage = realize_all(6, 3)
    theorems = verify_linkage_theorems(5, 1)
    return [
        make_format(4, 3),
        class_H(2, 1),
        class_invariants(class_G(5)),
        LinkSpec(1),
        apply_rule("linkT-i", CLASS_T, make_format(4, 3)),
        verdict.violations[0],
        verdict,
        atlas_grid(make_format(4, 2)),
        table,
        classify(table),
        mapping_cone_presentation(table, LinkSpec(1)),
        theorems.results[0],
        theorems,
        BASE_FAMILIES[0],
        result.certificate.axiom,
        result.certificate,
        result,
        coverage.entries[0],
        coverage,
    ]


SAMPLES = _samples()


def test_every_record_type_has_a_sample():
    names = {type(value).__name__ for value in SAMPLES}
    assert len(names) == len(SAMPLES) == 19


@pytest.mark.parametrize("value", SAMPLES, ids=lambda value: type(value).__name__)
def test_record_values_are_immutable_and_equal_by_value(value):
    kind = type(value)
    assert issubclass(kind, tuple) and kind._fields
    with pytest.raises(AttributeError):
        setattr(value, kind._fields[0], getattr(value, kind._fields[-1]))
    with pytest.raises(AttributeError):
        value.extra = 1
    copy = kind(*value)
    assert copy == value and copy is not value
    assert copy != value._replace(**{kind._fields[0]: object()})
    try:
        hash(value)
    except TypeError:  # a field holds a dict (a table's products, an atlas's cells)
        return
    assert hash(copy) == hash(value) and len({copy, value}) == 1


def test_formats_and_labels_sort_field_wise():
    formats = [make_format(5, 1), make_format(4, 3), make_format(4, 2)]
    assert sorted(formats) == [make_format(4, 2), make_format(4, 3), make_format(5, 1)]
    labels = [CLASS_T, class_H(2, 1), class_H(1, 5), CLASS_B, class_G(7)]
    assert sorted(labels) == [CLASS_B, class_G(7), class_H(1, 5), class_H(2, 1), CLASS_T]
    assert make_format(4, 3) == (4, 3) and class_H(2, 1) == ("H", 2, 1)


def test_the_opaque_label_is_a_truthy_star():
    assert bool(OPAQUE) and type(OPAQUE) is ClassLabel
    assert str(OPAQUE) == "*" and (OPAQUE.tag, OPAQUE.a, OPAQUE.b) == ("*", 0, 0)
    assert parse_state_label("*") is OPAQUE


def test_a_rank_profile_is_its_tuple_and_refuses_a_bad_component():
    row = RankProfile(2, 1, 0)
    assert row == (2, 1, 0) and RankProfile(t1=2, t2=1, t3=0) == row
    assert repr(row) == "RankProfile(t1=2, t2=1, t3=0)"
    assert row._replace(t2=0) == LinkSpec(2) and type(row._replace(t2=0)) is RankProfile
    for args, name in (((1, -1, 0), "t2"), ((True, 0, 0), "t1"), ((0, 0, 1.0), "t3")):
        with pytest.raises(UnsupportedProfile, match=f"^profile component {name} must be a non-negative integer$"):
            RankProfile(*args)


def test_only_the_listed_dataclasses_remain():
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(f"grade3.{module_name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                found[name] = value
    assert set(found) == set(DATACLASSES)
    assert all(found[name].__dataclass_params__.frozen for name in found)


@pytest.mark.parametrize(
    "function, args, error, shown",
    [
        (realize, (CLASS_T, (8, 6)), InvalidFormat, "(8, 6)"),
        (realize, ("T", make_format(8, 6)), InvalidLabel, "'T'"),
        (is_permissible, (CLASS_T, (5, 2)), InvalidFormat, "(5, 2)"),
        (is_permissible, (("T", 0, 0), make_format(5, 2)), InvalidLabel, "('T', 0, 0)"),
        (atlas_grid, ((5, 2),), InvalidFormat, "(5, 2)"),
        (boundary_classes, ((8, 6),), InvalidFormat, "(8, 6)"),
        (family_assignment, ((8, 6),), InvalidFormat, "(8, 6)"),
        (link_option_format, ((4, 3), LinkSpec(1)), InvalidFormat, "(4, 3)"),
        (canonical_presentation, (CLASS_T, (4, 3)), InvalidFormat, "(4, 3)"),
        (canonical_presentation, (None, make_format(4, 3)), InvalidLabel, "None"),
        (arranged_presentation, (CLASS_T, (4, 3), "T-A"), InvalidFormat, "(4, 3)"),
        (apply_rule, ("linkT-i", "T", make_format(4, 3)), InvalidLabel, "'T'"),
        (apply_rule, ("linktoT", OPAQUE, "(4,3)"), InvalidFormat, "'(4,3)'"),
        (link_option_format, (make_format(4, 3), (1, 0, 0)), UnsupportedProfile, "(1, 0, 0)"),
        (
            mapping_cone_presentation,
            (canonical_presentation(CLASS_T, make_format(4, 3)), (1, 0, 0)),
            UnsupportedSpec,
            "(1, 0, 0)",
        ),
        (parse_label, (None,), InvalidLabel, "None"),
        (parse_state_label, (None,), InvalidLabel, "None"),
        (parse_format, (5,), InvalidFormat, "5"),
        (betti_total, ((4, 3),), InvalidFormat, "(4, 3)"),
        (class_invariants, ("T",), InvalidLabel, "'T'"),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_public_functions_refuse_a_wrong_argument_type(function, args, error, shown):
    # A plain tuple equals a Format, and a tag string names a label, but
    # neither is one, nor is a tuple a rank profile, and a parser reads only
    # text: each is refused with a Grade3Error that shows it.
    with pytest.raises(error) as exc:
        function(*args)
    assert str(exc.value).endswith(f", got {shown}")


@pytest.mark.parametrize(
    "function, args, error",
    [
        (is_permissible, (ClassLabel("H", None, 1), make_format(5, 4)), InvalidLabel),
        (is_permissible, (CLASS_T, Format(None, None)), InvalidFormat),
        (canonical_presentation, (ClassLabel("H", None, 1), make_format(5, 4)), InvalidLabel),
        (canonical_presentation, (CLASS_T, Format(None, None)), InvalidFormat),
        (apply_rule, ("linkT-i", CLASS_T, Format(None, None)), InvalidFormat),
        (betti_total, (Format(None, 1),), InvalidFormat),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_a_record_built_with_fields_of_the_wrong_type_is_refused_by_name(function, args, error):
    # A Format or ClassLabel built directly, skipping the validating constructors:
    # the refusal names the record whose field could not be read.
    record = "ClassLabel" if error is InvalidLabel else "Format"
    with pytest.raises(error, match=rf"^{record} has a field of the wrong type \("):
        function(*args)


@pytest.mark.parametrize(
    "function, args, error",
    [
        (is_permissible, (ClassLabel("H", -1, 0), make_format(6, 2)), InvalidLabel),
        (is_permissible, (ClassLabel("H", 10**5000, 0), make_format(5, 2)), InvalidLabel),
        (is_permissible, (ClassLabel("G", 1, 0), make_format(8, 6)), InvalidLabel),
        (canonical_presentation, (ClassLabel("G", 5, 3), make_format(5, 1)), InvalidLabel),
        (betti_total, (Format(-4, 3),), InvalidFormat),
        (atlas_grid, (Format(0, 0),), InvalidFormat),
        (is_permissible, (class_H(1, 0), Format(10**5000, 4)), InvalidFormat),
        (apply_rule, ("linkT-i", CLASS_T, Format(5, 0)), InvalidFormat),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_a_record_no_constructor_makes_is_refused_by_name(function, args, error):
    # A label or format built directly with a slot or field out of range:
    # betti_total(Format(-4, 3)) was -2, atlas_grid(Format(0, 0)) an empty
    # grid, and a slot too long to print reached the rulebook.
    record = "ClassLabel" if error is InvalidLabel else "Format"
    with pytest.raises(error, match=rf"^{record} has a field out of range \("):
        function(*args)


def test_the_argument_check_refuses_exactly_what_the_constructors_refuse():
    # A 4300-digit int prints at the interpreter's default limit, and one more digit does not.
    values = (-(10**5000), -2, -1, 0, 1, 2, 3, 10**640, 10**4299, 10**4300, 10**5000)

    def accepted(fmt=None, label=None):
        try:
            betti_total(fmt) if label is None else class_invariants(label)
        except (InvalidFormat, InvalidLabel):
            return False
        return True

    def made(constructor, *args):
        try:
            return constructor(*args)
        except (InvalidFormat, InvalidLabel):
            return None

    for v in values:
        for w in (0, 3, v):
            assert accepted(label=ClassLabel("H", v, w)) == (made(class_H, v, w) is not None), (v, w)
            assert accepted(fmt=Format(v, w)) == (made(make_format, v, w) is not None), (v, w)
        # class_G gives H(0,0) and H(0,1) for r = 0 and 1: a G label always has r >= 2.
        assert accepted(label=ClassLabel("G", v, 0)) == (getattr(made(class_G, v), "tag", None) == "G"), v
        assert not accepted(label=ClassLabel("G", 5, v)) or v == 0


def test_a_label_with_a_4300_digit_slot_is_still_answered():
    # As the command line answers it: its bound max(p+1, q+2) has too many digits to print.
    p = int("9" * 4300)
    verdict = is_permissible(ClassLabel("H", p, 0), make_format(5, 2))
    assert verdict == is_permissible(class_H(p, 0), make_format(5, 2))
    assert verdict.status is Status.NOT_PERMISSIBLE


_HUGE = 10**5000


@pytest.mark.parametrize(
    "call, error, shown",
    [
        (lambda: betti_total(ClassLabel("H", _HUGE, 0)), InvalidFormat, "ClassLabel(tag='H', a=2**16609 or more, b=0)"),
        (lambda: apply_rule([_HUGE], CLASS_T, make_format(4, 3)), PreconditionViolated, "a list holding an integer"),
        (lambda: arranged_presentation(CLASS_T, make_format(4, 3), (_HUGE,)), UnknownArrangement, "(2**16609 or more,)"),
        (
            lambda: transition_from_document({"rule": "x", "in": [_HUGE], "out": [], "cite": ""}),
            DocumentError,
            "a list holding an integer",
        ),
        (
            lambda: presentation_from_document({"version": _HUGE, "m": 1, "n": 1, "ee": [], "ef": []}),
            DocumentError,
            "version 2**16609 or more",
        ),
        (
            lambda: presentation_from_document({"version": 1, "m": 4, "n": 3, "ee": [[1, 2, 1, _HUGE, 3]], "ef": []}),
            DocumentError,
            "entry a list holding an integer",
        ),
    ],
)
def test_a_refusal_shows_a_value_whose_ints_do_not_print(call, error, shown):
    # Its repr would raise ValueError; the refusal names a record by its fields, and anything else by its type.
    with pytest.raises(error) as exc:
        call()
    assert shown in str(exc.value)


# Run in a fresh child: refuse the malformed call, then print the valid call's result.
_THEN_VALID = """
import sys, grade3
try:
    eval(sys.argv[1], vars(grade3))
except grade3.Grade3Error as exc:
    print(type(exc).__name__)
print(repr(eval(sys.argv[2], vars(grade3))))
"""


@pytest.mark.parametrize(
    "malformed, valid, error",
    [
        (
            'is_permissible(ClassLabel("H", 1.0, 0), make_format(6, 2))',
            "is_permissible(class_H(1, 0), make_format(6, 2))",
            "InvalidLabel",
        ),
        ("is_permissible(CLASS_T, Format(3.0, 4))", "is_permissible(CLASS_T, make_format(3, 4))", "InvalidFormat"),
        ('realize(ClassLabel("H", 2.0, 1), make_format(8, 6))', "realize(class_H(2, 1), make_format(8, 6))", "InvalidLabel"),
        ("realize(class_H(2, 1), Format(8.0, 6))", "realize(class_H(2, 1), make_format(8, 6))", "InvalidFormat"),
        ('realize(ClassLabel("T", 1, 2), make_format(8, 6))', "realize(CLASS_T, make_format(8, 6))", "InvalidLabel"),
        (
            'is_permissible(ClassLabel("T", None, None), make_format(8, 6))',
            "is_permissible(CLASS_T, make_format(8, 6))",
            "InvalidLabel",
        ),
        (
            'canonical_presentation(ClassLabel("T", 1, 2), make_format(5, 4))',
            "canonical_presentation(CLASS_T, make_format(5, 4))",
            "InvalidLabel",
        ),
        (
            'arranged_presentation(ClassLabel("T", None, None), make_format(5, 4), "T-A")',
            'arranged_presentation(CLASS_T, make_format(5, 4), "T-A")',
            "InvalidLabel",
        ),
        ('class_invariants(ClassLabel("T", 1, 2))', "class_invariants(CLASS_T)", "InvalidLabel"),
        (
            'apply_rule("linkT-i", ClassLabel("T", None, None), make_format(5, 4))',
            'apply_rule("linkT-i", CLASS_T, make_format(5, 4))',
            "InvalidLabel",
        ),
    ],
)
def test_a_record_that_equals_a_valid_one_is_refused_before_any_cache(malformed, valid, error):
    # ClassLabel("H", 1.0, 0) equals H(1,0), and hashes like it, in the verdict
    # cache and the planner's searches; ClassLabel("T", 1, 2) is no label at all.
    # Each is refused, and the valid call after it, in a fresh process that
    # no earlier call has filled a cache in, gives the valid answer.
    _refused_then_valid(malformed, valid, error)


@pytest.mark.parametrize(
    "malformed, valid, error",
    [
        (
            'is_permissible(ClassLabel("H", -1, 0), make_format(6, 2))',
            "is_permissible(class_H(1, 0), make_format(6, 2))",
            "InvalidLabel",
        ),
        (
            'is_permissible(ClassLabel("H", 10**5000, 0), make_format(6, 2))',
            "is_permissible(class_H(1, 2), make_format(6, 2))",
            "InvalidLabel",
        ),
        ('realize(ClassLabel("G", 1, 0), make_format(8, 6))', "realize(class_G(1), make_format(8, 6))", "InvalidLabel"),
        (
            'canonical_presentation(ClassLabel("G", 5, 3), make_format(5, 1))',
            "canonical_presentation(class_G(5), make_format(5, 1))",
            "InvalidLabel",
        ),
        ("betti_total(Format(-4, 3))", "betti_total(make_format(4, 3))", "InvalidFormat"),
        ("atlas_grid(Format(0, 0))", "atlas_grid(make_format(4, 2))", "InvalidFormat"),
        (
            "is_permissible(class_H(1, 0), Format(10**5000, 4))",
            "is_permissible(class_H(1, 0), make_format(6, 4))",
            "InvalidFormat",
        ),
    ],
)
def test_a_record_no_constructor_makes_is_refused_before_any_cache(malformed, valid, error):
    # A slot or field out of range, which no constructor makes, is refused
    # before the verdict cache or the planner's searches see it, in a fresh process.
    _refused_then_valid(malformed, valid, error)


def _refused_then_valid(malformed: str, valid: str, error: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(grade3.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _THEN_VALID, malformed, valid], capture_output=True, env=env, timeout=60, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{error}\n{eval(valid, vars(grade3))!r}\n"


def test_every_public_function_refuses_every_wrong_argument_in_time():
    # Each parameter of each public function, given each of ten values of the
    # wrong type or range: every call returns or raises a Grade3Error within 1 s.
    assert pins.refusals() == pins.REFUSALS


def test_an_id_that_is_not_a_string_is_unknown():
    # A rule id or an arrangement id of another type names nothing, as a
    # misspelled one does, instead of failing on the dict lookup.
    with pytest.raises(PreconditionViolated, match=r"^unknown linkage rule \['x'\]$"):
        apply_rule(["x"], CLASS_T, make_format(4, 3))
    with pytest.raises(UnknownArrangement, match=r"^unknown arrangement \['T-A'\]; known: T-A, "):
        arranged_presentation(CLASS_T, make_format(4, 3), ["T-A"])
