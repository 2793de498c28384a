"""The record types: ``NamedTuple`` values, and the one dataclass that stays."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from grade3 import (
    BASE_FAMILIES,
    CLASS_B,
    CLASS_T,
    OPAQUE,
    ClassLabel,
    Format,
    InvalidFormat,
    InvalidLabel,
    LinkSpec,
    PreconditionViolated,
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
    realize,
    realize_all,
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
