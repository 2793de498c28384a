"""Formats, class labels, and the fixed invariant table."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grade3 import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    ClassLabel,
    DimensionMismatch,
    InvalidFormat,
    InvalidLabel,
    LinkSpec,
    OPAQUE,
    OutOfDomain,
    TorPresentation,
    UnsupportedSpec,
    betti_total,
    canonical_presentation,
    class_G,
    class_H,
    class_invariants,
    is_permissible,
    make_format,
    mapping_cone_presentation,
    parse_format,
    parse_label,
    realize,
    realize_all,
    validate_presentation,
    verify_linkage_theorems,
)


def test_format_basics():
    fmt = make_format(6, 3)
    assert (fmt.m, fmt.n) == (6, 3)
    assert fmt.dim2 == 8
    assert str(fmt) == "(6,3)"
    assert betti_total(fmt) == 2 * (6 + 3)


def test_format_validation():
    with pytest.raises(InvalidFormat):
        make_format(0, 3)
    with pytest.raises(InvalidFormat):
        make_format(4, 0)
    with pytest.raises(InvalidFormat):
        make_format(4, -1)
    with pytest.raises(InvalidFormat):
        make_format(True, 2)
    with pytest.raises(InvalidFormat):
        make_format(4.0, 2)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_format_parse_round_trip(m, n):
    fmt = make_format(m, n)
    assert parse_format(str(fmt)) == fmt


@pytest.mark.parametrize("text", ["", "(4)", "(4,)", "(4, 3)", "4,3", "(04,3)x", "(-4,3)"])
def test_format_parse_rejects(text):
    with pytest.raises(InvalidFormat):
        parse_format(text)


def test_label_rendering():
    assert str(CLASS_B) == "B"
    assert str(CLASS_C3) == "C(3)"
    assert str(CLASS_T) == "T"
    assert str(class_G(4)) == "G(4)"
    assert str(class_H(2, 1)) == "H(2,1)"
    assert str(OPAQUE) == "*"


def test_label_parse_round_trip():
    for text in ["B", "C(3)", "T", "G(2)", "G(7)", "H(0,0)", "H(2,1)", "H(6,6)"]:
        assert str(parse_label(text)) == text


@pytest.mark.parametrize("text", ["", "b", "C(2)", "H(2)", "H(-1,0)", "G(-2)", "X", "*"])
def test_label_parse_rejects(text):
    with pytest.raises(InvalidLabel):
        parse_label(text)


def test_class_g_normalizes_small_ranks():
    # G(0) and G(1) coincide with H labels, so the constructors fold them in.
    assert class_G(0) == class_H(0, 0)
    assert class_G(1) == class_H(0, 1)
    assert class_G(2).tag == "G"
    assert parse_label("G(1)") == class_H(0, 1)


def test_constructors_share_one_object_per_value_and_still_validate():
    # Equal values from any constructor or parser are one object.
    assert make_format(4, 3) is parse_format("(4,3)")
    assert class_H(2, 1) is parse_label("H(2,1)")
    assert class_G(1) is class_H(0, 1)
    assert class_G(7) is parse_label("G(7)")
    # Once (1,1), H(1,0) and H(0,0) are shared, inputs that hash or compare
    # like them are still refused, and what is shared holds plain ints.
    assert type(make_format(1, 1).m) is int and type(class_H(1, 0).p) is int
    with pytest.raises(InvalidFormat):
        make_format(True, 1)
    with pytest.raises(InvalidFormat):
        make_format([1], 2)
    for bad in (-1, True, False, 1.0):
        with pytest.raises(InvalidLabel):
            class_H(bad, 0)
        with pytest.raises(InvalidLabel):
            class_H(0, bad)
        with pytest.raises(InvalidLabel):
            class_G(bad)


def test_constructor_refusals_are_worded_per_coordinate():
    # Plain ints in range are shared at once; everything else is checked
    # coordinate by coordinate, and an int subclass is accepted as its value.
    class Int(int):
        pass

    # The plain value is made first, so the shared object keeps plain ints.
    assert make_format(4, 3) is make_format(Int(4), Int(3))
    assert class_H(2, 1) is class_H(Int(2), Int(1))
    refused = [
        (lambda: make_format(True, 2), "format coordinate m must be an integer, got True"),
        (lambda: make_format(4, 2.0), "format coordinate n must be an integer, got 2.0"),
        (lambda: make_format([1], 2), "format coordinate m must be an integer, got [1]"),
        (lambda: make_format(0, -1), "format coordinate m must be >= 1, got 0"),
        (lambda: make_format(4, -1), "format coordinate n must be >= 1, got -1"),
        (lambda: class_H(-1, 0), "H parameter p must be a non-negative integer, got -1"),
        (lambda: class_H(0, False), "H parameter q must be a non-negative integer, got False"),
        (lambda: class_H(1.0, 0), "H parameter p must be a non-negative integer, got 1.0"),
    ]
    for build, message in refused:
        with pytest.raises((InvalidFormat, InvalidLabel)) as exc:
            build()
        assert str(exc.value) == message


def test_int_subclass_arguments_share_plain_ints():
    # Values no other test builds, so each first call here is the one whose
    # arguments the shared object keeps.
    class Int(int):
        def __str__(self):
            return f"Int({int(self)})"

    assert str(make_format(Int(7001), 7003)) == "(7001,7003)"
    assert str(make_format(7001, 7003)) == "(7001,7003)"
    assert str(class_H(Int(7001), 1)) == "H(7001,1)"
    assert str(class_H(7001, 1)) == "H(7001,1)"
    assert str(class_G(Int(7001))) == "G(7001)"
    assert str(class_G(7001)) == "G(7001)"
    for obj in (make_format(7001, 7003), class_H(7001, 1), class_G(7001)):
        assert {type(value) for value in obj if not isinstance(value, str)} == {int}


def test_label_accessor_guards():
    with pytest.raises(InvalidLabel):
        CLASS_T.p  # noqa: B018 - the property raise is the point
    with pytest.raises(InvalidLabel):
        class_H(2, 1).r  # noqa: B018
    assert class_G(5).r == 5
    assert class_H(2, 1).p == 2
    assert class_H(2, 1).q == 1


def _pqr(label):
    inv = class_invariants(label)
    return (inv.p, inv.q, inv.r)


def test_invariants_of_an_unknown_tag_are_refused():
    with pytest.raises(InvalidLabel) as refused:
        class_invariants(ClassLabel("X"))
    assert str(refused.value) == "unknown class tag 'X'"


def test_invariant_table_fixed_rows():
    # (p, q, r) triples for the classes whose invariants are format-independent.
    assert _pqr(CLASS_C3) == (3, 1, 3)
    assert _pqr(CLASS_T) == (3, 0, 0)
    assert _pqr(CLASS_B) == (1, 1, 2)
    assert _pqr(class_G(4)) == (0, 1, 4)
    assert _pqr(class_H(2, 1)) == (2, 1, 1)
    assert _pqr(class_H(3, 0)) == (3, 0, 0)


def test_invariant_table_t_and_h30_collide_on_pqr():
    # These two classes share (3,0,0); the classifier separates them by s1.
    assert _pqr(CLASS_T) == _pqr(class_H(3, 0))


def test_labels_are_ordered_and_hashable():
    labels = [CLASS_T, CLASS_B, class_H(2, 1), class_G(5)]
    assert len(set(labels)) == 4
    assert sorted(labels) == sorted(labels, key=lambda l: (l.tag, l.a, l.b))


def test_parameters_too_long_to_print_are_refused():
    # A label prints its parameters, so one the interpreter cannot print is
    # refused where it is made: the permissibility, rulebook and planner
    # wordings that print it never see it.
    huge = 10**5000
    refused = [
        (lambda: class_H(huge, 0), "H parameter p is 2**16609 or more, too many digits to print"),
        (lambda: class_H(1, huge), "H parameter q is 2**16609 or more, too many digits to print"),
        (lambda: class_G(huge), "G parameter r is 2**16609 or more, too many digits to print"),
        (lambda: class_H(-huge, 0), "H parameter p must be a non-negative integer, got -2**16609 or less"),
        (lambda: class_G(-huge), "G parameter r must be a non-negative integer, got -2**16609 or less"),
    ]
    for build, message in refused:
        with pytest.raises(InvalidLabel) as exc:
            build()
        assert str(exc.value) == message
    # 4300 digits print under the interpreter's default limit.
    nines = int("9" * 4300)
    assert str(class_H(nines, 0)) == f"H({'9' * 4300},0)"
    assert class_G(nines).r == nines


_HUGE = 10**5000
_NINES = int("9" * 4300)  # prints, but one more is too many digits


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: make_format(-_HUGE, 1), InvalidFormat, id="make_format-negative"),
        pytest.param(lambda: str(make_format(_HUGE, 1)), InvalidFormat, id="make_format-str"),
        pytest.param(lambda: is_permissible(CLASS_B, make_format(_HUGE, 2)), InvalidFormat, id="is_permissible"),
        pytest.param(
            lambda: canonical_presentation(class_H(5, 0), make_format(3, _HUGE)), InvalidFormat, id="canonical-format"
        ),
        pytest.param(
            lambda: canonical_presentation(class_H(_NINES, 0), make_format(5, 2)),
            DimensionMismatch,
            id="canonical-bound",
        ),
        pytest.param(
            lambda: realize(CLASS_T, make_format(5, 4), max_coordinate=-_HUGE), OutOfDomain, id="realize"
        ),
        pytest.param(lambda: realize_all(-_HUGE, 2), OutOfDomain, id="realize_all"),
        pytest.param(lambda: verify_linkage_theorems(_HUGE, 1), OutOfDomain, id="verify_linkage_theorems"),
        # validate_presentation returns its problems instead of raising.
        pytest.param(lambda: validate_presentation(TorPresentation(-_HUGE, 1, {}, {})), None, id="validate"),
        pytest.param(
            lambda: mapping_cone_presentation(TorPresentation(_HUGE, 1, {}, {}), LinkSpec(0)),
            OutOfDomain,
            id="cone-size",
        ),
        pytest.param(
            lambda: mapping_cone_presentation(TorPresentation(-_HUGE, 1, {}, {}), LinkSpec(1)),
            UnsupportedSpec,
            id="cone-generators",
        ),
    ],
)
def test_refusals_word_integers_too_long_to_print(call, error):
    # Each refusal is its documented error, never the interpreter's own
    # ValueError about printing the integer, and words it as a power of two.
    if error is None:
        (text,) = call()
    else:
        with pytest.raises(error) as exc:
            call()
        text = str(exc.value)
    assert "2**" in text
