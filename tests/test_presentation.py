"""Canonical tables, arrangements, the rank classifier, and serialization."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade3 import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    ClassifierReport,
    DimensionMismatch,
    DocumentError,
    OPAQUE,
    UnknownArrangement,
    arranged_presentation,
    arrangement_ids,
    canonical_presentation,
    class_G,
    class_H,
    class_invariants,
    classify,
    make_format,
    make_presentation,
    presentation_from_document,
    presentation_to_document,
    validate_presentation,
)
from grade3.presentation import MAX_DOCUMENT_CELLS, TorPresentation, _class_label


def _unit(length, index, sign=1):
    vec = [0] * length
    vec[index - 1] = sign
    return tuple(vec)


# ---------------------------------------------------------------- products


def test_graded_commutativity_of_accessors():
    pres = canonical_presentation(CLASS_T, make_format(4, 3))
    assert pres.ee_product(1, 2) == _unit(6, 3)
    assert pres.ee_product(2, 1) == _unit(6, 3, -1)
    assert pres.ee_product(2, 2) == (0,) * 6
    assert pres.ee_product(3, 4) == (0,) * 6


def test_accessors_refuse_basis_vectors_that_do_not_exist():
    # Products of e_1..e_m and f_1..f_{m+n-1} only, as _dense refuses a coordinate outside its basis.
    pres = canonical_presentation(CLASS_T, make_format(4, 3))
    refusals = [
        (pres.ee_product, (0, 99), "e index 0 is outside a basis of 4 vectors"),
        (pres.ee_product, (1, 5), "e index 5 is outside a basis of 4 vectors"),
        (pres.ee_product, (99, 99), "e index 99 is outside a basis of 4 vectors"),
        (pres.ef_product, (99, 99), "e index 99 is outside a basis of 4 vectors"),
        (pres.ef_product, (0, 1), "e index 0 is outside a basis of 4 vectors"),
        (pres.ef_product, (1, 0), "f index 0 is outside a basis of 6 vectors"),
        (pres.ef_product, (4, 7), "f index 7 is outside a basis of 6 vectors"),
        # Not a basis index at all: a float, a bool, a string.
        (pres.ee_product, (1.5, 2), "e index 1.5 is outside a basis of 4 vectors"),
        (pres.ee_product, (True, 2), "e index True is outside a basis of 4 vectors"),
        (pres.ef_product, (1, "1"), "f index '1' is outside a basis of 6 vectors"),
    ]
    for accessor, args, message in refusals:
        with pytest.raises(DimensionMismatch) as refused:
            accessor(*args)
        assert str(refused.value) == message, args
    assert [pres.ee_product(i, i) for i in (1, 4)] == [(0,) * 6] * 2
    assert pres.ef_product(4, 6) == (0,) * 3


def test_make_presentation_drops_zero_vectors():
    pres = make_presentation(4, 2, {(1, 2): (0, 0, 0, 0, 0)}, {(1, 1): (0, 0)})
    assert pres.ee == {}
    assert pres.ef == {}


@pytest.mark.parametrize(
    "ee, entry",
    [
        ({(1, 2): {3: 2.5}}, r"ee\[\(1,2\)\] coefficient 2.5"),
        ({(1, 2): [0, 0, 0.4]}, r"ee\[\(1,2\)\] coefficient 0.4"),
        ({(1.7, 2): {1: 1}}, r"ee\[\(1.7,2\)\] index 1.7"),
    ],
)
def test_make_presentation_refuses_non_integers(ee, entry):
    # int() would store 2, drop the product, or move it to key (1,2).
    with pytest.raises(DimensionMismatch, match=entry + " is not an integer"):
        make_presentation(3, 1, ee)


@pytest.mark.parametrize(
    "ee, entry",
    [
        ({(1,): {1: 1}}, r"ee key \(1,\) is not a pair of indices"),
        ({(1, 2, 3): {1: 1}}, r"ee key \(1, 2, 3\) is not a pair of indices"),
        ({(1, 2): 5}, r"ee\[\(1,2\)\] product 5 is neither a coordinate map nor a sequence"),
    ],
)
def test_make_presentation_refuses_malformed_entries(ee, entry):
    # Once an IndexError, a TypeError, and a key silently cut to (1, 2).
    with pytest.raises(DimensionMismatch, match=entry):
        make_presentation(3, 1, ee)


# ------------------------------------------------------------- input forms


@st.composite
def _dense_tables(draw):
    """(m, n, ee, ef) with dense vectors, about half their coefficients zero."""
    m = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=1, max_value=4))
    d2 = m + n - 1
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 10**12])
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    ee_keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    ef_keys = draw(
        st.lists(st.tuples(st.integers(1, m), st.integers(1, d2)), unique=True, max_size=6)
    )
    ee = {key: draw(st.lists(coeff, min_size=d2, max_size=d2)) for key in ee_keys}
    ef = {key: draw(st.lists(coeff, min_size=n, max_size=n)) for key in ef_keys}
    return m, n, ee, ef


@settings(max_examples=150)
@given(_dense_tables(), st.booleans(), st.booleans())
def test_dense_and_coordinate_inputs_agree(table, keep_zeros, as_floats):
    m, n, ee, ef = table

    def coords(vec):
        return {k: c for k, c in enumerate(vec, start=1) if c or keep_zeros}

    def spelled(vec):  # entries int() turns back into the same integers
        return [float(c) if as_floats and abs(c) < 2**53 else c for c in vec]

    def build(form):
        return make_presentation(
            m, n, {k: form(spelled(v)) for k, v in ee.items()}, {k: form(spelled(v)) for k, v in ef.items()}
        )

    dense, sparse = build(list), build(coords)
    assert dense == sparse
    assert classify(dense) == classify(sparse)
    assert validate_presentation(dense) == ()
    # Zero coefficients and zero products are dropped; what is stored is int.
    assert dense.ee == {k: {i: c for i, c in enumerate(v, 1) if c} for k, v in ee.items() if any(v)}
    assert dense.ef == {k: {t: c for t, c in enumerate(v, 1) if c} for k, v in ef.items() if any(v)}
    for table_part in (dense.ee, dense.ef):
        for stored in table_part.values():
            assert all(type(k) is int and type(c) is int and c for k, c in stored.items())
    # The accessors give back the dense vectors.
    for (i, j), vec in ee.items():
        assert dense.ee_product(i, j) == tuple(vec)
        assert dense.ee_product(j, i) == tuple(-c for c in vec)
    for (i, l), vec in ef.items():
        assert dense.ef_product(i, l) == tuple(vec)
    # A dense vector one entry too long or too short is refused.
    for key, vec in ee.items():
        for bad in (vec + [0], vec[:-1]):
            with pytest.raises(DimensionMismatch, match="entries; the f basis has"):
                make_presentation(m, n, {key: bad}, {})
    for key, vec in ef.items():
        with pytest.raises(DimensionMismatch, match="entries; the g basis has"):
            make_presentation(m, n, {}, {key: vec + [1]})


# ---------------------------------------------------------- canonical tables


def test_canonical_c3_table():
    pres = canonical_presentation(CLASS_C3, make_format(3, 1))
    assert pres.ee == {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}
    assert pres.ef == {(1, 1): {1: 1}, (2, 2): {1: 1}, (3, 3): {1: 1}}


def test_canonical_c3_requires_format_31():
    with pytest.raises(DimensionMismatch):
        canonical_presentation(CLASS_C3, make_format(4, 2))


def test_canonical_b_table():
    pres = canonical_presentation(CLASS_B, make_format(5, 2))
    assert pres.ee == {(1, 2): {3: 1}}
    assert pres.ef == {(1, 1): {1: 1}, (2, 2): {1: 1}}


def test_canonical_g_table():
    pres = canonical_presentation(class_G(4), make_format(6, 3))
    assert pres.ee == {}
    assert pres.ef == {(i, i): {1: 1} for i in range(1, 5)}
    with pytest.raises(DimensionMismatch):
        canonical_presentation(class_G(7), make_format(6, 3))


def test_canonical_h_table():
    pres = canonical_presentation(class_H(2, 1), make_format(6, 3))
    assert pres.ee == {(1, 3): {1: 1}, (2, 3): {2: 1}}
    assert pres.ef == {(3, 3): {1: 1}}
    with pytest.raises(DimensionMismatch):
        canonical_presentation(class_H(6, 0), make_format(6, 3))


def test_huge_formats_build_without_dense_vectors():
    import tracemalloc

    # A dense vector of length m + n - 1 = 10**9 would take about 8 GB.
    fmt = make_format(10**9, 1)
    tracemalloc.start()
    try:
        t = canonical_presentation(CLASS_T, fmt)
        h = arranged_presentation(class_H(2, 1), fmt, "H-ii")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert t.ee == {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}
    assert t.ef == {}
    assert h.ee == {(1, 2): {1: 1}, (1, 3): {2: 1}}
    assert h.ef == {(1, 3): {1: 1}}
    assert classify(t).label == CLASS_T
    assert classify(h).label == class_H(2, 1)


# -------------------------------------------------------------- arrangements


def test_arrangement_ids_are_stable():
    assert arrangement_ids() == ("T-A", "T-B", "G-std", "H-i", "H-ii", "H-iii", "H-iv", "H-v")


def test_arrangements_preserve_class():
    cases = [
        (CLASS_T, make_format(4, 3), "T-A"),
        (CLASS_T, make_format(4, 3), "T-B"),
        (CLASS_T, make_format(7, 5), "T-A"),
        (class_G(5), make_format(5, 1), "G-std"),
        (class_H(2, 1), make_format(6, 3), "H-i"),
        (class_H(2, 1), make_format(6, 3), "H-ii"),
        (class_H(1, 2), make_format(6, 3), "H-iii"),
        (class_H(2, 0), make_format(6, 3), "H-iv"),
        (class_H(2, 2), make_format(7, 4), "H-v"),
        (class_H(0, 1), make_format(5, 3), "H-ii"),
    ]
    for label, fmt, arrangement in cases:
        pres = arranged_presentation(label, fmt, arrangement)
        report = classify(pres)
        assert report.label == label, (str(label), str(fmt), arrangement, report)


def test_h_i_stores_the_sign_on_the_swapped_pair():
    pres = arranged_presentation(class_H(2, 1), make_format(6, 3), "H-i")
    # e_2 e_1 = f_1 means the stored (1,2) vector is -f_1.
    assert pres.ee[(1, 2)] == {1: -1}
    assert pres.ee_product(1, 2) == _unit(8, 1, -1)
    assert pres.ee_product(2, 1) == _unit(8, 1)


def test_arrangement_rejects_wrong_class_or_unknown_id():
    with pytest.raises(UnknownArrangement):
        arranged_presentation(CLASS_T, make_format(4, 3), "G-std")
    with pytest.raises(UnknownArrangement):
        arranged_presentation(CLASS_T, make_format(4, 3), "T-C")


def test_canonical_presentation_refuses_the_opaque_label():
    # The argument check accepts the opaque label; no canonical table does.
    with pytest.raises(UnknownArrangement) as refused:
        canonical_presentation(OPAQUE, make_format(4, 3))
    assert str(refused.value) == "no canonical table for label *"


def test_arrangement_dimension_guards():
    with pytest.raises(DimensionMismatch):
        arranged_presentation(CLASS_T, make_format(3, 3), "T-A")  # needs m >= 4
    with pytest.raises(DimensionMismatch):
        arranged_presentation(class_H(3, 0), make_format(4, 4), "H-v")  # needs m >= p+3


# Every witness builder (the canonical table and each arrangement), and
# every label up to G(8) and H(8,8); the grid below crosses them with every
# format up to (9,9).
_WITNESS_BUILDERS = [("canonical", canonical_presentation)] + [
    (arrangement, lambda label, fmt, arrangement=arrangement: arranged_presentation(label, fmt, arrangement))
    for arrangement in arrangement_ids()
]
_WITNESS_LABELS = [CLASS_C3, CLASS_T, CLASS_B, *map(class_G, range(2, 9))]
_WITNESS_LABELS += [class_H(p, q) for p in range(9) for q in range(9)]


def test_witness_builders_are_pinned():
    # On the witness grid: the table's document, or the refusal's type and
    # message.  `grade3 canonical` prints these refusals on stderr.
    digest = hashlib.sha256()
    for name, build in _WITNESS_BUILDERS:
        for label in _WITNESS_LABELS:
            for m in range(1, 10):
                for n in range(1, 10):
                    try:
                        row = presentation_to_document(build(label, make_format(m, n)))
                    except (DimensionMismatch, UnknownArrangement) as exc:
                        row = [type(exc).__name__, str(exc)]
                    digest.update(f"{name}|{label}|({m},{n})|{json.dumps(row, sort_keys=True)}\n".encode("utf-8"))
    assert digest.hexdigest() == "d26b1312f3cd641dae1c94ece8935461e6d0e84d597223ea44e2b83755a0b66d"


def test_witness_tables_hold_p_products_ee_and_r_products_ef():
    # `grade3 canonical` refuses an oversized table before building it, from
    # the class invariants (p, q, r) alone: it counts on every witness table
    # holding exactly p products e.e and r products e.f.  Every one is valid:
    # the need each builder reads off its pattern covers every index it uses.
    built = 0
    for name, build in _WITNESS_BUILDERS:
        for label in _WITNESS_LABELS:
            invariants = class_invariants(label)
            for m in range(1, 10):
                for n in range(1, 10):
                    try:
                        table = build(label, make_format(m, n))
                    except (DimensionMismatch, UnknownArrangement):
                        continue
                    assert (len(table.ee), len(table.ef)) == (invariants.p, invariants.r), (name, str(label), m, n)
                    assert validate_presentation(table) == (), (name, str(label), m, n)
                    built += 1
    assert built == 12586


def test_witness_builders_return_fresh_tables():
    # Callers may mutate a built table; no two calls share a product dict.
    fmt = make_format(6, 4)
    for label, build in [(CLASS_T, "T-A"), (CLASS_T, "T-B"), (class_H(2, 1), "H-i"), (class_H(2, 1), "H-ii")]:
        first, second = arranged_presentation(label, fmt, build), arranged_presentation(label, fmt, build)
        assert first == second
        assert first.ee is not second.ee and first.ef is not second.ef
        assert all(first.ee[key] is not second.ee[key] for key in first.ee)
    first, second = canonical_presentation(CLASS_T, fmt), canonical_presentation(CLASS_T, fmt)
    assert first.ee is not second.ee and all(first.ee[key] is not second.ee[key] for key in first.ee)


# ---------------------------------------------------------------- classifier


def test_invariant_examples():
    rep = classify(canonical_presentation(CLASS_T, make_format(4, 3)))
    assert (rep.p, rep.q, rep.r, rep.s1) == (3, 0, 0, 3)
    rep = classify(canonical_presentation(CLASS_B, make_format(5, 2)))
    assert (rep.p, rep.q, rep.r, rep.s1) == (1, 1, 2, 2)
    rep = classify(make_presentation(4, 2))
    assert (rep.p, rep.q, rep.r, rep.s1) == (0, 0, 0, 0)


def test_s1_separates_t_from_h30():
    t = classify(canonical_presentation(CLASS_T, make_format(5, 3)))
    h30 = classify(canonical_presentation(class_H(3, 0), make_format(5, 3)))
    assert (t.p, t.q, t.r) == (h30.p, h30.q, h30.r) == (3, 0, 0)
    assert t.s1 == 3
    assert h30.s1 == 4


def test_classify_round_trip_spot_checks():
    cases = [
        (CLASS_C3, make_format(3, 1)),
        (CLASS_T, make_format(4, 3)),
        (CLASS_B, make_format(6, 2)),
        (class_G(2), make_format(4, 2)),
        (class_G(6), make_format(8, 4)),
        (class_H(0, 0), make_format(4, 2)),
        (class_H(0, 1), make_format(4, 2)),
        (class_H(4, 3), make_format(8, 5)),
    ]
    for label, fmt in cases:
        report = classify(canonical_presentation(label, fmt))
        assert report.label == label
        assert not report.unclassifiable


def _fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction on dense rows."""
    matrix = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / matrix[rank][col]
            matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


@st.composite
def _valid_tables(draw):
    """Valid tables with coefficients in -3..3, often with n small against m.

    Most products are alone in their row of the r or s1 matrix (ee on a
    matching of the e basis, ef on distinct f's), so a column numbering that
    merged two columns would lower a rank; a few denser products ride along.
    """
    m = draw(st.integers(min_value=2, max_value=14))
    n = draw(st.sampled_from([1, 1, 2, 3, 6, 16]))
    d2 = m + n - 1
    coeff = st.integers(-3, 3)
    e = draw(st.permutations(range(1, m + 1)))
    ee = {tuple(sorted(e[k : k + 2])): {draw(st.integers(1, d2)): draw(coeff)} for k in range(0, m - 1, 2)}
    distinct_l = draw(st.sets(st.integers(1, d2)))
    ef = {(draw(st.integers(1, m)), l): {draw(st.integers(1, n)): draw(coeff)} for l in distinct_l}
    ee_key = st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True).map(lambda ij: tuple(sorted(ij)))
    ee.update(draw(st.dictionaries(ee_key, st.dictionaries(st.integers(1, d2), coeff, max_size=3), max_size=3)))
    ef_key = st.tuples(st.integers(1, m), st.integers(1, d2))
    ef.update(draw(st.dictionaries(ef_key, st.dictionaries(st.integers(1, n), coeff, max_size=3), max_size=3)))
    return make_presentation(m, n, ee, ef)


@settings(max_examples=150, deadline=None)
@given(_valid_tables())
def test_classify_matches_dense_fraction_ranks(table):
    m, d2 = table.m, table.dim2
    assert validate_presentation(table) == ()
    e, f = range(1, m + 1), range(1, d2 + 1)
    p = _fraction_rank([table.ee_product(i, j) for i in e for j in e if i < j])
    q = _fraction_rank([table.ef_product(i, l) for i in e for l in f])
    # r: f_l -> (e_i -> e_i f_l) in Hom(A1, A3); s1: e_i -> (e_j -> e_i e_j) in Hom(A1, A2).
    r = _fraction_rank([[c for i in e for c in table.ef_product(i, l)] for l in f])
    s1 = _fraction_rank([[c for j in e for c in table.ee_product(i, j)] for i in e])
    rep = classify(table)
    assert (rep.p, rep.q, rep.r, rep.s1) == (p, q, r, s1)
    assert rep.unclassifiable == (rep.label is None)


def test_report_stores_the_ranks_and_the_label_only():
    # Whether a table is unclassifiable is read off its label, not stored beside it.
    assert ClassifierReport._fields == ("p", "q", "r", "s1", "label")
    assert not classify(canonical_presentation(CLASS_T, make_format(4, 3))).unclassifiable
    assert ClassifierReport(0, 1, 2, 0, None).unclassifiable


def test_classify_flags_unclassifiable_tables():
    # Two ef products on distinct e's hit the same g, so q = 1 while the
    # Hom-rank r is 2; with p = 2 no row of the invariant table matches.
    pres = make_presentation(
        4,
        3,
        {(1, 2): _unit(6, 1), (1, 3): _unit(6, 2)},
        {(1, 3): _unit(3, 1), (2, 4): _unit(3, 1)},
    )
    report = classify(pres)
    assert report.unclassifiable
    assert report.label is None


@pytest.mark.parametrize("function", [classify, validate_presentation, presentation_to_document])
@pytest.mark.parametrize("value, shown", [("x", "'x'"), (None, "None")])
def test_table_functions_refuse_a_non_table(function, value, shown):
    with pytest.raises(DimensionMismatch) as info:
        function(value)
    assert str(info.value) == f"expected TorPresentation, got {shown}"


@pytest.mark.parametrize("function", [classify, presentation_to_document])
def test_table_functions_refuse_a_table_whose_products_are_not_maps(function):
    with pytest.raises(DimensionMismatch) as info:
        function(TorPresentation(4, 3, None, None))
    assert str(info.value).startswith("TorPresentation has a field of the wrong type (")


@pytest.mark.parametrize("function", [classify, presentation_to_document])
@pytest.mark.parametrize("field", ["ee", "ef"])
@pytest.mark.parametrize("key", [(1, 2, 3), (1,)])
def test_table_functions_refuse_a_product_key_that_is_not_a_pair(function, field, key):
    # Unpacking such a key raises ValueError, which is worded as a malformed table.
    fields = {"ee": {}, "ef": {}, field: {key: {1: 1}}}
    with pytest.raises(DimensionMismatch) as info:
        function(TorPresentation(4, 3, fields["ee"], fields["ef"]))
    assert str(info.value).startswith("TorPresentation has a field of the wrong type (")
    assert "values to unpack" in str(info.value)


def test_table_functions_pass_the_errors_they_raise_through_unchanged():
    # Every Grade3Error is a ValueError, which these functions catch to word a
    # product key that is not a pair; their own refusals keep type and text.
    with pytest.raises(DimensionMismatch) as info:
        classify(TorPresentation(4, 3, {(1, 2): [1]}, {}))  # sparse_rank's refusal
    assert str(info.value).startswith("rows must be an iterable of column -> entry maps: ")
    with pytest.raises(DocumentError) as info:
        presentation_to_document(TorPresentation(MAX_DOCUMENT_CELLS + 1, 1, {(1, 2): {1: 1}}, {}))
    assert str(info.value) == (
        f"table would hold {MAX_DOCUMENT_CELLS + 1} coefficients as dense vectors; the limit is {MAX_DOCUMENT_CELLS}"
    )


def test_validation_words_a_product_field_that_is_not_a_mapping():
    # Beside the problems of the other field, as for any other problem.
    ef = {(1, 1): {1: 2}, (9, 1): {1: 1}}
    assert validate_presentation(TorPresentation(4, 3, None, ef)) == (
        "ee must be a mapping, got None",
        "ef key (9,1) out of range: need 1 <= i <= m = 4",
    )
    assert validate_presentation(TorPresentation(4, 3, {}, [1])) == ("ef must be a mapping, got [1]",)


def test_validation_words_a_product_that_is_not_a_mapping():
    # classify refuses the same table; validation words it after the key's range problems.
    ee = {(1, 2): [1], (3, 9): None}
    assert validate_presentation(TorPresentation(4, 3, ee, {})) == (
        "ee[(1,2)] must be a mapping, got [1]",
        "ee key (3,9) out of range: need 1 <= i < j <= m = 4",
        "ee[(3,9)] must be a mapping, got None",
    )


def test_classify_needs_c3_format():
    # The C(3) multiplication pattern in a larger format is not C(3).
    fmt = make_format(4, 2)
    ee = {(1, 2): _unit(5, 3), (2, 3): _unit(5, 1), (1, 3): _unit(5, 2, -1)}
    ef = {(i, i): _unit(2, 1) for i in (1, 2, 3)}
    report = classify(make_presentation(4, 2, ee, ef))
    assert report.label != CLASS_C3
    del fmt


# --------------------------------------------------------- label-only path


def test_label_path_agrees_with_classify_on_witness_tables():
    # Every canonical and arranged table that fits a format up to (8,8).
    seen = set()
    for m in range(1, 9):
        for n in range(1, 9):
            fmt = make_format(m, n)
            labels = [CLASS_C3, CLASS_T, CLASS_B, *map(class_G, range(2, m + 2))]
            labels += [class_H(p, q) for p in range(m + 1) for q in range(n + 1)]
            for label in labels:
                tables = []
                for arrangement in (None, *arrangement_ids()):
                    try:
                        if arrangement is None:
                            tables.append(canonical_presentation(label, fmt))
                        else:
                            tables.append(arranged_presentation(label, fmt, arrangement))
                    except (DimensionMismatch, UnknownArrangement):
                        pass
                for table in tables:
                    assert _class_label(table) == classify(table).label == label, (label, fmt)
                    seen.add(label)
    assert {CLASS_C3, CLASS_T, CLASS_B, class_G(8), class_H(3, 0), class_H(7, 8)} <= seen


@settings(max_examples=150, deadline=None)
@given(_valid_tables())
def test_label_path_agrees_with_classify(table):
    assert _class_label(table) == classify(table).label


# Three ee products e_x e_y = c f_k on distinct f's, keyed by the shape of
# their pairs, and s1 for each: a triangle on three e's, a star or a path on
# four, a path and a disjoint pair on five, a matching on six.
_SHAPES = {
    "triangle": (((0, 1), (0, 2), (1, 2)), 3),
    "star": (((0, 1), (0, 2), (0, 3)), 4),
    "path": (((0, 1), (1, 2), (2, 3)), 4),
    "fork": (((0, 1), (2, 3), (3, 4)), 5),
    "matching": (((0, 1), (2, 3), (4, 5)), 6),
}


@st.composite
def _pqr_300_tables(draw):
    """A table with (p,q,r) = (3,0,0) under a seeded change of basis, and its s1."""
    pairs, s1 = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
    m, n = draw(st.integers(6, 9)), draw(st.integers(1, 4))
    e = draw(st.permutations(range(1, m + 1)))
    f = draw(st.permutations(range(1, m + n)))
    coeff = st.sampled_from([1, -1, 2, -3, 7])
    ee = {tuple(sorted((e[x], e[y]))): {f[k]: draw(coeff)} for k, (x, y) in enumerate(pairs)}
    table = _signed_relabel(make_presentation(m, n, ee), random.Random(draw(st.integers(0, 2**32 - 1))))
    return table, s1


@st.composite
def _unclassifiable_tables(draw):
    """(p,q,r) = (p,1,2) with p = 2 or 3: two ef products on distinct e's and
    distinct f's reach one g, which no class allows beside ee products."""
    m, n = draw(st.integers(6, 9)), draw(st.integers(1, 4))
    e = draw(st.permutations(range(1, m + 1)))
    f = draw(st.permutations(range(1, m + n)))
    coeff = st.sampled_from([1, -1, 2, -3, 7])
    p = draw(st.sampled_from([2, 3]))
    ee = {tuple(sorted((e[2 * k], e[2 * k + 1]))): {f[k]: draw(coeff)} for k in range(p)}
    t = draw(st.integers(1, n))
    ef = {(e[k], f[3 + k]): {t: draw(coeff)} for k in range(2)}
    return _signed_relabel(make_presentation(m, n, ee, ef), random.Random(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=100, deadline=None)
@given(_pqr_300_tables())
def test_label_path_reads_s1_at_300(case):
    table, s1 = case
    report = classify(table)
    assert (report.p, report.q, report.r, report.s1) == (3, 0, 0, s1)
    assert _class_label(table) == report.label
    if s1 in (3, 4):
        assert report.label == (CLASS_T if s1 == 3 else class_H(3, 0))


@settings(max_examples=60, deadline=None)
@given(_unclassifiable_tables())
def test_label_path_leaves_unclassifiable_tables_without_a_label(table):
    report = classify(table)
    assert (report.q, report.r, report.unclassifiable) == (1, 2, True)
    assert _class_label(table) is None


# ------------------------------------------------- basis-invariance property


def _signed_relabel(pres, rng):
    """Change of basis by seeded signed permutations of the e, f and g bases.

    Old ``e_i`` is ``e_sign[i] * e'_{e_new[i]}`` (likewise for f and g); only
    stored products are visited, so this stays cheap at large formats.
    """

    def signed_perm(size):
        new = list(range(1, size + 1))
        rng.shuffle(new)
        return [0] + new, [0] + [rng.choice((-1, 1)) for _ in range(size)]

    m, n, d2 = pres.m, pres.n, pres.dim2
    e_new, e_sign = signed_perm(m)
    f_new, f_sign = signed_perm(d2)
    g_new, g_sign = signed_perm(n)
    ee = {}
    for (i, j), coords in pres.ee.items():
        a, b, sign = e_new[i], e_new[j], e_sign[i] * e_sign[j]
        if a > b:
            a, b, sign = b, a, -sign
        ee[(a, b)] = {f_new[l]: sign * f_sign[l] * c for l, c in coords.items()}
    ef = {}
    for (i, l), coords in pres.ef.items():
        sign = e_sign[i] * f_sign[l]
        ef[(e_new[i], f_new[l])] = {g_new[t]: sign * g_sign[t] * c for t, c in coords.items()}
    return make_presentation(m, n, ee, ef)


@settings(max_examples=60)
@given(
    label_fmt=st.sampled_from(
        [
            (CLASS_T, (5, 3)),
            (CLASS_B, (5, 2)),
            (class_G(3), (5, 2)),
            (class_H(2, 1), (5, 3)),
            (class_H(1, 2), (5, 3)),
        ]
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_classify_is_invariant_under_basis_permutation(label_fmt, seed):
    """Permuting the e, f, g bases (with signs) never changes the label."""
    label, (m, n) = label_fmt
    base = canonical_presentation(label, make_format(m, n))
    permuted = _signed_relabel(base, random.Random(seed))
    assert validate_presentation(permuted) == ()
    assert classify(permuted).label == label


# ------------------------------------------------------------ large formats


@pytest.mark.parametrize("k", [50, 200])
def test_classify_large_canonical_h(k):
    table = canonical_presentation(class_H(k, k), make_format(2 * k, 2 * k))
    moved = _signed_relabel(table, random.Random(k))
    assert moved.ee != table.ee
    for pres in (table, moved):
        rep = classify(pres)
        assert rep.label == class_H(k, k)
        assert (rep.p, rep.q, rep.r, rep.s1) == (k, k, k, k + 1)


# ------------------------------------------------------------------ validate


def test_validate_accepts_canonical_tables():
    for label, fmt in [(CLASS_T, (4, 3)), (CLASS_B, (5, 2)), (class_H(2, 2), (6, 4))]:
        pres = canonical_presentation(label, make_format(*fmt))
        assert validate_presentation(pres) == ()


def test_validate_reports_range_and_length_problems():
    pres = make_presentation(3, 2, {(2, 1): (1, 0, 0, 0)}, {(4, 1): (1, 1)})
    diags = validate_presentation(pres)
    assert any("ee key (2,1)" in d for d in diags)
    assert any("ef key (4,1)" in d for d in diags)
    # A dense vector of the wrong length cannot be stored at all.
    with pytest.raises(DimensionMismatch, match="entries"):
        make_presentation(3, 2, {(1, 2): (1, 0)})
    with pytest.raises(DimensionMismatch, match="entries"):
        make_presentation(3, 2, {}, {(1, 1): (1, 0, 0)})
    pres = make_presentation(3, 2, {(1, 2): {5: 1}}, {(1, 9): {1: 1}, (1, 1): {3: 1}})
    diags = validate_presentation(pres)
    assert any("ee[(1,2)] coordinate 5 out of range" in d for d in diags)
    assert any("ef[(1,1)] coordinate 3 out of range" in d for d in diags)
    assert any("ef key (1,9) out of range" in d for d in diags)
    with pytest.raises(DimensionMismatch, match="outside a basis of 4"):
        pres.ee_product(2, 1)
    odd = TorPresentation(3, 2, {(1, 2): {1: 0.5}}, {(1, 1): {3: 1, 1: 2}})
    assert validate_presentation(odd) == (
        "ee[(1,2)] has non-integer entries",
        "ef[(1,1)] coordinate 3 out of range: need 1 <= k <= n = 2",
    )
    # make_format refuses a bool m or n, and the document reader the "m": true
    # that presentation_to_document would write for one.
    assert validate_presentation(TorPresentation(True, 1, {}, {(1, 1): {1: 1}})) == (
        "m must be a positive integer, got True",
    )
    assert validate_presentation(TorPresentation(False, True, {}, {})) == (
        "m must be a positive integer, got False",
        "n must be a positive integer, got True",
    )


def test_validate_reports_keys_that_are_not_integer_pairs():
    # Once (), with the table classified H(1,0); then a TypeError from the range
    # comparison; then a TypeError from sorting int keys against str keys.
    assert validate_presentation(TorPresentation(3, 1, {(1.5, 2): {1: 1}}, {})) == (
        "ee key (1.5, 2) is not a pair of integers",
    )
    assert validate_presentation(TorPresentation(3, 1, {}, {("a", 2): {1: 1}})) == (
        "ef key ('a', 2) is not a pair of integers",
    )
    mixed = TorPresentation(3, 1, {(2, 3): {9: 1}, ("a", "b"): {1: 1}, (1, 2): {1: 1}, 7: {1: 1}}, {})
    assert validate_presentation(mixed) == (
        "ee key ('a', 'b') is not a pair of integers",
        "ee key 7 is not a pair of integers",
        "ee[(2,3)] coordinate 9 out of range: need 1 <= k <= m+n-1 = 3",
    )


def test_validate_words_indices_too_long_to_print():
    # An index or coordinate with more digits than str() prints is worded as
    # a bound, in a key that is a pair and in one that is not.
    huge = 10**5000
    more, less = "2**16609 or more", "-2**16609 or less"
    cases = [
        ({(huge, 1): {1: 1}}, {}, f"ee key ({more},1) out of range: need 1 <= i < j <= m = 3"),
        ({(1, 2): {huge: 1}}, {}, f"ee[(1,2)] coordinate {more} out of range: need 1 <= k <= m+n-1 = 3"),
        ({}, {(huge, 1): {1: 1}}, f"ef key ({more},1) out of range: need 1 <= i <= m = 3"),
        ({}, {(1, 1): {huge: 1}}, f"ef[(1,1)] coordinate {more} out of range: need 1 <= k <= n = 1"),
        ({(-huge, 2): {1: 1}}, {}, f"ee key ({less},2) out of range: need 1 <= i < j <= m = 3"),
        ({(huge,): {1: 1}}, {}, f"ee key ({more},) is not a pair of integers"),
        ({}, {(1, huge, 2.5): {1: 1}}, f"ef key (1, {more}, 2.5) is not a pair of integers"),
    ]
    for ee, ef, text in cases:
        assert validate_presentation(TorPresentation(3, 1, ee, ef)) == (text,)


def _seeded_table(rng):
    """A small table whose keys, coordinates and coefficients stray now and then."""
    m, n = rng.randint(1, 5), rng.randint(1, 4)
    d2 = m + n - 1

    def entry(hi):
        return rng.choice([rng.randint(1, hi)] * 12 + [0, hi + 1, 1.5, 2.0, "1", None, True])

    def product(hi):
        return {entry(hi): entry(3) for _ in range(rng.randint(1, 3))}

    ee = {}
    for _ in range(rng.randint(0, 4)):
        i, j = entry(m), entry(m)
        if type(i) is type(j) is int and i > j and rng.random() < 0.8:
            i, j = j, i
        ee[rng.choice([(i, j)] * 20 + [(i,), (i, j, 1), i])] = product(d2)
    ef = {(entry(m), entry(d2)): product(n) for _ in range(rng.randint(0, 4))}
    return TorPresentation(m, n, ee, ef)


def _index_pair(key):
    try:
        i, j = key
    except (TypeError, ValueError):
        return None
    return (i, j) if type(i) is type(j) is int else None


def _coordinate_problems(where, coords, bound, size):
    if not all(type(k) is type(c) is int for k, c in coords.items()):
        return [f"{where} has non-integer entries"]
    return [
        f"{where} coordinate {k} out of range: need 1 <= k <= {bound} = {size}"
        for k in sorted(coords)
        if not 1 <= k <= size
    ]


def _diagnostic_scan(a):
    """The problems of a table with positive integer m and n, found by rescanning it in
    sorted key order (malformed keys first): the order validate_presentation promises."""
    diags, d2 = [], a.m + a.n - 1
    for key, coords in sorted(a.ee.items(), key=lambda item: _index_pair(item[0]) or ()):
        if (pair := _index_pair(key)) is None:
            diags.append(f"ee key {key!r} is not a pair of integers")
            continue
        i, j = pair
        if not 1 <= i < j <= a.m:
            diags.append(f"ee key ({i},{j}) out of range: need 1 <= i < j <= m = {a.m}")
        diags += _coordinate_problems(f"ee[({i},{j})]", coords, "m+n-1", d2)
    for key, coords in sorted(a.ef.items(), key=lambda item: _index_pair(item[0]) or ()):
        if (pair := _index_pair(key)) is None:
            diags.append(f"ef key {key!r} is not a pair of integers")
            continue
        i, l = pair
        if not 1 <= i <= a.m:
            diags.append(f"ef key ({i},{l}) out of range: need 1 <= i <= m = {a.m}")
        if not 1 <= l <= d2:
            diags.append(f"ef key ({i},{l}) out of range: need 1 <= l <= m+n-1 = {d2}")
        diags += _coordinate_problems(f"ef[({i},{l})]", coords, "n", a.n)
    return diags


@pytest.mark.parametrize("seed", range(4))
def test_fast_pass_agrees_with_diagnostic_scan(seed):
    # The one unsorted pass of validate_presentation against a plain sorted rescan.
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(2000):
        table = _seeded_table(rng)
        diags = _diagnostic_scan(table)
        assert validate_presentation(table) == tuple(diags)
        outcomes.add(bool(diags))
    assert outcomes == {True, False}


def test_validation_of_seeded_tables_is_pinned():
    # 8 000 seeded tables, 7 641 of them with problems: the digest pins the wording and
    # the order of every line validate_presentation gives for them.  A key index,
    # coordinate or coefficient that is True counts as a problem, as in a document.
    lines, flagged = [], 0
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(2000):
            diags = validate_presentation(_seeded_table(rng))
            flagged += bool(diags)
            lines.append("|".join(diags))
    assert flagged == 7641
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "f96051a96e6e83fc0cb37729c9e601a45ac7edb96a90f937d14d138aef792594"
    )


def test_validate_refuses_bool_entries_as_the_document_reader_does():
    # True equals 1, but the document reader takes exact ints only, so the
    # document of this table would be refused.
    table = TorPresentation(3, 1, {(1, 2): {True: 1}}, {(True, 1): {1: True}})
    assert validate_presentation(table) == (
        "ee[(1,2)] has non-integer entries",
        "ef key (True, 1) is not a pair of integers",
    )
    with pytest.raises(DocumentError):
        presentation_from_document(presentation_to_document(table))
    assert validate_presentation(TorPresentation(3, 1, {(1, 2): {1: False}}, {})) == (
        "ee[(1,2)] has non-integer entries",
    )


def test_every_table_validate_accepts_round_trips_through_its_document():
    # The seeded tables of the pin above: each one that validates has a
    # document the reader takes back, as the table less its zero coefficients.
    accepted = 0
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(2000):
            table = _seeded_table(rng)
            if validate_presentation(table):
                continue
            accepted += 1
            kept = [
                {key: nonzero for key, coords in products.items() if (nonzero := {k: c for k, c in coords.items() if c})}
                for products in (table.ee, table.ef)
            ]
            back = presentation_from_document(presentation_to_document(table))
            assert back == TorPresentation(table.m, table.n, *kept)
    assert accepted == 8000 - 7641


# ------------------------------------------------------------- serialization


def test_document_form_is_sorted_and_exact():
    pres = canonical_presentation(CLASS_C3, make_format(3, 1))
    doc = presentation_to_document(pres)
    assert doc["version"] == 1
    assert (doc["m"], doc["n"]) == (3, 1)
    assert doc["ee"] == [[1, 2, 3, 1], [1, 3, 2, -1], [2, 3, 1, 1]]
    assert doc["ef"] == [[1, 1, 1, 1], [2, 2, 1, 1], [3, 3, 1, 1]]
    assert presentation_from_document(doc) == pres


_small_tables = st.builds(
    lambda m, n, ee_entries, ef_entries: (m, n, ee_entries, ef_entries),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(-3, 3)), max_size=8),
    st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(-3, 3)), max_size=8),
)


@settings(max_examples=120)
@given(_small_tables)
def test_document_round_trip(data):
    m, n, ee_entries, ef_entries = data
    d2 = m + n - 1
    ee: dict[tuple[int, int], list[int]] = {}
    for a, b, coeff in ee_entries:
        i, j = sorted((a % m + 1, b % m + 1))
        if i == j:
            continue
        vec = ee.setdefault((i, j), [0] * d2)
        vec[(a + b) % d2] = coeff
    ef: dict[tuple[int, int], list[int]] = {}
    for a, b, coeff in ef_entries:
        vec = ef.setdefault((a % m + 1, b % d2 + 1), [0] * n)
        vec[(a + b) % n] = coeff
    pres = make_presentation(m, n, ee, ef)
    doc = presentation_to_document(pres)
    back = presentation_from_document(doc)
    assert back == pres
    assert presentation_to_document(back) == doc


def test_document_parser_is_strict():
    good = presentation_to_document(canonical_presentation(CLASS_B, make_format(5, 2)))
    with pytest.raises(DocumentError):
        presentation_from_document([])
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "extra": 1})
    with pytest.raises(DocumentError):
        presentation_from_document({k: v for k, v in good.items() if k != "m"})
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "version": 2})
    for version in (True, 1.0, "1"):
        with pytest.raises(DocumentError):
            presentation_from_document({**good, "version": version})
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "m": "5"})
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "ee": [[1, 2, 3]]})
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "ee": [[0, 2, 3, 1]]})
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "ee": [[1, 2, 99, 1]]})
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "ee": [[1, 2, 99, 0]]})
    with pytest.raises(DocumentError):
        presentation_from_document({**good, "ef": [[1, 2, 3, True]]})


def test_document_parser_accumulates_repeats():
    doc = {
        "version": 1,
        "m": 3,
        "n": 2,
        "ee": [[1, 2, 1, 1], [1, 2, 1, 2]],
        "ef": [[1, 1, 1, 1], [1, 1, 1, -1]],
    }
    pres = presentation_from_document(doc)
    assert pres.ee == {(1, 2): {1: 3}}
    assert pres.ef == {}


@st.composite
def _documents(draw):
    """Documents whose quadruples repeat and cancel, now and then with one out of range."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    d2 = m + n - 1
    ee_rows = st.tuples(st.integers(1, m), st.integers(1, m), st.integers(1, d2), st.integers(-3, 3))
    ee = [[min(i, j), max(i, j), k, c] for i, j, k, c in draw(st.lists(ee_rows, max_size=8)) if i != j]
    ef_rows = st.tuples(st.integers(1, m), st.integers(1, d2), st.integers(1, n), st.integers(-3, 3))
    rows = {"ee": ee, "ef": [list(row) for row in draw(st.lists(ef_rows, max_size=8))]}
    for field in rows:
        base = rows[field]
        again = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from([1, -1])), max_size=6)) if base else []
        base += [[a, b, k, sign * c] for (a, b, k, c), sign in again]
        if base and draw(st.integers(0, 5)) == 0:  # one entry moved just out of range
            row = draw(st.sampled_from(base))
            row[draw(st.integers(0, 2))] = draw(st.sampled_from([0, m + 1, d2 + 1, n + 1]))
    return {"version": 1, "m": m, "n": n, **rows}


@settings(max_examples=300)
@given(_documents())
def test_document_reader_equals_make_presentation(doc):
    m, n = doc["m"], doc["n"]
    maps: tuple[dict, dict] = ({}, {})
    for table, rows in zip(maps, (doc["ee"], doc["ef"])):
        for a, b, k, c in rows:
            coords = table.setdefault((a, b), {})
            coords[k] = coords.get(k, 0) + c
    diags = validate_presentation(TorPresentation(m, n, *maps))
    if diags:
        with pytest.raises(DocumentError) as refused:
            presentation_from_document(doc)
        assert str(refused.value) == diags[0]
    else:
        assert presentation_from_document(doc) == make_presentation(m, n, *maps)


def test_document_refusals_name_the_first_problem():
    good = presentation_to_document(canonical_presentation(CLASS_B, make_format(5, 2)))
    cases = [
        ({"ee": [[1, 2, 99, 0]]}, "ee[(1,2)] coordinate 99 out of range: need 1 <= k <= m+n-1 = 6"),
        ({"ee": [[2, 2, 1, 1], [0, 2, 1, 1]]}, "ee key (0,2) out of range: need 1 <= i < j <= m = 5"),
        ({"ef": [[1, 7, 1, 1]]}, "ef key (1,7) out of range: need 1 <= l <= m+n-1 = 6"),
        ({"m": 0}, "m must be a positive integer, got 0"),
    ]
    for change, text in cases:
        with pytest.raises(DocumentError) as refused:
            presentation_from_document({**good, **change})
        assert str(refused.value) == text


def test_builders_refuse_more_products_than_the_limit_before_building():
    import tracemalloc

    # H(0, 10**8) in format (1, 10**8) fits, with 10**8 products e.f, and
    # G(10**8) in (10**8, 1) with as many; the builders refuse both before
    # building one, as the document reader and writers would refuse them.
    huge = 10**8
    cases = [
        (canonical_presentation, class_H(0, huge), make_format(1, huge)),
        (lambda label, fmt: arranged_presentation(label, fmt, "H-ii"), class_H(0, huge), make_format(1, huge)),
        (canonical_presentation, class_G(huge), make_format(huge, 1)),
        (lambda label, fmt: arranged_presentation(label, fmt, "G-std"), class_G(huge), make_format(huge, 1)),
    ]
    tracemalloc.start()
    try:
        for build, label, fmt in cases:
            with pytest.raises(DocumentError) as refused:
                build(label, fmt)
            p, _, r = class_invariants(label)
            cells = p * (fmt.m + fmt.n - 1) + r * fmt.n
            assert str(refused.value) == (
                f"table would hold {cells} coefficients as dense vectors; the limit is {MAX_DOCUMENT_CELLS}"
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # The first count over the limit, split over both kinds of product, on
    # every H arrangement; a table that does not fit is refused for that first.
    for name, build in _WITNESS_BUILDERS:
        if name.startswith("T-") or name == "G-std":
            continue
        label = class_H(2, MAX_DOCUMENT_CELLS - 1)
        with pytest.raises(DocumentError, match="limit"):
            build(label, make_format(6, MAX_DOCUMENT_CELLS))
        with pytest.raises(DimensionMismatch):
            build(label, make_format(6, MAX_DOCUMENT_CELLS - 2))


def test_document_size_limit_fires_before_allocation():
    import tracemalloc

    # One product whose dense vector would be just over the limit.
    m = MAX_DOCUMENT_CELLS + 1
    doc = {"version": 1, "m": m, "n": 1, "ee": [[1, 2, 1, 1]], "ef": []}
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError, match="limit"):
            presentation_from_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # The size is distinct products times vector length, across ee and ef.
    many = {"version": 1, "m": 2000, "n": 2000, "ee": [[1, j, 1, 1] for j in range(2, 1300)], "ef": []}
    with pytest.raises(DocumentError, match="limit"):
        presentation_from_document(many)
    repeated = {**many, "ee": [[1, 2, l, 1] for l in range(1, 1300)]}
    assert presentation_from_document(repeated).ee_product(1, 2)[:3] == (1, 1, 1)
