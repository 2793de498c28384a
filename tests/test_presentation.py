"""Canonical tables, arrangements, the rank classifier, and serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade3 import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    DimensionMismatch,
    DocumentError,
    UnknownArrangement,
    arranged_presentation,
    arrangement_ids,
    canonical_presentation,
    class_G,
    class_H,
    classify,
    compute_pqrs,
    make_format,
    make_presentation,
    presentation_from_document,
    presentation_to_document,
    validate_presentation,
)
from grade3.presentation import MAX_DOCUMENT_CELLS, TorPresentation


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


def test_make_presentation_drops_zero_vectors():
    pres = make_presentation(4, 2, {(1, 2): (0, 0, 0, 0, 0)}, {(1, 1): (0, 0)})
    assert pres.ee == {}
    assert pres.ef == {}


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


def test_arrangement_dimension_guards():
    with pytest.raises(DimensionMismatch):
        arranged_presentation(CLASS_T, make_format(3, 3), "T-A")  # needs m >= 4
    with pytest.raises(DimensionMismatch):
        arranged_presentation(class_H(3, 0), make_format(4, 4), "H-v")  # needs m >= p+3


# ---------------------------------------------------------------- classifier


def test_invariant_examples():
    rep = compute_pqrs(canonical_presentation(CLASS_T, make_format(4, 3)))
    assert (rep.p, rep.q, rep.r, rep.s1) == (3, 0, 0, 3)
    rep = compute_pqrs(canonical_presentation(CLASS_B, make_format(5, 2)))
    assert (rep.p, rep.q, rep.r, rep.s1) == (1, 1, 2, 2)
    rep = compute_pqrs(make_presentation(4, 2))
    assert (rep.p, rep.q, rep.r, rep.s1) == (0, 0, 0, 0)


def test_s1_separates_t_from_h30():
    t = compute_pqrs(canonical_presentation(CLASS_T, make_format(5, 3)))
    h30 = compute_pqrs(canonical_presentation(class_H(3, 0), make_format(5, 3)))
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


def test_classify_needs_c3_format():
    # The C(3) multiplication pattern in a larger format is not C(3).
    fmt = make_format(4, 2)
    ee = {(1, 2): _unit(5, 3), (2, 3): _unit(5, 1), (1, 3): _unit(5, 2, -1)}
    ef = {(i, i): _unit(2, 1) for i in (1, 2, 3)}
    report = classify(make_presentation(4, 2, ee, ef))
    assert report.label != CLASS_C3
    del fmt


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
