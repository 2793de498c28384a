"""Presentation documents built by the benchmark itself, with their expected answers.

The benchmark does not ask grade3 for its inputs.  This module writes the
multiplication tables straight from their definitions as presentation
documents (``{"version": 1, "m", "n", "ee": [[i, j, l, c]...], "ef":
[[i, l, t, c]...]}``), and it knows what the program must answer for each:

* the class label and the invariants (p, q, r, s1) of a canonical table;
* the class and format a linkage row claims for an arranged table
  (Christensen-Veliche-Weyman 2020, as restated in the grade3 rulebook).

A seeded change of basis keeps the class but moves the products around:
a signed permutation of each of the three bases plus integer shears
``e_a -> e_a + c e_b`` of the degree-1 basis.  The shears only join
vectors that each take part in at most one product of two degree-1
vectors (never the hub of an H table), so the number of stored products,
and with it the size of the rank problems, stays what the table's shape
says, while the fill pattern changes.
"""

from __future__ import annotations

import random

# A table: ee[(i, j)] = {l: c} with i < j, ef[(i, l)] = {t: c}; all indices 1-based.
Table = tuple[int, int, dict, dict]


def label_text(tag: str, a: int = 0, b: int = 0) -> str:
    if tag == "H":
        return f"H({a},{b})"
    if tag == "G":
        return f"G({a})"
    return tag


def canonical(tag: str, m: int, n: int, a: int = 0, b: int = 0) -> Table:
    """The canonical table of a class: T, B, G(r) with r = a, or H(p,q) with (p, q) = (a, b)."""
    if tag == "T":
        return m, n, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}, {}
    if tag == "B":
        return m, n, {(1, 2): {3: 1}}, {(1, 1): {1: 1}, (2, 2): {1: 1}}
    if tag == "G":
        return m, n, {}, {(i, i): {1: 1} for i in range(1, a + 1)}
    if tag == "H":
        p, q = a, b
        ee = {(i, p + 1): {i: 1} for i in range(1, p + 1)}
        ef = {(p + 1, p + i): {i: 1} for i in range(1, q + 1)}
        return m, n, ee, ef
    raise ValueError(tag)


def arranged(arrangement: str, m: int, n: int, a: int = 0, b: int = 0) -> Table:
    """The arranged tables the linkage rows are stated on (see ``LINK_ROWS``)."""
    if arrangement == "T-A":
        return m, n, {(1, 2): {1: 1}, (1, 4): {2: 1}, (2, 4): {3: 1}}, {}
    if arrangement == "T-B":
        return m, n, {(2, 3): {1: 1}, (2, 4): {2: 1}, (3, 4): {3: 1}}, {}
    if arrangement == "G-std":
        return canonical("G", m, n, a)
    p, q = a, b
    if arrangement == "H-i":
        ee = {(1, 2): {1: -1}}
        ee.update({(2, i + 1): {i: 1} for i in range(2, p + 1)})
        return m, n, ee, {(2, p + i): {i: 1} for i in range(1, q + 1)}
    if arrangement == "H-iii":
        ee = {(1, 3): {1: -1}}
        ee.update({(3, i + 2): {i: 1} for i in range(2, p + 1)})
        return m, n, ee, {(3, p + i): {i: 1} for i in range(1, q + 1)}
    shift = {"H-ii": 1, "H-iv": 2, "H-v": 3}[arrangement]
    ee = {(1, i + shift): {i: 1} for i in range(1, p + 1)}
    return m, n, ee, {(1, p + i): {i: 1} for i in range(1, q + 1)}


def expected_invariants(tag: str, a: int = 0, b: int = 0) -> tuple[int, int, int, int]:
    """(p, q, r, s1) of a class; s1 counts degree-1 directions acting on degree 1."""
    if tag == "T":
        return 3, 0, 0, 3
    if tag == "B":
        return 1, 1, 2, 2
    if tag == "G":
        return 0, 1, a, 0
    return a, b, b, (a + 1 if a else 0)


# Linkage rows: arrangement, link spec (t1, phi2_unit), and the claimed output
# class as a function of the input (p, q); the output format is (n+3, m-t1),
# or (n+2, m-2) in the unit-product case.  linkH-v claims H(0,p) for the
# determinate part of the linked table.
LINK_ROWS = {
    "linkT-i": ("T-B", 1, False, lambda p, q: "H(2,0)"),
    "linkT-ii": ("T-A", 1, False, lambda p, q: "H(2,2)"),
    "linkT-iii": ("T-B", 2, False, lambda p, q: "H(1,2)"),
    "linkT-iv": ("T-A", 2, True, lambda p, q: "B"),
    "linkG-i": ("G-std", 1, False, lambda p, q: "H(3,0)"),
    "linkG-ii": ("G-std", 2, False, lambda p, q: "T"),
    "linkH-i": ("H-i", 1, False, lambda p, q: "H(2,1)"),
    "linkH-ii": ("H-ii", 1, False, lambda p, q: f"H({q + 2},{p})"),
    "linkH-iii": ("H-iii", 2, False, lambda p, q: "H(1,1)"),
    "linkH-iv": ("H-iv", 2, False, lambda p, q: f"H({q + 1},{p})"),
    "linkH-v": ("H-v", 3, False, lambda p, q: f"H(0,{p})"),
}


def linked_format(m: int, n: int, t1: int, phi2_unit: bool) -> tuple[int, int]:
    return (n + 2, m - 2) if phi2_unit else (n + 3, m - t1)


def _signed_perm(rng: random.Random, size: int) -> tuple[list[int], list[int]]:
    perm = list(range(1, size + 1))
    rng.shuffle(perm)
    return [0] + perm, [0] + [rng.choice((1, -1)) for _ in range(size)]


def transform(table: Table, rng: random.Random, shears: int) -> Table:
    """Apply a seeded change of basis that keeps the algebra's class.

    The new degree-1 basis is ``e'_a = sum_i P[a][i] e_i`` for a unimodular
    P (a signed permutation followed by ``shears`` row additions); the
    degree-2 and degree-3 bases are signed-permuted.
    """
    m, n, ee, ef = table
    d2 = m + n - 1
    # Shear only vectors in at most one product of two degree-1 vectors.
    acting = sorted({i for i, _ in ee} | {i for i, _ in ef} | {j for _, j in ee})
    hub_free = [i for i in acting if sum(1 for key in ee if i in key) <= 1]
    rows = {a: {a: 1} for a in range(1, m + 1)}  # rows[a] = {i: P[a][i]}
    for _ in range(shears if len(hub_free) >= 2 else 0):
        a, b = rng.sample(hub_free, 2)
        c = rng.choice((1, -1))
        for i, v in rows[b].items():
            rows[a][i] = rows[a].get(i, 0) + c * v
    e_perm, e_sign = _signed_perm(rng, m)
    f_perm, f_sign = _signed_perm(rng, d2)
    g_perm, g_sign = _signed_perm(rng, n)
    # Row a of P sits at new index e_perm[a] with sign e_sign[a].
    support: dict[int, list[tuple[int, int]]] = {}
    for a, row in rows.items():
        for i, v in row.items():
            if v:
                support.setdefault(i, []).append((e_perm[a], e_sign[a] * v))

    new_ee: dict = {}
    for (i, j), vec in ee.items():
        for a, wa in support.get(i, ()):
            for b, wb in support.get(j, ()):
                if a == b:
                    continue
                w = wa * wb if a < b else -wa * wb
                out = new_ee.setdefault((min(a, b), max(a, b)), {})
                for l, c in vec.items():
                    key = f_perm[l]
                    out[key] = out.get(key, 0) + w * f_sign[l] * c
    new_ef: dict = {}
    for (i, l), vec in ef.items():
        for a, wa in support.get(i, ()):
            # e'_a f'_{f_perm[l]} = f_sign[l] * sum_i P[a][i] e_i f_l
            out = new_ef.setdefault((a, f_perm[l]), {})
            for t, c in vec.items():
                key = g_perm[t]
                out[key] = out.get(key, 0) + wa * f_sign[l] * g_sign[t] * c
    return m, n, new_ee, new_ef


def to_document(table: Table) -> dict:
    """The normal form grade3 writes: sorted quadruples of nonzero coefficients."""
    m, n, ee, ef = table
    ee_rows = sorted([i, j, l, c] for (i, j), vec in ee.items() for l, c in vec.items() if c)
    ef_rows = sorted([i, l, t, c] for (i, l), vec in ef.items() for t, c in vec.items() if c)
    return {"version": 1, "m": m, "n": n, "ee": ee_rows, "ef": ef_rows}
