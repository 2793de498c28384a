"""Classifying multiplication tables from their structure constants.

A table is given by the products e_i e_j (degree 1 times degree 1) and
e_i f_l (degree 1 times degree 2) on a graded vector space with ranks
(m, m+n-1, n).  Four exact invariants decide the class:

* p  — rank of the degree-2 span of the e_i e_j products
* q  — rank of the degree-3 span of the e_i f_l products
* r  — rank of the pairing sending a middle vector to the map y -> f*y
* s1 — number of degree-1 basis vectors that act nontrivially on degree 1

Run:  python3 demos/classify_tables.py
"""

from grade3 import (
    CLASS_B,
    CLASS_T,
    class_H,
    classify,
    canonical_presentation,
    arranged_presentation,
    make_format,
    make_presentation,
)


def show(title, table):
    report = classify(table)
    label = "unclassifiable" if report.unclassifiable else str(report.label)
    print(f"{title:<42} p={report.p} q={report.q} r={report.r} s1={report.s1}"
          f"  ->  {label}")


def main():
    print("Canonical tables round-trip through the classifier:")
    show("T in format (4,3)", canonical_presentation(CLASS_T, make_format(4, 3)))
    show("B in format (5,2)", canonical_presentation(CLASS_B, make_format(5, 2)))
    show("H(2,1) in format (6,3)", canonical_presentation(class_H(2, 1), make_format(6, 3)))
    show("H(3,0) in format (4,4)", canonical_presentation(class_H(3, 0), make_format(4, 4)))
    print()

    print("T and H(3,0) share (p,q,r) = (3,0,0); s1 = 3 vs 4 separates them.")
    print()

    print("Basis arrangements change the stored quadruples, not the class:")
    show("T rearranged (layout T-A)", arranged_presentation(CLASS_T, make_format(4, 3), "T-A"))
    show("H(2,1) rearranged (layout H-i)",
         arranged_presentation(class_H(2, 1), make_format(6, 3), "H-i"))
    print()

    print("A hand-written table that matches no class:")
    def unit(dim, k, c=1):
        vec = [0] * dim
        vec[k - 1] = c
        return tuple(vec)

    odd = make_presentation(
        m=4, n=3,
        ee={(1, 2): unit(6, 1), (1, 3): unit(6, 2)},
        ef={(1, 3): unit(3, 1), (2, 4): unit(3, 1)},
    )
    show("ee spans 2, ef spans 1, pairing rank 2", odd)
    inv = classify(odd)
    print(f"  no class has (p,q,r) = ({inv.p},{inv.q},{inv.r}), so the")
    print("  classifier reports it rather than guessing.")


if __name__ == "__main__":
    main()
