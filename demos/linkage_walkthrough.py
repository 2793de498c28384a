"""Watching linkage act on a multiplication table.

Linking a perfect ideal replaces its resolution by the mapping cone of a
comparison map from the length-3 Koszul complex, then minimizes.  On the
level of multiplication tables this is fully mechanical:

1. split off the cone summands cancelled by minimization,
2. re-index the surviving basis vectors,
3. read off the new products (Koszul relations + comparison coefficients).

The split rank t1 (how many designated degree-1 generators survive in the
ideal) and the rank t2 of the products among those generators drive the
format change: (m, n) -> (n+3-t2, m-t1).  Here t2 is 0, or 1 in the
unit-pivot case e1*e2 = f1.

Run:  python3 demos/linkage_walkthrough.py
"""

from grade3 import (
    CLASS_T,
    LinkSpec,
    apply_rule,
    arranged_presentation,
    betti_total,
    classify,
    make_format,
    mapping_cone_presentation,
    verify_linkage_theorems,
)


def simulate(title, table, spec):
    linked = mapping_cone_presentation(table, spec)
    out = linked.presentation
    label = classify(out).label
    print(f"  {title}")
    print(f"    splits: {', '.join(linked.splits) or '(none)'}")
    print(f"    new format: ({out.m},{out.n})   betti {betti_total(table.fmt)}"
          f" -> {betti_total(out.fmt)}   class: {label}")


def main():
    fmt = make_format(4, 3)
    print(f"Class T table in format {fmt}, layout T-A:")
    table = arranged_presentation(CLASS_T, fmt, "T-A")
    simulate("t1 = 0 (all three generators fall in m*I)", table, LinkSpec(0))
    simulate("t1 = 1", table, LinkSpec(1))
    simulate("t1 = 2 with a unit pivot e1*e2 = f1", table, LinkSpec(2, phi2_unit=True))
    print()

    print("The rulebook records the same transitions symbolically:")
    for rule_id in ("linktoT", "linkT-ii", "linkT-iv"):
        step = apply_rule(rule_id, CLASS_T, fmt)
        (in_label, in_fmt), (out_label, out_fmt) = step.input_state, step.output_state
        print(f"  {rule_id:<10} {in_label} {in_fmt} -> {out_label} {out_fmt}")
    print()

    print("Replaying every rulebook row against the simulator (m <= 6, n <= 4):")
    report = verify_linkage_theorems(m_max=6, n_max=4)
    for result in report.results:
        mark = "ok " if result.passed else "FAIL"
        note = f"  ({result.note})" if result.note else ""
        print(f"  {mark} {result.scenario:<10} checked={result.checked}{note}")
    print(f"  all passed: {report.all_passed}")


if __name__ == "__main__":
    main()
