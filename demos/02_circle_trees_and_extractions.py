#!/usr/bin/env python3
"""Rooted circle trees, admissible subsets, and extraction families.

A circle tree is written <root>:<word>.  Position subsets whose minimum
carries the integrator letter are admissible; families of them, either
pairwise disjoint (for the coproduct) or disjoint-or-nested (for the
closed antipode formula), drive the whole Hopf structure.
"""

from circletree.trees import (
    Extraction,
    Rct,
    admissible_subsets,
    build_nesting_forest,
    degree,
    enumerate_admissible_extractions,
    enumerate_all_extractions,
    format_rct,
    format_subset,
    quotient,
    restrict,
    weight,
)

c = Rct(1, (1, 0, 2, 0))
print(f"tree {format_rct(c)}: degree {degree(c)}, weight {weight(c)}")
print("admissible subsets:")
for subset in admissible_subsets(c):
    print("  ", format_subset(subset))

print("admissible extraction families (pairwise disjoint):")
for extraction in enumerate_admissible_extractions(c):
    print("  ", " ".join(format_subset(s) for s in extraction.subsets))

print("\ncollapsing {2,3} with label 2, and the extracted sub-tree:")
print("  quotient:", format_rct(quotient(c, [(2, 3)], [2], 2)))
print("  restriction:", format_rct(restrict(c, (2, 3), 2, 2)))

white3 = Rct(1, (0, 0, 0))
families = enumerate_all_extractions(white3)
print(f"\nall-white three-vertex tree has {len(families)} general extraction families")
nested = Extraction(((1, 3), (2,), (3,)))
forest = build_nesting_forest(white3, nested)


def show(node, indent="  "):
    print(indent + format_subset(node.subset))
    for child in node.children:
        show(child, indent + "    ")


print("nesting forest of {1,3},{2},{3}:")
for node in forest.nodes:
    show(node)
