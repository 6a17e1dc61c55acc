#!/usr/bin/env python3
"""The coordinate-map Hopf algebra and its bijection with circle trees.

The coordinate map a[i;w] and the circle tree i:w are one generator
(`CoordMap` is `Rct`); only the printed spelling differs.  The coproduct
on coordinate maps is built from prepend-operator recursions, never from
extraction combinatorics, yet the tree coproduct by its definition, one
term per labelled admissible extraction, gives exactly the same answer.
The library's tree coproduct reads the recursion as it is, so this
cross-check is what certifies both.
"""

from circletree.coordmaps import (
    CoordMap,
    antipode,
    deshuffle_coproduct,
    format_cmono,
    format_poly,
    full_delta,
)
from circletree.hopf import extraction_coproduct
from circletree.lincomb import format_rational
from circletree.trees import Rct

a = CoordMap(1, (2, 1))
print("deshuffle of a[1;2.1] against channel 2:")
for (left, right), coeff in sorted(deshuffle_coproduct(a, 2).items()):
    print(f"  {format_cmono(left)} (x) {format_cmono(right)}  {format_rational(coeff)}")

print("\nantipode of a[1;0] at m=2:")
print(format_poly(antipode(CoordMap(1, (0,)), 2)))

c = Rct(1, (0, 0))
lhs = extraction_coproduct(c, 1)
rhs = full_delta(c, 1)
assert lhs == rhs
print("\nextraction sum of 1:0.0 equals the recursion-built coproduct of a[1;0.0]:")
for (left, right), coeff in sorted(rhs.items()):
    print(f"  {format_cmono(left)} (x) {format_cmono(right)}  {format_rational(coeff)}")
