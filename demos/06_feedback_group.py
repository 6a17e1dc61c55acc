#!/usr/bin/env python3
"""The output-feedback group: products, inversion, convolution.

Group elements are identity-shifted series.  The product composes the
shifted operators.  The inverse is the fixed point d = -mod_compose(c, d),
reached exactly after max_len + 1 rounds.  Evaluating coordinate-map
antipodes at the series, coefficient by coefficient, gives the same
inverse: the closed antipode formula powers system inversion too.
"""

from circletree.coordmaps import CoordMap
from circletree.groupops import (
    Character,
    antipode_inverse,
    convolve,
    group_inverse,
    group_product,
)
from circletree.series import Series, format_series

c = Series(2, 2, 4, {(1, (2,)): 1})
d = Series(2, 2, 4, {(2, (1,)): 1})
print("c:", dict(c.coeffs))
print("d:", dict(d.coeffs))

g = group_product(c, d)
print("\ngroup product c (.) d  (note the cross-channel word 0.1):")
print(format_series(g))

inv = group_inverse(c)
print("\ninverse of c:")
print(format_series(inv))
assert group_product(c, inv).is_zero() and group_product(inv, c).is_zero()
print("c (.) c^{-1} = 0 = c^{-1} (.) c, exactly, up to length 4.")
assert antipode_inverse(c) == inv
print("antipode evaluation gives the same inverse.")

value = convolve(Character(c), Character(d), CoordMap(1, (0, 1)))
print(f"\ncharacter convolution on a[1;0.1]: {value} "
      "(= the coefficient of 0.1 in channel 1 of the product)")
