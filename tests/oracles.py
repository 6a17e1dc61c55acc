"""Shared expected-value builders used by module and acceptance tests."""

from fractions import Fraction
from math import lcm

from circletree.coordmaps import CoordMap as A
from circletree.lincomb import LinComb
from circletree.words import by_length, shuffle_into


def scale_to_ints(coeffs: dict) -> tuple[dict, int]:
    """(D * coeffs, D) for the least D that makes every int/Fraction coefficient an int."""
    den = lcm(*(v.denominator for v in coeffs.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in coeffs.items()}, den


def shuffle_polys(p: LinComb, q: LinComb, max_len: int | None = None) -> LinComb:
    """Bilinear shuffle of two word polynomials, dropping words longer than
    max_len and cancelled words: the int kernel `shuffle_into` read back as
    Fractions."""
    p_ints, p_den = scale_to_ints(p)
    q_ints, q_den = scale_to_ints(q)
    den = p_den * q_den
    out: dict = {}
    shuffle_into(out, p_ints, by_length(q_ints), float("inf") if max_len is None else max_len)
    return LinComb({word: coeff if den == 1 else Fraction(coeff, den)
                    for word, coeff in out.items() if coeff})


def channel_poly(series, channel: int) -> LinComb:
    """One channel of a series as a word polynomial with Fraction coefficients."""
    return LinComb({word: value for (ch, word), value in series.coeffs.items()
                    if ch == channel})


def S(*maps):
    return tuple(sorted(maps))


def closed_form_antipodes(i, m):
    """Low-degree coordinate-map antipodes with label sums written out.

    Returns a list of (map, expected antipode) pairs covering every word
    shape of degree up to five: e, x_j, x_0, x_j x_k, x_0 x_j, x_j x_0,
    x_j x_k x_l and x_0 x_0.
    """
    cases = []
    cases.append((A(i, ()), LinComb({(A(i, ()),): -1})))
    for j in range(1, m + 1):
        cases.append((A(i, (j,)), LinComb({(A(i, (j,)),): -1})))
    expected = LinComb({(A(i, (0,)),): -1})
    for n in range(1, m + 1):
        expected.add_term(S(A(i, (n,)), A(n, ())), 1)
    cases.append((A(i, (0,)), expected))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            cases.append((A(i, (j, k)), LinComb({(A(i, (j, k)),): -1})))
    for j in range(1, m + 1):
        expected = LinComb({(A(i, (0, j)),): -1})
        for n in range(1, m + 1):
            expected.add_term(S(A(i, (n,)), A(n, (j,))), 1)
            expected.add_term(S(A(i, (n, j)), A(n, ())), 1)
        cases.append((A(i, (0, j)), expected))
    for j in range(1, m + 1):
        expected = LinComb({(A(i, (j, 0)),): -1})
        for n in range(1, m + 1):
            expected.add_term(S(A(i, (j, n)), A(n, ())), 1)
        cases.append((A(i, (j, 0)), expected))
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                cases.append((A(i, (j, k, l)), LinComb({(A(i, (j, k, l)),): -1})))
    expected = LinComb({(A(i, (0, 0)),): -1})
    for n1 in range(1, m + 1):
        expected.add_term(S(A(i, (n1,)), A(n1, (0,))), 1)
        expected.add_term(S(A(i, (n1, 0)), A(n1, ())), 1)
    for n2 in range(1, m + 1):
        expected.add_term(S(A(i, (0, n2)), A(n2, ())), 1)
    for n1 in range(1, m + 1):
        for n2 in range(1, m + 1):
            expected.add_term(S(A(i, (n1,)), A(n1, (n2,)), A(n2, ())), -1)
            expected.add_term(S(A(i, (n1, n2)), A(n1, ()), A(n2, ())), -1)
    cases.append((A(i, (0, 0)), expected))
    return cases
