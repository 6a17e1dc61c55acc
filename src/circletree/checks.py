"""The axioms sweep behind `circletree axioms`.

Each check sweeps generators up to a degree bound, raises AssertionError
with context on the first violation, and returns the number of cases it
verified.  The per-generator suites are written for one tree c and lifted
by `_sweep` to check_*(max_degree, m), which returns how many generators
were actually checked: 0 means the sweep held no case, not that it
passed.  The module reads the Hopf-algebra layer alone (trees, hopf,
coordmaps, lincomb); the seeded pre-Lie and series-level suites live
with the tests, in `tests/suites.py`.
"""

from __future__ import annotations

from functools import partial

from . import coordmaps, hopf
from .lincomb import LinComb
from .trees import Rct, block_tree, degree, gen, iter_rcts, labelled_extractions


def _sweep(check, only=None, table=False):
    """check(c, m) -> check(max_degree, m) -> int: run it on every generator
    of degree <= max_degree that `only` accepts (all, if None) and return
    how many it ran on.  With `table`, the check is check(c, m, table) and
    gets one dict that lives for the sweep, to keep per-monomial values
    that many generators read."""

    def sweep(max_degree: int, m: int) -> int:
        extra = ({},) if table else ()
        count = 0
        for c in iter_rcts(max_degree, m):
            if only is None or only(c):
                check(c, m, *extra)
                count += 1
        return count

    sweep.__name__ = sweep.__qualname__ = check.__name__
    sweep.__doc__ = check.__doc__
    return sweep


# ---------------------------------------------------------------------------
# Hopf axioms on the tree side


def _once(table: dict, fn, mono: tuple, m: int) -> LinComb:
    """fn(mono, m), computed on the first read of `mono` from `table`."""
    value = table.get(mono)
    if value is None:
        value = table[mono] = fn(mono, m)
    return value


@partial(_sweep, table=True)
def check_coassociativity(c: Rct, m: int, coproducts: dict) -> None:
    delta = hopf.coproduct(c, m)
    lhs = LinComb()
    rhs = LinComb()
    for (left, right), coeff in delta.items():
        for (a, b), k in _once(coproducts, hopf.coproduct_monomial, left, m).items():
            lhs.add_term((a, b, right), coeff * k)
        for (a, b), k in _once(coproducts, hopf.coproduct_monomial, right, m).items():
            rhs.add_term((left, a, b), coeff * k)
    assert lhs == rhs, f"coassociativity fails on {c}"


@_sweep
def check_counit(c: Rct, m: int) -> None:
    delta = hopf.coproduct(c, m)
    left_collapsed = LinComb()
    right_collapsed = LinComb()
    for (left, right), coeff in delta.items():
        if not left:
            left_collapsed.add_term(right, coeff)
        if not right:
            right_collapsed.add_term(left, coeff)
    expected = LinComb.single((c,), 1)
    assert left_collapsed == expected, f"left counit fails on {c}"
    assert right_collapsed == expected, f"right counit fails on {c}"


@_sweep
def check_grading(c: Rct, m: int) -> None:
    d = degree(c)
    for (left, right), _coeff in hopf.coproduct(c, m).items():
        split = hopf.mono_degree(left) + hopf.mono_degree(right)
        assert split == d, f"grading fails on {c}: {left}|{right}"


def _antipode_monomial(mono: tuple, m: int) -> LinComb:
    return hopf.antipode_poly(LinComb.single(mono, 1), m)


@partial(_sweep, table=True)
def check_antipode_convolution(c: Rct, m: int, antipodes: dict) -> None:
    delta = hopf.coproduct(c, m)
    left_conv = LinComb()
    right_conv = LinComb()
    for (left, right), coeff in delta.items():
        for mono, k in _once(antipodes, _antipode_monomial, left, m).items():
            left_conv.add_term(hopf.mono_mul(mono, right), coeff * k)
        for mono, k in _once(antipodes, _antipode_monomial, right, m).items():
            right_conv.add_term(hopf.mono_mul(left, mono), coeff * k)
    assert not left_conv, f"S*id fails on {c}: {left_conv}"
    assert not right_conv, f"id*S fails on {c}: {right_conv}"


@_sweep
def check_antipode_agreement(c: Rct, m: int) -> None:
    """The tree-side forest formula, which reads no memo table, equals the
    left and right recursions, read from the one antipode table that trees
    and coordinate maps share."""
    forest = hopf.antipode_forest(c, m)
    s_left = coordmaps.antipode(c, m, "left")
    s_right = coordmaps.antipode(c, m, "right")
    assert forest == s_left == s_right, f"recursive antipodes differ from the forest on {c}"


# trees and coordinate maps are one generator type: the bijection check of
# the antipode is the agreement check
check_iso_antipode = check_antipode_agreement


@_sweep
def check_forest_sign_purity(c: Rct, m: int) -> None:
    sign_of: dict = {}
    for _family, mono, sign in hopf.forest_signed_terms(c, m):
        seen = sign_of.setdefault(mono, sign)
        assert seen == sign, f"mixed signs on {mono} for {c}"


# ---------------------------------------------------------------------------
# pre-Lie structure


def _linearized_pairs(c: Rct, m: int) -> LinComb:
    out = LinComb()
    for (left, right), coeff in hopf.linearized_coproduct(c, m).items():
        out.add_term((left[0], right[0]), coeff)
    return out


@_sweep
def check_copre_lie(c: Rct, m: int) -> None:
    first = LinComb()
    second = LinComb()
    for (a, b), coeff in _linearized_pairs(c, m).items():
        for (x, y), k in _linearized_pairs(a, m).items():
            first.add_term((x, y, b), coeff * k)
        for (x, y), k in _linearized_pairs(b, m).items():
            second.add_term((a, x, y), coeff * k)
    diff = first - second
    flipped = diff.map_basis(lambda t: (t[0], t[2], t[1]))
    assert diff == flipped, f"co-pre-Lie relation fails on {c}"


# ---------------------------------------------------------------------------
# isomorphism with the coordinate-map side


@_sweep
def check_iso_coproduct(c: Rct, m: int) -> None:
    """The extraction sum, the coproduct by its definition, equals the
    coordinate-map coproduct built by the prepend recursions, which is also
    the tree coproduct (`hopf.coproduct` is `coordmaps.full_delta`); trees
    and coordinate maps are one generator type, so the terms compare as
    they are."""
    assert coordmaps.full_delta(c, m) == hopf.extraction_coproduct(c, m), \
        f"the coproduct differs from the extraction sum on {c}"


@_sweep
def check_figure_relations(c: Rct, m: int) -> None:
    """The three coordinate-map coproducts differ by primitive-part additions;
    `check_iso_coproduct` ties the tree coproduct to them."""
    mono = (c,)
    tilde = coordmaps.tilde_delta(c, m)
    full = coordmaps.full_delta(c, m)
    reduced = coordmaps.reduced_delta(c, m)
    with_left = LinComb(reduced)
    with_left.add_term((mono, coordmaps.UNIT), 1)
    assert tilde == with_left, f"tilde vs reduced fails on {c}"
    with_right = LinComb(tilde)
    with_right.add_term((coordmaps.UNIT, mono), 1)
    assert full == with_right, f"full vs tilde fails on {c}"


@partial(_sweep, only=lambda c: c.word[:1] == (0,))  # trees with a leading white vertex
def check_deshuffle_correspondence(c: Rct, m: int) -> None:
    """Single sub-tree extraction at a leading white vertex is the deshuffle:
    the kernel's one-block families holding position 1, whose quotient word
    starts with the block's label n, pair with deshuffle_coproduct(tail, n)."""
    pairs = {n: LinComb() for n in range(1, m + 1)}
    for family, labels, qword in labelled_extractions(c.word, (1 << len(c.word)) - 1, m):
        if len(family) == 1 and family[0] & 1:
            n = labels[0]
            pairs[n].add_term(((gen(c.root, qword[1:]),), (block_tree(c.word, family[0], n),)), 1)
    tail = gen(c.root, c.word[1:])
    for n, got in pairs.items():
        assert got == coordmaps.deshuffle_coproduct(tail, n), \
            f"deshuffle correspondence fails on {c}, n={n}"


# ---------------------------------------------------------------------------
# aggregate sweep for the command line


def run_axioms(max_degree: int, m: int) -> list[tuple[str, int]]:
    inner = max(max_degree - 1, 1)
    # `check_iso_antipode` is `check_antipode_agreement`, so it runs once, in
    # its place, and both lines report its count: one forest per generator
    return [
        ("coassociativity", check_coassociativity(max_degree, m)),
        ("counit", check_counit(max_degree, m)),
        ("grading", check_grading(max_degree, m)),
        ("antipode convolution", check_antipode_convolution(max_degree, m)),
        ("antipode agreement", agreement := check_antipode_agreement(max_degree, m)),
        ("forest sign purity", check_forest_sign_purity(max_degree, m)),
        ("co-pre-Lie relation", check_copre_lie(inner, m)),
        ("bijection coproduct", check_iso_coproduct(max_degree, m)),
        ("bijection antipode", agreement),
        ("coproduct ladder", check_figure_relations(max_degree, m)),
        ("deshuffle correspondence", check_deshuffle_correspondence(max_degree, m)),
    ]
