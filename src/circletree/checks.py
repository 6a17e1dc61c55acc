"""Property suites shared by the command-line front end and the tests.

Each check sweeps generators up to a degree bound (or runs seeded random
trials), raises AssertionError with context on the first violation, and
returns the number of cases it verified.  The per-generator suites are
written for one tree c and lifted by `_sweep` to check_*(max_degree, m),
which returns how many generators were actually checked: 0 means the
sweep held no case, not that it passed.
"""

from __future__ import annotations

import random
from functools import partial

from . import coordmaps, groupops, hopf, prelie
from .lincomb import LinComb
from .series import Series, add, left_concat, shuffle_product, zero_series
from .trees import Rct, block_tree, degree, iter_rcts, labelled_extractions
from .words import Word


def _sweep(check, only=None):
    """check(c, m) -> check(max_degree, m) -> int: run it on every generator
    of degree <= max_degree that `only` accepts (all, if None) and return
    how many it ran on."""

    def sweep(max_degree: int, m: int) -> int:
        count = 0
        for c in iter_rcts(max_degree, m):
            if only is None or only(c):
                check(c, m)
                count += 1
        return count

    sweep.__name__ = sweep.__qualname__ = check.__name__
    sweep.__doc__ = check.__doc__
    return sweep


# ---------------------------------------------------------------------------
# Hopf axioms on the tree side


@_sweep
def check_coassociativity(c: Rct, m: int) -> None:
    delta = hopf.coproduct(c, m)
    lhs = LinComb()
    rhs = LinComb()
    for (left, right), coeff in delta.items():
        for (a, b), k in hopf.coproduct_monomial(left, m).items():
            lhs.add_term((a, b, right), coeff * k)
        for (a, b), k in hopf.coproduct_monomial(right, m).items():
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


@_sweep
def check_antipode_convolution(c: Rct, m: int) -> None:
    delta = hopf.coproduct(c, m)
    left_conv = LinComb()
    right_conv = LinComb()
    for (left, right), coeff in delta.items():
        s_left = hopf.antipode_poly(LinComb.single(left, 1), m)
        for mono, k in s_left.items():
            left_conv.add_term(hopf.mono_mul(mono, right), coeff * k)
        s_right = hopf.antipode_poly(LinComb.single(right, 1), m)
        for mono, k in s_right.items():
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


def _triples(max_degree: int, m: int, random_trials: int, random_degree: int,
             seed: int) -> list:
    """Every triple of generators up to max_degree, then seeded random ones."""
    gens = list(iter_rcts(max_degree, m))
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    if random_trials:
        pool = list(iter_rcts(random_degree, m))
        rng = random.Random(seed)
        triples += [tuple(rng.choice(pool) for _ in range(3)) for _ in range(random_trials)]
    return triples


def check_prelie_identity(max_degree: int, m: int, random_trials: int = 0,
                          random_degree: int = 6, seed: int = 2024) -> int:
    count = 0
    for a, b, c in _triples(max_degree, m, random_trials, random_degree, seed):
        ab = prelie.prelie_product(a, b)
        ac = prelie.prelie_product(a, c)
        bc = prelie.prelie_product(b, c)
        cb = prelie.prelie_product(c, b)
        lhs = prelie.prelie_combs(ab, LinComb.single(c, 1)) \
            - prelie.prelie_combs(LinComb.single(a, 1), bc)
        rhs = prelie.prelie_combs(ac, LinComb.single(b, 1)) \
            - prelie.prelie_combs(LinComb.single(a, 1), cb)
        assert lhs == rhs, f"pre-Lie identity fails on {(a, b, c)}"
        count += 1
    return count


def check_jacobi(max_degree: int, m: int, random_trials: int = 0,
                 random_degree: int = 6, seed: int = 4048) -> int:
    def bracket_combs(p: LinComb, q: LinComb) -> LinComb:
        return prelie.prelie_combs(p, q) - prelie.prelie_combs(q, p)

    count = 0
    for a, b, c in _triples(max_degree, m, random_trials, random_degree, seed):
        pa, pb, pc = (LinComb.single(x, 1) for x in (a, b, c))
        total = bracket_combs(pa, bracket_combs(pb, pc)) \
            + bracket_combs(pb, bracket_combs(pc, pa)) \
            + bracket_combs(pc, bracket_combs(pa, pb))
        assert not total, f"Jacobi fails on {(a, b, c)}"
        count += 1
    return count


def check_duality(max_degree: int, m: int) -> int:
    """Insertion product vs single-subset coproduct, as full pairing tables."""
    gens = list(iter_rcts(max_degree, m))
    from_coproduct: dict = {}
    for c in gens:
        for (a, b), coeff in _linearized_pairs(c, m).items():
            from_coproduct[(a, b, c)] = coeff
    from_insertion: dict = {}
    for a in gens:
        for b in gens:
            if degree(a) + degree(b) > max_degree:
                continue
            for c, coeff in prelie.prelie_product(a, b).items():
                from_insertion[(a, b, c)] = coeff
    assert from_coproduct == from_insertion, "pairing tables differ"
    return len(gens)


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
            pairs[n].add_term(((Rct(c.root, qword[1:]),), (block_tree(c.word, family[0], n),)), 1)
    tail = Rct(c.root, c.word[1:])
    for n, got in pairs.items():
        assert got == coordmaps.deshuffle_coproduct(tail, n), \
            f"deshuffle correspondence fails on {c}, n={n}"


# ---------------------------------------------------------------------------
# randomized series-level checks


def random_series(rng: random.Random, ell: int, m: int, max_len: int,
                  word_len: int = 2, terms: int = 4, bound: int = 2) -> Series:
    coeffs: dict = {}
    for channel in range(1, ell + 1):
        for _ in range(terms):
            n = rng.randint(0, word_len)
            word: Word = tuple(rng.randint(0, m) for _ in range(n))
            coeffs[(channel, word)] = coeffs.get((channel, word), 0) + rng.randint(-bound, bound)
    return Series(ell, m, max_len, {k: v for k, v in coeffs.items() if v})


def check_group_axioms(trials: int = 20, m: int = 2, max_len: int = 4,
                       seed: int = 99) -> int:
    rng = random.Random(seed)
    zero = zero_series(m, m, max_len)
    for trial in range(trials):
        c = random_series(rng, m, m, max_len)
        d = random_series(rng, m, m, max_len)
        e = random_series(rng, m, m, max_len)
        lhs = groupops.group_product(groupops.group_product(c, d), e)
        rhs = groupops.group_product(c, groupops.group_product(d, e))
        assert lhs.coeffs == rhs.coeffs, f"associativity fails on trial {trial}"
        assert groupops.group_product(c, zero).coeffs == c.coeffs
        assert groupops.group_product(zero, c).coeffs == c.coeffs
        inv = groupops.group_inverse(c)
        assert groupops.group_product(c, inv).is_zero(), f"right inverse fails on trial {trial}"
        assert groupops.group_product(inv, c).is_zero(), f"left inverse fails on trial {trial}"
        assert inv.coeffs == groupops.antipode_inverse(c).coeffs, \
            f"fixed-point and antipode inverses differ on trial {trial}"
    return trials


def check_mod_compose_identities(trials: int = 50, m: int = 2, max_len: int = 4,
                                 seed: int = 314) -> int:
    rng = random.Random(seed)
    for trial in range(trials):
        c = random_series(rng, 1, m, max_len)
        d = random_series(rng, m, m, max_len)
        e = random_series(rng, m, m, max_len)
        letter = rng.randint(0, m)
        lhs = groupops.mod_compose(left_concat(letter, c), d)
        inner = groupops.mod_compose(c, d)
        rhs = left_concat(letter, inner)
        if letter != 0:
            d_i = Series(1, m, max_len,
                         {(1, w): v for (ch, w), v in d.coeffs.items() if ch == letter})
            rhs = add(rhs, left_concat(0, shuffle_product(d_i, inner)))
        assert lhs.coeffs == rhs.coeffs, f"prepend identity fails on trial {trial}"

        lhs2 = groupops.mod_compose(groupops.mod_compose(c, d), e)
        rhs2 = groupops.mod_compose(c, add(groupops.mod_compose(d, e), e))
        assert lhs2.coeffs == rhs2.coeffs, f"nesting identity fails on trial {trial}"
    return trials


def check_convolution(trials: int = 20, m: int = 2, max_len: int = 4,
                      word_bound: int = 3, seed: int = 2718) -> int:
    from itertools import product as iter_product

    rng = random.Random(seed)
    for trial in range(trials):
        c = random_series(rng, m, m, max_len)
        d = random_series(rng, m, m, max_len)
        phi = groupops.Character(c)
        psi = groupops.Character(d)
        g = groupops.group_product(c, d)
        for n in range(word_bound + 1):
            for word in iter_product(range(m + 1), repeat=n):
                for channel in range(1, m + 1):
                    got = groupops.convolve(phi, psi, coordmaps.CoordMap(channel, word))
                    assert got == g.coeff(channel, word), \
                        f"convolution fails on trial {trial}, {channel}, {word}"
    return trials


def check_numeric(N: int = 2000, tol: float = 1e-6,
                  ratio_lo: float = 3.2, ratio_hi: float = 4.8,
                  noise_floor: float = 1e-12) -> list:
    from . import numeric  # numpy loads only for the numeric checks

    records = numeric.run_standard_checks(N=N)
    for rec in records:
        assert rec.final_deviation <= tol, \
            f"{rec.kind} case {rec.case}: deviation {rec.final_deviation:.3e} > {tol}"
        if rec.final_deviation > noise_floor:
            for ratio in rec.ratios():
                assert ratio_lo <= ratio <= ratio_hi, \
                    f"{rec.kind} case {rec.case}: ratio {ratio:.2f} outside [{ratio_lo},{ratio_hi}]"
    return records


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
