"""Seeded property suites that only the tests run.

The pre-Lie, Jacobi and duality suites sweep triples or pairs of
generators; the series-level suites run seeded random trials.  Each
raises AssertionError with context on the first violation and returns
the number of cases it verified.  `circletree axioms` runs the
per-generator sweeps of `circletree.checks` instead.
"""

from __future__ import annotations

import random

from circletree import coordmaps, groupops, prelie
from circletree.checks import _linearized_pairs
from circletree.lincomb import LinComb
from circletree.series import Series, add, left_concat, shuffle_product, zero_series
from circletree.trees import degree, iter_rcts
from circletree.words import Word

# ---------------------------------------------------------------------------
# pre-Lie structure


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
    from circletree import numeric  # numpy loads only for the numeric checks

    records = numeric.run_standard_checks(N=N)
    for rec in records:
        assert rec.final_deviation <= tol, \
            f"{rec.kind} case {rec.case}: deviation {rec.final_deviation:.3e} > {tol}"
        if rec.final_deviation > noise_floor:
            for ratio in rec.ratios():
                assert ratio_lo <= ratio <= ratio_hi, \
                    f"{rec.kind} case {rec.case}: ratio {ratio:.2f} outside [{ratio_lo},{ratio_hi}]"
    return records
