"""Hopf algebra of decorated rooted circle trees.

Monomials are multisets of trees (canonically sorted tuples); the empty
tuple is the algebra unit.  The coproduct sums quotient (x) extracted
sub-trees over admissible extractions, with every extraction label
expanded concretely over 1..m.  It is the coordinate-map coproduct, so
`coproduct` and `reduced_coproduct` are `coordmaps.full_delta` and
`coordmaps.reduced_delta`, read from the prepend recursion as they are.
`extraction_coproduct`, the definition term by term, is the reference
they are checked against: it reads each labelled family and its quotient
word from the extraction kernel `trees.labelled_extractions`, as the
forest formula does.  The antipode comes three ways:

* right recursion, S(c) = -c - sum q S(r_1)...S(r_n), the default: it is
  the closed forest formula in factored form (Menous-Patras), so it never
  cancels and is the cheapest exact route;
* left recursion, S(c) = -c - sum S(q) r_1...r_n, kept as a cross-check;
  its raw expansion cancels heavily, which `antipode_stats` counts;
* the closed forest formula, one signed monomial per general extraction
  and labelling, never mixing signs on a monomial: the independent oracle
  of the recursions.  Two walks read the labelled families of the kernel.
  `antipode_forest` carries one prime-product key per term (the product
  of `lincomb.prime` of its factors' generator ids, `trees.gen_id`), so
  joining a block's inner terms is one int multiplication, and a block
  with one inner term is folded into one key per family; it counts the
  keys with `Counter`, sorts each key's ids once, in a dict of the call,
  and decodes each distinct monomial once.  `forest_signed_terms` carries
  each term's blocks (bitmasks) and factor ids instead, and lists the
  blocks as position subsets for the sign-purity check and the family
  test; a code for the blocks carried beside each key, so that one walk
  served both, cost the sum more than the keys save.  Neither walk reads
  the `lincomb` key store or a memo table other than `gen_id`, so a wrong
  shared entry shows as a disagreement with the recursions.

Trees and coordinate maps are one generator type (`CoordMap` is `Rct`),
so both recursions read the combined id terms `coordmaps.reduced_items`
with no relabelling, and the memoized ones fill and read the one
`coordmaps._antipode` table, keyed by (generator id, m, side) and holding
polynomials keyed by the prime-product keys of `lincomb`, which
`coordmaps.antipode` decodes; only the formatter (`1:0.0` here,
`a[1;0.0]` there) tells the sides apart.  Pass memoize=False to
`antipode_recursive` to force the raw expansion, e.g. to time it; it runs
the same step on ids and keys, fills no table and decodes once, at the
end.
`antipode_stats` counts the raw terms of either recursion from the
combined terms k l (x) r_1...r_n: g(a) = 1 + sum k g(l) on the left, and on
the right M(a) = 1 + sum k M(r_1)...M(r_n), the number of forest terms;
`_raw_count` is keyed by generator id, and the support and mass are read
from the id entry of the antipode table, with nothing decoded.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Iterator, NamedTuple

from . import coordmaps, lincomb
from .coordmaps import reduced_items, reduced_terms
from .lincomb import (LinComb, clear_caches, counit, format_monomial, format_rational, ids_of,
                      memo, mono_mul, mono_sort_key, nonzero, prime)
from .trees import (Rct, Word, bit_indices, block_tree, decode, degree, format_rct, gen,
                    gen_id, labelled_extractions, mono_degree)

Monomial = tuple[Rct, ...]

UNIT: Monomial = ()


def tensor_mul(s: LinComb, t: LinComb) -> LinComb:
    out: dict = {}
    get = out.get
    for (la, ra), ka in s.items():
        for (lb, rb), kb in t.items():
            key = (tuple(sorted(la + lb)), tuple(sorted(ra + rb)))
            out[key] = get(key, 0) + ka * kb
    return nonzero(out)


def extraction_coproduct(c: Rct, m: int) -> LinComb:
    """The coproduct by its definition: quotient (x) extracted sub-trees, one
    term per labelled admissible family of the kernel, the empty family giving
    c (x) 1, plus 1 (x) c.  It enumerates every labelled family, so it is the
    reference `coproduct` is checked against, not a route of the algebra."""
    word = c.word
    out = {(UNIT, (c,)): 1}
    get = out.get
    for family, labels, qword in labelled_extractions(word, (1 << len(word)) - 1, m):
        key = ((gen(c.root, qword),),
               tuple(sorted(block_tree(word, block, n) for block, n in zip(family, labels))))
        out[key] = get(key, 0) + 1
    return LinComb(out)


# the tree coproduct is the coordinate-map one: one definition of each
reduced_coproduct = coordmaps.reduced_delta
coproduct = coordmaps.full_delta


def linearized_coproduct(c: Rct, m: int) -> LinComb:
    """Single-subset part of the coproduct; both legs are single trees."""
    return LinComb({((q,), rest): k for q, rest, k in reduced_terms(c, m) if len(rest) == 1})


def coproduct_monomial(mono: Monomial, m: int) -> LinComb:
    acc = LinComb.single((UNIT, UNIT), 1)
    for factor in mono:
        acc = tensor_mul(acc, coproduct(factor, m))
    return acc


# ---------------------------------------------------------------------------
# recursive antipodes


def antipode_recursive(c: Rct, m: int, side: str = "right", memoize: bool = True) -> LinComb:
    if memoize:
        return coordmaps.antipode(c, m, side)

    def raw(i: int) -> LinComb:
        return lincomb.antipode_step(i, reduced_items(i, m), side, raw)

    return LinComb({decode(ids_of(key)): k for key, k in raw(gen_id(*c)).items()})


def antipode_poly(p: LinComb, m: int, method: str = "right") -> LinComb:
    return lincomb.antipode_poly(p, lambda c: antipode(c, m, method))


# ---------------------------------------------------------------------------
# closed forest formula


def _forest_terms(word: Word, mask: int, root: int, m: int, seen: dict) -> Iterator[tuple]:
    """(blocks, factors) of every labelled general family of the tree with
    this root on the positions of `mask`: a top-level disjoint family, then a
    general family inside each block below its minimum; one factor id per
    block and the quotient.  `seen` holds each (block, label) expansion met so far
    and, keyed by the mask alone, each mask's labelled extractions, which do
    not depend on the root label."""
    extractions = seen.get(mask)
    if extractions is None:
        extractions = seen[mask] = labelled_extractions(word, mask, m)
    for family, labels, qword in extractions:
        terms = [(family, (gen_id(root, qword),))]
        for block, label in zip(family, labels):
            inner = seen.get((block, label))
            if inner is None:
                inner = seen[block, label] = list(
                    _forest_terms(word, block & (block - 1), label, m, seen))
            terms = [(blocks + sub_blocks, factors + sub_factors)
                     for blocks, factors in terms for sub_blocks, sub_factors in inner]
        yield from terms


def forest_signed_terms(c: Rct, m: int) -> Iterator[tuple[tuple, Monomial, int]]:
    """Signed monomials of the closed antipode formula, one per (general
    extraction, labelling); the extraction lists its subsets lexicographically."""
    subset_of: dict = {}  # block mask -> its positions, converted once per call
    for blocks, factors in _forest_terms(c.word, (1 << len(c.word)) - 1, c.root, m, {}):
        for block in blocks:
            if block not in subset_of:
                subset_of[block] = tuple(i + 1 for i in bit_indices(block))
        subsets = sorted(subset_of[block] for block in blocks)
        yield tuple(subsets), decode(tuple(sorted(factors))), 1 if len(blocks) % 2 else -1


def _forest_keys(word: Word, mask: int, root: int, m: int, seen: dict, ids_of_key: dict) -> list:
    """The prime-product key (`lincomb.prime`) of every labelled general
    family of `_forest_terms`, with nothing else carried per term, so joining
    a block's inner terms is one int multiplication per product.
    `ids_of_key` maps each key formed so far to its sorted id tuple, built by
    one sort when the key is first formed.  `seen` holds each (block, label)
    key list met so far and, keyed by the mask alone, what a top-level
    family gives whatever the root label: its quotient word, the product of
    the keys of its one-term blocks, and the key lists of its other blocks."""
    families = seen.get(mask)
    if families is None:
        families = seen[mask] = []
        for family, labels, qword in labelled_extractions(word, mask, m):
            fixed, lists = 1, []
            for block, label in zip(family, labels):
                inner = seen.get((block, label))
                if inner is None:
                    inner = seen[block, label] = _forest_keys(
                        word, block & (block - 1), label, m, seen, ids_of_key)
                if len(inner) == 1:
                    key = fixed * inner[0]
                    if key not in ids_of_key:
                        ids_of_key[key] = tuple(sorted(ids_of_key[fixed] + ids_of_key[inner[0]]))
                    fixed = key
                else:
                    lists.append(inner)
            families.append((qword, fixed, lists))
    out = []
    for qword, fixed, lists in families:
        i = gen_id(root, qword)
        key = prime(i) * fixed
        if key not in ids_of_key:
            ids_of_key[key] = tuple(sorted(ids_of_key[fixed] + (i,)))
        keys = [key]
        for inner in lists:
            joined = []
            for a in keys:
                for b in inner:
                    key = a * b
                    if key not in ids_of_key:
                        ids_of_key[key] = tuple(sorted(ids_of_key[a] + ids_of_key[b]))
                    joined.append(key)
            keys = joined
        out += keys
    return out


def antipode_forest(c: Rct, m: int) -> LinComb:
    """Sum of the forest terms; a term of n factors has sign (-1)^n, so no
    two terms cancel and each monomial's coefficient is its count, signed.
    The keys are counted as they are and each distinct one decoded once,
    through the id tuples of this call alone, not the `lincomb` key store."""
    ids_of_key: dict = {1: ()}
    counts = Counter(_forest_keys(c.word, (1 << len(c.word)) - 1, c.root, m, {}, ids_of_key))
    out = LinComb()
    for key, k in counts.items():
        ids = ids_of_key[key]
        out[decode(ids)] = -k if len(ids) % 2 else k
    return out


def antipode(c: Rct, m: int, method: str = "right") -> LinComb:
    if method == "forest":
        return antipode_forest(c, m)
    return antipode_recursive(c, m, method)


# ---------------------------------------------------------------------------
# term statistics


class StatsRecord(NamedTuple):
    degree: int
    method: str
    generated: int
    distinct: int
    cancelled_mass: int


@memo
def _raw_count(i: int, m: int, side: str) -> int:
    """Signed monomials the raw recursion on `side` emits for the generator
    with id `i` before combining, the twin of `lincomb.antipode_step`; on the
    right it is the number of forest terms."""
    if side == "left":
        return 1 + sum(k * _raw_count(left, m, side) for left, _right, k in reduced_items(i, m))
    return 1 + sum(k * prod(_raw_count(r, m, side) for r in right)
                   for _left, right, k in reduced_items(i, m))


def antipode_stats(c: Rct, m: int, method: str = "recursive_left") -> StatsRecord:
    side = {"recursive_left": "left", "forest": "right"}.get(method)
    if side is None:
        raise ValueError(f"unknown stats method {method!r}")
    i = gen_id(*c)
    generated = _raw_count(i, m, side)
    # the antipode is one element whichever route computes it; its id entry
    # has the support and the mass, so nothing is decoded
    poly = coordmaps._antipode(i, m, "right")
    cancelled = generated - poly.coeff_mass()
    return StatsRecord(degree(c), method, generated, len(poly), cancelled)


# ---------------------------------------------------------------------------
# text output


def format_poly(p: LinComb) -> str:
    return lincomb.format_poly(p, format_rct)


def format_tensor(t: LinComb) -> str:
    keys = sorted(t, key=lambda lr: (mono_sort_key(lr[0]), mono_sort_key(lr[1])))
    lines = [
        f"{format_monomial(left, format_rct)} | {format_monomial(right, format_rct)} "
        f"{format_rational(t[(left, right)])}"
        for left, right in keys
    ]
    return "\n".join(lines) if lines else "0"
