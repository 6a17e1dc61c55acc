"""Decorated rooted circle trees and their extraction combinatorics.

A rooted circle tree is a root label together with the word of internal
vertex decorations, read clockwise from the root.  Internal positions
are 1-based.  A position is white when its letter is x_0, black
otherwise.  A subset of positions is admissible when its minimum is
white.  Extraction families come in two flavours:

* admissible extractions: pairwise disjoint admissible subsets;
* general extractions: pairwise distinct minima, every pair of subsets
  either disjoint or strictly nested.

The general listing starts with the empty family.  The admissible one is
read from the extraction kernel below and lists the nonempty families only.
Both listings test compatibility on bitmasks and build each subset's
position tuple once per call.

Every generator the package builds comes from `gen`, a memo table that
hands out one shared `Rct` per value (the interning rule of `lincomb`); an
`Rct(...)` a caller builds is equal to it and works everywhere.  Inside
every memo table of the algebra (coproduct terms, raw counts, antipodes)
and the forest sum a generator is a small int, `gen_id`, `GENS` lists the
generators by id, and a monomial is the product of its ids' primes
(`lincomb.prime`).  The package edge, where a result leaves as `Rct`, is
`decode_key`: the one decoder of a stored key, which reads its ids from
the key store of `lincomb` and hands out one shared sorted monomial per
key.  `decode` sorts the generators of any ids, unmemoized; the forest
sum decodes its own ids with it, so no shared entry sets its values.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .lincomb import ids_of, memo, memo_store
from .words import Word, format_word, parse_word, word_degree

Subset = tuple[int, ...]


class Rct(NamedTuple):
    """One generator of the algebra: the tree root:word, and equally the
    coordinate map a[channel;word] of `coordmaps` (`CoordMap` is this class;
    `channel` reads the root)."""

    root: int
    word: Word


Rct.channel = Rct.root  # the same read-only field getter under its coordinate-map name


@memo
def gen(root: int, word: Word) -> Rct:
    """The one shared generator root:word (its word too is the first one met)."""
    return Rct(root, word)


GENS: list[Rct] = memo_store([])  # id -> shared generator, the inverse of `gen_id`


@memo
def gen_id(root: int, word: Word) -> int:
    """The small int of the generator root:word: its place in `GENS`, which
    `lincomb.clear_caches` empties with this table and every table of ids."""
    GENS.append(gen(root, word))
    return len(GENS) - 1


def decode(ids) -> tuple[Rct, ...]:
    """The sorted monomial of the generators with these ids, in any order."""
    return tuple(sorted([GENS[i] for i in ids]))


_MONOMIALS: dict = memo_store({})  # key -> its one shared decoded monomial


def decode_key(key: int) -> tuple[Rct, ...]:
    """The one shared sorted monomial of a key of the `lincomb` key store:
    the package edge, where every stored key leaves as generators."""
    mono = _MONOMIALS.get(key)
    if mono is None:
        mono = _MONOMIALS[key] = decode(ids_of(key))
    return mono


class Extraction(NamedTuple):
    """One extraction family: its subsets; the empty family has none."""

    subsets: tuple[Subset, ...]


EMPTY_EXTRACTION = Extraction(())


def weight(c: Rct) -> int:
    """Number of vertices, root included."""
    return len(c.word) + 1


def degree(c: Rct) -> int:
    return word_degree(c.word) + 1


def mono_degree(mono: tuple[Rct, ...]) -> int:
    return sum(degree(c) for c in mono)


def is_white(letter: int) -> bool:
    return letter == 0


def admissible_subsets(c: Rct) -> list[Subset]:
    """All position subsets whose minimum is white, in lexicographic order."""
    k = len(c.word)
    out: list[Subset] = []
    for p in range(1, k + 1):
        if not is_white(c.word[p - 1]):
            continue
        tail = list(range(p + 1, k + 1))
        for mask in range(1 << len(tail)):
            rest = tuple(tail[i] for i in range(len(tail)) if mask >> i & 1)
            out.append((p,) + rest)
    out.sort()
    return out


def iter_general_families(c: Rct) -> list[tuple[Subset, ...]]:
    """Nonempty disjoint-or-nested families with pairwise distinct minima, in
    lexicographic order; the oracle of the forest formula.  Bit j of
    `later[i]` says that the j-th admissible subset, j > i, may share a
    family with the i-th; the condition is pairwise, so the subsets that may
    join a family are the AND of its members' `later` bitsets."""
    subsets = admissible_subsets(c)
    masks = [sum(1 << p for p in s) for s in subsets]
    lows = [a & -a for a in masks]
    # a later subset with another minimum has a larger one, so it can only
    # be disjoint from the earlier subset or nest inside it
    later = [sum(1 << j for j in range(i + 1, len(masks))
                 if lows[j] != lows[i] and (a & masks[j]) in (0, masks[j]))
             for i, a in enumerate(masks)]
    out: list[tuple[Subset, ...]] = []

    def rec(allowed: int, family: tuple) -> None:
        while allowed:
            low = allowed & -allowed
            j = low.bit_length() - 1
            grown = family + (subsets[j],)
            out.append(grown)
            rec(allowed & later[j], grown)
            allowed ^= low

    rec((1 << len(subsets)) - 1, ())
    return out


def enumerate_admissible_extractions(c: Rct) -> list[Extraction]:
    """Nonempty admissible families in lexicographic order, read from the
    kernel at m=1; each block mask becomes positions once per call."""
    positions: dict[int, Subset] = {}
    families = []
    for fam, _labels, _qword in labelled_extractions(c.word, (1 << len(c.word)) - 1, 1)[1:]:
        for block in fam:
            if block not in positions:
                positions[block] = tuple(i + 1 for i in bit_indices(block))
        families.append(tuple([positions[block] for block in fam]))
    families.sort()
    return list(map(Extraction, families))


def enumerate_all_extractions(c: Rct) -> list[Extraction]:
    """General extractions for the closed antipode formula; starts with the empty one."""
    return [EMPTY_EXTRACTION, *map(Extraction, iter_general_families(c))]


# ---------------------------------------------------------------------------
# bitmask extraction kernel, the one walk over admissible families: the
# listing above, the extraction-sum coproduct, the deshuffle check and the
# forest formula read it; the algebra's coproduct and raw counts enumerate no
# family.  Position p is bit p-1 of a mask.  Families built here are
# admissible and disjoint by construction, so quotients and sub-trees are
# assembled without the checks of `quotient`/`restrict`, their test reference.


def bit_indices(mask: int) -> list[int]:
    """0-based word indices of the positions in `mask`, increasing."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def labelled_extractions(word: Word, mask: int, m: int) -> list[tuple]:
    """(family, labels, quotient word) for every family of pairwise disjoint
    admissible subsets of the positions in `mask` and every labelling 1..m of
    its blocks; the empty family comes first.  A family is a tuple of bitmasks
    ordered by minimum.  The quotient word keeps the unextracted letters of
    `mask` and puts each block's label at its minimum."""
    out: list[tuple] = [((), (), ())]
    for i in bit_indices(mask):
        bit, letter = 1 << i, word[i]
        # the position stays in the quotient, joins a block, or opens a block if white
        grown = [(fam, labels, qword + (letter,)) for fam, labels, qword in out]
        grown += [(fam[:j] + (fam[j] | bit,) + fam[j + 1:], labels, qword)
                  for fam, labels, qword in out for j in range(len(fam))]
        if letter == 0:
            grown += [(fam + (bit,), labels + (label,), qword + (label,))
                      for fam, labels, qword in out for label in range(1, m + 1)]
        out = grown
    return out


def block_tree(word: Word, block: int, label: int) -> Rct:
    """The sub-tree a kernel block extracts: its minimum becomes the root
    `label`, its other positions keep their letters."""
    return gen(label, tuple(word[i] for i in bit_indices(block & (block - 1))))


def _check_positions(c: Rct, subset: Subset) -> None:
    k = len(c.word)
    if not subset:
        raise ValueError("empty subset")
    if len(set(subset)) < len(subset):
        raise ValueError(f"subset {subset} repeats a position")
    if any(not 1 <= p <= k for p in subset):
        raise ValueError(f"subset {subset} out of range for word of length {k}")
    if not is_white(c.word[subset[0] - 1]):
        raise ValueError(f"subset {subset} is not admissible: minimum is not white")


def quotient(c: Rct, subsets, labels, m: int) -> Rct:
    """Collapse each subset to its minimum, redecorated by the matching label.

    `subsets` must be pairwise disjoint; every non-minimal subset position
    disappears from the word.
    """
    subsets = [tuple(sorted(s)) for s in subsets]
    labels = list(labels)
    if len(subsets) != len(labels):
        raise ValueError("one label per subset required")
    seen: set[int] = set()
    relabel: dict[int, int] = {}
    drop: set[int] = set()
    for subset, label in zip(subsets, labels):
        _check_positions(c, subset)
        if not 1 <= label <= m:
            raise ValueError(f"label {label} outside 1..{m}")
        if seen & set(subset):
            raise ValueError("subsets overlap")
        seen |= set(subset)
        relabel[subset[0]] = label
        drop |= set(subset[1:])
    word = []
    for pos in range(1, len(c.word) + 1):
        if pos in drop:
            continue
        word.append(relabel.get(pos, c.word[pos - 1]))
    return gen(c.root, tuple(word))


def restrict(c: Rct, subset: Subset, label: int, m: int) -> Rct:
    """Sub-tree on `subset`: its minimum becomes the root, labelled `label`."""
    subset = tuple(sorted(subset))
    _check_positions(c, subset)
    if not 1 <= label <= m:
        raise ValueError(f"label {label} outside 1..{m}")
    return gen(label, tuple(c.word[p - 1] for p in subset[1:]))


class ForestNode(NamedTuple):
    subset: Subset
    children: tuple["ForestNode", ...]


class NestingForest(NamedTuple):
    root: int
    nodes: tuple[ForestNode, ...]


def build_nesting_forest(c: Rct, extraction: Extraction) -> NestingForest:
    """Containment hierarchy of a nonempty general extraction as a decorated forest."""
    if not extraction.subsets:
        raise ValueError("nesting forest needs a nonempty extraction")
    return NestingForest(c.root, _forest_nodes(extraction.subsets))


def _forest_nodes(subsets: tuple[Subset, ...]) -> tuple[ForestNode, ...]:
    order = sorted(subsets, key=lambda s: (s[0], s))
    sets = [set(s) for s in order]

    def immediate_parent(i: int) -> int | None:
        best = None
        for j in range(len(order)):
            if j != i and sets[i] < sets[j]:
                if best is None or sets[j] < sets[best]:
                    best = j
        return best

    children_of: dict[int | None, list[int]] = {}
    for i in range(len(order)):
        children_of.setdefault(immediate_parent(i), []).append(i)

    def build(i: int) -> ForestNode:
        kids = tuple(build(j) for j in children_of.get(i, []))
        return ForestNode(order[i], kids)

    return tuple(build(i) for i in children_of.get(None, []))


def iter_words(max_weight: int, m: int) -> Iterator[Word]:
    """All words over {x_0..x_m} of grading weight at most max_weight."""
    def rec(budget: int) -> Iterator[Word]:
        yield ()
        for letter in range(m + 1):
            cost = 2 if letter == 0 else 1
            if cost <= budget:
                for tail in rec(budget - cost):
                    yield (letter,) + tail

    if max_weight >= 0:
        yield from rec(max_weight)


def iter_rcts(max_degree: int, m: int) -> Iterator[Rct]:
    """All generators (single trees) of degree at most max_degree."""
    for word in iter_words(max_degree - 1, m):
        for root in range(1, m + 1):
            yield gen(root, word)


def format_rct(c: Rct) -> str:
    return f"{c.root}:{format_word(c.word)}"


def parse_rct(text: str, m: int | None = None) -> Rct:
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"malformed tree {text!r}, expected <root>:<word>")
    root_text, word_text = text.split(":", 1)
    try:
        root = int(root_text)
    except ValueError as exc:
        raise ValueError(f"malformed root in {text!r}") from exc
    if m is None and root < 1:
        raise ValueError(f"root label {root} must be >= 1")
    if m is not None and not 1 <= root <= m:
        raise ValueError(f"root label {root} outside 1..{m}")
    return gen(root, parse_word(word_text, m))


def format_subset(subset: Subset) -> str:
    return "{" + ",".join(str(p) for p in subset) + "}"


def parse_subset(text: str) -> Subset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"malformed subset {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        raise ValueError("empty subset")
    subset = tuple(sorted(int(part) for part in inner.split(",")))
    if len(set(subset)) < len(subset):
        raise ValueError(f"subset {text!r} repeats a position")
    return subset
