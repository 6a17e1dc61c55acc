import itertools

import pytest

from circletree.trees import (
    EMPTY_EXTRACTION,
    Extraction,
    Rct,
    admissible_subsets,
    bit_indices,
    block_tree,
    build_nesting_forest,
    degree,
    enumerate_admissible_extractions,
    enumerate_all_extractions,
    format_rct,
    iter_general_families,
    iter_rcts,
    labelled_extractions,
    parse_rct,
    parse_subset,
    quotient,
    restrict,
    weight,
)


# ---------------------------------------------------------------------------
# brute-force oracles over position-subset families


def brute_admissible_subsets(c):
    k = len(c.word)
    out = []
    for mask in range(1, 1 << k):
        subset = tuple(p for p in range(1, k + 1) if mask >> (p - 1) & 1)
        if c.word[subset[0] - 1] == 0:
            out.append(subset)
    return sorted(out)


def brute_families(c, general):
    subsets = brute_admissible_subsets(c)
    families = []
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            ok = True
            for a, b in itertools.combinations(combo, 2):
                sa, sb = set(a), set(b)
                if general:
                    if a[0] == b[0] or not (sa.isdisjoint(sb) or sa < sb or sb < sa):
                        ok = False
                        break
                else:
                    if not sa.isdisjoint(sb):
                        ok = False
                        break
            if ok:
                families.append(frozenset(combo))
    return set(families)


# ---------------------------------------------------------------------------
# counts and lists fixed by the worked examples


def test_degree_weight():
    assert degree(Rct(1, ())) == 1 and weight(Rct(1, ())) == 1
    assert degree(Rct(1, (0, 0))) == 5
    assert degree(Rct(1, (0,) * 7)) == 15


def test_admissible_subsets_examples():
    assert admissible_subsets(Rct(1, (1, 0))) == [(2,)]
    assert admissible_subsets(Rct(1, (0, 1))) == [(1,), (1, 2)]
    assert len(admissible_subsets(Rct(1, (0, 0, 1)))) == 6
    assert admissible_subsets(Rct(1, (1, 0, 2, 0))) == \
        [(2,), (2, 3), (2, 3, 4), (2, 4), (4,)]
    assert admissible_subsets(Rct(1, (1, 2))) == []
    # every subset is admissible when all vertices are white
    assert len(admissible_subsets(Rct(1, (0, 0, 0)))) == 7


def test_admissible_extractions_examples():
    fams = [e.subsets for e in enumerate_admissible_extractions(Rct(1, (1, 0, 2, 0)))]
    assert len(fams) == 7
    assert {frozenset(f) for f in fams} == {
        frozenset({(2,)}), frozenset({(4,)}), frozenset({(2, 3)}),
        frozenset({(2, 4)}), frozenset({(2, 3, 4)}),
        frozenset({(2,), (4,)}), frozenset({(2, 3), (4,)}),
    }
    assert enumerate_admissible_extractions(Rct(1, (1, 2))) == []
    # x0x0: three singleton families plus one disjoint pair (oracle-checked below)
    assert len(enumerate_admissible_extractions(Rct(1, (0, 0)))) == 4


def test_all_extractions_examples():
    assert len(enumerate_all_extractions(Rct(1, (0,)))) == 2
    assert enumerate_all_extractions(Rct(1, (0,)))[0] is EMPTY_EXTRACTION
    six = enumerate_all_extractions(Rct(1, (0, 0)))
    assert len(six) == 6
    assert {frozenset(e.subsets) for e in six} == {
        frozenset(), frozenset({(1,)}), frozenset({(2,)}), frozenset({(1, 2)}),
        frozenset({(1,), (2,)}), frozenset({(1, 2), (2,)}),
    }
    assert len(enumerate_all_extractions(Rct(1, (0, 0, 0)))) == 26


@pytest.mark.parametrize("word", [
    word for length in range(5) for word in itertools.product(range(3), repeat=length)])
def test_enumerations_match_bruteforce(word):
    c = Rct(1, word)
    assert admissible_subsets(c) == brute_admissible_subsets(c)
    admissible = [e.subsets for e in enumerate_admissible_extractions(c)]
    assert {frozenset(fam) for fam in admissible} == brute_families(c, general=False)
    assert len(set(admissible)) == len(admissible)
    # `extractions` prints this order
    assert admissible == sorted(admissible)
    general = list(iter_general_families(c))
    assert {frozenset(fam) for fam in general} == brute_families(c, general=True)
    assert len(set(general)) == len(general)
    # `extractions --all` prints this order
    assert general == sorted(general)
    assert [e.subsets for e in enumerate_all_extractions(c)] == [()] + general


def test_admissible_families_within_general():
    for c in iter_rcts(7, 2):
        general = {frozenset(e.subsets) for e in enumerate_all_extractions(c)}
        for e in enumerate_admissible_extractions(c):
            assert frozenset(e.subsets) in general


# ---------------------------------------------------------------------------
# quotient / restrict


def test_quotient_examples():
    # collapsing a two-vertex subset keeps its relabelled minimum
    assert quotient(Rct(1, (1, 0, 1, 0)), [(2, 3)], [2], 2) == Rct(1, (1, 2, 0))
    assert quotient(Rct(1, (0,)), [(1,)], [2], 2) == Rct(1, (2,))
    assert quotient(Rct(1, (0, 0)), [(1,), (2,)], [1, 2], 2) == Rct(1, (1, 2))


def test_restrict_examples():
    assert restrict(Rct(1, (1, 0, 1, 0)), (2, 3), 2, 2) == Rct(2, (1,))
    assert restrict(Rct(1, (0, 1)), (1,), 2, 2) == Rct(2, ())
    # decorations at the non-minimal positions, in order
    assert restrict(Rct(1, (0, 1, 2)), (1, 3), 1, 2) == Rct(1, (2,))


def test_quotient_validation():
    with pytest.raises(ValueError):
        quotient(Rct(1, (0, 0)), [(1, 2), (2,)], [1, 1], 2)  # overlap
    with pytest.raises(ValueError):
        quotient(Rct(1, (0,)), [(1,)], [3], 2)  # label out of range
    with pytest.raises(ValueError):
        restrict(Rct(1, (1, 0)), (1,), 1, 2)  # minimum not white


def test_kernel_quotients_and_sub_trees_are_the_public_operations():
    """The kernel assembles quotients and sub-trees without checks; the
    validated `quotient` and `restrict` are their reference."""
    for m in (1, 2):
        for c in iter_rcts(8, m):
            for family, labels, qword in labelled_extractions(c.word, (1 << len(c.word)) - 1, m):
                subsets = [tuple(i + 1 for i in bit_indices(block)) for block in family]
                assert Rct(c.root, qword) == quotient(c, subsets, labels, m), (c, subsets, labels)
                for block, subset, label in zip(family, subsets, labels):
                    assert block_tree(c.word, block, label) == restrict(c, subset, label, m)


def test_degree_and_weight_bookkeeping():
    for c in iter_rcts(7, 2):
        for subset in admissible_subsets(c):
            for label in (1, 2):
                q = quotient(c, [subset], [label], 2)
                r = restrict(c, subset, label, 2)
                assert degree(c) == degree(q) + degree(r)
                assert weight(c) == weight(q) + weight(r) - 1


def test_iter_rcts_stays_within_the_degree():
    for m in (1, 2):
        assert list(iter_rcts(0, m)) == []
        assert list(iter_rcts(-1, m)) == []
        assert list(iter_rcts(1, m)) == [Rct(root, ()) for root in range(1, m + 1)]
        for max_degree in range(6):
            assert all(degree(c) <= max_degree for c in iter_rcts(max_degree, m))


def test_nested_quotients_compose():
    """Collapsing an inner subset first, then the rest, matches one collapse."""
    for c in iter_rcts(7, 2):
        subsets = admissible_subsets(c)
        for inner in subsets:
            for outer in subsets:
                if not (set(inner) < set(outer)) or inner[0] == outer[0]:
                    continue
                staged = quotient(c, [inner], [1], 2)
                removed = [p for p in inner if p != inner[0]]
                shift = lambda p: p - sum(1 for r in removed if r < p)
                outer_after = tuple(sorted(
                    shift(p) for p in outer if p not in removed))
                assert quotient(staged, [outer_after], [2], 2) == \
                    quotient(c, [outer], [2], 2), (c, inner, outer)


# ---------------------------------------------------------------------------
# nesting forests


def _shape(node):
    return (node.subset, tuple(_shape(k) for k in node.children))


def test_nesting_forest_shapes():
    c = Rct(1, (0, 0, 0))
    chain = build_nesting_forest(c, Extraction(((1, 2, 3), (2, 3), (3,))))
    assert [_shape(n) for n in chain.nodes] == \
        [((1, 2, 3), (((2, 3), (((3,), ()),)),))]
    corolla = build_nesting_forest(c, Extraction(((1,), (2,), (3,))))
    assert [_shape(n) for n in corolla.nodes] == \
        [((1,), ()), ((2,), ()), ((3,), ())]
    single = build_nesting_forest(c, Extraction(((1, 3),)))
    assert [_shape(n) for n in single.nodes] == [((1, 3), ())]
    mixed = build_nesting_forest(c, Extraction(((1, 3), (2,), (3,))))
    assert [_shape(n) for n in mixed.nodes] == \
        [((1, 3), (((3,), ()),)), ((2,), ())]


def test_tree_text_format():
    assert format_rct(Rct(1, (0, 0, 1))) == "1:0.0.1"
    assert parse_rct("1:0.0.1", 2) == Rct(1, (0, 0, 1))
    assert parse_rct("2:e", 2) == Rct(2, ())
    with pytest.raises(ValueError):
        parse_rct("3:0", 2)
    with pytest.raises(ValueError):
        parse_rct("1-0.1", 2)
    assert parse_subset("{2,3}") == (2, 3)
