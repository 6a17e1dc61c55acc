import importlib
import pkgutil

import pytest

import circletree
from circletree import checks, coordmaps, hopf, lincomb, trees
from circletree.hopf import (
    antipode_forest,
    antipode_poly,
    antipode_recursive,
    antipode_stats,
    coproduct,
    coproduct_monomial,
    counit,
    forest_signed_terms,
    format_poly,
    linearized_coproduct,
    mono_degree,
    reduced_coproduct,
)
from circletree.lincomb import LinComb
from circletree.prelie import prelie_product
from circletree.trees import Rct, iter_general_families, iter_rcts, labelled_extractions, parse_rct
from circletree.words import shuffle


def T(*rcts):
    return tuple(sorted(rcts))


def test_coproduct_all_black_is_primitive():
    c = Rct(1, (1, 2))
    assert coproduct(c, 2) == LinComb({((c,), ()): 1, ((), (c,)): 1})


def test_coproduct_single_white_m2():
    c = Rct(1, (0,))
    expected = LinComb({((c,), ()): 1, ((), (c,)): 1})
    for n in (1, 2):
        expected.add_term(((Rct(1, (n,)),), (Rct(n, ()),)), 1)
    assert coproduct(c, 2) == expected


def test_coproduct_double_white_m1():
    c = Rct(1, (0, 0))
    e = Rct(1, ())
    expected = LinComb({((c,), ()): 1, ((), (c,)): 1})
    expected.add_term(((Rct(1, (1,)),), (Rct(1, (0,)),)), 1)
    expected.add_term(((Rct(1, (1, 0)),), (e,)), 1)
    expected.add_term(((Rct(1, (0, 1)),), (e,)), 1)
    expected.add_term(((Rct(1, (1, 1)),), (e, e)), 1)
    assert coproduct(c, 1) == expected


def test_coproduct_poly_examples():
    assert coproduct_monomial((), 2) == LinComb({((), ()): 1})
    p = Rct(1, (1,))
    q = Rct(2, (2,))
    got = coproduct_monomial(T(p, q), 2)
    assert got == LinComb({
        (T(p, q), ()): 1, ((), T(p, q)): 1,
        ((p,), (q,)): 1, ((q,), (p,)): 1,
    })
    single = Rct(1, (0,))
    assert coproduct_monomial((single,), 2) == coproduct(single, 2)


def test_reduced_coproduct_examples():
    assert reduced_coproduct(Rct(1, (1, 2)), 2) == LinComb()
    assert reduced_coproduct(Rct(1, (0,)), 1) == \
        LinComb({((Rct(1, (1,)),), (Rct(1, ()),)): 1})
    assert reduced_coproduct(Rct(1, (1, 0)), 1) == \
        LinComb({((Rct(1, (1, 1)),), (Rct(1, ()),)): 1})


def test_linearized_coproduct_examples():
    assert linearized_coproduct(Rct(1, (1, 2)), 2) == LinComb()
    assert linearized_coproduct(Rct(1, (0,)), 1) == \
        LinComb({((Rct(1, (1,)),), (Rct(1, ()),)): 1})
    e = Rct(1, ())
    assert linearized_coproduct(Rct(1, (0, 0)), 1) == LinComb({
        ((Rct(1, (1,)),), (Rct(1, (0,)),)): 1,
        ((Rct(1, (1, 0)),), (e,)): 1,
        ((Rct(1, (0, 1)),), (e,)): 1,
    })


def test_antipode_all_black():
    c = Rct(1, (1, 1, 1))
    for method in ("left", "right"):
        assert antipode_recursive(c, 1, method) == LinComb({(c,): -1})
    assert antipode_forest(c, 1) == LinComb({(c,): -1})


def test_antipode_single_white_generic_m():
    for m in (1, 2, 3):
        c = Rct(1, (0,))
        expected = LinComb({(c,): -1})
        for n in range(1, m + 1):
            expected.add_term(T(Rct(1, (n,)), Rct(n, ())), 1)
        assert antipode_recursive(c, m) == expected


def test_antipode_double_white_m1():
    c = Rct(1, (0, 0))
    e = Rct(1, ())
    expected = LinComb({
        (c,): -1,
        T(Rct(1, (1,)), Rct(1, (0,))): 1,
        T(Rct(1, (1, 0)), e): 1,
        T(Rct(1, (0, 1)), e): 1,
        T(Rct(1, (1,)), Rct(1, (1,)), e): -1,
        T(Rct(1, (1, 1)), e, e): -1,
    })
    assert antipode_recursive(c, 1, "left") == expected
    assert antipode_recursive(c, 1, "right") == expected
    assert antipode_forest(c, 1) == expected


def test_antipode_multiplicative_on_monomials():
    p = Rct(1, (0,))
    q = Rct(2, (1,))
    got = antipode_poly(LinComb({T(p, q): 1}), 2)
    expected = LinComb()
    sp = antipode_recursive(p, 2)
    sq = antipode_recursive(q, 2)
    for mp, kp in sp.items():
        for mq, kq in sq.items():
            expected.add_term(tuple(sorted(mp + mq)), kp * kq)
    assert got == expected


def test_forest_primitive_and_nested_contribution():
    c = Rct(1, (1, 2))
    assert antipode_forest(c, 2) == LinComb({(c,): -1})
    # one nested family on the all-white three-vertex tree, labels at m=1
    c3 = Rct(1, (0, 0, 0))
    family = ((1, 3), (2,), (3,))
    contributions = [
        (mono, sign) for fam, mono, sign in forest_signed_terms(c3, 1) if fam == family
    ]
    e = Rct(1, ())
    assert contributions == [(T(Rct(1, (1, 1)), Rct(1, (1,)), e, e), 1)]


def test_forest_term_counts_match_published_totals():
    # total number of terms, with multiplicities, of the closed formula at m=1
    published = {1: 2, 2: 6, 3: 26, 4: 150, 5: 1082, 6: 9366, 7: 94586}
    for k, total in published.items():
        c = Rct(1, (0,) * k)
        assert sum(1 for _ in forest_signed_terms(c, 1)) == total
        assert antipode_stats(c, 1, "forest").generated == total  # counted, not listed


def test_antipode_stats():
    assert antipode_stats(Rct(1, (0,)), 1).distinct == 2
    assert antipode_stats(Rct(1, (0,) * 4), 1).distinct == 50
    rec = antipode_stats(Rct(1, (0, 0)), 1)
    # raw expansion of the recursion: 8 signed monomials, net mass 6
    assert (rec.generated, rec.distinct, rec.cancelled_mass) == (8, 6, 2)
    rec3 = antipode_stats(Rct(1, (0, 0, 0)), 1)
    assert (rec3.generated, rec3.distinct, rec3.cancelled_mass) == (64, 17, 38)
    forest = antipode_stats(Rct(1, (0, 0, 0)), 1, "forest")
    assert forest.generated == 26
    assert forest.distinct == 17
    assert forest.cancelled_mass == 0


def test_forest_count_is_the_net_mass_of_the_antipode():
    # the right recursion never cancels, so its raw count is the net mass
    for c in iter_rcts(13, 1):
        assert antipode_stats(c, 1, "forest").cancelled_mass == 0, c


def _enumerated_count(word, m, table):
    """Raw left-recursion terms counted by enumerating every labelled family
    of every quotient word."""
    if word not in table:
        families = labelled_extractions(word, (1 << len(word)) - 1, m)[1:]
        table[word] = 1 + sum(_enumerated_count(qword, m, table) for _f, _l, qword in families)
    return table[word]


def test_generated_count_matches_a_family_enumeration():
    ladder = [Rct(1, (0,) * k) for k in range(1, 7)]  # degrees 3..13
    for m, rcts in ((2, iter_rcts(8, 2)), (1, ladder)):
        table: dict = {}
        for c in rcts:
            assert antipode_stats(c, m).generated == _enumerated_count(c.word, m, table), (c, m)


def test_no_zero_coefficient_is_stored():
    # no step of the algebra below cancels a monomial outright, so these inputs do
    u, v, x = Rct(1, ()), Rct(2, ()), Rct(1, (0,))
    assert lincomb.poly_mul({(u,): 1, (v,): 1}, {(u,): 1, (v,): -1}) == {(u, u): 1, (v, v): -1}
    # the step runs on generator ids, its polynomials keyed by prime-product keys
    iu, iv, ix = (trees.gen_id(*g) for g in (u, v, x))
    single = {i: lincomb.prime(i) for i in (iu, iv, ix)}
    assert [lincomb.intern_with((), i, key) for i, key in single.items()] == [(iu,), (iv,), (ix,)]
    for side in ("left", "right"):
        cancelling = [(iu, (iv,), 1), (iu, (iv,), -1)]
        step = lincomb.antipode_step(ix, cancelling, side, lambda g: LinComb({single[g]: -1}))
        assert step == {single[ix]: -1}, side
        assert trees.decode(lincomb.ids_of(single[ix])) == (x,)
    for c in iter_rcts(8, 2):
        polys = [hopf.antipode(c, 2, method) for method in ("left", "right", "forest")]
        polys += [coordmaps.antipode(c, 2, side) for side in ("left", "right")]
        for p in polys:
            assert all(p.values()), c
        assert all(k for _left, _right, k in coordmaps.tilde_terms(c, 2)), c


def test_forest_families_are_the_general_families():
    # one term per (general family, labelling), nothing more and nothing missed
    for m in (1, 2):
        for c in iter_rcts(9, m):
            families = [fam for fam, _mono, _sign in forest_signed_terms(c, m)]
            expected = set(iter_general_families(c)) | {()}
            assert set(families) == expected, c
            assert len(families) == sum(m ** len(fam) for fam in expected), c
            assert antipode_forest(c, m).coeff_mass() == len(families), c
            assert antipode_stats(c, m, "forest").generated == len(families), c


@pytest.mark.parametrize("m", [1, 2])
def test_forest_listing_sums_to_the_forest_antipode(m):
    # the listing and the sum walk the families apart; summed, the listed
    # signed monomials are the sum
    for c in iter_rcts(8, m):
        listed = LinComb()
        for _family, mono, sign in forest_signed_terms(c, m):
            listed.add_term(mono, sign)
        assert listed == antipode_forest(c, m), c


def test_forest_equals_both_recursions_at_degree_15():
    c = Rct(1, (0,) * 7)
    forest = antipode_forest(c, 1)
    assert len(forest) == 1059 and forest.coeff_mass() == 94586
    assert forest == antipode_recursive(c, 1, "right") == antipode_recursive(c, 1, "left")


def _extraction_right_antipode(c, m, table):
    """Right recursion over the reduced terms of the extraction sum, a route
    that shares no coproduct table with `hopf.antipode`; the step reads the
    terms as generator ids and sorted id tuples."""
    i = trees.gen_id(*c)
    if i not in table:
        terms = [(trees.gen_id(*left[0]), tuple(sorted(trees.gen_id(*r) for r in right)), k)
                 for (left, right), k in hopf.extraction_coproduct(c, m).items() if left and right]
        table[i] = lincomb.antipode_step(
            i, terms, "right", lambda j: _extraction_right_antipode(trees.GENS[j], m, table))
    return table[i]


def test_table1_past_the_paper():
    # the paper's Table 1 stops at degree 15; two coproduct routes agree beyond it
    table: dict = {}
    for k, distinct in {8: 2859, 9: 7579}.items():
        c = Rct(1, (0,) * k)
        assert len(hopf.antipode(c, 1)) == distinct, 2 * k + 1
        assert len(_extraction_right_antipode(c, 1, table)) == distinct, 2 * k + 1
    assert len(hopf.antipode(Rct(1, (0,) * 10), 1)) == 19901


def test_coproduct_equals_the_extraction_sum_to_degree_11():
    assert checks.check_iso_coproduct(11, 1) == 232


def test_the_algebra_enumerates_no_extraction_family(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the algebra enumerated extraction families")

    hopf.clear_caches()
    monkeypatch.setattr(hopf, "labelled_extractions", refuse)
    c = Rct(1, (0, 0, 1, 0))
    assert coproduct(c, 2) and reduced_coproduct(c, 2) and linearized_coproduct(c, 2)
    for side in ("left", "right"):
        for memoize in (True, False):
            assert antipode_recursive(c, 2, side, memoize)
    for method in ("recursive_left", "forest"):
        assert antipode_stats(c, 2, method).generated
    with pytest.raises(AssertionError, match="enumerated"):
        antipode_forest(c, 2)  # the forest formula is the route that does
    hopf.clear_caches()


def test_antipode_stats_independent_of_cache_state():
    expected = {
        (Rct(1, (0, 0, 0, 0)), 1): (872, 50, 722),
        (Rct(1, (0, 0, 1, 0)), 2): (1035, 176, 744),
        (Rct(2, (0, 1, 0, 2, 0)), 2): (2027, 348, 1472),
    }
    for (c, m), triple in expected.items():
        hopf.clear_caches()
        fresh = antipode_stats(c, m)
        assert (fresh.generated, fresh.distinct, fresh.cancelled_mass) == triple, c
        hopf.clear_caches()
        antipode_recursive(c, m, "left")
        assert antipode_stats(c, m) == fresh, c


def test_clear_caches_empties_every_memo_table():
    c = Rct(1, (0, 0, 1))
    for method in ("left", "right", "forest"):
        antipode_poly(LinComb({(c,): 1}), 2, method)
    antipode_stats(c, 2)
    shuffle((0, 1), (2,))
    prelie_product(c, Rct(1, (2,)))
    found = {}  # a table imported by several modules is one table
    for info in pkgutil.iter_modules(circletree.__path__):
        module = importlib.import_module(f"circletree.{info.name}")
        found.update((id(obj), obj) for obj in vars(module).values()
                     if callable(getattr(obj, "cache_info", None)))
    caches = list(found.values())
    # the module scan and the registry find the same tables; trees and
    # coordinate maps share one antipode table
    assert sorted(map(id, caches)) == sorted(map(id, lincomb._MEMO_TABLES))
    assert [cache for cache in caches if "antipode" in cache.__name__] == [coordmaps._antipode]
    assert len(caches) == 7
    assert all(cache.cache_info().currsize for cache in caches)
    hopf.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


def test_generator_ids_live_only_as_long_as_the_tables():
    def sweep():
        results = [(hopf.antipode(c, 2), coordmaps.antipode(c, 2, "left"), antipode_forest(c, 2))
                   for c in iter_rcts(5, 2)]
        return results, len(trees.GENS), trees.gen_id.cache_info().currsize

    def first_keys():
        first = trees.gen_id(*next(iter_rcts(5, 2)))
        return [list(coordmaps._antipode(first, 2, side)) for side in ("left", "right")]

    hopf.clear_caches()
    results, size, ids = sweep()
    assert size == ids > 0
    keys = first_keys()
    # the interned monomials, the numbering's inverse and the decoded monomials
    stores = [lincomb._INTERNED, trees.GENS, trees._DECODED]
    assert list(map(id, lincomb._MEMO_STORES)) == list(map(id, stores))
    assert all(stores)
    hopf.clear_caches()
    assert trees.gen_id.cache_info().currsize == 0 and not any(stores)
    # a second cycle numbers the same generators afresh, to the same size
    assert sweep() == (results, size, ids)
    # and keys the first swept generator's antipode entries by the same ints
    assert first_keys() == keys


@pytest.mark.parametrize("max_degree, m", [(9, 1), (7, 2)])
def test_key_store_holds_only_entry_leg_and_generator_keys(max_degree, m):
    # the right step keeps its leg products S(r_1)...S(r_k) to itself
    hopf.clear_caches()
    for c in iter_rcts(max_degree, m):
        for side in ("left", "right"):
            antipode_recursive(c, m, side)
    stored = set(lincomb._INTERNED)
    kinds = set()
    for i, a in enumerate(list(trees.GENS)):
        kinds.add(lincomb.prime(i))
        kinds.update(lincomb.key_of(right) for _left, right, _k
                     in coordmaps._tilde_items(a.channel, a.word, m))
        for side in ("left", "right"):
            kinds.update(coordmaps._antipode(i, m, side))
    assert len(lincomb._INTERNED) == len(stored)  # every entry read was there
    assert stored <= kinds, len(stored - kinds)
    hopf.clear_caches()


def _assert_one_object_per_value(c: Rct) -> list:
    """Run the three antipode routes on `c`; every factor of a returned
    monomial or tilde term, and every monomial the memo tables keep, is one
    object per value."""
    results = [hopf.antipode(c, 2), coordmaps.antipode(c, 2, "left"), antipode_forest(c, 2)]
    factors = [factor for poly in results for mono in poly for factor in mono]
    stored = [mono for poly in results[:2] for mono in poly]
    for left, right, _coeff in coordmaps.tilde_terms(c, 2):
        factors += [left, *right]
        stored.append(right)
    assert len(set(factors)) == len(set(map(id, factors))) < len(factors)
    assert len(set(stored)) == len(set(map(id, stored))) < len(stored)
    return results


def test_generators_and_stored_monomials_are_shared():
    hopf.clear_caches()
    c = parse_rct("2:0.1.0.0", 2)
    assert hopf.degree(c) == 8
    shared = _assert_one_object_per_value(c)
    assert shared[0] == shared[1] == shared[2]
    # a generator the caller builds gives equal results, interned the same way
    hopf.clear_caches()
    assert _assert_one_object_per_value(Rct(2, (0, 1, 0, 0))) == shared
    assert _assert_one_object_per_value(c) == shared  # and on a warm table


def test_antipode_entries_share_their_key_ints():
    # one int object per key across the left and right entries of every generator
    hopf.clear_caches()
    for c in iter_rcts(7, 2):
        coordmaps.antipode(c, 2, "left"), coordmaps.antipode(c, 2, "right")
    keys = [key for i in range(len(trees.GENS)) for side in ("left", "right")
            for key in coordmaps._antipode(i, 2, side)]
    assert len(set(map(id, keys))) == len(set(keys)) < len(keys)


def test_one_memo_entry_serves_trees_and_coordinate_maps():
    c = Rct(2, (0, 1, 0, 0))
    assert hopf.degree(c) == 8
    hopf.clear_caches()
    tree_side = hopf.antipode(c, 2)
    before = coordmaps._antipode.cache_info()
    coord_side = coordmaps.antipode(c, 2, "right")
    after = coordmaps._antipode.cache_info()
    assert after.currsize == before.currsize and after.hits == before.hits + 1
    assert coord_side == tree_side
    # one LinComb, printed in each side's syntax
    assert hopf.format_poly(tree_side).splitlines()[0] == "2:0.1.0.0 -1"
    assert coordmaps.format_poly(tree_side).splitlines()[0] == "a[2;0.1.0.0] -1"
    for tree_line, coord_line in zip(hopf.format_poly(tree_side).splitlines(),
                                     coordmaps.format_poly(tree_side).splitlines(), strict=True):
        tree_mono, tree_coeff = tree_line.split()
        coord_mono, coord_coeff = coord_line.split()
        assert tree_coeff == coord_coeff
        assert coord_mono == "*".join(f"a[{root};{word}]" for root, word in
                                      (factor.split(":") for factor in tree_mono.split("*")))


def test_every_exported_name_resolves():
    assert len(set(circletree.__all__)) == len(circletree.__all__)
    missing = [name for name in circletree.__all__ if not hasattr(circletree, name)]
    assert missing == []
    namespace: dict = {}
    exec("from circletree import *", namespace)
    assert set(circletree.__all__) <= set(namespace)


def test_memoization_toggle():
    c = Rct(1, (0, 0, 1))
    hopf.clear_caches()
    without = antipode_recursive(c, 2, "left", memoize=False)
    assert coordmaps._antipode.cache_info().currsize == 0  # the raw run fills no antipode table
    with_memo = antipode_recursive(c, 2, "left", memoize=True)
    assert with_memo == without


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("side", ["left", "right"])
def test_unmemoized_recursion_matches_the_table_and_the_forest(side, m):
    hopf.clear_caches()
    for c in iter_rcts(6, m):
        raw = antipode_recursive(c, m, side, memoize=False)
        assert raw == antipode_recursive(c, m, side) == antipode_forest(c, m), c


def test_returned_antipodes_do_not_alias_the_memo():
    c = Rct(1, (0, 0, 1))
    routes = [lambda side: antipode_recursive(c, 2, side),
              lambda side: coordmaps.antipode(c, 2, side)]
    for route in routes:
        for side in ("left", "right"):
            original = LinComb(route(side))
            mutated = route(side)
            mutated.add_term(("junk",), 7)
            mutated.pop(next(iter(original)))
            assert route(side) == original, side


def test_unknown_antipode_side_is_rejected():
    c = Rct(1, (0, 1))
    with pytest.raises(ValueError, match="left or right"):
        antipode_recursive(c, 2, "middle")
    with pytest.raises(ValueError, match="left or right"):
        coordmaps.antipode(c, 2, "middle")


def test_counit_values():
    assert counit(LinComb({(): 3})) == 3
    assert counit(LinComb({(Rct(1, (0,)),): 5})) == 0


def test_grading_of_tensor_terms():
    for word in [(0,), (0, 1), (1, 0, 2, 0), (0, 0, 1)]:
        c = Rct(1, word)
        from circletree.trees import degree
        for (left, right), _k in coproduct(c, 2).items():
            assert mono_degree(left) + mono_degree(right) == degree(c)


def test_axiom_suites_small():
    assert checks.check_coassociativity(6, 2) == 238
    assert checks.check_counit(6, 2) == 238
    assert checks.check_antipode_convolution(6, 2) == 238
    assert checks.check_antipode_agreement(7, 1) == 33
    assert checks.check_forest_sign_purity(7, 2) == 576


def test_format_poly_sorted():
    text = format_poly(antipode_recursive(Rct(1, (0, 0)), 1))
    assert text.splitlines()[0] == "1:0.0 -1"
    assert "1:e*1:e*1:1.1 -1" in text
