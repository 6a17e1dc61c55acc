import pytest

from circletree import checks, coordmaps, hopf, lincomb, trees
from circletree.coordmaps import (
    CoordMap,
    antipode,
    degree,
    deshuffle_coproduct,
    format_coord_map,
    full_delta,
    mono_degree,
    parse_coord_map,
    reduced_delta,
    reduced_terms,
    tilde_delta,
    tilde_terms,
    to_coord_map,
)
from circletree.lincomb import LinComb
from circletree.trees import Rct, iter_rcts


def S(*maps):
    return tuple(sorted(maps))


A = CoordMap  # shorthand in expected values


def pair(left, right):
    return ((left,), (right,))


def test_deshuffle_examples():
    a = A(1, ())
    assert deshuffle_coproduct(a, 2) == LinComb({pair(A(1, ()), A(2, ())): 1})
    a = A(1, (1,))
    assert deshuffle_coproduct(a, 2) == LinComb({
        pair(A(1, (1,)), A(2, ())): 1,
        pair(A(1, ()), A(2, (1,))): 1,
    })
    a = A(1, (2, 1))
    assert deshuffle_coproduct(a, 3) == LinComb({
        pair(A(1, (2, 1)), A(3, ())): 1,
        pair(A(1, (2,)), A(3, (1,))): 1,
        pair(A(1, (1,)), A(3, (2,))): 1,
        pair(A(1, ()), A(3, (2, 1))): 1,
    })


def test_tilde_delta_base_case():
    assert tilde_delta(A(1, ()), 2) == LinComb({((A(1, ()),), ()): 1})


def test_tilde_delta_black_letter_prepends_left():
    for word in [(), (1,), (0,), (2, 0)]:
        inner = tilde_delta(A(1, word), 2)
        expected = LinComb()
        for (left, right), coeff in inner.items():
            expected.add_term(((A(1, (1,) + left[0].word),), right), coeff)
        assert tilde_delta(A(1, (1,) + word), 2) == expected


def test_tilde_delta_integrator_m1():
    got = tilde_delta(A(1, (0,)), 1)
    assert got == LinComb({
        ((A(1, (0,)),), ()): 1,
        ((A(1, (1,)),), (A(1, ()),)): 1,
    })


def test_full_delta_examples():
    a = A(1, ())
    assert full_delta(a, 2) == LinComb({((a,), ()): 1, ((), (a,)): 1})
    # matches the tree coproduct: the tree 1:0 is the coordinate map a[1;0]
    c = Rct(1, (0,))
    assert full_delta(c, 2) == hopf.coproduct(c, 2)
    # words without the integrator letter are primitive
    a = A(1, (1, 2))
    assert full_delta(a, 2) == LinComb({((a,), ()): 1, ((), (a,)): 1})


from oracles import closed_form_antipodes


@pytest.mark.parametrize("m", [1, 2])
def test_antipode_closed_forms(m):
    for i in range(1, m + 1):
        for a, expected in closed_form_antipodes(i, m):
            assert antipode(a, m, "left") == expected, a
            assert antipode(a, m, "right") == expected, a


def test_antipode_x0x0_has_six_terms_at_m1():
    assert len(antipode(A(1, (0, 0)), 1)) == 6


def test_reduced_terms_are_the_tilde_terms_after_the_left_primitive_one():
    # the recursions read the reduced coproduct as a slice, so the
    # left-primitive term must come first and be the only empty right leg
    for m in (1, 2):
        for a in iter_rcts(8, m):
            terms = tilde_terms(a, m)
            assert terms[0] == (a, (), 1), a
            assert reduced_terms(a, m) == terms[1:] and all(right for _l, right, _k in terms[1:]), a


def test_the_tilde_table_holds_generator_ids():
    # the table holds (left id, sorted right id tuple, coefficient); the
    # decoded view is the extraction sum less its primitive terms
    hopf.clear_caches()
    a = A(2, (0, 1, 0, 0))
    items = coordmaps._tilde_items(*a, 2)
    assert len(items) > 1
    for left, right, coeff in items:
        assert type(left) is int and type(right) is tuple and type(coeff) is int
        assert all(type(i) is int for i in right) and list(right) == sorted(right)
    terms = tilde_terms(a, 2)
    assert terms[0] == (a, (), 1)
    reference = LinComb({(left, right): k for (left, right), k in
                         hopf.extraction_coproduct(a, 2).items() if left and right})
    assert LinComb({((left,), right): k for left, right, k in terms[1:]}) == reference


def test_reduced_delta_drops_both_primitive_parts():
    a = A(1, (0,))
    red = reduced_delta(a, 1)
    assert ((a,), ()) not in red
    assert ((), (a,)) not in red
    assert red == LinComb({((A(1, (1,)),), (A(1, ()),)): 1})


def test_degree_and_grading():
    assert degree(A(1, ())) == 1
    assert degree(A(2, (0, 1))) == 4
    for m in (1, 2):
        for a in iter_rcts(6, m):
            for (left, right), _k in full_delta(a, m).items():
                assert mono_degree(left) + mono_degree(right) == degree(a)


def test_bijection_roundtrip_and_degree():
    # one generator type: the bijection is the identity and `channel` reads the root
    assert CoordMap is Rct
    assert degree is trees.degree and mono_degree is trees.mono_degree is hopf.mono_degree
    for c in iter_rcts(5, 2):
        a = to_coord_map(c)
        assert a is c and a == CoordMap(c.root, c.word)
        assert a.channel == c.root and degree(a) == c.word.count(0) + len(c.word) + 1
    with pytest.raises(AttributeError):
        CoordMap(1, ()).channel = 2


def test_isomorphism_small_ranges():
    assert checks.check_iso_coproduct(6, 2) == 238
    assert checks.check_iso_antipode(6, 2) == 238
    assert checks.check_deshuffle_correspondence(6, 2) == 40
    assert checks.check_figure_relations(6, 2) == 238


@pytest.mark.parametrize("sides", [("left",), ("right",), ("left", "right")])
def test_iso_antipode_catches_a_tampered_coordinate_map_antipode(monkeypatch, sides):
    # one wrong coefficient for one generator; tampering both sides alike is
    # a wrong shared table entry, which only the forest formula can catch
    target, honest = A(2, (0, 1)), coordmaps.antipode

    def tampered(a, m, side="right"):
        out = honest(a, m, side)
        if a == target and side in sides:
            out.add_term((a,), -1)
        return out

    monkeypatch.setattr(coordmaps, "antipode", tampered)
    with pytest.raises(AssertionError, match="differ from the forest"):
        checks.check_iso_antipode(4, 2)


def test_iso_antipode_catches_a_wrong_key_store_entry():
    # a stored key that names another monomial misleads both recursions,
    # which decode through the shared store; the forest formula does not
    hopf.clear_caches()
    try:
        checks.check_iso_antipode(4, 2)
        entry = coordmaps._antipode(trees.gen_id(2, (0, 1)), 2, "right")
        key, other = list(entry)[-2:]
        lincomb._INTERNED[key] = (key, lincomb.ids_of(other))
        with pytest.raises(AssertionError, match="differ from the forest"):
            checks.check_iso_antipode(4, 2)
    finally:
        hopf.clear_caches()


def test_forest_formula_leaves_the_key_store_empty():
    hopf.clear_caches()
    for c in iter_rcts(6, 2):
        hopf.antipode_forest(c, 2)
    assert not lincomb._INTERNED
    hopf.clear_caches()


def test_text_format():
    assert format_coord_map(A(1, (0, 1))) == "a[1;0.1]"
    assert parse_coord_map("a[1;0.1]", 2) == A(1, (0, 1))
    assert parse_coord_map("a[2;e]", 2) == A(2, ())
    with pytest.raises(ValueError):
        parse_coord_map("a[3;e]", 2)
    with pytest.raises(ValueError):
        parse_coord_map("b[1;e]")
