import random

from circletree import checks
from circletree.lincomb import LinComb
from circletree.prelie import lie_bracket, prelie_combs, prelie_product
from circletree.trees import Rct, iter_rcts
import suites


def test_empty_word_inserts_to_zero():
    assert prelie_product(Rct(1, ()), Rct(1, (2,))) == LinComb()


def test_no_matching_decoration():
    assert prelie_product(Rct(1, (1,)), Rct(2, ())) == LinComb()


def test_single_insertion_site_distinct_letters():
    # one matching vertex: the suffix is shuffled into the inserted word
    got = prelie_product(Rct(1, (1, 2, 3)), Rct(1, (4,)))
    assert got == LinComb({
        Rct(1, (0, 4, 2, 3)): 1,
        Rct(1, (0, 2, 4, 3)): 1,
        Rct(1, (0, 2, 3, 4)): 1,
    })


def test_two_insertion_sites_when_letters_repeat():
    got = prelie_product(Rct(1, (1, 2, 1)), Rct(1, (4,)))
    assert got == LinComb({
        Rct(1, (0, 4, 2, 1)): 1,
        Rct(1, (0, 2, 4, 1)): 1,
        Rct(1, (0, 2, 1, 4)): 1,
        Rct(1, (1, 2, 0, 4)): 1,
    })


def test_shuffle_multiplicities_carry_through():
    got = prelie_product(Rct(1, (1, 2)), Rct(1, (2,)))
    assert got == LinComb({Rct(1, (0, 2, 2)): 2})


def test_bracket_examples():
    c = Rct(1, (0, 1))
    assert lie_bracket(c, c) == LinComb()
    assert lie_bracket(Rct(2, (1,)), Rct(1, ())) == LinComb({Rct(2, (0,)): 1})


def test_jacobi_randomized():
    rng = random.Random(5)
    pool = list(iter_rcts(5, 2))

    def bracket(p, q):
        return prelie_combs(p, q) - prelie_combs(q, p)

    for _ in range(30):
        a, b, c = (LinComb.single(rng.choice(pool), 1) for _ in range(3))
        total = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) \
            + bracket(c, bracket(a, b))
        assert not total


def test_prelie_identity_small():
    assert suites.check_prelie_identity(3, 2, random_trials=25) > 0


def test_duality_small():
    assert suites.check_duality(5, 2) == 98


def test_copre_lie_small():
    assert checks.check_copre_lie(6, 2) == 238
