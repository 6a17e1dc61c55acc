import itertools
from math import comb

import pytest

from circletree.lincomb import LinComb
from circletree.words import (
    format_word,
    letter_weight,
    parse_word,
    shuffle,
    word_degree,
)
from oracles import shuffle_polys


def brute_shuffle(u, v):
    """Oracle: enumerate every interleaving by choosing the positions of u."""
    out = LinComb()
    n = len(u) + len(v)
    for positions in itertools.combinations(range(n), len(u)):
        word = [None] * n
        ui = iter(u)
        vi = iter(v)
        for i in range(n):
            word[i] = next(ui) if i in positions else next(vi)
        out.add_term(tuple(word), 1)
    return out


def test_letter_weights():
    assert letter_weight(0) == 2
    assert letter_weight(1) == 1
    assert letter_weight(5) == 1


def test_word_degree():
    assert word_degree(()) == 0
    assert word_degree((0, 1)) == 3
    assert word_degree((0, 0)) == 4


def test_shuffle_examples():
    assert shuffle((1,), ()) == LinComb({(1,): 1})
    assert shuffle((1,), (2,)) == LinComb({(1, 2): 1, (2, 1): 1})
    assert shuffle((1,), (1,)) == LinComb({(1, 1): 2})
    # three interleavings of x0x1 with x2, frozen from the oracle
    expected = brute_shuffle((0, 1), (2,))
    assert expected == LinComb({(0, 1, 2): 1, (0, 2, 1): 1, (2, 0, 1): 1})
    assert shuffle((0, 1), (2,)) == expected


@pytest.mark.parametrize("u,v", [
    ((), ()), ((1,), (1, 2)), ((0, 1), (2, 0)), ((1, 1), (1, 1)),
    ((0, 0, 1), (2,)), ((1, 2, 0), (0, 1)),
])
def test_shuffle_matches_bruteforce(u, v):
    assert shuffle(u, v) == brute_shuffle(u, v)


def all_words(max_len, m):
    for n in range(max_len + 1):
        yield from itertools.product(range(m + 1), repeat=n)


def test_shuffle_commutative_exhaustive():
    words = list(all_words(4, 2))
    for u in words:
        for v in words:
            assert shuffle(u, v) == shuffle(v, u)


def test_shuffle_associative():
    # exhaustive with combined length <= 6, then sampled at length 4 apiece
    words = list(all_words(4, 2))
    for u in words:
        for v in words:
            for w in words:
                if len(u) + len(v) + len(w) > 6:
                    continue
                left = shuffle_polys(shuffle(u, v), LinComb({w: 1}))
                right = shuffle_polys(LinComb({u: 1}), shuffle(v, w))
                assert left == right, (u, v, w)
    import random
    rng = random.Random(17)
    four = [w for w in words if len(w) == 4]
    for _ in range(25):
        u, v, w = (rng.choice(four) for _ in range(3))
        left = shuffle_polys(shuffle(u, v), LinComb({w: 1}))
        right = shuffle_polys(LinComb({u: 1}), shuffle(v, w))
        assert left == right, (u, v, w)


def test_shuffle_coefficient_mass():
    for u in all_words(3, 1):
        for v in all_words(3, 1):
            total = sum(shuffle(u, v).values())
            assert total == comb(len(u) + len(v), len(u))


def test_degree_additive_over_concat():
    for u in all_words(3, 2):
        for v in all_words(2, 2):
            assert word_degree(u + v) == word_degree(u) + word_degree(v)


def test_word_text_format():
    assert format_word(()) == "e"
    assert format_word((0, 1, 2)) == "0.1.2"
    assert parse_word("e") == ()
    assert parse_word("0.1.2", m=2) == (0, 1, 2)
    with pytest.raises(ValueError):
        parse_word("0.3", m=2)
    with pytest.raises(ValueError):
        parse_word("0.x")
    for w in all_words(3, 2):
        assert parse_word(format_word(w), m=2) == w
