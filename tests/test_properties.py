"""Property tests (hypothesis) on the series-level identities and on the
prime-product monomial keys of the antipode table.

They add to the seeded random trials of the other test files.  The
settings are fixed and derandomized, so every run draws the same
examples and stays deterministic.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circletree.groupops import (
    antipode_inverse,
    compose,
    group_inverse,
    group_product,
    hat_compose,
    mod_compose,
)
from circletree import lincomb
from circletree.lincomb import LinComb
from circletree.series import Series, add, shuffle_product
from circletree.words import shuffle
from oracles import channel_poly, shuffle_polys

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# int or Fraction, mixed denominators, signs both ways so that terms cancel
coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
).filter(bool)


def words(max_letter: int, max_len: int, min_len: int = 0):
    return st.lists(st.integers(0, max_letter), min_size=min_len, max_size=max_len).map(tuple)


def word_polys(max_letter: int = 2, max_len: int = 3):
    return st.dictionaries(words(max_letter, max_len), coefficients, max_size=5).map(LinComb)


def square_series(m: int, length: int):
    keys = st.tuples(st.integers(1, m), words(m, length))
    return st.dictionaries(keys, coefficients, max_size=6).map(
        lambda coeffs: Series(m, m, length, coeffs))


def suffix_sharing_series(ell: int, m: int, length: int):
    """Series of up to 6 terms whose words, up to 5 letters, put a head of 1 or 2
    letters on one of 2 tails of 1 to 3 letters, so words share suffixes."""
    tails = st.tuples(words(m, 3, 1), words(m, 3, 1))
    terms = st.lists(st.tuples(st.integers(1, ell), words(m, 2, 1), st.integers(0, 1),
                               coefficients), min_size=2, max_size=6)
    return st.builds(
        lambda tails, terms: Series(ell, m, length, {
            (channel, head + tails[pick]): k for channel, head, pick, k in terms}),
        tails, terms)


def reference_shuffle(p: LinComb, q: LinComb, max_len) -> LinComb:
    """Term-by-term Fraction expansion through the word shuffle."""
    out = LinComb()
    for u, a in p.items():
        for v, b in q.items():
            if max_len is not None and len(u) + len(v) > max_len:
                continue
            for word, mult in shuffle(u, v).items():
                out.add_term(word, Fraction(a) * Fraction(b) * mult)
    return out


def reference_image(word, d: Series, max_len: int, modified: bool) -> LinComb:
    """One word's image under the (modified) cascade homomorphism applied to 1,
    folded letter by letter on Fractions with nothing shared between words:
    x_i -> [x_i +] x_0 (d_i shuffle .), where d_0 is 1 (plain) or 0 (modified)."""
    acc = LinComb({(): Fraction(1)})
    for letter in reversed(word):
        out = LinComb()
        if modified:
            for w, k in acc.items():
                if len(w) < max_len:
                    out.add_term((letter,) + w, k)
        if letter:
            d_i = channel_poly(d, letter)
        else:
            d_i = LinComb() if modified else LinComb({(): 1})
        for w, k in reference_shuffle(d_i, acc, max_len - 1).items():
            out.add_term((0,) + w, k)
        acc = out
    return acc


def reference_compose(c: Series, d: Series, max_len: int, modified: bool) -> Series:
    coeffs = LinComb()
    for (channel, word), k in c.coeffs.items():
        for w, v in reference_image(word, d, max_len, modified).items():
            coeffs.add_term((channel, w), k * v)
    return Series(c.ell, c.m, max_len, coeffs)


@FIXED
@given(word_polys(), word_polys(), st.one_of(st.none(), st.integers(0, 6)))
def test_shuffle_polys_matches_fraction_reference(p, q, max_len):
    got = shuffle_polys(p, q, max_len)
    assert got == reference_shuffle(p, q, max_len)
    assert all(got.values())


@FIXED
@given(coefficients, st.sampled_from([None, 1, 2]))
def test_shuffle_polys_drops_cancelled_terms(a, max_len):
    # (a x1 - a x2) shuffled with (x1 + x2): the words 1.2 and 2.1 cancel
    p = LinComb({(1,): a, (2,): -a})
    q = LinComb({(1,): 1, (2,): Fraction(1)})
    expected = {} if max_len == 1 else {(1, 1): 2 * a, (2, 2): -2 * a}
    assert shuffle_polys(p, q, max_len) == expected


id_multisets = st.lists(st.integers(0, 59), max_size=5).map(tuple)


def stored_key(ids: tuple) -> int:
    """Record the multiset `ids` in the key store one id at a time, in the
    order given, as the coproduct table does; return its key."""
    key, merged = 1, ()
    for i in ids:
        key *= lincomb.prime(i)
        merged = lincomb.intern_with(merged, i, key)
    assert merged == tuple(sorted(ids))
    return key


@FIXED
@given(id_multisets, id_multisets)
def test_prime_product_keys_are_exact(a, b):
    key_a, key_b = stored_key(a), stored_key(b)
    merged = tuple(sorted(a + b))
    assert key_a == lincomb.key_of(a) and key_b == lincomb.key_of(b)
    assert key_a * key_b == lincomb.key_of(merged)
    assert (key_a == key_b) == (sorted(a) == sorted(b))
    if a or b:  # the store holds the monomials the algebra meets, never the unit 1
        # a product key records (or finds) the sorted merge of its operands' ids
        assert lincomb._key_mul({key_a: 1}, {key_b: 1}) == {key_a * key_b: 1}
        assert lincomb.ids_of(key_a * key_b) == merged


def test_prime_product_keys_are_injective_on_small_multisets():
    multisets = [ids for n in range(4) for ids in combinations_with_replacement(range(40), n)]
    assert len({lincomb.key_of(ids) for ids in multisets}) == len(multisets) == 12341


@pytest.mark.parametrize("m", [1, 2])
@settings(FIXED, max_examples=40)
@given(st.data())
def test_composition_products_match_a_per_word_fraction_fold(m, data):
    """The products step shared prefixes once on ints; the reference folds each
    word alone on Fractions.  The left factor of compose and mod_compose is not
    square, and max_len is below the factors' truncation 5 or None (all of it)."""
    c = data.draw(suffix_sharing_series(m + 1, m, 5), label="c")
    square = data.draw(suffix_sharing_series(m, m, 5), label="square")
    d = data.draw(square_series(m, 5), label="d")
    max_len = data.draw(st.one_of(st.none(), st.integers(0, 4)), label="max_len")
    length = 5 if max_len is None else max_len
    assert compose(c, d, max_len) == reference_compose(c, d, length, False)
    assert mod_compose(c, d, max_len) == reference_compose(c, d, length, True)
    shifted = d.truncated(length)
    assert hat_compose(square, d, max_len) == add(
        shifted, reference_compose(square, d, length, False))
    assert group_product(square, d, max_len) == add(
        shifted, reference_compose(square, d, length, True))


@pytest.mark.parametrize("m", [1, 2])
@settings(FIXED, max_examples=25)
@given(st.data())
def test_group_product_is_associative(m, data):
    length = data.draw(st.integers(0, 4), label="length")
    c, d, e = (data.draw(square_series(m, length)) for _ in range(3))
    lhs = group_product(group_product(c, d), e)
    rhs = group_product(c, group_product(d, e))
    assert lhs.coeffs == rhs.coeffs


@pytest.mark.parametrize("m, length", [(m, n) for m in (1, 2) for n in range(5)])
@settings(FIXED, max_examples=10)
@given(st.data())
def test_fixed_point_inverse_matches_antipode_inverse(m, length, data):
    c = data.draw(square_series(m, length))
    inv = group_inverse(c)
    assert inv.coeffs == antipode_inverse(c).coeffs
    assert group_product(c, inv).is_zero()


def assert_canonical(x: Series) -> None:
    """x is in the one int form, its Fraction view agrees with it, and the
    constructor rebuilds it field for field."""
    assert x.den > 0 and gcd(x.den, *x.nums.values()) == 1
    assert all(type(n) is int and n for n in x.nums.values())
    assert x.coeffs == {key: Fraction(n, x.den) for key, n in x.nums.items()}
    assert list(x.coeffs) == list(x.nums)
    assert all(type(v) is Fraction for v in x.coeffs.values())
    rebuilt = Series(x.ell, x.m, x.max_len, x.coeffs)
    assert rebuilt == x and repr(rebuilt) == repr(x)
    assert (rebuilt.den, rebuilt.nums) == (x.den, x.nums)


@pytest.mark.parametrize("m", [1, 2])
@settings(FIXED, max_examples=40)
@given(st.data())
def test_every_series_operation_returns_the_canonical_form(m, data):
    length = data.draw(st.integers(0, 3), label="length")
    c, d = (data.draw(square_series(m, length)) for _ in range(2))
    factor = data.draw(st.one_of(st.just(0), coefficients), label="factor")
    cut = data.draw(st.integers(0, length + 1), label="cut")
    results = [c, d, add(c, d), add(c, -c), c.truncated(cut), c.scaled(factor), -c,
               shuffle_product(c, d), compose(c, d), mod_compose(c, d), hat_compose(c, d),
               group_product(c, d), group_inverse(c)]
    for x in results:
        assert_canonical(x)
    # two routes to one value give one form
    assert c.scaled(2).scaled("1/2") == c
    assert add(c, d) == add(d, c) and add(c, -c) == Series(m, m, length)
    assert -(-c) == c.scaled(-1).scaled(-1) == c
    if factor:
        assert c.scaled(factor).scaled(1 / Fraction(factor)) == c
    assert group_product(c, group_inverse(c)) == Series(m, m, length)
