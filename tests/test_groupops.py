import random
import re
from fractions import Fraction
from itertools import product as iter_product

import pytest

from circletree.coordmaps import CoordMap, reduced_delta
from circletree.groupops import (
    Character,
    antipode_inverse,
    compose,
    convolve,
    group_inverse,
    group_product,
    hat_compose,
    mod_compose,
)
from circletree.lincomb import LinComb
from circletree.series import Series, add, zero_series
import suites
from oracles import channel_poly, shuffle_polys


def series(coeffs, ell=1, m=2, max_len=4):
    return Series(ell, m, max_len, coeffs)


def rand_series(rng, ell, m, max_len, word_len=2):
    return suites.random_series(rng, ell, m, max_len, word_len)


# ---------------------------------------------------------------------------
# cascade product


def test_compose_constant_left():
    c = series({(1, ()): Fraction(5, 3)})
    d = series({(1, (1,)): 1, (2, ()): 2}, ell=2)
    assert compose(c, d).coeffs == c.coeffs


def test_compose_single_letter():
    c = series({(1, (2,)): 1})
    d = series({(2, (1,)): 1, (2, ()): -2, (1, (0,)): 1}, ell=2)
    # one homomorphism step: integrator-prefix the matching channel
    assert compose(c, d).coeffs == {(1, (0, 1)): 1, (1, (0,)): -2}


def oracle_compose_word(word, d, max_len):
    """Independent right-to-left expansion of the cascade homomorphism."""
    acc = LinComb({(): 1})
    for letter in reversed(word):
        d_i = LinComb({(): 1}) if letter == 0 else channel_poly(d, letter)
        shuffled = shuffle_polys(d_i, acc, max_len - 1)
        acc = LinComb({(0,) + w: v for w, v in shuffled.items()})
    return acc


def test_compose_two_letters_against_oracle():
    d = Series(2, 2, 4, {(1, (2,)): 1, (1, ()): Fraction(1, 2), (2, (1, 1)): -1})
    c = series({(1, (1, 2)): 1})
    expected = oracle_compose_word((1, 2), d, 4)
    got = compose(c, d)
    assert channel_poly(got, 1) == expected


def test_compose_random_against_oracle():
    rng = random.Random(12)
    for _ in range(10):
        c = rand_series(rng, 1, 2, 4)
        d = rand_series(rng, 2, 2, 4)
        expected = LinComb()
        for (ch, word), coeff in c.coeffs.items():
            expected.add_comb(oracle_compose_word(word, d, 4), coeff)
        assert channel_poly(compose(c, d), 1) == expected


def test_compose_linear_in_left_argument():
    rng = random.Random(8)
    for _ in range(5):
        a = rand_series(rng, 1, 2, 4)
        b = rand_series(rng, 1, 2, 4)
        d = rand_series(rng, 2, 2, 4)
        lhs = compose(add(a, b), d)
        rhs = add(compose(a, d), compose(b, d))
        assert lhs.coeffs == rhs.coeffs
    # the right argument is not linear: a two-letter word is quadratic in it
    c = series({(1, (1, 1)): 1})
    d1 = series({(1, ()): 1}, ell=2)
    two = add(d1, d1)
    assert compose(c, two).coeffs != add(compose(c, d1), compose(c, d1)).coeffs


def test_compose_with_zero_right_keeps_integrator_powers():
    c = series({(1, ()): 2, (1, (1,)): 1, (1, (0,)): 1, (1, (0, 0)): 1, (1, (1, 2)): 1})
    z = zero_series(2, 2, 4)
    assert compose(c, z).coeffs == {(1, ()): 2, (1, (0,)): 1, (1, (0, 0)): 1}


# ---------------------------------------------------------------------------
# modified cascade product


def test_mod_compose_with_zero_is_identity():
    rng = random.Random(3)
    for _ in range(5):
        c = rand_series(rng, 1, 2, 4)
        assert mod_compose(c, zero_series(2, 2, 4)).coeffs == c.coeffs


def test_mod_compose_prepend_identity():
    assert suites.check_mod_compose_identities(trials=15) == 15


def test_mod_compose_differs_from_shifted_cascade():
    # mod_compose is not "left factor plus cascade": cross terms appear
    c = series({(1, (1, 1)): 1}, m=1)
    d = Series(1, 1, 4, {(1, ()): 1})
    plain = compose(c, d)
    modified = mod_compose(c, d)
    assert modified.coeffs != add(c, plain).coeffs


# ---------------------------------------------------------------------------
# shifted cascade and group product


def test_hat_compose_examples():
    d = series({(1, (1,)): 1, (2, (0,)): 2}, ell=2)
    assert hat_compose(zero_series(2, 2, 4), d).coeffs == d.coeffs
    c = series({(1, (1,)): 1, (1, (0,)): 1}, ell=2, m=2)
    c = Series(2, 2, 4, dict(c.coeffs))
    z = zero_series(2, 2, 4)
    assert hat_compose(c, z).coeffs == {(1, (0,)): 1}
    # definitional split
    got = hat_compose(c, d)
    assert got.coeffs == add(d, compose(c, d)).coeffs


def test_hat_compose_refuses_a_left_factor_of_other_outputs():
    """d + compose(c, d) adds two series of c's and d's shapes, so their output
    counts must agree; the refusal comes before any work."""
    c = Series(1, 2, 2, {(1, (1,)): 1})
    d = Series(2, 2, 2, {(1, ()): 1, (2, (2,)): 1})
    with pytest.raises(ValueError, match=re.escape("series shape mismatch: (2,2) vs (1,2)")):
        hat_compose(c, d)


def test_group_product_worked_example():
    c = Series(2, 2, 4, {(1, (2,)): 1})
    d = Series(2, 2, 4, {(2, (1,)): 1})
    assert group_product(c, d).coeffs == {
        (1, (2,)): Fraction(1), (1, (0, 1)): Fraction(1), (2, (1,)): Fraction(1)}


def test_group_identity_element():
    rng = random.Random(31)
    z = zero_series(2, 2, 4)
    for _ in range(5):
        c = rand_series(rng, 2, 2, 4)
        assert group_product(c, z).coeffs == c.coeffs
        assert group_product(z, c).coeffs == c.coeffs


def test_group_axioms_randomized():
    assert suites.check_group_axioms(trials=8) == 8


# ---------------------------------------------------------------------------
# inversion: fixed point by default, antipode evaluation as the reference

INVERSES = (group_inverse, antipode_inverse)


def test_inverse_of_zero():
    for invert in INVERSES:
        assert invert(zero_series(2, 2, 3)).is_zero()


def test_inverse_low_order_coefficients():
    rng = random.Random(77)
    for _ in range(5):
        c = rand_series(rng, 2, 2, 3)
        inv = group_inverse(c)
        for i in (1, 2):
            for j in (1, 2):
                assert inv.coeff(i, (j,)) == -c.coeff(i, (j,))
            expected = -c.coeff(i, (0,)) + sum(
                c.coeff(i, (n,)) * c.coeff(n, ()) for n in (1, 2))
            assert inv.coeff(i, (0,)) == expected


def test_inverse_cancels_in_the_group():
    c = Series(2, 2, 4, {(1, (2,)): 1, (2, (1, 1)): Fraction(1, 2), (2, ()): -1})
    inv = group_inverse(c)
    assert group_product(c, inv).is_zero()
    assert group_product(inv, c).is_zero()
    assert inv.coeffs == antipode_inverse(c).coeffs


def test_inverse_to_a_shorter_length_is_the_truncated_inverse():
    rng = random.Random(5)
    for _ in range(4):
        c = rand_series(rng, 2, 2, 4, word_len=4)
        full = group_inverse(c).truncated(2)
        for invert in INVERSES:
            short = invert(c, max_len=2)
            assert short.max_len == 2
            assert short.coeffs == full.coeffs, invert.__name__


@pytest.mark.parametrize("length", [8, 10])
def test_deep_inverse_cancels_and_truncates(length):
    """The rounds run at growing length; at depth the inverse still cancels on
    both sides, and inverting to a shorter length truncates it."""
    c = rand_series(random.Random(3), 2, 2, length)  # an inverse of 1461 and 7969 terms
    inv = group_inverse(c)
    assert inv.max_len == length
    assert group_product(c, inv) == zero_series(2, 2, length)
    assert group_product(inv, c) == zero_series(2, 2, length)
    for n in range(9):
        assert group_inverse(c, n) == inv.truncated(n), n


def test_inverse_needs_enough_truncation():
    c = Series(2, 2, 2, {(1, (2,)): 1})
    for invert in INVERSES:
        with pytest.raises(ValueError):
            invert(c, max_len=3)
        with pytest.raises(ValueError):
            invert(Series(1, 2, 2, {}))
        with pytest.raises(ValueError):
            invert(c, max_len=-1)


def test_products_refuse_a_length_beyond_their_factors():
    """Words past a factor's truncation are unknown, so no product can be
    truncated above min(c.max_len, d.max_len); at or below it nothing moves."""
    c = Series(1, 1, 1, {(1, (1,)): 1})
    d = Series(1, 1, 1, {(1, ()): 1})
    for product in (compose, mod_compose, hat_compose, group_product):
        with pytest.raises(ValueError, match="known to length 1"):
            product(c, d, 4)
        with pytest.raises(ValueError, match="known to length 1"):
            product(c.truncated(4), d, 2)
        natural = product(c, d)
        assert natural.max_len == 1
        assert product(c, d, 1) == natural
        assert product(c, d, 0) == natural.truncated(0)
    rng = random.Random(11)
    for _ in range(4):
        a, b = rand_series(rng, 2, 2, 4), rand_series(rng, 2, 2, 3)
        for product in (compose, mod_compose, hat_compose, group_product):
            full = product(a, b)
            assert full.max_len == 3
            assert product(a, b, 3) == full
            assert product(a, b, 2) == full.truncated(2), product.__name__
            with pytest.raises(ValueError):
                product(a, b, 4)


def test_products_refuse_a_negative_length():
    c = Series(1, 1, 2, {(1, ()): 1, (1, (1,)): 1})
    d = Series(1, 1, 2, {(1, ()): 1})
    # coprime denominators: at length 0 the right factor's does not divide the left's
    thirds = Series(1, 1, 2, {(1, ()): Fraction(1, 3), (1, (1,)): 1})
    halves = Series(1, 1, 2, {(1, ()): Fraction(1, 2), (1, (0,)): Fraction(1, 2)})
    for c, d in ((c, d), (thirds, halves)):
        for product in (compose, mod_compose, hat_compose, group_product):
            with pytest.raises(ValueError, match="negative length -1"):
                product(c, d, -1)
            assert product(c, d, 0) == product(c, d).truncated(0)
        assert hat_compose(c, d, 0) == add(d, compose(c, d, 0))
        assert group_product(c, d, 0) == add(d, mod_compose(c, d, 0))


# ---------------------------------------------------------------------------
# characters, convolution, derivation-like functionals


def test_character_evaluation():
    c = Series(2, 2, 3, {(1, (0, 1)): Fraction(3, 2), (2, ()): 2})
    phi = Character(c)
    assert phi(LinComb({(): 1})) == 1
    assert phi(CoordMap(1, (0, 1))) == Fraction(3, 2)
    mono = tuple(sorted((CoordMap(1, (0, 1)), CoordMap(2, ()))))
    assert phi(mono) == 3
    with pytest.raises(ValueError):
        phi(CoordMap(1, (1, 1, 1, 1)))


def test_character_sums_a_polynomial_exactly():
    c = Series(2, 2, 2, {(1, (0,)): Fraction(3, 2), (2, ()): Fraction(1, 3), (1, ()): 5})
    phi = Character(c)
    a, b, z = CoordMap(1, (0,)), CoordMap(2, ()), CoordMap(2, (1,))
    assert phi(LinComb()) == 0
    assert phi(LinComb({(): Fraction(1, 7)})) == Fraction(1, 7)
    poly = LinComb({(a,): 2, tuple(sorted((a, b, b))): Fraction(-3, 4), (b,): 1,
                    (): Fraction(1, 2), (z, z): 9})
    assert phi(poly) == 3 - Fraction(3, 4) * Fraction(3, 2) / 9 + Fraction(1, 3) + Fraction(1, 2)
    assert phi(poly) == sum(k * phi(mono) for mono, k in poly.items())
    # a map past the truncation raises as it does alone, and the first bad map first
    past = CoordMap(1, (0, 1, 1))
    message = "word (0, 1, 1) exceeds the series truncation 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        phi(LinComb({(a,): 1, (past,): 2}))
    with pytest.raises(ValueError, match="exceeds the series truncation"):
        phi(LinComb({(past,): 1, (CoordMap(3, ()),): 1}))
    # no factor past a zero one is read
    zero, beyond = CoordMap(1, (1,)), CoordMap(1, (2, 2, 2))
    assert (zero, beyond) == tuple(sorted((zero, beyond)))
    assert phi(LinComb({(zero, beyond): 1, (a,): 2})) == 3


def test_convolve_on_empty_word_map():
    rng = random.Random(9)
    c = rand_series(rng, 2, 2, 3)
    d = rand_series(rng, 2, 2, 3)
    for i in (1, 2):
        got = convolve(Character(c), Character(d), CoordMap(i, ()))
        assert got == c.coeff(i, ()) + d.coeff(i, ())


def test_convolve_worked_example():
    c = Series(2, 2, 4, {(1, (2,)): 1})
    d = Series(2, 2, 4, {(2, (1,)): 1})
    assert convolve(Character(c), Character(d), CoordMap(1, (0, 1))) == 1


def test_convolve_rejects_letters_above_the_alphabet():
    c = Series(1, 1, 2, {(1, (0,)): 1, (1, ()): 2})
    with pytest.raises(ValueError, match="above m=1"):
        convolve(Character(c), Character(c), CoordMap(1, (5,)))


def test_convolve_matches_group_product():
    assert suites.check_convolution(trials=6) == 6


def test_convolution_inverse_is_neutral():
    c = Series(2, 2, 3, {(1, (1,)): 1, (2, ()): Fraction(1, 2), (2, (0,)): -1})
    inv = group_inverse(c)
    phi, psi = Character(c), Character(inv)
    for n in range(0, 3):
        for word in iter_product(range(3), repeat=n):
            for i in (1, 2):
                assert convolve(phi, psi, CoordMap(i, word)) == 0


# ---------------------------------------------------------------------------
# coproduct ladder vs products, on the honest pairing


def test_reduced_delta_pairing_matches_shifted_difference():
    """Pairing the reduced coproduct gives mod_compose minus the left factor."""
    rng = random.Random(41)
    for _ in range(5):
        c = rand_series(rng, 2, 2, 3)
        d = rand_series(rng, 2, 2, 3)
        phi, psi = Character(c), Character(d)
        target = add(mod_compose(c, d), -c)
        for n in range(0, 3):
            for word in iter_product(range(3), repeat=n):
                for i in (1, 2):
                    total = Fraction(0)
                    for (left, right), coeff in reduced_delta(CoordMap(i, word), 2).items():
                        total += coeff * phi.eval_monomial(left) * psi.eval_monomial(right)
                    assert total == target.coeff(i, word)
