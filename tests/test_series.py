import pickle
import re
import sys
import time
from fractions import Fraction

import pytest

from circletree.lincomb import format_rational, parse_rational
from circletree.series import (
    Series,
    add,
    dumps_json,
    format_series,
    left_concat,
    loads_json,
    parse_series,
    shuffle_product,
    zero_series,
)


def S1(coeffs, max_len=4, m=2):
    return Series(1, m, max_len, coeffs)


def test_add_examples():
    a = S1({(1, (1,)): 1})
    b = S1({(1, (2,)): 1})
    assert add(a, b).coeffs == {(1, (1,)): 1, (1, (2,)): 1}
    assert add(a, zero_series(1, 2, 4)).coeffs == a.coeffs
    c = S1({(1, ()): 2})
    d = S1({(1, ()): -2})
    assert add(c, d).is_zero()


def test_add_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        add(S1({}), Series(2, 2, 4, {}))


def test_shuffle_examples():
    a = S1({(1, (1,)): 1})
    b = S1({(1, (2,)): 1})
    assert shuffle_product(a, b).coeffs == {(1, (1, 2)): 1, (1, (2, 1)): 1}
    unit = S1({(1, ()): 1})
    c = S1({(1, (0, 1)): Fraction(3, 2), (1, ()): -1})
    assert shuffle_product(unit, c).coeffs == c.coeffs
    x0 = S1({(1, (0,)): 1})
    assert shuffle_product(x0, x0).coeffs == {(1, (0, 0)): 2}


def test_left_concat_examples():
    assert left_concat(0, S1({(1, (1,)): 1})).coeffs == {(1, (0, 1)): 1}
    assert left_concat(1, zero_series(1, 2, 4)).is_zero()
    got = left_concat(0, S1({(1, ()): 1, (1, (2,)): 1}))
    assert got.coeffs == {(1, (0,)): 1, (1, (0, 2)): 1}
    # words that would exceed the truncation are dropped
    tight = Series(1, 2, 1, {(1, (1,)): 1, (1, ()): 1})
    assert left_concat(0, tight).coeffs == {(1, (0,)): 1}


def test_shuffle_commutative_associative_on_series():
    import random

    import suites
    rng = random.Random(23)
    for _ in range(10):
        a = suites.random_series(rng, 1, 2, 6, word_len=3, terms=3)
        b = suites.random_series(rng, 1, 2, 6, word_len=3, terms=3)
        c = suites.random_series(rng, 1, 2, 6, word_len=3, terms=3)
        assert shuffle_product(a, b).coeffs == shuffle_product(b, a).coeffs
        left = shuffle_product(shuffle_product(a, b), c)
        right = shuffle_product(a, shuffle_product(b, c))
        assert left.coeffs == right.coeffs


def test_truncation_is_monotone():
    a = S1({(1, (0, 1)): 1, (1, (2,)): 1}, max_len=4)
    b = S1({(1, (1, 1)): 1, (1, ()): 1}, max_len=4)
    wide = shuffle_product(a, b)
    narrow = shuffle_product(a.truncated(2), b.truncated(2))
    assert wide.truncated(2).coeffs == narrow.coeffs


def test_constructor_validation():
    with pytest.raises(ValueError):
        Series(1, 2, 4, {(2, ()): 1})  # channel out of range
    with pytest.raises(ValueError):
        Series(1, 2, 4, {(1, (3,)): 1})  # letter out of range
    with pytest.raises(ValueError):
        Series(1, 2, 1, {(1, (1, 1)): 1})  # word too long
    for shape in ((0, 2, 4), (1, 0, 4), (0, 0, 2), (1, 2, -1)):
        with pytest.raises(ValueError, match="series shape"):
            Series(*shape)  # no output, no letter x_1, or a negative truncation
    with pytest.raises(ValueError, match="cannot truncate to the negative length -1"):
        Series(1, 1, 2, {(1, (0,)): 1}).truncated(-1)  # nor a cut to a negative length
    assert Series(1, 2, 4, {(1, (1,)): 0}).is_zero()
    assert Series(1, 1, 0).is_zero()


def test_series_value_semantics():
    a = Series(1, 2, 4, {(1, (0, 1)): "1/2", (1, (2,)): 3})
    assert a == Series(ell=1, m=2, max_len=4, coeffs={(1, (0, 1)): Fraction(1, 2), (1, (2,)): 3})
    assert a != Series(1, 2, 5, dict(a.coeffs))
    assert Series(1, 2, 4) == zero_series(1, 2, 4)
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.max_len = 5


def test_coeffs_is_a_read_only_view():
    a = Series(1, 2, 2, {(1, (1,)): 1, (1, ()): Fraction(-1, 2)})
    text = repr(a)
    with pytest.raises(TypeError):
        a.coeffs[(1, (1,))] = 5
    with pytest.raises(TypeError):
        del a.coeffs[(1, ())]
    assert repr(a) == text == ("Series(ell=1, m=2, max_len=2, "
                               "coeffs={(1, (1,)): Fraction(1, 1), (1, ()): Fraction(-1, 2)})")
    assert pickle.loads(pickle.dumps(a)) == a
    assert a.coeffs == {(1, (1,)): 1, (1, ()): Fraction(-1, 2)}


def test_derived_series_pass_the_constructor_checks():
    """Results built without re-validation equal their validated rebuild."""
    from circletree.groupops import compose, group_inverse, group_product, mod_compose

    c = Series(2, 2, 3, {(1, (1,)): 1, (1, (0, 2)): Fraction(-1, 2), (2, ()): 2, (2, (2, 1)): 1})
    d = Series(2, 2, 3, {(1, (2,)): Fraction(1, 3), (2, (1,)): -1, (2, (0,)): 1})
    for x in (c.truncated(2), c.truncated(5), c.scaled(0), c.scaled("2/3"), -c,
              add(c, d), add(c, -c), compose(c, d), mod_compose(c, d),
              group_product(c, d), group_inverse(c)):
        assert Series(x.ell, x.m, x.max_len, x.coeffs) == x
        assert all(type(v) is Fraction and v for v in x.coeffs.values())
    assert add(c, -c).coeffs == {}


def test_text_roundtrip():
    a = Series(2, 2, 3, {(1, (0, 1)): Fraction(-3, 2), (2, ()): 2, (1, (2,)): 1})
    text = format_series(a)
    assert "1 0.1 -3/2" in text.splitlines()
    back = parse_series(text, ell=2, m=2, max_len=3)
    assert back.coeffs == a.coeffs
    inferred = parse_series(text)
    assert inferred.coeffs == a.coeffs
    assert inferred.ell == 2 and inferred.m == 2 and inferred.max_len == 2


def test_text_skips_comments_and_blank_lines(tmp_path):
    plain = tmp_path / "plain.series"
    noted = tmp_path / "noted.series"
    plain.write_text("1 1 1\n2 0.2 -1/2\n")
    noted.write_text("# a two-channel series\n\n1 1 1\n   \n  # the second channel\n"
                     "2 0.2 -1/2\n\n")
    assert parse_series(noted.read_text()) == parse_series(plain.read_text())


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        parse_series("1 0.1")
    with pytest.raises(ValueError):
        parse_series("1 0.9 1", m=2)


def test_a_zero_denominator_is_a_value_error_naming_the_text():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_series("1 e 1/0")
    doc = ('{"ell": 1, "m": 1, "max_len": 0, '
           '"terms": [{"channel": 1, "word": "e", "coeff": "3/0"}]}')
    with pytest.raises(ValueError, match="zero denominator in '3/0'"):
        loads_json(doc)


def test_an_exponent_past_the_digit_limit_is_refused_before_parsing():
    limit = sys.get_int_max_str_digits()
    for text in ("1e5000", "1E-5000", "2.5e+0_0005_000", "1e4000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent of .* exceeds"):
            parse_rational(text)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exponent of '1e4000000' exceeds {limit} in magnitude"):
        parse_series("1 e 1e4000000")
    assert time.perf_counter() - start < 0.5
    assert parse_rational("1e-3") == Fraction(1, 1000)
    assert parse_rational("2.5E2") == 250
    assert parse_rational(f"1e{limit}") == 10 ** limit  # the limit itself still parses
    with pytest.raises(ValueError, match="exponent of .* exceeds"):
        loads_json('{"ell": 1, "m": 1, "max_len": 0, '
                   '"terms": [{"channel": 1, "word": "e", "coeff": "1e5000"}]}')


def test_a_coefficient_past_the_digit_limit_names_its_place():
    limit = sys.get_int_max_str_digits()
    big = Series(2, 1, 1, {(1, ()): 1, (2, (0,)): Fraction(10 ** limit, 3)})
    message = (f"the coefficient of channel 2, word 0 exceeds the limit ({limit} digits) "
               "for integer string conversion")
    for write in (format_series, dumps_json):
        with pytest.raises(ValueError, match=re.escape(message)):
            write(big)
    with pytest.raises(ValueError, match=re.escape(f"a[1;e] exceeds the limit ({limit} digits)")):
        format_rational(-10 ** limit, "a[1;e]")
    assert format_rational(Fraction(10 ** limit - 1, 7)) == f"{10 ** limit - 1}/7"


def test_json_roundtrip():
    a = Series(2, 2, 3, {(1, (0, 1)): Fraction(-3, 2), (2, (1,)): 1})
    back = loads_json(dumps_json(a))
    assert back == a


def test_dumps_json_writes_the_bytes_of_the_indented_encoder():
    import json
    import random

    from circletree.series import series_to_doc

    rng = random.Random(41)
    cases = [zero_series(1, 1, 0), zero_series(3, 2, 4), Series(1, 1, 0, {(1, ()): -7})]
    for _ in range(60):
        ell, m = rng.randint(1, 3), rng.randint(1, 3)
        max_len = rng.randint(0, 4)
        coeffs = {}
        for _ in range(rng.randint(0, 8)):
            word = tuple(rng.randint(0, m) for _ in range(rng.randint(0, max_len)))
            coeffs[(rng.randint(1, ell), word)] = Fraction(rng.randint(-40, 40),
                                                           rng.randint(1, 12))
        cases.append(Series(ell, m, max_len, coeffs))
    assert any(v < 0 for c in cases for v in c.coeffs.values())
    assert any(v.denominator > 1 for c in cases for v in c.coeffs.values())
    for c in cases:
        assert dumps_json(c) == json.dumps(series_to_doc(c), indent=2)
    assert '"terms": []' in dumps_json(cases[0])


@pytest.mark.parametrize("doc, message", [
    ([], "must be a JSON object, not list"),
    ({"ell": 1, "m": 1, "max_len": 1, "terms": {}}, "'terms' must be a JSON array"),
    ({"ell": 1, "m": 1, "max_len": 1, "terms": [3]}, "term must be a JSON object, not 3"),
    ({"ell": 1, "m": 1, "max_len": 1, "terms": [{"channel": 1, "word": "1", "coeff": 2}]},
     "'coeff' must be a JSON string, not 2"),
    ({"ell": 1, "m": 1, "max_len": 1, "terms": [{"channel": "1", "word": "1", "coeff": "2"}]},
     "'channel' must be a JSON integer"),
    ({"ell": 1, "m": 1, "max_len": 1, "terms": [{"channel": 1, "word": 1, "coeff": "2"}]},
     "'word' must be a JSON string"),
    ({"ell": True, "m": 1, "max_len": 1, "terms": []}, "'ell' must be a JSON integer"),
    ({"ell": 1, "m": 1.0, "max_len": 1, "terms": []}, "'m' must be a JSON integer"),
])
def test_json_rejects_wrongly_typed_documents(doc, message):
    import json

    with pytest.raises(ValueError, match=message):
        loads_json(json.dumps(doc))


def test_shuffle_product_passes_the_constructor_checks():
    """The unchecked result of shuffle_product equals its validated rebuild,
    with Fraction values also where every coefficient is an integer."""
    a = Series(2, 2, 3, {(1, (1,)): 2, (1, (0,)): -1, (2, ()): 3})
    b = Series(2, 2, 2, {(1, (2,)): 1, (1, ()): 1, (2, (1, 1)): Fraction(1, 2)})
    for x, y in ((a, a), (a, b), (b, a), (a, -a)):
        got = shuffle_product(x, y)
        assert got.max_len == min(x.max_len, y.max_len)
        assert Series(got.ell, got.m, got.max_len, got.coeffs) == got
        assert all(type(v) is Fraction and v for v in got.coeffs.values())
