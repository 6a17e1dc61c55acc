"""Composition products on series and the output-feedback group.

Four products, all exact and all closed under length truncation:

* compose:      cascade of two series operators;
* mod_compose:  cascade against an identity-shifted right factor;
* hat_compose:  identity-shifted left factor (right factor plain);
* group_product: both factors shifted -- the feedback group product.

The cascade homomorphism treats the integrator channel of the right
factor as the constant 1; the modified one treats it as 0.  Every product
reads and writes the int numerators over one denominator that `Series`
stores, in one pass that ends in one canonical form.  Each channel of
the left factor is folded in one Horner pass over the prefixes of its
words, longest first, so a prefix that several words share is stepped
once; the partial image under a prefix is cut at the length the prefix
leaves, and each shuffle adds its integrator-prefixed words straight
into the parent prefix's image.  hat_compose and group_product fold the
right factor's numerators into those totals, so the sum d + product is
put in canonical form once, with no Fraction built.  Group inversion
solves the fixed point d = mod_compose(-c, d) one length per round, each
round a product at its own length; antipode evaluation, the paper's
route, is kept as the reference `antipode_inverse`.  Convolution reads
the memoized feedback-coproduct id terms of `coordmaps` directly (one
`GENS` lookup per left map, one `decode_key` per right leg) and sums their
numerators in one pass over one denominator, phi's times psi's to
the power one more than the map's integrator letters, so it builds one
Fraction, its value.  Characters read numerators too: a monomial's value
is the product of its factors' numerators over the matching power of the
denominator, one Fraction, the edge where a caller reads one coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import lcm
from typing import NamedTuple

from .coordmaps import CoordMap, _tilde_items, antipode, format_coord_map
from .series import Series, _require_same_shape, channel_nums, from_nums, zero_series
from .trees import GENS, decode_key
from .words import by_length, shuffle_into


def _require_composable(c: Series, d: Series) -> None:
    if d.ell != d.m:
        raise ValueError("right factor must be square (ell == m)")
    if c.m != d.m:
        raise ValueError(f"alphabet mismatch: left m={c.m}, right m={d.m}")


def _target_length(max_len: int | None, known: int, verb: str) -> int:
    """max_len, or `known` if None; refused below 0 or above `known`."""
    length = known if max_len is None else max_len
    if length < 0:
        raise ValueError(f"cannot {verb} to the negative length {length}")
    if length > known:
        raise ValueError(f"cannot {verb} to length {length} from series known to length {known}")
    return length


def _channel_image(words: dict, d_ints: dict, den: int, length: int,
                   modified: bool) -> dict:
    """den**length times the image of one channel {word: numerator} of the left
    factor under the (modified) cascade homomorphism applied to 1; d_ints[i] is
    den times channel i of the right factor, its words in order of length.

    A Horner pass over the prefixes p of the words, longest first: T(p) =
    c_p * den**(length - |p|) + sum over letters a of step_a(T(p.a)), and the
    image is T(()).  The step on T(p.a) reads only the letter a: it prepends a
    (times den) where the cascade keeps the letter, and prefixes the integrator
    letter to the shuffle with d_a.  A step adds one letter, so T(p) is read
    only up to length - |p|, and each shuffle stops there.  Shuffled words
    start with the integrator letter, which never prepends where a shuffle
    happens, so the two parts never share a word.
    """
    levels: list = [{} for _ in range(length + 1)]  # levels[n]: T(p) for |p| == n
    for word, k in words.items():
        if len(word) <= length:  # a longer word's image has only longer words
            levels[len(word)][word] = {(): k * den ** (length - len(word))}
    for n in range(length, 0, -1):
        cap = length - n
        parents = levels[n - 1]
        for prefix, acc in levels[n].items():
            if 0 in acc.values():  # words that cancelled are carried no further
                acc = {w: k for w, k in acc.items() if k}
                if not acc:
                    continue
            letter, parent = prefix[-1], prefix[:-1]
            out = parents.get(parent)
            if out is None:
                out = parents[parent] = {}
            get = out.get
            if modified or letter == 0:  # the plain cascade maps x_0 to x_0 . 1
                for w, k in acc.items():
                    key = (letter,) + w
                    out[key] = get(key, 0) + den * k
            d_a = d_ints.get(letter)  # the integrator letter has no channel: no key 0
            if d_a:
                shuffle_into(out, acc, d_a, cap, (0,))
    return levels[0].get((), {})


def _compose_impl(c: Series, d: Series, modified: bool, max_len: int | None,
                  plus_right: bool = False) -> Series:
    """The (modified) cascade product, plus d itself if plus_right."""
    _require_composable(c, d)
    length = _target_length(max_len, min(c.max_len, d.max_len), "compose")
    if plus_right:
        _require_same_shape(d, c)  # refused before any work, as `add` words it
    d = d.truncated(length)  # its least denominator keeps the folded ints small
    den = d.den
    d_ints = {ch: by_length(p) for ch, p in channel_nums(d).items()}
    # every word of length n <= length is scaled by den**(length - n) on top of
    # its den**n, so each channel sums over the one denominator c.den * den**length
    totals = {(ch, w): k
              for ch, words in channel_nums(c).items()
              for w, k in _channel_image(words, d_ints, den, length, modified).items()}
    total_den = c.den * den ** length
    if plus_right:
        # d + product over one denominator: den divides total_den unless
        # length is 0, where total_den is c.den
        common = lcm(total_den, den)
        if common != total_den:
            totals = {key: k * (common // total_den) for key, k in totals.items()}
        get, scale = totals.get, common // den
        for key, n in d.nums.items():
            totals[key] = get(key, 0) + scale * n
        total_den = common
    return from_nums(c.ell, c.m, length, totals, total_den)


def compose(c: Series, d: Series, max_len: int | None = None) -> Series:
    """Cascade product: left series driven by the outputs of the right one.

    Linear in the left argument; not linear in the right one (a word of
    length k is degree-k in the right factor's channels).
    """
    return _compose_impl(c, d, modified=False, max_len=max_len)


def mod_compose(c: Series, d: Series, max_len: int | None = None) -> Series:
    """Cascade against identity + d."""
    return _compose_impl(c, d, modified=True, max_len=max_len)


def hat_compose(c: Series, d: Series, max_len: int | None = None) -> Series:
    """(identity + left) driven by the right factor: d + compose(c, d)."""
    return _compose_impl(c, d, modified=False, max_len=max_len, plus_right=True)


def group_product(c: Series, d: Series, max_len: int | None = None) -> Series:
    """Series part of the feedback-group product: d + mod_compose(c, d)."""
    if c.ell != c.m:
        raise ValueError("group elements must be square (ell == m)")
    return _compose_impl(c, d, modified=True, max_len=max_len, plus_right=True)


# ---------------------------------------------------------------------------
# characters and inversion


def _numerator(s: Series, a: CoordMap) -> int:
    """The numerator over s.den of the coefficient a picks out of s; ValueError
    if a lies outside the series.  A CoordMap is a (channel, word) tuple, so
    it is its own key."""
    if len(a.word) > s.max_len:
        raise ValueError(f"word {a.word} exceeds the series truncation {s.max_len}")
    if not 1 <= a.channel <= s.ell:
        raise ValueError(f"channel {a.channel} outside 1..{s.ell}")
    return s.nums.get(a, 0)


def _monomial_numerator(s: Series, mono) -> int:
    """The numerator over s.den**len(mono) of the product of the coefficients
    the maps of mono pick out of s; no factor past a zero one is read."""
    value = 1
    for factor in mono:
        value *= _numerator(s, factor)
        if not value:
            break
    return value


class Character(NamedTuple):
    """Multiplicative evaluation of coordinate-map polynomials at a series."""

    series: Series

    def eval_map(self, a: CoordMap) -> Fraction:
        return Fraction(_numerator(self.series, a), self.series.den)

    def eval_monomial(self, mono) -> Fraction:
        return Fraction(_monomial_numerator(self.series, mono), self.series.den ** len(mono))

    def __call__(self, poly) -> Fraction:
        if isinstance(poly, CoordMap):
            return self.eval_map(poly)
        if isinstance(poly, tuple):
            return self.eval_monomial(poly)
        # one sum over den**top, top the longest monomial, and one Fraction;
        # the monomials are read in order, so the first bad map raises first
        series = self.series
        top = max(map(len, poly), default=0)
        scale = [series.den ** (top - n) for n in range(top + 1)]  # by monomial length
        total = sum(coeff * _monomial_numerator(series, mono) * scale[len(mono)]
                    for mono, coeff in poly.items())
        return Fraction(total, scale[0])


def _inverse_length(c: Series, max_len: int | None) -> int:
    if c.ell != c.m:
        raise ValueError("group elements must be square (ell == m)")
    return _target_length(max_len, c.max_len, "invert")


def group_inverse(c: Series, max_len: int | None = None) -> Series:
    """Series part of the group inverse: the fixed point of d = -mod_compose(c, d).

    c (.) d = d + mod_compose(c, d) vanishes there (Gray & Li 2005).  Length-n
    words of mod_compose(c, d) read d only below length n, so the rounds grow
    the length: round n = 0..length takes the inverse known below n, pads it
    with zero length-n words and returns mod_compose(-c, d) at length n, exact
    there.  Each round costs one product at its own length, set by the support
    of c; mod_compose is linear in its left factor, so c is negated once.
    """
    length = _inverse_length(c, max_len)
    m = c.m
    minus_c = -c.truncated(length)
    d = zero_series(m, m, 0)
    for n in range(length + 1):
        d = mod_compose(minus_c.truncated(n), from_nums(m, m, n, d.nums, d.den), n)
    return d


def antipode_inverse(c: Series, max_len: int | None = None) -> Series:
    """Series part of the group inverse by antipode evaluation: the paper's route.

    Coefficient (i, word) is the coordinate-map antipode of a[i;word] evaluated
    at c (Gray & Duffaut Espinosa 2011), over all (m+1)^n words of each length
    n.  Kept as the reference that `group_inverse` is checked against.
    """
    length = _inverse_length(c, max_len)
    phi, m = Character(c), c.m
    words = (word for n in range(length + 1) for word in iter_product(range(m + 1), repeat=n))
    return Series(m, m, length, {(channel, word): phi(antipode(CoordMap(channel, word), m))
                                 for word in words for channel in range(1, m + 1)})


def convolve(phi: Character, psi: Character, a: CoordMap) -> Fraction:
    """Convolution of two characters on one coordinate map."""
    phi_s, psi_s = phi.series, psi.series
    m = phi_s.m
    if psi_s.m != m:
        raise ValueError("characters live over different alphabets")
    if any(letter > m for letter in a.word):
        raise ValueError(f"coordinate map {format_coord_map(a)} has a letter above m={m}")
    # the tilde terms add a right factor only where the head letter is 0, so a
    # right leg holds at most k - 1 maps and every term sums over phi's den
    # times psi's den**k
    k = a.word.count(0) + 1
    scale = [psi_s.den ** (k - n) for n in range(k + 1)]  # by right-leg length
    total = 0
    for left, right, coeff in _tilde_items(a.channel, a.word, m):
        value = _numerator(phi_s, GENS[left])
        if value:  # as eval_monomial, read no factor past a zero one
            mono = decode_key(right)
            total += coeff * value * _monomial_numerator(psi_s, mono) * scale[len(mono)]
    # the right-primitive term 1 (x) a of the full coproduct comes last, so a
    # word past psi's truncation is reported where the tilde terms meet it
    total += _numerator(psi_s, a) * phi_s.den * scale[1]
    return Fraction(total, phi_s.den * psi_s.den ** k)
